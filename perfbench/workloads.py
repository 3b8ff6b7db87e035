"""The benchmark's workloads: which experiment each runs, at what size, and
what every report it produces must show.

Each workload reproduces the shape of one acceptance criterion (C08, C10,
C12, C14) at a size that gives several verdicts in one measuring window.
Why each was chosen is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

BLOCK = 4096  # replicas per block in hardedge's replica-block parallelism


@dataclass(frozen=True)
class Workload:
    """One ``hardedge experiment`` configuration and the checks on its report.

    ``config(n)`` gives the ``--set`` keys at replica count n; ``replicas``
    counts the replicas a verdict attempts from that config.  ``pinned``
    names verdicts whose outcome does not depend on the seed, with the
    outcome; every other verdict is a statistical test that fails on a
    small share of seeds by design, so a flip is recorded, not counted as
    a failure.  ``upper`` maps statistics to limits every report must stay
    below.  ``calibration`` names the host-speed calibration (host.py) that
    matches the work the workload's dominant layer does.
    """

    name: str
    experiment: str
    config: Callable[[int], dict]
    n: int
    smoke_n: int
    replicas: Callable[[dict], int]
    dominant: str
    pinned: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    calibration: str = "numpy"

    def argv(self, seed: int, out: str, threads: int = 1, smoke: bool = False) -> list[str]:
        cfg = self.config(self.smoke_n if smoke else self.n)
        argv = ["experiment", self.experiment]
        for key, value in cfg.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        return argv + ["--seed", str(seed), "--threads", str(threads), "--out", out]

    def attempted(self, smoke: bool = False) -> int:
        return self.replicas(self.config(self.smoke_n if smoke else self.n))


def _chain_config(n: int) -> dict:
    # C12's tolerance 0.02 is calibrated for its committed n=100000; scaled by
    # sqrt(100000/n) it stays the same number of Monte-Carlo standard errors,
    # so the verdict means the same at the benchmark's size.
    return {
        "K": 1,
        "bump": [0.2, 0.8],
        "sizes": [4, 8, 16, 32],
        "n": n,
        "threshold": 0.02 * math.sqrt(100_000 / n),
    }


def _equilibrium_config(n: int) -> dict:
    return {"N": 3, "eta": 0.5, "x0": [3, 2, 1], "t_grid": [1, 5, 20], "dt": 1e-3, "n": n}


def _matrix_config(n: int) -> dict:
    return {"N": 3, "x0": [3, 2, 1], "t": 0.5, "dt": 2.5e-4, "n": n}


def _hard_edge_config(n: int) -> dict:
    # Only bins holding at least 0.4 n of the 3n tracked points are compared:
    # that is the first bin (~0.58 n points), whose Monte-Carlo relative error
    # (~4% at n=1000) sits far below the 0.15 tolerance.  With the default min_count=100 the
    # bins near that count carry ~10% error, and sup_rel_error_rescaled4 <
    # 0.15 failed on 8 of 20 seeds.
    return {
        "N": 200,
        "eta": 1,
        "bins": [round(0.07 + 0.05 * i, 2) for i in range(12)],
        "n": n,
        "min_count": int(0.4 * n),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain-kernels",
            experiment="uniform-approx",
            config=_chain_config,
            n=512,
            smoke_n=64,
            replicas=lambda c: c["n"] * len(c["sizes"]) * 2,
            dominant="kernels",
        ),
        Workload(
            name="equilibrium-relax",
            experiment="equilibrium",
            config=_equilibrium_config,
            n=256,
            smoke_n=16,
            replicas=lambda c: c["n"] * (1 + len(c["t_grid"])),
            dominant="sde",
        ),
        Workload(
            name="matrix-agreement",
            experiment="matrix-eigen-agreement",
            config=_matrix_config,
            n=256,
            smoke_n=32,
            replicas=lambda c: c["n"] * 2,
            dominant="sde",
        ),
        Workload(
            name="hard-edge",
            experiment="hard-edge-density",
            config=_hard_edge_config,
            n=1000,
            smoke_n=500,
            replicas=lambda c: c["n"],
            dominant="equilibrium",
            # C14 fails by design: the documented kernel constant 8 does not
            # match the ensemble, which follows the constant-4 kernel.
            pinned={"sup_rel_error": False},
            upper={"sup_rel_error_rescaled4": 0.15},
            calibration="tridiagonal",
        ),
    )
}


def _thread_config(n: int) -> dict:
    # equilibrium-relax's model on a shorter time grid, so that two full
    # replica blocks (the least that lets two threads share work) stay
    # within a few seconds per verdict.
    return {"N": 3, "eta": 0.5, "x0": [3, 2, 1], "t_grid": [0.1, 0.2, 0.4], "dt": 1e-3, "n": n}


THREAD_ROW = Workload(
    name="thread-row",
    experiment="equilibrium",
    config=_thread_config,
    n=2 * BLOCK,
    smoke_n=2 * BLOCK,
    replicas=lambda c: c["n"] * (1 + len(c["t_grid"])),
    dominant="sde",
)
