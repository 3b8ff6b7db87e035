"""Host speed: how fast the machine runs a kind of work right now.

A shared host's speed drifts.  On a 2-core VM the same verdict took from
1.45 to 2.65 s within minutes, in phases of tens of seconds, longer than a
run, and medians of runs half an hour apart differed by a quarter.  Raw
seconds then spread across runs by more than a 25% regression bound.  So
the benchmark times a fixed calibration in its own process just before and
just after each verdict, and reports the verdict's times divided by the
host speed: the mean of the two calibrations over the calibration's
reference time.  A slower program still reads slower; a slower host does
not.

Kinds of work slow down differently, so each workload names the calibration
that matches what its dominant layer does.  Measured on that VM, the time
of numpy-heavy work (corner chains, Euler stepping, the matrix step) moved
with the ``numpy`` calibration (log-log slope 0.6-0.94), while the
per-replica tridiagonal Laguerre sampler barely moved with it (slope 0.28)
but moved with the ``tridiagonal`` calibration (slope 1.02).

The calibrations run only numpy and scipy, never hardedge, so no change to
the program can move them.
"""

from __future__ import annotations

import os
import time

# One BLAS thread, here and in the verdict processes: worker threads plus BLAS
# threads stay at or below nproc, since BLAS then runs in the calling thread.
# Set before this process first imports numpy.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

# Seconds each calibration takes on the reference host, a 2-core Xeon VM
# (numpy 2.4, OpenBLAS 0.3.31, one thread), in its fast phase.  Reported
# times are seconds at that speed.
REFERENCE_S = {"numpy": 0.16, "tridiagonal": 0.165}


def calibrate(kind: str) -> float:
    """Seconds this host takes right now for a fixed piece of ``kind`` work."""
    import numpy as np

    rng = np.random.default_rng(0)
    if kind == "numpy":
        # Small broadcast arithmetic in a Python loop, and small batched
        # eigensolves and complex QR factorisations.
        x = rng.uniform(1.0, 2.0, (256, 3))
        herm = rng.standard_normal((64, 8, 8))
        herm = herm + herm.transpose(0, 2, 1)
        ginibre = rng.standard_normal((64, 8, 8)) + 1j * rng.standard_normal((64, 8, 8))
        start = time.perf_counter()
        for _ in range(300):
            diff = x[:, :, None] - x[:, None, :] + np.eye(3)
            x = x * np.exp(1e-6 * (x[:, None, :] / diff).sum(axis=-1))
            np.linalg.eigvalsh(herm)
            np.linalg.qr(ginibre)
        return time.perf_counter() - start
    if kind == "tridiagonal":
        # One symmetric tridiagonal eigensolve of size 200 per row, in a loop.
        from scipy.linalg import eigh_tridiagonal

        diag = rng.uniform(1.0, 2.0, (200, 200))
        off = rng.uniform(0.1, 0.5, (200, 199))
        start = time.perf_counter()
        for row in range(200):
            eigh_tridiagonal(diag[row], off[row], eigvals_only=True)
        return time.perf_counter() - start
    raise ValueError(f"unknown calibration {kind!r}")
