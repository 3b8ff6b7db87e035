"""Span recorder for traced runs, and the per-layer metrics computed from spans.

The recorder wraps the entry points of each hardedge layer by replacing
module attributes and ``RandomSource`` methods of an imported hardedge, so
nothing under ``src/`` changes.  A span is (run id, span id, parent span id,
name, start, end, attrs); spans stay in memory and are written as gzipped
JSON lines when the verdict ends.  Traced verdicts run with ``--threads 1``, so
one call stack describes the nesting.

The analysis half (``layer_metrics``) needs no numpy or hardedge.
"""

from __future__ import annotations

import gzip
import json
import time

# (module, attribute) -> span name; the layer is the part before the dot.
# The experiments module's imported names are patched there, which is where
# the experiments look them up; sde looks its drifts up in its own module.
ENTRY_POINTS = {
    ("hardedge.experiments", "evolve_ensemble"): "sde.evolve",
    ("hardedge.experiments", "evolve_matrix_ensemble"): "sde.matrix",
    ("hardedge.sde", "log_drift"): "sde.drift",
    ("hardedge.sde", "eigen_drift"): "sde.drift",
    ("hardedge.experiments", "chain_samples"): "kernels.chain",
    ("hardedge.experiments", "corner_samples"): "kernels.corner",
    ("hardedge.experiments", "corner_of_each"): "kernels.corner",
    ("hardedge.experiments", "boundary_corner_samples"): "kernels.boundary",
    ("hardedge.experiments", "inverse_laguerre_samples"): "equilibrium.sample",
    ("hardedge.experiments", "energy_permutation_test"): "stats.energy",
    ("hardedge.experiments", "ks_per_coordinate"): "stats.ks",
}
RNG_METHODS = (
    "standard_normal", "complex_normal", "gamma", "exponential", "permutation", "integers", "child",
)
LAYERS = ("cli", "experiments", "sde", "kernels", "equilibrium", "stats", "rng")

# Per-layer metrics printed by a traced run, with units and direction.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.thread_speedup", "ratio", "higher"),
    ("sde.self_s", "s", "lower"),
    ("sde.evolve_s", "s", "lower"),
    ("sde.drift_s", "s", "lower"),
    ("sde.drift_calls", "count", "lower"),
    ("sde.replica_steps", "count", "lower"),
    ("sde.grid_steps", "count", "lower"),
    ("sde.extra_steps", "count", "lower"),
    ("sde.draw_ratio", "ratio", "lower"),
    ("sde.discarded", "count", "lower"),
    ("sde.matrix_s", "s", "lower"),
    ("sde.matrix_steps", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("kernels.chain_s", "s", "lower"),
    ("kernels.corner_s", "s", "lower"),
    ("kernels.boundary_s", "s", "lower"),
    ("kernels.samples", "count", "higher"),
    ("kernels.lapack_flops", "flop", "lower"),
    ("equilibrium.sample_s", "s", "lower"),
    ("equilibrium.samples", "count", "higher"),
    ("equilibrium.us_per_draw", "us", "lower"),
    ("stats.self_s", "s", "lower"),
    ("stats.energy_s", "s", "lower"),
    ("stats.energy_calls", "count", "lower"),
    ("stats.pool_points", "count", "lower"),
    ("stats.perms", "count", "lower"),
    ("stats.distance_bytes", "B", "lower"),
    ("stats.ks_s", "s", "lower"),
    ("rng.draw_s", "s", "lower"),
    ("rng.normals", "count", "lower"),
    ("rng.child_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Counters that must repeat exactly across verdicts with the same seed.
EXACT = (
    "sde.drift_calls", "sde.replica_steps", "sde.grid_steps", "sde.extra_steps",
    "sde.draw_ratio", "sde.discarded", "sde.matrix_steps", "kernels.samples",
    "kernels.lapack_flops", "equilibrium.samples", "stats.energy_calls",
    "stats.pool_points", "stats.perms", "stats.distance_bytes", "rng.normals",
    "rng.child_calls",
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _size(size) -> tuple:
    if size is None:
        return ()
    return tuple(size) if isinstance(size, (tuple, list)) else (int(size),)


def _product(shape) -> int:
    out = 1
    for s in shape:
        out *= int(s)
    return out


# attrs(args, kwargs, result) for each span name: the work a call did.
def _evolve_attrs(args, kwargs, result):
    return {
        "rows": len(_arg(args, kwargs, 0, "states")),
        "planned": round(_arg(args, kwargs, 2, "horizon") / _arg(args, kwargs, 3, "dt")),
        "discarded": int(result[1].sum()),
    }


def _matrix_attrs(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "h0"))}


def _samples_attrs(args, kwargs, result):
    return {"samples": int(result.shape[0])}


def _energy_attrs(max_points_default):
    def attrs(args, kwargs, result):
        cap = _arg(args, kwargs, 4, "max_points", max_points_default)
        samples = (_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b"))
        pool = sum(min(len(s), cap) for s in samples)
        return {"pool": pool, "perms": int(_arg(args, kwargs, 2, "n_perm"))}

    return attrs


def _rng_attrs(method):
    def attrs(args, kwargs, result):
        if method not in ("standard_normal", "complex_normal"):
            return {}
        shape = _size(_arg(args, kwargs, 1, "size"))  # args[0] is the source
        scale = 2 if method == "complex_normal" else 1
        return {"normals": scale * _product(shape), "rows": int(shape[0]) if shape else 1}

    return attrs


def _flops_qr(shape, is_complex):
    # Householder QR with the reduced Q formed: 2(mk^2 - k^3/3) real flops
    # for the factorisation and as many for Q; complex arithmetic costs 4x.
    m, k = shape[-2], shape[-1]
    k = min(m, k)
    per = 4.0 * (m * k * k - k**3 / 3.0)
    return _product(shape[:-2]) * per * (4 if is_complex else 1)


def _flops_eigvalsh(shape, is_complex):
    # Tridiagonal reduction dominates eigenvalues-only solves: 4k^3/3 real flops.
    k = shape[-1]
    return _product(shape[:-2]) * (4.0 * k**3 / 3.0) * (4 if is_complex else 1)


class Recorder:
    """Collects spans of one verdict; ``install`` patches the entry points."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [self.run_id, sid, stack[-1] if stack else -1, name, 0.0, 0.0, {}]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if attrs is not None:
                span[6].update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _count_flops(self, fn, model):
        spans, stack = self.spans, self._stack

        def wrapper(a, *args, **kwargs):
            if stack and spans[stack[-1]][3].startswith("kernels."):
                attrs = spans[stack[-1]][6]
                attrs["flops"] = attrs.get("flops", 0.0) + model(a.shape, a.dtype.kind == "c")
            return fn(a, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch hardedge's layer entry points; call before importing hardedge.cli."""
        import importlib
        import inspect

        import numpy as np

        from hardedge.rng import RandomSource

        attrs_for = {
            "sde.evolve": _evolve_attrs,
            "sde.matrix": _matrix_attrs,
            "kernels.chain": _samples_attrs,
            "kernels.corner": _samples_attrs,
            "kernels.boundary": _samples_attrs,
            "equilibrium.sample": _samples_attrs,
        }
        for (module_name, attr), name in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            attrs = attrs_for.get(name)
            if name == "stats.energy":
                attrs = _energy_attrs(inspect.signature(fn).parameters["max_points"].default)
            setattr(module, attr, self.wrap(name, fn, attrs))
        experiments = importlib.import_module("hardedge.experiments")
        for attr in dir(experiments):
            if attr.startswith("run_"):
                setattr(experiments, attr, self.wrap("experiments.run", getattr(experiments, attr)))
        for method in RNG_METHODS:
            setattr(RandomSource, method,
                    self.wrap(f"rng.{method}", getattr(RandomSource, method), _rng_attrs(method)))
        np.linalg.qr = self._count_flops(np.linalg.qr, _flops_qr)
        np.linalg.eigvalsh = self._count_flops(np.linalg.eigvalsh, _flops_eigvalsh)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one verdict (every PER_LAYER name except the
    run-level experiments.thread_speedup and trace.overhead_s), plus the
    self time of each layer under ``layer_self``."""
    child_time = [0.0] * len(spans)
    for _, sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_name: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    for _, sid, parent, name, start, end, _ in spans:
        own = (end - start) - child_time[sid]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        layer = name.split(".")[0]
        layer_self[layer] += own
        calls[name] = calls.get(name, 0) + 1

    def total(attr, prefix):
        return sum(s[6].get(attr, 0) for s in spans if s[3].startswith(prefix))

    # A grid step draws one full batch of Gaussians for the whole ensemble;
    # halving re-draws only for the rejected rows.
    grid_steps = drawn_rows = replica_steps = matrix_steps = 0
    for span in spans:
        parent = spans[span[2]] if span[2] >= 0 else None
        if parent is None or not span[3].startswith("rng."):
            continue
        if parent[3] == "sde.evolve" and span[3] == "rng.standard_normal":
            drawn_rows += span[6]["rows"]
            if span[6]["rows"] == parent[6]["rows"]:
                grid_steps += 1
                replica_steps += parent[6]["rows"]
        elif parent[3] == "sde.matrix" and span[3] == "rng.complex_normal":
            matrix_steps += span[6]["rows"] == parent[6]["rows"]
    planned = total("planned", "sde.evolve")
    sample_incl = sum(s[5] - s[4] for s in spans if s[3] == "equilibrium.sample")
    samples = total("samples", "equilibrium.")
    pools = [s[6]["pool"] for s in spans if s[3] == "stats.energy"]
    return {
        "cli.self_s": layer_self["cli"],
        "experiments.self_s": layer_self["experiments"],
        "sde.self_s": layer_self["sde"],
        "sde.evolve_s": self_by_name.get("sde.evolve", 0.0),
        "sde.drift_s": self_by_name.get("sde.drift", 0.0),
        "sde.drift_calls": calls.get("sde.drift", 0),
        "sde.replica_steps": replica_steps,
        "sde.grid_steps": grid_steps,
        "sde.extra_steps": grid_steps - planned,
        "sde.draw_ratio": drawn_rows / replica_steps if replica_steps else 0.0,
        "sde.discarded": total("discarded", "sde.evolve"),
        "sde.matrix_s": self_by_name.get("sde.matrix", 0.0),
        "sde.matrix_steps": matrix_steps,
        "kernels.self_s": layer_self["kernels"],
        "kernels.chain_s": self_by_name.get("kernels.chain", 0.0),
        "kernels.corner_s": self_by_name.get("kernels.corner", 0.0),
        "kernels.boundary_s": self_by_name.get("kernels.boundary", 0.0),
        "kernels.samples": total("samples", "kernels."),
        "kernels.lapack_flops": total("flops", "kernels."),
        "equilibrium.sample_s": self_by_name.get("equilibrium.sample", 0.0),
        "equilibrium.samples": samples,
        "equilibrium.us_per_draw": 1e6 * sample_incl / samples if samples else 0.0,
        "stats.self_s": layer_self["stats"],
        "stats.energy_s": self_by_name.get("stats.energy", 0.0),
        "stats.energy_calls": calls.get("stats.energy", 0),
        "stats.pool_points": sum(pools),
        "stats.perms": total("perms", "stats.energy"),
        "stats.distance_bytes": 8 * max(pools) ** 2 if pools else 0,
        "stats.ks_s": self_by_name.get("stats.ks", 0.0),
        "rng.draw_s": layer_self["rng"],
        "rng.normals": total("normals", "rng."),
        "rng.child_calls": calls.get("rng.child", 0),
        "layer_self": layer_self,
    }
