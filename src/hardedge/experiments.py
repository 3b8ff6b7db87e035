"""Statistical experiments turning the limit theorems into pass/fail checks.

Every experiment consumes a :class:`RandomSource`, parallelises over
replica blocks with one child stream per block, aggregates in block order
and emits an :class:`ExperimentReport`; identical seed and parameters give
a bit-identical report at any thread count.  Distributional verdicts use
permutation p-values at level 0.01 (Bonferroni across coordinates);
monotone-decrease verdicts allow two standard errors of Monte Carlo slack,
since strict comparisons between statistics at the noise floor are
meaningless.  Thresholds are calibrated, not theoretical: the theorems are
asymptotic and give no rates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import OmegaPlusPoint, OrderedConfig, SdeParams, embed, lyapunov_f
from .equilibrium import (
    _embedded_tail_counts,
    bessel_kernel,
    inverse_bessel_kernel,
    inverse_laguerre_samples,
)
from .errors import DomainError, ParameterError, StepFailure
from .kernels import boundary_corner_samples, chain_samples, corner_of_each, corner_samples
from .rng import RandomSource
from .sde import _advance_batch, _time_steps, evolve_ensemble, evolve_matrix_ensemble
from .stats import energy_permutation_test, ks_per_coordinate

__all__ = [
    "ExperimentReport",
    "bump_function",
    "run_intertwining",
    "run_uniform_approx",
    "run_equilibrium",
    "run_coupling_l2",
    "run_collision_bound",
    "run_hard_edge_density",
    "run_matrix_eigen_agreement",
]

ALPHA = 0.01
_BLOCK = 4096


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_OPS = {
    "<": lambda s, v: s < v,
    "<=": lambda s, v: s <= v,
    ">": lambda s, v: s > v,
    ">=": lambda s, v: s >= v,
}


@dataclass(frozen=True)
class ExperimentReport:
    """Structured record of an experiment: statistics, thresholds, verdicts."""

    name: str
    statistics: dict
    thresholds: dict
    verdicts: dict = field(init=False)

    def __post_init__(self):
        verdicts = {}
        for key, spec in self.thresholds.items():
            if key not in self.statistics:
                raise DomainError(f"threshold {key!r} has no matching statistic")
            verdicts[key] = bool(_OPS[spec["op"]](self.statistics[key], spec["value"]))
        object.__setattr__(self, "verdicts", verdicts)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "version": __version__,
            "statistics": self.statistics,
            "thresholds": self.thresholds,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }

    def summary(self) -> str:
        lines = [f"experiment {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for key, ok in self.verdicts.items():
            spec = self.thresholds[key]
            lines.append(
                f"  {key} = {self.statistics[key]:.6g} "
                f"{spec['op']} {spec['value']:.6g}: {'pass' if ok else 'FAIL'}"
            )
        return "\n".join(lines)


def _survivors(rows: np.ndarray, failed: np.ndarray, experiment: str) -> np.ndarray:
    """The rows whose replica did not fail; a StepFailure when none is left."""
    if failed.all():
        raise StepFailure(f"{experiment}: all {failed.size} replicas failed")
    return rows[~failed]


# ---------------------------------------------------------------------------
# replica-block parallelism
# ---------------------------------------------------------------------------

def _run_blocks(total: int, worker, rng: RandomSource, threads: int):
    """Rows of ``total`` replicas, drawn block by block.

    ``worker(block_rng, count)`` returns an array, or a tuple of arrays, with
    ``count`` rows; the result is their concatenation in block order (a tuple
    of concatenations for a tuple worker).  The block layout depends only on
    ``total``, never on the thread count, so results are bit-identical however
    they are scheduled.
    """
    if total < 1:
        raise DomainError(f"need at least one replica, got {total}")
    counts = [min(_BLOCK, total - start) for start in range(0, total, _BLOCK)]

    def run(i):
        return worker(rng.child(i), counts[i])

    if threads <= 1 or len(counts) == 1:
        blocks = [run(i) for i in range(len(counts))]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run, range(len(counts))))
    if isinstance(blocks[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    return np.concatenate(blocks)


def _monotone_margin(values, ses) -> float:
    """Largest rise between consecutive values beyond two standard errors of
    each; at most 0 when the sequence decreases up to Monte Carlo noise."""
    return max(
        (values[k + 1] - values[k] - 2.0 * (ses[k] + ses[k + 1]) for k in range(len(values) - 1)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def bump_function(lo: float, hi: float):
    """Smooth compactly supported bump on (lo, hi), one per coordinate, multiplied."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi for the bump, got ({lo}, {hi})")

    def g(y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        u = (2.0 * y - (hi + lo)) / (hi - lo)
        inside = np.abs(u) < 1.0
        vals = np.zeros_like(y)
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return vals.prod(axis=1)

    return g


def run_intertwining(
    x: OrderedConfig,
    t: float,
    eta: float,
    n: int,
    rng: RandomSource,
    dt: float = 5e-4,
    eta_corner_side: float | None = None,
    n_perm: int = 500,
    threads: int = 1,
) -> ExperimentReport:
    """Corner-then-evolve versus evolve-then-corner at a common time.

    The two pipelines are equal in law when both use the same drift
    parameter; passing ``eta_corner_side`` different from ``eta`` gives the
    negative control.  A tied or zero start, at which every replica would
    freeze, is a DomainError that names it, as is an ``x`` with fewer than
    2 coordinates, which has no corner.
    """
    if x.n < 2:
        raise DomainError(f"x must have at least 2 coordinates for a corner, got {x.n}")
    x.require_interior()
    eta_b = eta if eta_corner_side is None else eta_corner_side
    par_a = SdeParams(eta=eta, rescaled=False)
    par_b = SdeParams(eta=eta_b, rescaled=False)

    def worker(block_rng, count):
        a0 = np.tile(x.values, (count, 1))
        top, fail_a = evolve_ensemble(a0, par_a, t, dt, block_rng.child(0))
        a = corner_of_each(top, block_rng.child(1))
        b0 = corner_samples(x, count, block_rng.child(2))
        b, fail_b = evolve_ensemble(b0, par_b, t, dt, block_rng.child(3))
        return a, b, fail_a, fail_b

    a, b, fail_a, fail_b = _run_blocks(n, worker, rng.child(1), threads)
    a, b = _survivors(a, fail_a, "intertwining"), _survivors(b, fail_b, "intertwining")
    stat, pvalue, null_sd = energy_permutation_test(a, b, n_perm, rng.child(2))
    ks = ks_per_coordinate(a[: min(len(a), len(b))], b[: min(len(a), len(b))])

    statistics = {
        "energy_statistic": stat,
        "energy_pvalue": pvalue,
        "permutation_null_sd": null_sd,
        "min_ks_pvalue": float(ks.min()),
        "discarded_replicas": float(fail_a.sum() + fail_b.sum()),
    }
    return ExperimentReport(
        name="intertwining",
        statistics=statistics,
        thresholds={"energy_pvalue": {"op": ">", "value": ALPHA}},
    )


def run_uniform_approx(
    K: int,
    g,
    config_family: list[OrderedConfig],
    n: int,
    rng: RandomSource,
    threshold: float = 0.02,
    threads: int = 1,
) -> ExperimentReport:
    """Chain kernel versus boundary kernel integrals along a config family.

    For each configuration the integral of g under the N-to-K chain is
    estimated by corner sampling, and under the boundary kernel at the
    embedded point by the Gaussian matrix construction; the gaps must
    shrink as the family grows.
    """
    if not config_family:
        raise DomainError("need at least one configuration in the family")
    diffs, ses = [], []
    sizes = [cfg.n for cfg in config_family]
    for idx, cfg in enumerate(config_family):
        omega = embed(cfg)

        def chain_worker(block_rng, count):
            return g(chain_samples(cfg, K, count, block_rng))

        def boundary_worker(block_rng, count):
            return g(boundary_corner_samples(omega, K, count, block_rng))

        ga = _run_blocks(n, chain_worker, rng.child(2 * idx), threads)
        gb = _run_blocks(n, boundary_worker, rng.child(2 * idx + 1), threads)
        diffs.append(abs(float(ga.mean() - gb.mean())))
        ses.append(float(np.hypot(ga.std() / np.sqrt(n), gb.std() / np.sqrt(n))))

    statistics = {
        **{f"abs_diff_N{sz}": d for sz, d in zip(sizes, diffs)},
        **{f"mc_se_N{sz}": s for sz, s in zip(sizes, ses)},
        "final_abs_diff": diffs[-1],
        "monotone_margin": _monotone_margin(diffs, ses),
    }
    return ExperimentReport(
        name="uniform_approx",
        statistics=statistics,
        thresholds={
            "final_abs_diff": {"op": "<", "value": threshold},
            "monotone_margin": {"op": "<=", "value": 0.0},
        },
    )


def run_equilibrium(
    N: int,
    eta: float,
    x0: OrderedConfig | None,
    t_grid: list[float],
    n: int,
    rng: RandomSource,
    dt: float = 1e-3,
    n_perm: int = 300,
    threads: int = 1,
) -> ExperimentReport:
    """Convergence of the N-particle law to the inverse Laguerre ensemble.

    ``x0=None`` starts every replica from an independent equilibrium draw,
    which is the stationarity control: the statistic then stays at the
    noise floor for all times.  A tied or zero ``x0``, or one without N
    coordinates, is a DomainError that names it.
    """
    if not eta > -1:
        raise ParameterError(f"need eta > -1, got {eta}")
    t_grid = [float(t) for t in t_grid]
    if not t_grid or np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
        raise DomainError("t_grid must be nonempty, positive and increasing")
    if x0 is not None:
        if x0.n != N:
            raise DomainError(f"x0 must have N={N} coordinates, got {x0.n}")
        x0.require_interior()
    params = SdeParams(eta=eta, rescaled=False)

    def worker(block_rng, count):
        """States at every grid time, shape (count, T, N), and which failed.
        A replica that fails in one span is not stepped in later ones."""
        if x0 is None:
            state = inverse_laguerre_samples(N, eta, count, block_rng.child(999))
        else:
            state = np.tile(x0.values, (count, 1))
        live = np.arange(count)
        path = np.empty((count, len(t_grid), state.shape[1]))
        for k, span in enumerate(np.diff(t_grid, prepend=0.0)):
            state, f = evolve_ensemble(state, params, span, dt, block_rng)
            path[live, k] = state
            live, state = live[~f], state[~f]
        failed = np.ones(count, bool)
        failed[live] = False
        return path, failed

    paths, failed = _run_blocks(n, worker, rng.child(1), threads)
    paths = _survivors(paths, failed, "equilibrium")
    stats_t, ps_t, sds_t = [], [], []
    for k in range(len(t_grid)):
        ref = inverse_laguerre_samples(N, eta, n, rng.child(100 + k))
        stat, pvalue, null_sd = energy_permutation_test(
            paths[:, k], ref, n_perm, rng.child(200 + k)
        )
        stats_t.append(stat)
        ps_t.append(pvalue)
        sds_t.append(null_sd)

    statistics = {
        **{f"energy_statistic_t{t:g}": s for t, s in zip(t_grid, stats_t)},
        **{f"energy_pvalue_t{t:g}": p for t, p in zip(t_grid, ps_t)},
        "final_pvalue": ps_t[-1],
        "monotone_margin": _monotone_margin(stats_t, sds_t),
        "discarded_replicas": float(failed.sum()),
    }
    thresholds = {
        "final_pvalue": {"op": ">", "value": ALPHA},
        "monotone_margin": {"op": "<=", "value": 0.0},
    }
    if N == 1:
        # imported here: at module level scipy.stats adds ~0.4 s to every verdict's start
        from scipy.stats import invgamma, kstest

        final = paths[:, -1, 0]
        ks = kstest(final, invgamma(eta + 1.0).cdf)
        statistics["final_ks_exact_pvalue"] = float(ks.pvalue)
        thresholds["final_ks_exact_pvalue"] = {"op": ">", "value": ALPHA}
    return ExperimentReport(
        name="equilibrium",
        statistics=statistics,
        thresholds=thresholds,
    )


def _lifted_initial(omega: OmegaPlusPoint, size: int, dt: float) -> np.ndarray:
    """Embedded-scale initial config of the given size from a boundary point.

    Zero tail coordinates are lifted onto a strictly decreasing entrance
    ramp at the one-step entrance scale dt/(2N): the continuous dynamics
    leave the boundary instantly at that rate, and starting below it makes
    the first log step overshoot violently.
    """
    xs = omega.xs[omega.xs > 0]
    if xs.size >= size:
        vals = xs[:size].copy()
        if np.any(np.diff(vals) >= 0):
            raise DomainError("boundary point support must be strictly decreasing here")
        return vals
    j = xs.size
    if j == 0:
        raise DomainError("coupling needs at least one positive atom")
    scale = dt / (2.0 * size)
    if 2.0 * scale >= xs[-1] / 2.0:
        raise DomainError("dt too coarse: entrance ramp would reach the smallest atom")
    ramp = scale * (1.0 + (size - np.arange(j + 1, size + 1)) / (size - j))
    return np.concatenate([xs, ramp])


def run_coupling_l2(
    omega_target: OmegaPlusPoint,
    N_list: list[int],
    T: float,
    dt: float,
    rng: RandomSource,
    eta: float = 0.0,
) -> ExperimentReport:
    """Synchronous coupling of all system sizes on one fine noise grid.

    Coordinate i of every system consumes the same Gaussian increments (a
    stronger, constructive stand-in for the abstract coupling); the
    embedded sup-l2 discrepancy between consecutive sizes must not grow by
    more than 20 percent.  Each size steps on the particle engine, which
    splits a rejected increment at a Brownian-bridge midpoint drawn from that
    size's own child stream, so every size still moves by the shared
    increments; ``halved_steps`` counts the grid steps, over all sizes, that
    were halved.  Pathwise experiment: integration failures abort.
    """
    if not all(float(m).is_integer() for m in N_list):
        raise DomainError(f"N_list must hold whole numbers, got {list(N_list)!r}")
    sizes = [int(m) for m in N_list]
    if not sizes or np.any(np.diff(sizes) <= 0):
        raise DomainError("N_list must be nonempty and strictly increasing")
    if sizes[0] <= omega_target.support:
        raise DomainError("smallest system must exceed the support size")
    steps = _time_steps(T, dt)
    increments = rng.standard_normal((len(steps), sizes[-1])) * np.sqrt(steps)[:, None]

    states = {m: _lifted_initial(omega_target, m, dt) for m in sizes}
    params = SdeParams(eta=eta, rescaled=True)
    bridges = {m: rng.child(m) for m in states}
    sup_disc = {}
    halved = 0

    def pair_disc(small, big):
        padded = np.zeros_like(big)
        padded[: small.size] = small
        return float(np.sum((padded - big) ** 2))

    pairs = list(zip(sizes[:-1], sizes[1:]))
    for a, b in pairs:
        sup_disc[(a, b)] = pair_disc(states[a], states[b])

    with np.errstate(over="ignore"):
        for s, step in enumerate(steps):
            for m, x in states.items():
                dw = increments[s, :m, None]
                new, failed = _advance_batch(x[:, None], step, dw, bridges[m], params)
                if failed is not None:
                    if failed[0]:
                        raise StepFailure(f"coupling integration failed for N={m}", time=s * dt)
                    halved += 1
                states[m] = new[:, 0]
            for a, b in pairs:
                sup_disc[(a, b)] = max(sup_disc[(a, b)], pair_disc(states[a], states[b]))

    discs = [sup_disc[p] for p in pairs]
    if not np.all(np.isfinite(discs)):
        raise StepFailure("coupling discrepancies overflowed")
    ratios = [
        discs[k + 1] / discs[k] if discs[k] > 0 else (1.0 if discs[k + 1] == 0 else np.inf)
        for k in range(len(discs) - 1)
    ]
    statistics = {
        **{f"sup_l2_N{a}_vs_N{b}": d for (a, b), d in zip(pairs, discs)},
        "max_consecutive_ratio": max(ratios, default=0.0),
        "halved_steps": float(halved),
    }
    return ExperimentReport(
        name="coupling_l2",
        statistics=statistics,
        thresholds={"max_consecutive_ratio": {"op": "<=", "value": 1.2}},
    )


def run_collision_bound(
    x_family: list[OrderedConfig],
    delta: float,
    eps: float,
    t: float,
    n: int,
    rng: RandomSource,
    eta: float = 0.0,
    dt: float = 1e-3,
    threads: int = 1,
) -> ExperimentReport:
    """Top-gap collision probability against the Lyapunov stopping bound.

    Estimates P(ratio gap of the top pair reaches delta before time t and
    before the top point falls to eps), under the rescaled dynamics, for
    every configuration in the family; each estimate must sit below
    (C + t/eps)/|log delta| with C the family supremum of the level-1
    Lyapunov functional.  Replicas step on the particle engine, which
    halves and re-draws a rejected step, so the order never breaks.  After
    each grid step a replica that froze, or whose ratio gap 1 - x_2/x_1 is
    at most delta, is a hit and stops; one whose top point is at most eps
    retires without a hit.
    """
    if not 0 < delta < 1:
        raise DomainError("need 0 < delta < 1")
    if not (np.isfinite(eps) and eps > 0):
        raise DomainError(f"need a finite eps > 0, got {eps}")
    if not x_family:
        raise DomainError("need at least one configuration in the family")
    big_c = max(lyapunov_f(cfg, 1) for cfg in x_family)
    bound = (big_c + t / eps) / abs(np.log(delta))
    params = SdeParams(eta=eta, rescaled=True)

    stats = {}
    max_excess = -np.inf
    for ci, cfg in enumerate(x_family):
        def worker(block_rng, count):
            x = np.tile(cfg.values, (count, 1))
            live = np.arange(count)
            hit = np.zeros(count, bool)
            for step in _time_steps(t, dt):
                if not live.size:
                    break
                x, froze = evolve_ensemble(x, params, step, step, block_rng)
                now = froze | (1.0 - x[:, 1] / x[:, 0] <= delta)
                hit[live[now]] = True
                keep = ~now & (x[:, 0] > eps)
                live, x = live[keep], x[keep]
            return hit

        est = float(_run_blocks(n, worker, rng.child(ci), threads).mean())
        se = float(np.sqrt(est * (1.0 - est) / n))
        stats[f"estimate_N{cfg.n}"] = est
        stats[f"mc_se_N{cfg.n}"] = se
        max_excess = max(max_excess, est - 3.0 * se - bound)
    stats["lyapunov_constant"] = big_c
    stats["bound"] = bound
    stats["max_excess_over_bound"] = max_excess
    return ExperimentReport(
        name="collision_bound",
        statistics=stats,
        thresholds={"max_excess_over_bound": {"op": "<=", "value": 0.0}},
    )


def run_hard_edge_density(
    N: int,
    eta: float,
    n: int,
    bins,
    rng: RandomSource,
    top: int = 3,
    min_count: int = 100,
    threads: int = 1,
) -> ExperimentReport:
    """Embedded equilibrium top points against the inverse-coordinate kernel.

    Bins must sit where the tracked top points carry essentially all the
    density (deeper points never reach there).  Alongside the documented
    kernel, the rescaled variant with inverse-coordinate constant 4 is
    reported: that is the scaling the finite-N ensemble actually matches
    (pinned by the exact mean of the one-point boundary law).  Each bin's
    count is the difference of the tail counts at its edges, which
    ``_embedded_tail_counts`` takes from Sturm counts on the bidiagonal
    factor, so no eigenvalue is solved; the counts are those of a histogram
    of the ``top`` largest points of ``inverse_laguerre_samples(...) / N``.
    """
    if N < 100:
        raise DomainError("hard-edge comparison needs N >= 100")
    bins = np.asarray(bins, dtype=float)
    increasing = bins.ndim == 1 and bins.size >= 2 and np.all(np.diff(bins) > 0)
    if not (increasing and np.all(np.isfinite(bins))):
        raise DomainError(f"bins must be two or more finite increasing edges, got {bins.tolist()}")
    centers = 0.5 * (bins[1:] + bins[:-1])
    if centers[0] <= 0:
        raise DomainError(
            f"bins must have positive centres, got centre {centers[0]} in {bins.tolist()}"
        )

    def worker(block_rng, count):
        return _embedded_tail_counts(N, eta, count, block_rng, top, bins)[None]

    tail = _run_blocks(n, worker, rng.child(0), threads).sum(axis=0)
    counts = tail[:-1] - tail[1:]
    emp = counts / (n * np.diff(bins))
    kernel = inverse_bessel_kernel(eta, centers, centers)
    kernel4 = 4.0 / centers**2 * bessel_kernel(eta, 4.0 / centers, 4.0 / centers)
    mask = counts >= min_count
    if not mask.any():
        raise DomainError("no bins reach the minimum count; widen the bins")
    rel = np.abs(emp[mask] - kernel[mask]) / kernel[mask]
    rel4 = np.abs(emp[mask] - kernel4[mask]) / kernel4[mask]
    statistics = {
        "sup_rel_error": float(rel.max()),
        "sup_rel_error_rescaled4": float(rel4.max()),
        "bins_used": float(mask.sum()),
        "min_bin_count": float(counts[mask].min()),
    }
    return ExperimentReport(
        name="hard_edge_density",
        statistics=statistics,
        thresholds={"sup_rel_error": {"op": "<", "value": 0.15}},
    )


def run_matrix_eigen_agreement(
    N: int,
    eta: float,
    x0: OrderedConfig,
    t: float,
    n: int,
    rng: RandomSource,
    dt: float = 1e-3,
    threads: int = 1,
) -> ExperimentReport:
    """Matrix-integrator spectra against the particle integrator.

    Both start from ``x0``, the matrix side from diag(x0), and step on the
    same dt grid: the matrix side by its congruence step, the particle side
    by the log-coordinate Euler step.  Each coordinate's two marginals are
    compared by KS at the Bonferroni level.  A tied or zero ``x0``, or one
    without N coordinates, is a DomainError that names it.
    """
    if x0.n != N:
        raise DomainError(f"x0 must have N={N} coordinates, got {x0.n}")
    x0.require_interior()
    h0 = np.diag(x0.values)
    params = SdeParams(eta=eta, rescaled=False)

    def matrix_worker(block_rng, count):
        h = evolve_matrix_ensemble(np.tile(h0, (count, 1, 1)), params, t, dt, block_rng)
        return np.linalg.eigvalsh(h)[:, ::-1]

    def particle_worker(block_rng, count):
        return evolve_ensemble(np.tile(x0.values, (count, 1)), params, t, dt, block_rng)

    sub_rng = rng.child(1)
    a = _run_blocks(n, matrix_worker, sub_rng.child(0), threads)
    b, fail = _run_blocks(n, particle_worker, sub_rng.child(1), threads)
    ks = ks_per_coordinate(a, _survivors(b, fail, "matrix_eigen_agreement"))
    statistics = {
        **{f"ks_pvalue_coord{k + 1}": float(p) for k, p in enumerate(ks)},
        "min_ks_pvalue": float(ks.min()),
        "discarded_replicas": float(fail.sum()),
    }
    return ExperimentReport(
        name="matrix_eigen_agreement",
        statistics=statistics,
        thresholds={"min_ks_pvalue": {"op": ">", "value": ALPHA / N}},
    )
