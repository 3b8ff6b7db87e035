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

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import invgamma, kstest

from . import __version__
from .core import OmegaPlusPoint, OrderedConfig, SdeParams, embed, lyapunov_f
from .equilibrium import bessel_kernel, inverse_bessel_kernel, inverse_laguerre_samples
from .errors import DomainError, StepFailure
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
_MATRIX_N_PERM = 300  # permutations of the matrix experiment's dt-check energy tests


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
    """Structured record of an experiment: parameters, statistics, verdicts."""

    name: str
    params: dict
    statistics: dict
    thresholds: dict
    verdicts: dict = field(default_factory=dict)
    seeds: tuple = ()

    def __post_init__(self):
        verdicts = {}
        for key, spec in self.thresholds.items():
            if key not in self.statistics:
                raise DomainError(f"threshold {key!r} has no matching statistic")
            verdicts[key] = bool(_OPS[spec["op"]](self.statistics[key], spec["value"]))
        if self.verdicts and self.verdicts != verdicts:
            raise DomainError("verdicts are not derivable from statistics and thresholds")
        object.__setattr__(self, "verdicts", verdicts)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "version": __version__,
            "params": self.params,
            "statistics": self.statistics,
            "thresholds": self.thresholds,
            "verdicts": self.verdicts,
            "passed": self.passed,
            "seeds": list(self.seeds),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        lines = [f"experiment {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for key, ok in self.verdicts.items():
            spec = self.thresholds[key]
            lines.append(
                f"  {key} = {self.statistics[key]:.6g} "
                f"{spec['op']} {spec['value']:.6g}: {'pass' if ok else 'FAIL'}"
            )
        return "\n".join(lines)


def _seed_tuple(rng) -> tuple:
    return (getattr(rng, "master_seed", -1), getattr(rng, "stream", -1))


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


def _attach_dt_half(statistics: dict, thresholds: dict, name: str, value, value_half, slack):
    """Record the dt/2 rerun of a statistic and require it to move by at most
    three times ``slack`` from the value at the full dt."""
    statistics[name] = value_half
    statistics["dt_stability_margin"] = abs(value_half - value) - 3.0 * slack
    thresholds["dt_stability_margin"] = {"op": "<=", "value": 0.0}


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
    dt_check: bool = False,
) -> ExperimentReport:
    """Corner-then-evolve versus evolve-then-corner at a common time.

    The two pipelines are equal in law when both use the same drift
    parameter; passing ``eta_corner_side`` different from ``eta`` gives the
    negative control.  A tied or zero start, at which every replica would
    freeze, is a DomainError that names it.
    """
    x.require_interior()
    eta_b = eta if eta_corner_side is None else eta_corner_side
    n_top = x.n
    par_a = SdeParams(eta=eta, rescaled=False)
    par_b = SdeParams(eta=eta_b, rescaled=False)

    def collect(sub_rng, total, dt_step):
        def worker(block_rng, count):
            top, fail_a = evolve_ensemble(
                np.tile(x.values, (count, 1)), par_a, t, dt_step, block_rng.child(0)
            )
            a = corner_of_each(top, block_rng.child(1))
            b0 = corner_samples(x, count, block_rng.child(2))
            b, fail_b = evolve_ensemble(b0, par_b, t, dt_step, block_rng.child(3))
            return a, b, fail_a, fail_b

        a, b, fail_a, fail_b = _run_blocks(total, worker, sub_rng, threads)
        return a[~fail_a], b[~fail_b], int(fail_a.sum() + fail_b.sum())

    a, b, discarded = collect(rng.child(1), n, dt)
    stat, pvalue, null_sd = energy_permutation_test(a, b, n_perm, rng.child(2))
    ks = ks_per_coordinate(a[: min(len(a), len(b))], b[: min(len(a), len(b))])

    statistics = {
        "energy_statistic": stat,
        "energy_pvalue": pvalue,
        "permutation_null_sd": null_sd,
        "min_ks_pvalue": float(ks.min()),
        "discarded_replicas": float(discarded),
    }
    thresholds = {"energy_pvalue": {"op": ">", "value": ALPHA}}
    if dt_check:
        a2, b2, _ = collect(rng.child(3), min(n, 5000), dt / 2.0)
        stat2, _, null_sd2 = energy_permutation_test(a2, b2, n_perm, rng.child(4))
        _attach_dt_half(
            statistics, thresholds, "energy_statistic_dt_half", stat, stat2, null_sd + null_sd2
        )
    return ExperimentReport(
        name="intertwining",
        params={
            "x": x.values.tolist(),
            "t": t,
            "eta": eta,
            "eta_corner_side": eta_b,
            "n": n,
            "dt": dt,
            "n_perm": n_perm,
            "levels": [n_top, n_top - 1],
        },
        statistics=statistics,
        thresholds=thresholds,
        seeds=_seed_tuple(rng),
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
        params={
            "K": K,
            "sizes": sizes,
            "n": n,
            "threshold": threshold,
            "tolerance_provenance": "calibrated, not theoretical",
        },
        statistics=statistics,
        thresholds={
            "final_abs_diff": {"op": "<", "value": threshold},
            "monotone_margin": {"op": "<=", "value": 0.0},
        },
        seeds=_seed_tuple(rng),
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
    dt_check: bool = False,
) -> ExperimentReport:
    """Convergence of the N-particle law to the inverse Laguerre ensemble.

    ``x0=None`` starts every replica from an independent equilibrium draw,
    which is the stationarity control: the statistic then stays at the
    noise floor for all times.  A tied or zero ``x0`` is a DomainError that
    names it.
    """
    if eta <= -1:
        raise DomainError("equilibrium requires eta > -1")
    t_grid = [float(t) for t in t_grid]
    if not t_grid or np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
        raise DomainError("t_grid must be nonempty, positive and increasing")
    if x0 is not None:
        x0.require_interior()
    params = SdeParams(eta=eta, rescaled=False)

    def collect(sub_rng, total, dt_step):
        """Surviving replicas' states at every grid time, shape (kept, T, N),
        and the number discarded."""
        def worker(block_rng, count):
            if x0 is None:
                state = inverse_laguerre_samples(N, eta, count, block_rng.child(999))
            else:
                state = np.tile(x0.values, (count, 1))
            failed = np.zeros(count, bool)
            path = np.empty((count, len(t_grid), state.shape[1]))
            for k, span in enumerate(np.diff(t_grid, prepend=0.0)):
                state, f = evolve_ensemble(state, params, span, dt_step, block_rng)
                failed |= f
                path[:, k] = state
            return path, failed

        paths, failed = _run_blocks(total, worker, sub_rng, threads)
        return paths[~failed], int(failed.sum())

    paths, discarded = collect(rng.child(1), n, dt)
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
        "discarded_replicas": float(discarded),
    }
    thresholds = {
        "final_pvalue": {"op": ">", "value": ALPHA},
        "monotone_margin": {"op": "<=", "value": 0.0},
    }
    if N == 1:
        final = paths[:, -1, 0]
        ks = kstest(final, invgamma(eta + 1.0).cdf)
        statistics["final_ks_exact_pvalue"] = float(ks.pvalue)
        thresholds["final_ks_exact_pvalue"] = {"op": ">", "value": ALPHA}
    if dt_check:
        paths2, _ = collect(rng.child(5), min(n, 5000), dt / 2.0)
        ref2 = inverse_laguerre_samples(N, eta, min(n, 5000), rng.child(6))
        stat2, _, sd2 = energy_permutation_test(paths2[:, -1], ref2, n_perm, rng.child(7))
        _attach_dt_half(
            statistics, thresholds, "energy_statistic_dt_half", stats_t[-1], stat2, sds_t[-1] + sd2
        )
    return ExperimentReport(
        name="equilibrium",
        params={
            "N": N,
            "eta": eta,
            "x0": None if x0 is None else x0.values.tolist(),
            "t_grid": t_grid,
            "n": n,
            "dt": dt,
            "n_perm": n_perm,
            "tolerance_provenance": "calibrated, not theoretical",
        },
        statistics=statistics,
        thresholds=thresholds,
        seeds=_seed_tuple(rng),
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
    more than 20 percent.  Each size steps on the particle engine's log
    integrator, which splits a rejected increment at a Brownian-bridge
    midpoint drawn from that size's own child stream, so every size still
    moves by the shared increments; ``halved_steps`` counts the grid steps,
    over all sizes, that were halved.  Pathwise experiment: integration
    failures abort.
    """
    sizes = [int(m) for m in N_list]
    if not sizes or np.any(np.diff(sizes) < 0):
        raise DomainError("N_list must be nonempty and nondecreasing")
    support = int(np.count_nonzero(omega_target.xs))
    if sizes[0] <= support:
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

    for s, step in enumerate(steps):
        for m, x in states.items():
            dw = increments[s, None, :m]
            new, failed = _advance_batch(x[None], step, dw, bridges[m], params, "log")
            if failed is not None:
                if failed[0]:
                    raise StepFailure(f"coupling integration failed for N={m}", time=s * dt)
                halved += 1
            states[m] = new[0]
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
        params={
            "omega_xs": omega_target.xs.tolist(),
            "gamma": omega_target.gamma,
            "N_list": sizes,
            "T": T,
            "dt": dt,
            "eta": eta,
        },
        statistics=statistics,
        thresholds={"max_consecutive_ratio": {"op": "<=", "value": 1.2}},
        seeds=_seed_tuple(rng),
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
    dt_check: bool = False,
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

    def hit_rate(sub_rng, total, cfg, dt_step):
        def worker(block_rng, count):
            x = np.tile(cfg.values, (count, 1))
            live = np.arange(count)
            hit = np.zeros(count, bool)
            for step in _time_steps(t, dt_step):
                if not live.size:
                    break
                x, froze = evolve_ensemble(x, params, step, step, block_rng)
                now = froze | (1.0 - x[:, 1] / x[:, 0] <= delta)
                hit[live[now]] = True
                keep = ~now & (x[:, 0] > eps)
                live, x = live[keep], x[keep]
            return hit

        return float(_run_blocks(total, worker, sub_rng, threads).mean())

    stats, thresholds = {}, {}
    max_excess = -np.inf
    for ci, cfg in enumerate(x_family):
        est = hit_rate(rng.child(ci), n, cfg, dt)
        se = float(np.sqrt(est * (1.0 - est) / n))
        stats[f"estimate_N{cfg.n}"] = est
        stats[f"mc_se_N{cfg.n}"] = se
        max_excess = max(max_excess, est - 3.0 * se - bound)
    stats["lyapunov_constant"] = big_c
    stats["bound"] = bound
    stats["max_excess_over_bound"] = max_excess
    thresholds["max_excess_over_bound"] = {"op": "<=", "value": 0.0}
    if dt_check:
        cfg = x_family[-1]
        n_half = max(n // 2, 200)
        est_half = hit_rate(rng.child(900), n_half, cfg, dt / 2.0)
        est_ref = stats[f"estimate_N{cfg.n}"]
        se_comb = np.sqrt(
            est_half * (1 - est_half) / n_half + est_ref * (1 - est_ref) / n
        )
        _attach_dt_half(stats, thresholds, "estimate_dt_half", est_ref, est_half, float(se_comb))
    return ExperimentReport(
        name="collision_bound",
        params={
            "sizes": [cfg.n for cfg in x_family],
            "delta": delta,
            "eps": eps,
            "t": t,
            "n": n,
            "eta": eta,
            "dt": dt,
        },
        statistics=stats,
        thresholds=thresholds,
        seeds=_seed_tuple(rng),
    )


def run_hard_edge_density(
    N: int,
    eta: float,
    n: int,
    bins,
    rng: RandomSource,
    top: int = 3,
    min_count: int = 100,
    tol: float = 0.15,
    threads: int = 1,
) -> ExperimentReport:
    """Embedded equilibrium top points against the inverse-coordinate kernel.

    Bins must sit where the tracked top points carry essentially all the
    density (deeper points never reach there).  Alongside the documented
    kernel, the rescaled variant with inverse-coordinate constant 4 is
    reported: that is the scaling the finite-N ensemble actually matches
    (pinned by the exact mean of the one-point boundary law).
    """
    if N < 100:
        raise DomainError("hard-edge comparison needs N >= 100")
    bins = np.asarray(bins, dtype=float)
    increasing = bins.ndim == 1 and bins.size >= 2 and np.all(np.diff(bins) > 0)
    if not (increasing and np.all(np.isfinite(bins))):
        raise DomainError(f"bins must be two or more finite increasing edges, got {bins.tolist()}")
    if not 1 <= top <= N:
        raise DomainError(f"top must be in 1..N={N}, got {top}")

    def worker(block_rng, count):
        samples = inverse_laguerre_samples(N, eta, count, block_rng)
        return samples[:, :top] / N

    tops = _run_blocks(n, worker, rng.child(0), threads)
    counts, edges = np.histogram(tops.ravel(), bins=bins)
    widths = np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    emp = counts / (n * widths)
    kernel = np.array([inverse_bessel_kernel(eta, c, c) for c in centers])
    kernel4 = np.array([(4.0 / c**2) * bessel_kernel(eta, 4.0 / c, 4.0 / c) for c in centers])
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
        params={
            "N": N,
            "eta": eta,
            "n": n,
            "bins": bins.tolist(),
            "top": top,
            "min_count": min_count,
            "tol": tol,
            "tolerance_provenance": "calibrated, not theoretical",
        },
        statistics=statistics,
        thresholds={"sup_rel_error": {"op": "<", "value": tol}},
        seeds=_seed_tuple(rng),
    )


def run_matrix_eigen_agreement(
    N: int,
    eta: float,
    H0: np.ndarray,
    t: float,
    n: int,
    rng: RandomSource,
    dt: float = 1e-3,
    threads: int = 1,
    dt_check: bool = False,
) -> ExperimentReport:
    """Matrix-integrator spectra against the direct eigenvalue integrator."""
    h0 = np.asarray(H0, dtype=complex)
    if h0.shape != (N, N):
        raise DomainError(f"H0 must be {N}x{N}, got shape {h0.shape}")
    x0 = np.linalg.eigvalsh(h0)[::-1]
    if not (np.all(np.diff(x0) < 0) and x0[-1] > 0):
        raise DomainError("eval(H0) must be strictly interior")
    params = SdeParams(eta=eta, rescaled=False)

    def collect(sub_rng, total, dt_step):
        def matrix_worker(block_rng, count):
            h0s = np.tile(h0, (count, 1, 1))
            h, repairs = evolve_matrix_ensemble(h0s, params, t, dt_step, block_rng)
            w = np.linalg.eigvalsh(h)[:, ::-1]
            return np.clip(w, 0.0, None), repairs

        def eigen_worker(block_rng, count):
            # matched plain-Euler discretisation on both sides, so the
            # leading-order weak errors largely cancel in the comparison
            return evolve_ensemble(
                np.tile(x0, (count, 1)), params, t, dt_step, block_rng, "eigen"
            )

        a, repairs = _run_blocks(total, matrix_worker, sub_rng.child(0), threads)
        b, fail = _run_blocks(total, eigen_worker, sub_rng.child(1), threads)
        return a, b[~fail], int(fail.sum()), int(repairs.sum())

    a, b, discarded, repairs = collect(rng.child(1), n, dt)
    ks = ks_per_coordinate(a, b)
    bonferroni = ALPHA / N
    statistics = {
        **{f"ks_pvalue_coord{k + 1}": float(p) for k, p in enumerate(ks)},
        "min_ks_pvalue": float(ks.min()),
        "discarded_replicas": float(discarded),
        "psd_repairs": float(repairs),
    }
    thresholds = {"min_ks_pvalue": {"op": ">", "value": bonferroni}}
    if dt_check:
        a2, b2, _, _ = collect(rng.child(2), min(n, 5000), dt / 2.0)
        stat, _, sd = energy_permutation_test(a, b, _MATRIX_N_PERM, rng.child(3))
        stat2, _, sd2 = energy_permutation_test(a2, b2, _MATRIX_N_PERM, rng.child(4))
        statistics["energy_statistic"] = stat
        _attach_dt_half(statistics, thresholds, "energy_statistic_dt_half", stat, stat2, sd + sd2)
    return ExperimentReport(
        name="matrix_eigen_agreement",
        params={
            "N": N,
            "eta": eta,
            "t": t,
            "n": n,
            "dt": dt,
            "bonferroni_level": bonferroni,
        },
        statistics=statistics,
        thresholds=thresholds,
        seeds=_seed_tuple(rng),
    )
