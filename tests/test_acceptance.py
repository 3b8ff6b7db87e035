"""Acceptance suite: every numbered criterion as one test, at full size.

Each test prints one `[C##] ... PASS/FAIL` line (run with `-s` to see them
live).  Criterion 14 is implemented exactly as specified and fails by
design: the documented inverse-coordinate kernel constant is inconsistent
with the equilibrium ensemble it is compared against, as the companion
diagnostic test demonstrates; all other criteria pass.

Measured wall-clock of the whole Tier-1 run (unit and acceptance suites) on
a 2-core VM: 200-230 s over two runs.  The matrix agreement (C08, 43-56
s), equilibrium (C10 38-40 s, C09 31-37 s), collision (C11, 34-36 s) and
intertwining (C07, 10-13 s) ensembles take most of it; every other
criterion takes under 5 s.
"""

import json

import numpy as np
import pytest
from scipy.integrate import fixed_quad
from scipy.stats import chi2

from hardedge.core import (
    OmegaPlusPoint,
    OrderedConfig,
    SdeParams,
    drift_via_charpoly,
    singular_drift,
)
from hardedge.equilibrium import bessel_kernel
from hardedge.experiments import (
    bump_function,
    run_collision_bound,
    run_coupling_l2,
    run_equilibrium,
    run_hard_edge_density,
    run_intertwining,
    run_matrix_eigen_agreement,
    run_uniform_approx,
)
from hardedge.kernels import (
    chain_samples,
    corner_samples,
    lambda_k2_cell_masses,
    spline_m,
    spline_m_derivative,
    spline_m_tail_mass,
)
from hardedge.rng import RandomSource
from hardedge.sde import SmoothFunction, evolve_ensemble, generator_apply

SEED = 20240801


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def random_interior_config(rng, n, scale=1.0):
    gaps = rng.exponential(size=n) + 0.05
    return OrderedConfig(np.cumsum(gaps)[::-1] * scale)


def geometric_family(sizes, ratio=0.5):
    return [OrderedConfig(m * ratio ** np.arange(1, m + 1)) for m in sizes]


def test_c01_drift_identity():
    """Exact algebraic identity between the two drift evaluations. (< 1 s)"""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        cfg = random_interior_config(rng, n)
        i = int(rng.integers(0, n))
        a = singular_drift(i, cfg)
        b = drift_via_charpoly(i, cfg)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    report("C01 drift-identity", worst <= 1e-9, f"max rel err {worst:.3e} <= 1e-9")
    assert worst <= 1e-9


def test_c02_spline_correctness():
    """Spline mass, exact hat value, derivative recursion vs FD. (< 5 s)"""
    rng = np.random.default_rng(SEED + 1)
    worst_mass = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        x = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
        # piecewise-polynomial: per-cell Gauss-Legendre is an exact quadrature
        knots = np.unique(x)
        total = sum(
            fixed_quad(lambda y: spline_m(y, x), a, b, n=12)[0]
            for a, b in zip(knots[:-1], knots[1:])
        )
        worst_mass = max(worst_mass, abs(total - 1.0))
    hat_err = abs(spline_m(1.0, (2.0, 1.0, 0.0)) - 1.0)
    worst_fd = 0.0
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(4, 11))
        x = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
        span = x[0] - x[-1]
        for y in rng.uniform(x[-1] + 0.1 * span, x[0] - 0.1 * span, 3):
            fd = (spline_m(y + h, x) - spline_m(y - h, x)) / (2 * h)
            worst_fd = max(worst_fd, abs(spline_m_derivative(y, x, 1) - fd))
    ok = worst_mass <= 1e-8 and hat_err <= 1e-12 and worst_fd <= 1e-4
    report(
        "C02 spline",
        ok,
        f"mass err {worst_mass:.2e} <= 1e-8, hat err {hat_err:.2e} <= 1e-12, "
        f"FD err {worst_fd:.2e} <= 1e-4",
    )
    assert ok


def test_c03_one_point_chain_is_spline_law():
    """Chain to one point reproduces the spline law (sup-CDF). (< 30 s)"""
    x = OrderedConfig([5.0, 4.0, 3.0, 2.0, 1.0])
    n = 100_000
    ys = np.sort(chain_samples(x, 1, n, RandomSource(SEED, 3))[:, 0])
    cdf = 1.0 - spline_m_tail_mass(ys, x.values)
    grid = np.arange(1, n + 1) / n
    dist = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / n - cdf))))
    report("C03 one-point-chain", dist < 0.01, f"sup-CDF distance {dist:.5f} < 0.01 at n=1e5")
    assert dist < 0.01


def test_c04_corner_trace_identities():
    """Expected corner trace loses exactly one average coordinate. (< 30 s)"""
    rng_cfg = np.random.default_rng(SEED + 2)
    ok_all = True
    lines = []
    for idx, n_pts in enumerate((2, 5, 10)):
        cfg = random_interior_config(rng_cfg, n_pts)
        sums = corner_samples(cfg, 100_000, RandomSource(SEED, 10 + idx)).sum(axis=1)
        want = (n_pts - 1) / n_pts * cfg.values.sum()
        se = sums.std() / np.sqrt(sums.size)
        dev = abs(sums.mean() - want)
        ok_all &= dev < 3 * se
        lines.append(f"N={n_pts}: |dev|={dev:.4f} < 3se={3 * se:.4f}")
    report("C04 corner-trace", ok_all, "; ".join(lines))
    assert ok_all


def test_c05_density_vs_sampler():
    """Two-level kernel density: unit mass and chi^2 fit at n=1e5. (< 2 min)"""
    x = OrderedConfig([5.0, 4.0, 3.0, 2.0, 1.0])
    breaks = np.arange(1.0, 5.01, 0.5)
    masses, brk = lambda_k2_cell_masses(x, breaks, order=8)
    mass = float(masses.sum())
    mass_ok = abs(mass - 1.0) <= 1e-6

    n = 100_000
    samples = chain_samples(x, 2, n, RandomSource(SEED, 20))
    i1 = np.clip(np.digitize(samples[:, 0], brk) - 1, 0, len(brk) - 2)
    i2 = np.clip(np.digitize(samples[:, 1], brk) - 1, 0, len(brk) - 2)
    counts = np.zeros_like(masses)
    np.add.at(counts, (i1, i2), 1)

    # collapse cells with small expectation into a single rest bucket
    exp_flat, obs_flat = [], []
    rest_e = rest_o = 0.0
    for b in range(masses.shape[0]):
        for a in range(b + 1):
            e = n * masses[b, a]
            o = counts[b, a]
            if e >= 20:
                exp_flat.append(e)
                obs_flat.append(o)
            else:
                rest_e += e
                rest_o += o
    if rest_e > 0:
        exp_flat.append(rest_e)
        obs_flat.append(rest_o)
    exp_flat = np.array(exp_flat)
    obs_flat = np.array(obs_flat)
    # renormalise the tiny leftover mass so expectations sum to n exactly
    exp_flat *= n / exp_flat.sum()
    stat = float(np.sum((obs_flat - exp_flat) ** 2 / exp_flat))
    dof = len(exp_flat) - 1
    pvalue = float(chi2.sf(stat, dof))
    ok = mass_ok and pvalue > 0.01
    report(
        "C05 density-vs-sampler",
        ok,
        f"|mass-1|={abs(mass - 1.0):.2e} <= 1e-6, chi2 p={pvalue:.4f} > 0.01 (dof={dof})",
    )
    assert ok


def test_c06_generator_martingale():
    """Finite-difference semigroup action matches the generator. (< 2 min)"""
    x0 = OrderedConfig([3.0, 2.0, 1.0])
    f = SmoothFunction(
        value=lambda x: float(np.sum(x**2)),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(x.size),
    )
    assert generator_apply(f, OrderedConfig([2.0, 1.0]), 0.0) == pytest.approx(12.0)
    delta, n = 1e-3, 100_000
    ok_all = True
    lines = []
    for k, eta in enumerate((0.0, 1.0)):
        params = SdeParams(eta=eta, rescaled=False)
        ens, failed = evolve_ensemble(
            np.tile(x0.values, (n, 1)), params, delta, delta / 5, RandomSource(SEED, 30 + k)
        )
        vals = np.sum(ens[~failed] ** 2, axis=1)
        est = (vals.mean() - f.value(x0.values)) / delta
        se = vals.std() / np.sqrt(vals.size) / delta
        want = generator_apply(f, x0, eta)
        ok_all &= abs(est - want) < 3 * se
        lines.append(f"eta={eta}: est={est:.3f} vs Lf={want:.3f} (3se={3 * se:.3f})")
    report("C06 generator", ok_all, "; ".join(lines))
    assert ok_all


def test_c07_intertwining():
    """Corner/evolve exchange in law, with a failing negative control. (< 5 min)"""
    x = OrderedConfig([3.0, 2.0, 1.0])
    kw = dict(dt=5e-4, n_perm=500)
    lines = []
    ok_all = True
    for k, eta in enumerate((0.0, 1.0)):
        rep = run_intertwining(x, 0.25, eta, 20_000, RandomSource(SEED, 40 + k), **kw)
        ok_all &= rep.passed
        lines.append(f"eta={eta}: p={rep.statistics['energy_pvalue']:.4f}")
    control = run_intertwining(
        x, 0.25, 0.0, 20_000, RandomSource(SEED, 45), eta_corner_side=2.0, **kw
    )
    ok_all &= not control.passed
    lines.append(f"control(0 vs 2): p={control.statistics['energy_pvalue']:.4f} (must fail)")
    report("C07 intertwining", ok_all, "; ".join(lines))
    assert ok_all


def test_c08_matrix_eigen_agreement():
    """Matrix chain spectra match the particle chain marginals. (< 5 min)"""
    h0 = np.diag([3.0, 2.0, 1.0])
    trivial = run_matrix_eigen_agreement(3, 0.0, h0, 0.0, 2000, RandomSource(SEED, 50))
    rep = run_matrix_eigen_agreement(3, 0.0, h0, 0.5, 20_000, RandomSource(SEED, 51), dt=2.5e-4)
    ok = trivial.passed and rep.passed
    report(
        "C08 matrix-eigen",
        ok,
        f"t=0 min KS p={trivial.statistics['min_ks_pvalue']:.3f}; "
        f"t=0.5 min KS p={rep.statistics['min_ks_pvalue']:.4f} > {0.01 / 3:.4f}",
    )
    assert ok


def test_c09_equilibrium_n1():
    """One-particle long-time law is the exact inverse gamma. (< 2 min)"""
    rep = run_equilibrium(
        1, 1.0, OrderedConfig([3.0]), [20.0], 100_000, RandomSource(SEED, 60),
        dt=2e-3, n_perm=300,
    )
    p = rep.statistics["final_ks_exact_pvalue"]
    report("C09 equilibrium-N1", p > 0.01, f"KS vs inverse-gamma(2): p={p:.4f} > 0.01")
    assert p > 0.01


def test_c10_equilibrium_multi():
    """Three-particle law approaches the inverse Laguerre ensemble. (< 10 min)"""
    rep = run_equilibrium(
        3, 0.5, OrderedConfig([3.0, 2.0, 1.0]), [1.0, 5.0, 20.0], 10_000,
        RandomSource(SEED, 61), dt=1e-3, n_perm=300,
    )
    ok = rep.passed
    stats = [rep.statistics[f"energy_statistic_t{t:g}"] for t in (1.0, 5.0, 20.0)]
    report(
        "C10 equilibrium-N3",
        ok,
        f"energy stats {['%.4g' % s for s in stats]} decreasing (2 null-sd slack), "
        f"final p={rep.statistics['final_pvalue']:.4f} > 0.01",
    )
    assert ok


def test_c11_collision_bound():
    """Top-gap collision probability below the Lyapunov bound, all N. (< 10 min)"""
    fam = geometric_family((2, 4, 8, 16))
    rep = run_collision_bound(fam, 0.05, 0.1, 1.0, 10_000, RandomSource(SEED, 62), dt=1e-3)
    ests = [rep.statistics[f"estimate_N{m}"] for m in (2, 4, 8, 16)]
    report(
        "C11 collision-bound",
        rep.passed,
        f"estimates {['%.4f' % e for e in ests]} all <= bound {rep.statistics['bound']:.3f} "
        f"(C={rep.statistics['lyapunov_constant']:.3f})",
    )
    assert rep.passed


def test_c12_uniform_approx():
    """Chain and boundary integrals converge together along the family. (< 10 min)"""
    rep = run_uniform_approx(
        1, bump_function(0.2, 0.8), geometric_family((4, 8, 16, 32)), 100_000,
        RandomSource(SEED, 63),
    )
    diffs = [rep.statistics[f"abs_diff_N{m}"] for m in (4, 8, 16, 32)]
    report(
        "C12 uniform-approx",
        rep.passed,
        f"diffs {['%.4f' % d for d in diffs]} nonincreasing (2se slack), "
        f"final {rep.statistics['final_abs_diff']:.4f} < 0.02",
    )
    assert rep.passed


def test_c13_coupling_l2():
    """Synchronous-coupling discrepancies shrink with the system size. (< 10 min)"""
    om = OmegaPlusPoint([1.0], gamma=1.0)
    rep = run_coupling_l2(om, [8, 16, 32, 64], 1.0, 2e-4, RandomSource(SEED, 64), eta=1.0)
    pairs = [(8, 16), (16, 32), (32, 64)]
    discs = [rep.statistics[f"sup_l2_N{a}_vs_N{b}"] for a, b in pairs]
    report(
        "C13 coupling-l2",
        rep.passed,
        f"sup-l2 {['%.5f' % d for d in discs]}, max ratio "
        f"{rep.statistics['max_consecutive_ratio']:.3f} <= 1.2",
    )
    assert rep.passed


HARD_EDGE_BINS = np.linspace(0.07, 0.62, 12)


def test_c14_hard_edge_density():
    """Embedded equilibrium density against the documented kernel. (< 10 min)

    Implemented exactly as specified.  This criterion FAILS by design: the
    documented inverse-coordinate kernel (constant 8) is inconsistent with
    the equilibrium ensemble by a factor-two argument slip; the embedded
    points follow the constant-4 kernel, verified by the companion
    diagnostic test and the integral identity in the equilibrium tests
    (the kernel normalisation is pinned by int J(u,u)/u du = 1/(4 eta)
    together with the exact mean of the one-point boundary law).
    """
    rep = run_hard_edge_density(
        200, 1.0, 5000, HARD_EDGE_BINS, RandomSource(SEED, 65), top=3, min_count=100
    )
    sup = rep.statistics["sup_rel_error"]
    report(
        "C14 hard-edge",
        rep.passed,
        f"sup rel err vs documented kernel {sup:.3f} < 0.15 "
        f"(diagnostic rescaled-4 kernel: {rep.statistics['sup_rel_error_rescaled4']:.3f})",
    )
    assert rep.passed, (
        "expected failure: the documented kernel constant 8 mismatches the "
        "equilibrium ensemble; the rescaled-4 diagnostic in the same report "
        f"reads {rep.statistics['sup_rel_error_rescaled4']:.3f} and passes"
    )


def test_c14_hard_edge_density_corrected_scale_diagnostic():
    """Companion diagnostic: the constant-4 kernel matches within 0.15."""
    rep = run_hard_edge_density(
        200, 1.0, 5000, HARD_EDGE_BINS, RandomSource(SEED, 65), top=3, min_count=100
    )
    sup4 = rep.statistics["sup_rel_error_rescaled4"]
    report("C14-diagnostic hard-edge-rescaled", sup4 < 0.15, f"sup rel err {sup4:.3f} < 0.15")
    assert sup4 < 0.15


def test_c15_reproducibility(tmp_path):
    """Same seed and config give byte-identical reports at 1 and 8 threads. (< 5 min)"""
    from hardedge.cli import main

    args = [
        "experiment", "intertwining", "--seed", "777",
        "--set", "x=[3,2,1]", "--set", "t=0.05", "--set", "n=4000",
        "--set", "dt=0.001", "--set", "n_perm=300",
    ]
    a_dir, b_dir = tmp_path / "one", tmp_path / "eight"
    code_a = main([*args, "--threads", "1", "--out", str(a_dir)])
    code_b = main([*args, "--threads", "8", "--out", str(b_dir)])
    bytes_a = (a_dir / "report.json").read_bytes()
    bytes_b = (b_dir / "report.json").read_bytes()
    ok = code_a == code_b and bytes_a == bytes_b
    doc = json.loads(bytes_a)
    report(
        "C15 reproducibility",
        ok,
        f"threads 1 vs 8: identical {len(bytes_a)}-byte reports, passed={doc['passed']}",
    )
    assert ok
