import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline

from hardedge.core import OmegaPlusPoint, OrderedConfig, embed
from hardedge.errors import DegenerateKnots, DomainError, NumericalInstability, OrderTooHigh
from hardedge.kernels import (
    KnotVector,
    _haar_frame,
    _spline_args,
    boundary_corner_samples,
    chain_samples,
    corner_samples,
    lambda_kn_density,
    spline_m,
    spline_m_derivative,
    spline_m_tail_mass,
)
from hardedge.rng import RandomSource


def _divdiff_truncated_power(nodes_asc: np.ndarray, y, power: int):
    """Confluent Newton divided difference of t -> (t-y)_+^power.

    ``y`` may be a scalar or 1-d array; ties in the nodes are resolved with
    derivative values, which stay continuous as long as every multiplicity
    is at most ``power``.
    """
    y = np.asarray(y, dtype=float)
    m = nodes_asc.size

    def f_deriv(t, j):
        # j-th derivative of (t-y)_+^power
        coef = 1.0
        for k in range(j):
            coef *= power - k
        expo = power - j
        diff = t - y
        if expo == 0:
            return coef * (diff > 0).astype(float)
        return coef * np.where(diff > 0, diff, 0.0) ** expo

    table = [f_deriv(nodes_asc[i], 0) for i in range(m)]
    fact = 1.0
    for j in range(1, m):
        fact *= j
        new = []
        for i in range(m - j):
            dt = nodes_asc[i + j] - nodes_asc[i]
            if dt == 0.0:
                new.append(f_deriv(nodes_asc[i], j) / fact)
            else:
                new.append((table[i + 1] - table[i]) / dt)
        table = new
    return table[0]


def spline_m_tableau(y, knots):
    """Newton-tableau evaluation of the spline (cross-check route).

    Divided differences of the truncated power over the knot multiset;
    exact at ties but loses absolute accuracy ~1e-8 on clustered knots.
    """
    nodes, yarr, scalar = _spline_args(y, knots)
    n = nodes.size
    out = np.zeros_like(yarr)
    inside = (yarr >= nodes[0]) & (yarr <= nodes[-1])
    if np.any(inside):
        out[inside] = (n - 1) * _divdiff_truncated_power(nodes, yarr[inside], n - 2)
    return float(out[0]) if scalar else out


def interlaces(y, x, tol=1e-10):
    """x_1 >= y_1 >= x_2 >= ... >= y_{N-1} >= x_N up to tol."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.size != x.size - 1:
        return False
    scale = max(abs(x[0]), 1.0)
    return bool(np.all(x[:-1] >= y - tol * scale) and np.all(y >= x[1:] - tol * scale))


def bspline_oracle(y, knots_desc):
    """Independent evaluation of the spline via scipy's B-spline basis."""
    t = np.sort(np.asarray(knots_desc, dtype=float))
    p = len(t) - 2
    b = BSpline.basis_element(t, extrapolate=False)
    val = b(y)
    val = 0.0 if np.isnan(val) else float(val)
    return val * (p + 1) / (t[-1] - t[0])


class TestSplineM:
    def test_two_knots_uniform(self):
        assert spline_m(1.5, (2.0, 1.0)) == pytest.approx(1.0)
        assert spline_m(2.5, (2.0, 1.0)) == 0.0

    def test_hat_peak(self):
        assert spline_m(1.0, (2.0, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_outside_hull_vanishes(self):
        assert spline_m(3.0, (2.0, 1.0, 0.0)) == 0.0
        assert spline_m(-0.5, (2.0, 1.0, 0.0)) == 0.0

    def test_matches_raw_rational_formula(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 6, 9):
            x = np.sort(rng.uniform(0.5, 5.0, n))[::-1]
            ys = rng.uniform(x[-1], x[0], 8)
            raw = np.zeros_like(ys)
            for i in range(n):
                denom = np.prod([x[i] - x[j] for j in range(n) if j != i])
                raw += np.clip(x[i] - ys, 0.0, None) ** (n - 2) / denom
            raw *= n - 1
            np.testing.assert_allclose(spline_m(ys, x), raw, rtol=2e-6, atol=1e-13)

    def test_two_internal_routes_agree(self):
        # default positive-recurrence evaluator vs the Newton tableau;
        # the tableau carries ~1e-8 absolute noise on clustered knots
        rng = np.random.default_rng(7)
        for n in (2, 4, 8, 12):
            x = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
            ys = rng.uniform(x[-1], x[0], 12)
            np.testing.assert_allclose(
                spline_m(ys, x), spline_m_tableau(ys, x), rtol=1e-6, atol=1e-7
            )

    def test_matches_scipy_bspline(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8, 12):
            x = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
            for y in rng.uniform(x[-1] + 1e-6, x[0] - 1e-6, 6):
                # both routes carry ~1e-8 absolute roundoff deep in the tail
                assert spline_m(y, x) == pytest.approx(bspline_oracle(y, x), rel=1e-5, abs=1e-7)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 7, 12):
            x = np.sort(rng.uniform(0.0, 3.0, n))[::-1]
            total, _ = quad(lambda y: spline_m(y, x), x[-1], x[0], points=list(x), limit=200)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_tied_knots_supported(self):
        # triple knot of multiplicity 2 in a 4-knot spline
        x = (3.0, 2.0, 2.0, 1.0)
        val = spline_m(2.0, x)
        assert np.isfinite(val) and val > 0
        total, _ = quad(lambda y: spline_m(y, x), 1.0, 3.0, points=[2.0], limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_knots_raise(self):
        with pytest.raises(DegenerateKnots):
            spline_m(1.0, (2.0, 2.0))

    def test_knotvector_validation(self):
        with pytest.raises(DomainError):
            KnotVector([1.0])
        with pytest.raises(DomainError):
            KnotVector([1.0, 2.0])
        for knots in ([np.nan, 1.0], [np.inf, 0.0], [2.0, np.nan, 0.0]):
            with pytest.raises(DomainError):
                KnotVector(knots)


class TestSplineDerivative:
    def test_hat_rising_edge(self):
        assert spline_m_derivative(0.5, (2.0, 1.0, 0.0), 1) == pytest.approx(1.0)

    def test_order_zero_is_spline(self):
        assert spline_m_derivative(1.3, (2.0, 1.0, 0.0), 0) == spline_m(1.3, (2.0, 1.0, 0.0))

    def test_order_too_high(self):
        with pytest.raises(OrderTooHigh):
            spline_m_derivative(1.0, (2.0, 1.0, 0.0), 2)

    def test_derivative_integrates_to_zero(self):
        x = (3.0, 2.2, 1.1, 0.4)
        total, _ = quad(lambda y: spline_m_derivative(y, x, 1), 0.4, 3.0, points=list(x), limit=200)
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 3.0, 6))[::-1]
        h = 1e-6
        for y in rng.uniform(x[-1] + 0.1, x[0] - 0.1, 5):
            fd = (spline_m(y + h, x) - spline_m(y - h, x)) / (2 * h)
            assert spline_m_derivative(y, x, 1) == pytest.approx(fd, abs=1e-4)

    def test_second_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0.0, 3.0, 7))[::-1]
        h = 1e-4
        for y in rng.uniform(x[-1] + 0.2, x[0] - 0.2, 4):
            fd = (spline_m(y + h, x) - 2 * spline_m(y, x) + spline_m(y - h, x)) / h**2
            assert spline_m_derivative(y, x, 2) == pytest.approx(fd, abs=1e-3)


def quadrature_tail_mass(ys, knots):
    """Upper-tail mass of the spline by Gauss-Legendre quadrature of
    ``spline_m`` over every cell between knots and evaluation points; N
    nodes per cell are exact for a piecewise polynomial of degree N-2.

    The knots and points are first translated to start at 0.  For the knots
    and points used here that is exact, and it keeps the rounding of the
    quadrature nodes small against the cell widths.
    """
    x = np.asarray(knots, dtype=float)
    lo = x.min()
    ys = np.asarray(ys, dtype=float) - lo
    edges = np.unique(np.concatenate([x - lo, ys]))
    g, w = np.polynomial.legendre.leggauss(x.size)
    half = 0.5 * np.diff(edges)[:, None]
    pts = half * g + 0.5 * (edges[:-1] + edges[1:])[:, None]
    cells = half[:, 0] * (spline_m(pts.ravel(), x - lo).reshape(pts.shape) @ w)
    upper = np.append(np.cumsum(cells[::-1])[::-1], 0.0)
    return upper[np.searchsorted(edges, ys)]


class TestTailMass:
    def test_limits(self):
        x = (3.0, 1.0, 0.5)
        assert spline_m_tail_mass(-1.0, x) == pytest.approx(1.0)
        assert spline_m_tail_mass(4.0, x) == 0.0

    def test_infinite_points(self):
        # warnings are errors here, so inf * 0 in the recurrence would fail
        x = (3.0, 2.0, 1.0)
        assert spline_m(-np.inf, x) == spline_m(np.inf, x) == 0.0
        assert spline_m_tail_mass(-np.inf, x) == 1.0
        assert spline_m_tail_mass(np.inf, x) == 0.0
        ys = np.array([-np.inf, 1.5, np.inf])
        tails = [1.0, spline_m_tail_mass(1.5, x), 0.0]
        np.testing.assert_array_equal(spline_m_tail_mass(ys, x), tails)
        np.testing.assert_array_equal(spline_m(ys, x), [0.0, spline_m(1.5, x), 0.0])

    @pytest.mark.parametrize("y", [np.nan, np.array([1.5, np.nan, 2.5])], ids=["scalar", "array"])
    @pytest.mark.parametrize("f", [spline_m, spline_m_tail_mass])
    def test_nan_point_is_domain_error(self, f, y):
        with pytest.raises(DomainError, match="NaN"):
            f(y, (3.0, 2.0, 1.0))

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 3.0, 5))[::-1]
        for y in rng.uniform(x[-1], x[0], 4):
            tail, _ = quad(lambda s: spline_m(s, x), y, x[0], points=list(x), limit=200)
            assert spline_m_tail_mass(y, x) == pytest.approx(tail, abs=1e-9)

    @pytest.mark.parametrize(
        "knots",
        [
            np.arange(30.0, 0.0, -1.0),
            np.arange(64.0, 0.0, -1.0),
            np.sort(1.0 + 0.001 * np.random.default_rng(0).random(40))[::-1],
        ],
        ids=["even-30", "even-64", "clustered-40"],
    )
    def test_exact_for_many_knots(self, knots):
        # the Newton tableau of (t-y)_+^(N-1), _divdiff_truncated_power, is
        # off by 6.5e-7, 2.7e-4 and 1.0 on these three knot vectors
        ys = knots[-1] + (knots[0] - knots[-1]) * np.arange(1, 8) / 8
        np.testing.assert_allclose(
            spline_m_tail_mass(ys, knots), quadrature_tail_mass(ys, knots), rtol=0, atol=1e-12
        )
        tails = spline_m_tail_mass(np.linspace(knots[-1], knots[0], 1001), knots)
        assert tails.min() >= 0.0 and tails.max() <= 1.0

    @pytest.mark.parametrize(
        "knots, ys, tails",
        [
            ((3.0, 2.0, 2.0, 1.0), (1.5, 2.0, 2.5), (15 / 16, 1 / 2, 1 / 16)),
            ((4.0, 2.0, 2.0, 2.0, 1.0), (2.0, 2.5), (2 / 3, 27 / 128)),
            # a tie at the lowest knot: levels with t_{d+1} = t_0 add nothing
            ((3.0, 2.0, 1.0, 1.0), (1.5, 2.0, 2.5), (23 / 32, 1 / 4, 1 / 32)),
        ],
        ids=["double", "triple", "double-at-lowest"],
    )
    def test_tied_knots(self, knots, ys, tails):
        np.testing.assert_allclose(spline_m_tail_mass(np.array(ys), knots), tails, rtol=1e-14)


class TestHaarUnitary:
    def test_unitarity(self):
        u = _haar_frame(RandomSource(11), (5, 5))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    def test_first_column_phase_distribution(self):
        # |U_11|^2 of a Haar unitary is Beta(1, m-1); check the mean 1/m.
        u = _haar_frame(RandomSource(12), (4000, 4, 4))
        m = np.mean(np.abs(u[:, 0, 0]) ** 2)
        assert m == pytest.approx(0.25, abs=0.02)


class TestCornerSampling:
    def test_two_point_corner_is_uniform(self):
        cfg = OrderedConfig([3.0, 1.0])
        ys = corner_samples(cfg, 40_000, RandomSource(21))[:, 0]
        assert ys.min() >= 1.0 - 1e-9 and ys.max() <= 3.0 + 1e-9
        assert ys.mean() == pytest.approx(2.0, abs=3 * 2 / np.sqrt(3 * 40_000))
        # uniform CDF check at quartiles
        for q, want in [(1.5, 0.25), (2.0, 0.5), (2.5, 0.75)]:
            assert np.mean(ys <= q) == pytest.approx(want, abs=0.01)

    def test_tied_input_is_deterministic(self):
        cfg = OrderedConfig([2.0, 2.0, 2.0])
        out = corner_samples(cfg, 1, RandomSource(22))[0]
        np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-10)

    def test_interlacing_holds(self):
        cfg = OrderedConfig([5.0, 3.5, 2.0, 0.5])
        samples = corner_samples(cfg, 200, RandomSource(23))
        for y in samples:
            assert interlaces(y, cfg.values)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**30))
    def test_interlacing_property_random_configs(self, n, seed):
        gen = np.random.default_rng(seed)
        vals = np.sort(gen.uniform(0.0, 5.0, n))[::-1]
        cfg = OrderedConfig(vals)
        y = corner_samples(cfg, 1, RandomSource(seed))[0]
        assert interlaces(y, cfg.values)
        # the K-level chain interlaces N-K times: x_{i+N-K} <= y_i <= x_i
        k = int(gen.integers(1, n))
        y = chain_samples(cfg, k, 1, RandomSource(seed, 1))[0]
        tol = 1e-10 * max(vals[0], 1.0)
        assert np.all(vals[n - k :] <= y + tol) and np.all(y <= vals[:k] + tol)

    @pytest.mark.parametrize("n_pts", [2, 5, 10])
    def test_trace_identity(self, n_pts):
        rng = RandomSource(24, n_pts)
        vals = np.sort(np.random.default_rng(n_pts).uniform(0.5, 4.0, n_pts))[::-1]
        cfg = OrderedConfig(vals)
        n = 6000
        sums = corner_samples(cfg, n, rng).sum(axis=1)
        want = (n_pts - 1) / n_pts * vals.sum()
        se = sums.std() / np.sqrt(n)
        assert abs(sums.mean() - want) < 3 * se + 1e-12


class TestChain:
    def test_top_level_chain_is_single_corner(self):
        cfg = OrderedConfig([4.0, 2.0, 1.0])
        a = chain_samples(cfg, 2, 5, RandomSource(31))
        b = corner_samples(cfg, 5, RandomSource(31))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_tied_chain(self):
        cfg = OrderedConfig([3.0, 3.0, 3.0, 3.0])
        out = chain_samples(cfg, 2, 1, RandomSource(32))[0]
        np.testing.assert_allclose(out, [3.0, 3.0], atol=1e-9)

    def test_chain_trace_identity(self):
        cfg = OrderedConfig([5.0, 4.0, 3.0, 2.0, 1.0])
        n = 8000
        sums = chain_samples(cfg, 2, n, RandomSource(33)).sum(axis=1)
        want = 2 / 5 * 15.0
        se = sums.std() / np.sqrt(n)
        assert abs(sums.mean() - want) < 3 * se

    @pytest.mark.parametrize("k", [2, 3])
    def test_iterated_corners_match_direct_chain(self, k):
        # compressing with one Haar N x K frame has the law of N-K
        # successive one-level corners
        from hardedge.kernels import corner_of_each
        from hardedge.stats import energy_permutation_test

        cfg = OrderedConfig([6.0, 5.0, 3.5, 2.0, 1.5, 0.5])
        n = 5000
        rng = RandomSource(35, k)
        current = np.tile(cfg.values, (n, 1))
        for m in range(cfg.n, k, -1):
            current = corner_of_each(current, rng.child(m))
        direct = chain_samples(cfg, k, n, rng.child(0))
        _, pvalue, _ = energy_permutation_test(current, direct, 300, rng.child(1))
        assert pvalue > 0.01

    def test_invalid_k(self):
        with pytest.raises(DomainError):
            chain_samples(OrderedConfig([2.0, 1.0]), 2, 1, RandomSource(34))


class TestDensity:
    def test_k1_is_spline(self):
        x = OrderedConfig([5.0, 4.0, 3.0, 2.0, 1.0])
        for y in np.linspace(1.1, 4.9, 7):
            assert lambda_kn_density(np.array([y]), x, 1) == pytest.approx(
                spline_m(y, x.values), rel=1e-12
            )

    def test_top_level_matches_vandermonde_ratio(self):
        # K = N-1: the determinant formula must reproduce the classical
        # Vandermonde-ratio density on the interlacing polytope.
        rng = np.random.default_rng(41)
        x = np.sort(rng.uniform(0.5, 6.0, 4))[::-1]
        cfg = OrderedConfig(x)
        n = 4
        import math

        for _ in range(12):
            y = np.array([rng.uniform(x[i + 1], x[i]) for i in range(n - 1)])
            y = np.sort(y)[::-1]
            dens = lambda_kn_density(y, cfg, n - 1)
            vander = lambda v: np.prod([v[i] - v[j] for i in range(len(v)) for j in range(i + 1, len(v))])
            want = math.factorial(n - 1) * vander(y) / vander(x)
            assert dens == pytest.approx(want, rel=1e-8)

    def test_vanishes_off_support(self):
        x = OrderedConfig([4.0, 3.0, 2.0, 1.0])
        y = np.array([3.5, 3.4])  # both in the top gap: not reachable
        assert lambda_kn_density(y, x, 2) == pytest.approx(0.0, abs=1e-12)

    def test_normalisation_k2(self):
        from hardedge.kernels import lambda_k2_cell_masses

        x = OrderedConfig([4.0, 3.0, 2.0])
        masses, _ = lambda_k2_cell_masses(x, [2.0, 2.5, 3.0, 3.5, 4.0], order=8)
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_normalisation_k2_dblquad_oracle(self):
        # independent adaptive-quadrature route over the ordered region
        from scipy.integrate import dblquad

        x = OrderedConfig([4.0, 3.0, 2.0])
        mass, err = dblquad(
            lambda y2, y1: lambda_kn_density(np.array([y1, y2]), x, 2),
            2.0,
            4.0,
            lambda y1: 2.0,
            lambda y1: min(y1, 3.0),
            epsabs=1e-7,
        )
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_envelope_enforced(self):
        cases = [(40, np.linspace(20.0, 10.0, 7), 7), (31, np.array([15.0]), 1)]
        for n, y, k in cases:
            x = OrderedConfig(np.arange(n, 0, -1.0))
            with pytest.raises(NumericalInstability):
                lambda_kn_density(y, x, k)


class TestBoundaryCorner:
    def test_zero_support_is_scalar(self):
        om = OmegaPlusPoint([0.0], gamma=1.7)
        out = boundary_corner_samples(om, 3, 1, RandomSource(51))[0]
        np.testing.assert_allclose(out, [1.7, 1.7, 1.7], atol=1e-12)

    def test_level_one_mean_is_gamma(self):
        om = OmegaPlusPoint([0.4, 0.2, 0.1], gamma=1.0)
        n = 40_000
        vals = boundary_corner_samples(om, 1, n, RandomSource(52))[:, 0]
        se = vals.std() / np.sqrt(n)
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_truncation_absorbs_tail_mass(self):
        # the fixed 1e-12 cut keeps 40 of these 59 atoms
        xs = 0.5 ** np.arange(1, 60)
        om = OmegaPlusPoint(xs, gamma=float(xs.sum()))
        vals = boundary_corner_samples(om, 1, 50_000, RandomSource(53))
        # mean preserved exactly by construction even with the tail cut
        se = vals.std() / np.sqrt(50_000)
        assert abs(vals.mean() - om.gamma) < 3 * se

    def test_matches_corner_chain_for_large_n(self):
        # boundary sampling from an embedded config approximates the chain
        cfg = OrderedConfig(12.0 * 0.5 ** np.arange(1, 13))
        om = embed(cfg)
        n = 10_000
        a = chain_samples(cfg, 1, n, RandomSource(54))[:, 0]
        b = boundary_corner_samples(om, 1, n, RandomSource(55))[:, 0]
        assert abs(a.mean() - b.mean()) < 4 * np.hypot(a.std(), b.std()) / np.sqrt(n)

    def test_factorisation_through_intermediate_level(self):
        # boundary sample at level N then chain to K agrees in law with a
        # direct boundary sample at level K
        from hardedge.stats import energy_permutation_test

        om = OmegaPlusPoint([0.5, 0.25, 0.125], gamma=1.0)
        n, level_n, level_k = 20_000, 5, 2
        top = boundary_corner_samples(om, level_n, n, RandomSource(56))
        chained = np.empty((n, level_k))
        rng = RandomSource(57)
        from hardedge.kernels import corner_of_each

        current = top
        for m in range(level_n, level_k, -1):
            current = corner_of_each(current, rng.child(m))
        chained = current
        direct = boundary_corner_samples(om, level_k, n, RandomSource(58))
        _, pvalue, _ = energy_permutation_test(chained, direct, 300, RandomSource(59))
        assert pvalue > 0.01
