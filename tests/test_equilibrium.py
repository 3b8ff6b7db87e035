import numpy as np
import pytest
from scipy.linalg.lapack import dstebz
from scipy.special import gamma as gamma_fn
from scipy.special import jv
from scipy.stats import invgamma, kstest

from hardedge.equilibrium import (
    bessel_j,
    bessel_kernel,
    inverse_bessel_kernel,
    inverse_laguerre_samples,
    laguerre_samples,
)
from hardedge import equilibrium
from hardedge.errors import ConvergenceFailure, DomainError, ParameterError
from hardedge.rng import RandomSource


def series_bessel_j(nu, x, terms=60):
    """Independent power-series summation oracle for J_nu."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (nu + 2 * k) / (
            gamma_fn(k + 1) * gamma_fn(nu + k + 1)
        )
    return total


class TestLaguerre:
    def test_parameter_guard(self):
        with pytest.raises(ParameterError):
            laguerre_samples(3, -1.0, 1, RandomSource(1))

    def test_n1_is_gamma(self):
        eta = 1.0
        vals = laguerre_samples(1, eta, 30_000, RandomSource(2))[:, 0]
        assert vals.mean() == pytest.approx(eta + 1, abs=3 * vals.std() / np.sqrt(30_000))
        # eta = 0: exponential(1)
        e = laguerre_samples(1, 0.0, 30_000, RandomSource(3))[:, 0]
        stat = kstest(e, "expon")
        assert stat.pvalue > 0.01

    def test_trace_mean(self):
        for N, eta in [(2, 0.5), (3, 1.0), (5, 0.0)]:
            n = 8000
            sums = laguerre_samples(N, eta, n, RandomSource(4, N)).sum(axis=1)
            want = N * (N + eta)
            se = sums.std() / np.sqrt(n)
            assert abs(sums.mean() - want) < 3 * se + 1e-12

    def test_sorted_decreasing(self):
        s = laguerre_samples(6, 0.3, 1, RandomSource(5))[0]
        assert np.all(np.diff(s) < 0)

    def test_pairwise_density_shape_n2(self):
        # beta=2 repulsion: P(gap < g) ~ g^3 for small g; check tiny-gap scarcity
        vals = laguerre_samples(2, 0.0, 40_000, RandomSource(6))
        gaps = vals[:, 0] - vals[:, 1]
        assert np.mean(gaps < 0.05) < 5e-3


class TestInverseLaguerre:
    def test_inverse_gamma_n1(self):
        vals = inverse_laguerre_samples(1, 1.0, 30_000, RandomSource(7))[:, 0]
        assert vals.mean() == pytest.approx(1.0, abs=0.05)
        stat = kstest(vals, invgamma(2).cdf)
        assert stat.pvalue > 0.01

    # the id "dstebz" stays for the top-k path, now a batch-last bisection
    @pytest.mark.parametrize("top", [None, 1], ids=["full", "dstebz"])
    @pytest.mark.parametrize("eta", [-1.0, np.nan])
    def test_parameter_guard_names_eta(self, eta, top):
        # a NaN eta fails the eta > -1 check, not the solver's finiteness check
        with pytest.raises(ParameterError, match=r"need eta > -1, got"):
            inverse_laguerre_samples(3, eta, 5, RandomSource(8), top=top)

    def test_sorted_decreasing(self):
        s = inverse_laguerre_samples(5, 0.5, 1, RandomSource(8))[0]
        assert np.all(np.diff(s) < 0)

    def test_duality_with_laguerre_bitwise(self):
        y = laguerre_samples(4, 0.7, 10, RandomSource(9, 3))
        x = inverse_laguerre_samples(4, 0.7, 10, RandomSource(9, 3))
        np.testing.assert_array_equal(x, 1.0 / y[:, ::-1])


class TestNearEtaMinusOne:
    def test_full_draw_solves_every_row(self):
        # at eta = -0.9 a few of 300 rows have a smallest eigenvalue far below
        # eps |T|; the full draw counts on L's own entries, as the top-k path
        # does, and resolves every eigenvalue of every row
        full = inverse_laguerre_samples(2, -0.9, 300, RandomSource(0, 2))
        a, b = laguerre_factor(2, -0.9, 300, RandomSource(0, 2))
        want = np.array([golub_kahan_smallest(a[r], b[r], 2) for r in range(300)])
        assert want.min() < 1e-48
        np.testing.assert_allclose(2.0 / full, want, rtol=1e-12, atol=0)

    def test_top_path_solves_every_row_to_high_relative_accuracy(self):
        # the same 300 rows: counting on L's own entries resolves the
        # smallest eigenvalue, 5.9e-49 in one row, to full relative accuracy
        top = inverse_laguerre_samples(2, -0.9, 300, RandomSource(0, 2), top=1)
        a, b = laguerre_factor(2, -0.9, 300, RandomSource(0, 2))
        want = np.array([golub_kahan_smallest(a[r], b[r], 1) for r in range(300)])
        assert want.min() < 1e-48
        np.testing.assert_allclose(2.0 / top, want, rtol=1e-12, atol=0)


class NanGamma:
    """Stub stream whose gamma draws are all NaN."""

    def gamma(self, shape, scale=1.0, size=None):
        return np.full(size, np.nan)


class ZeroDiagonalGamma:
    """Stub stream whose gamma draws are 1, save one diagonal draw of 0."""

    def __init__(self):
        self.calls = 0

    def gamma(self, shape, scale=1.0, size=None):
        out = np.ones(size)
        if self.calls == 0:
            out[1, 2] = 0.0
        self.calls += 1
        return out


class TestInverseLaguerreTop:
    @pytest.mark.parametrize("N, k", [(2, 1), (5, 1), (5, 3), (200, 1), (200, 3)])
    def test_top_is_the_prefix_of_the_full_draw(self, N, k):
        top = inverse_laguerre_samples(N, 0.5, 40, RandomSource(10, N), top=k)
        full = inverse_laguerre_samples(N, 0.5, 40, RandomSource(10, N))
        assert top.shape == (40, k)
        np.testing.assert_allclose(top, full[:, :k], rtol=1e-9)

    def test_top_n_is_the_full_draw_bitwise(self):
        top = inverse_laguerre_samples(6, 1.0, 30, RandomSource(11), top=6)
        full = inverse_laguerre_samples(6, 1.0, 30, RandomSource(11))
        np.testing.assert_array_equal(top, full)

    def test_top_rows_strictly_decreasing(self):
        top = inverse_laguerre_samples(200, 1.0, 50, RandomSource(12), top=3)
        assert np.all(np.diff(top, axis=1) < 0)

    def test_stream_consumption_does_not_depend_on_top(self):
        a, b = RandomSource(13), RandomSource(13)
        inverse_laguerre_samples(50, 1.0, 20, a, top=2)
        inverse_laguerre_samples(50, 1.0, 20, b)
        np.testing.assert_array_equal(a.standard_normal(8), b.standard_normal(8))

    @pytest.mark.parametrize("top", [0, -1, 6])
    def test_top_outside_1_to_n_is_domain_error(self, top):
        with pytest.raises(DomainError, match="top must be in 1..N=5"):
            inverse_laguerre_samples(5, 1.0, 3, RandomSource(14), top=top)

    @pytest.mark.parametrize("N, top", [(1, None), (5, None), (5, 2)])
    def test_non_finite_tridiagonal_is_convergence_failure(self, N, top):
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            inverse_laguerre_samples(N, 1.0, 3, NanGamma(), top=top)

    def test_zero_diagonal_draw_is_convergence_failure(self):
        # a diagonal draw of exactly 0 makes L, and so T, singular; the full
        # draw and the top-k path alike
        for top in (None, 2):
            with pytest.raises(ConvergenceFailure, match=r"<= 0 in 1 of 3 rows"):
                inverse_laguerre_samples(5, 1.0, 3, ZeroDiagonalGamma(), top=top)

    def test_bisection_out_of_sweeps_is_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceFailure, match="did not converge in 3 sweeps"):
            inverse_laguerre_samples(5, 1.0, 3, RandomSource(15), top=2)


class TestEmbeddedTailCounts:
    EDGES = [-1.0, 0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0]

    @pytest.mark.parametrize(
        "N, eta, n, top",
        [(100, 1.0, 300, 3), (100, -0.9, 300, 2), (120, 0.5, 300, 1), (100, 1.0, 40, 100)],
    )
    def test_counts_are_the_histogram_of_the_top_points(self, N, eta, n, top):
        tail = equilibrium._embedded_tail_counts(N, eta, n, RandomSource(16, N), top, self.EDGES)
        y = inverse_laguerre_samples(N, eta, n, RandomSource(16, N), top).ravel() / N
        assert tail.dtype.kind == "i" and tail[0] == y.size == n * top
        np.testing.assert_array_equal(tail[:-1] - tail[1:], np.histogram(y, self.EDGES)[0])
        assert tail[-1] == np.count_nonzero(y >= self.EDGES[-1])

    def test_row_blocks_do_not_move_a_count(self, monkeypatch):
        # 13 shifts at _TARGET_BLOCK = 40: blocks of 3 rows, the last one short
        want = equilibrium._embedded_tail_counts(100, 1.0, 50, RandomSource(17), 3, self.EDGES)
        monkeypatch.setattr(equilibrium, "_TARGET_BLOCK", 40)
        got = equilibrium._embedded_tail_counts(100, 1.0, 50, RandomSource(17), 3, self.EDGES)
        np.testing.assert_array_equal(got, want)

    def test_zero_diagonal_draw_is_convergence_failure(self):
        with pytest.raises(ConvergenceFailure, match=r"<= 0 in 1 of 3 rows"):
            equilibrium._embedded_tail_counts(5, 1.0, 3, ZeroDiagonalGamma(), 2, [0.1, 1.0])

    def test_non_finite_tridiagonal_is_convergence_failure(self):
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            equilibrium._embedded_tail_counts(5, 1.0, 3, NanGamma(), 2, [0.1, 1.0])

    @pytest.mark.parametrize("top", [0, 6])
    def test_top_outside_1_to_n_is_domain_error(self, top):
        with pytest.raises(DomainError, match=f"top must be in 1..N=5, got {top}"):
            equilibrium._embedded_tail_counts(5, 1.0, 3, RandomSource(14), top, [0.1, 1.0])


def laguerre_factor(N, eta, n, rng):
    """The sampler's squared bidiagonal entries, row-major (a, b), from the same draws."""
    a = rng.gamma(eta + N - np.arange(N), scale=2.0, size=(n, N))
    b = rng.gamma(np.arange(N - 1, 0, -1, dtype=float), scale=2.0, size=(n, N - 1))
    return a, b


def tridiagonal(a, b):
    """T = L L^T as (main, off), of one row or of each row."""
    main = a.copy()
    main[..., 1:] += b
    return main, np.sqrt(a[..., :-1] * b)


def eigenvalues(a, b):
    """Every eigenvalue of each row's T, (n, N), from row-major (a, b)."""
    out = []
    for ar, br in zip(a, b):
        main, off = tridiagonal(ar, br)
        out.append(np.linalg.eigvalsh(np.diag(main) + np.diag(off, 1) + np.diag(off, -1)))
    return np.array(out)


def golub_kahan_smallest(a, b, k):
    """The k smallest eigenvalues of one row's T, as squared singular values
    of L: dstebz on the 2N x 2N zero-diagonal Golub-Kahan form, which finds
    them to high relative accuracy (Demmel & Kahan 1990)."""
    N = a.size
    off = np.empty(2 * N - 1)
    off[0::2], off[1::2] = np.sqrt(a), np.sqrt(b)
    tiny = 2.0 * np.finfo(float).tiny
    return dstebz(np.zeros(2 * N), off, 2, 0.0, 0.0, N + 1, N + k, tiny, "E")[1][:k] ** 2


def sampler_row(N, eta, n, rng, row):
    """Row ``row`` of the top-k sampler's (a, b), bit for bit, as (N, 1) and (N-1, 1)."""
    a, b = laguerre_factor(N, eta, n, rng)
    return a[row][:, None], b[row][:, None]


def assert_matches_dstebz(lam, a, b):
    k = lam.shape[1]
    tiny = 2.0 * np.finfo(float).tiny
    main, off = tridiagonal(a[:, 0], b[:, 0])
    want = dstebz(main, off, 2, 0.0, 0.0, 1, k, tiny, "E")[1][:k]
    norm = main.max() + 2.0 * off.max()
    np.testing.assert_allclose(lam[0], want, rtol=1e-9, atol=np.finfo(float).eps * norm)


class TestBisection:
    @pytest.mark.parametrize("eta", [-0.5, 0.5, 1.0])
    @pytest.mark.parametrize(
        "N, k", [(2, 1), (3, 1), (3, 2), (17, 1), (17, 16), (200, 1), (200, 199)]
    )
    def test_matches_dstebz(self, N, k, eta):
        n = 20
        top = inverse_laguerre_samples(N, eta, n, RandomSource(16, N), top=k)
        a, b = laguerre_factor(N, eta, n, RandomSource(16, N))
        tiny = 2.0 * np.finfo(float).tiny
        main, off = tridiagonal(a, b)
        lam = np.array(
            [dstebz(main[r], off[r], 2, 0.0, 0.0, 1, k, tiny, "E")[1][:k] for r in range(n)]
        )
        # dstebz on T is exact to ~eps |T| absolute; at eta = -0.5, N = 200
        # that alone is ~5e-9 of the smallest eigenvalue
        norm = main.max() + 2.0 * off.max(initial=0.0)
        np.testing.assert_allclose(2.0 / top, lam, rtol=1e-9, atol=np.finfo(float).eps * norm)
        # the top-k path counts on L's own entries, to high relative accuracy
        want = np.array([golub_kahan_smallest(a[r], b[r], k) for r in range(n)])
        np.testing.assert_allclose(2.0 / top, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N, eta, n", [(3, 0.5, 200), (8, -0.5, 200), (50, 1.0, 20)])
    def test_full_draw_matches_golub_kahan(self, N, eta, n):
        # every eigenvalue to high relative accuracy, the smallest included;
        # dsterf on T, exact only to ~eps |T|, missed (8, -0.5) by 5.7e-10
        full = inverse_laguerre_samples(N, eta, n, RandomSource(21, N))
        a, b = laguerre_factor(N, eta, n, RandomSource(21, N))
        want = np.array([golub_kahan_smallest(a[r], b[r], N) for r in range(n)])
        np.testing.assert_allclose(2.0 / full, want, rtol=1e-12, atol=0)

    def test_count_matches_eigvalsh_across_pivot_blocks(self):
        # N = 60 spans three pivot blocks, so the carried pivot is exercised
        N, n = 60, 7
        a, b = laguerre_factor(N, 0.5, n, RandomSource(17))
        lam = eigenvalues(a, b)
        x = np.random.default_rng(0).uniform(0.0, lam.max(), size=(4, n))
        want = (lam.T[:, None, :] < x).sum(axis=0)
        np.testing.assert_array_equal(equilibrium._sturm_count(a.T.copy(), b.T.copy(), x), want)

    def test_exact_zero_pivot_counts_once_without_warning(self):
        # T = L L^T = [[1, 1, 0], [1, 2, 1], [0, 1, 3]].  The first pivot of
        # T - 1 is exactly 0: the next is -inf, counted once, and the one
        # after needs the ratio inf/inf, redone as 1.  None of it may raise
        # a RuntimeWarning (warnings are errors here)
        a = np.array([[1.0], [1.0], [2.0]])
        b = np.array([[1.0], [1.0]])
        T = np.diag([1.0, 2.0, 3.0]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
        want = np.count_nonzero(np.linalg.eigvalsh(T) < 1.0)
        assert equilibrium._sturm_count(a, b, np.array([[1.0]]))[0, 0] == want == 1
        count, S = equilibrium._sturm_count(a, b, np.array([[1.0]]), a[:-1] * b)
        assert count[0, 0] == 1 and np.isnan(S[0, 0])
        # the eigenvalue 2 is isolated in [2, 3], on its lower end; Newton's
        # first step, from 2.5, leaves the bracket and falls back to the midpoint
        S = equilibrium._sturm_count(a, b, np.array([[2.5]]), a[:-1] * b)[1]
        assert 2.5 - 1.0 / S[0, 0] < 2.0
        lam, passes = equilibrium._bisect_smallest(a, b, 2)
        np.testing.assert_allclose(lam[0], np.linalg.eigvalsh(T)[:2], rtol=1e-12)
        assert passes <= 25

    def test_newton_pass_matches_eigenvalues_across_pivot_blocks(self):
        # S(x) = d/dx log|det(T - x)| = sum over eigenvalues of 1/(x - lambda)
        N, n = 60, 7
        a, b = laguerre_factor(N, 0.5, n, RandomSource(17))
        lam = eigenvalues(a, b)
        a, b = a.T.copy(), b.T.copy()
        x = np.random.default_rng(0).uniform(0.0, lam.max(), size=(4, n))
        count, S = equilibrium._sturm_count(a, b, x, a[:-1] * b)
        np.testing.assert_array_equal(count, equilibrium._sturm_count(a, b, x))
        want = (1.0 / (x[None] - lam.T[:, None, :])).sum(axis=0)
        np.testing.assert_allclose(S, want, rtol=1e-7)

    def test_sweeps_stay_bounded(self):
        # isolation takes about log4(hi / gap) count sweeps and Newton a few
        # passes more: about 15 at N = 200, where bisection alone took 53 ...
        a, b = laguerre_factor(200, 1.0, 100, RandomSource(18))
        lam, passes = equilibrium._bisect_smallest(a.T.copy(), b.T.copy(), 3)
        assert passes <= 30
        # ... and an eigenvalue of 5e-31, 30 orders of magnitude below the
        # bracket's top, still takes far fewer than the sweep bound:
        # T = L L^T with L = [[1e-15, 0], [1, 1]]
        a, b = np.array([[1e-30], [1.0]]), np.array([[1.0]])
        lam, passes = equilibrium._bisect_smallest(a, b, 1)
        np.testing.assert_allclose(lam[0, 0], 5e-31, rtol=1e-10)
        assert passes <= 145 < equilibrium._MAX_SWEEPS

    def test_row_with_a_bracket_at_the_width_floor_matches_dstebz(self):
        # a hard-edge row whose smallest eigenvalue counting on T left in a
        # bracket 1.01e-12 relative wide, where Newton mapped each end onto
        # the other
        a, b = sampler_row(200, 1.0, 1000, RandomSource(10).child(0).child(0), 619)
        lam, passes = equilibrium._bisect_smallest(a, b, 3)
        assert passes <= 30
        assert_matches_dstebz(lam, a, b)

    def test_row_with_a_small_smallest_eigenvalue_matches_dstebz(self):
        # this row's smallest eigenvalue, 3.3e-4, counting on T resolved only
        # to ~eps |T| ~ 1e-10 relative, where Newton's steps stalled
        a, b = sampler_row(50, -0.5, 1000, RandomSource(3, 50), 726)
        lam, passes = equilibrium._bisect_smallest(a, b, 5)
        assert passes <= 35
        assert_matches_dstebz(lam, a, b)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_half_integer_closed_form(self):
        x = 1.0
        want = np.sqrt(2 / (np.pi * x)) * np.sin(x)
        assert bessel_j(0.5, x) == pytest.approx(want, abs=1e-12)

    def test_j0_at_one_ten_digits(self):
        assert bessel_j(0.0, 1.0) == pytest.approx(0.7651976866, abs=1e-10)

    def test_matches_series_oracle(self):
        for nu in (0.0, 0.5, 1.0, 2.5):
            for x in (0.1, 1.0, 4.0, 9.0):
                assert bessel_j(nu, x) == pytest.approx(series_bessel_j(nu, x), abs=1e-10)

    def test_three_term_recurrence(self):
        xs = np.linspace(0.5, 40.0, 25)
        for nu in (0.5, 1.0, 2.0):
            lhs = bessel_j(nu - 1, xs) + bessel_j(nu + 1, xs)
            rhs = 2 * nu / xs * bessel_j(nu, xs)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, -1.0)

    @pytest.mark.parametrize("nu", [-1.0, -2.5, np.nan])
    def test_order_guard(self, nu):
        with pytest.raises(ParameterError, match="needs nu > -1"):
            bessel_j(nu, 1.0)

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 5.0])
    def test_matches_scipy(self, nu):
        # up to x = 1e3, Miller's recurrence and Hankel's expansion agree
        # with scipy to 1.2e-14 max(1, |J|): scipy's own error, ~1.1e-14 at
        # nu = -0.9 near x = 15 against a 40-digit reference
        x = np.geomspace(1e-6, 1e3, 700)
        got, want = bessel_j(nu, x), jv(nu, x)
        assert np.all(np.abs(got - want) <= 1.2e-14 * np.maximum(1.0, np.abs(want)))
        # beyond, against the envelope sqrt(2/(pi x))
        x = np.geomspace(1e3, 1e5, 700)
        got, want = bessel_j(nu, x), jv(nu, x)
        assert np.all(np.abs(got - want) <= 7e-12 * np.sqrt(2.0 / (np.pi * x)))

    def test_zero_and_non_finite_arguments(self):
        np.testing.assert_array_equal(bessel_j(1.5, np.array([0.0, 0.0])), [0.0, 0.0])
        # at nu = 200, x = 5016 Miller's normalisation overflows: a failure,
        # not the 0 that dividing by an infinite sum gives
        for nu, x in ((-0.5, 0.0), (0.0, np.inf), (0.0, np.nan), (200.0, 5016.0)):
            with pytest.raises(ConvergenceFailure, match="evaluation failed"):
                bessel_j(nu, x)


def panel_quadrature(f, edges, nodes=64):
    """The integral of f over [edges[0], edges[-1]] by a Gauss-Legendre rule
    on each panel between consecutive edges, f called once on a panel's nodes."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        total += half * (w @ f(lo + half * (t + 1.0)))
    return total


class TestBesselKernel:
    def test_symmetry(self):
        assert bessel_kernel(1.0, 2.0, 5.0) == pytest.approx(bessel_kernel(1.0, 5.0, 2.0))

    def test_diagonal_matches_offdiagonal_extrapolation(self):
        h = 1e-4
        for x in (0.5, 2.0, 7.0, 15.0):
            diag = bessel_kernel(1.0, x, x)
            off = bessel_kernel(1.0, x, x + h)
            assert abs(diag - off) < 5.0 * h

    def test_diagonal_positive_on_grid(self):
        for eta in (0.0, 0.5, 1.0):
            for x in np.linspace(0.05, 20.0, 40):
                assert bessel_kernel(eta, x, x) > 0

    def test_integral_identity(self):
        # int_0^inf J_eta(u,u)/u du = 1/(4 eta); pins the kernel normalisation.
        # Panels in sigma = sqrt(u), where the density's wiggle cos(2 sigma)
        # has a fixed period, up to u = 1e4; beyond, u = 1e4/s^2 on (0, 1].
        def f(u):
            return bessel_kernel(1.0, u, u) / u

        val = panel_quadrature(lambda s: 2.0 * s * f(s * s), np.linspace(0.0, 100.0, 11))
        val += panel_quadrature(lambda s: 2e4 * f(1e4 / s**2) / s**3, [0.0, 0.5, 1.0])
        assert val == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("x, y", [(np.nan, 1.0), (1.0, np.nan), (0.0, 1.0)])
    def test_nan_or_nonpositive_argument_is_domain_error(self, x, y):
        with pytest.raises(DomainError, match="bessel_kernel needs x, y > 0"):
            bessel_kernel(1.0, x, y)
        with pytest.raises(DomainError, match="inverse_bessel_kernel needs x, y > 0"):
            inverse_bessel_kernel(1.0, x, y)

    @pytest.mark.parametrize("eta", [-1.0, -2.0, np.nan])
    def test_parameter_guard(self, eta):
        with pytest.raises(ParameterError):
            bessel_kernel(eta, 2.0, 5.0)
        with pytest.raises(ParameterError):
            inverse_bessel_kernel(eta, 0.5, 0.5)


class TestInverseBesselKernel:
    def test_symmetry(self):
        assert inverse_bessel_kernel(1.0, 0.3, 0.9) == pytest.approx(
            inverse_bessel_kernel(1.0, 0.9, 0.3)
        )

    def test_density_nonnegative(self):
        for x in np.linspace(0.05, 5.0, 30):
            assert inverse_bessel_kernel(1.0, x, x) >= 0

    def test_mass_finite_away_from_origin(self):
        # integral over [a, inf) converges for a > 0; toward 0 it blows up.
        # The tail is x = 0.5/s^2 on s in (0, 1]; toward 0, geometric panels.
        def rho(x):
            return inverse_bessel_kernel(1.0, x, x)

        tail = panel_quadrature(lambda s: rho(0.5 / s**2) / s**3, [0.0, 1.0])
        assert np.isfinite(tail) and tail > 0
        near = panel_quadrature(rho, np.geomspace(1e-4, 0.5, 21))
        assert near > 10 * tail


class TestKernelGrid:
    def test_evaluate_and_invariants(self):
        # the kernel on a grid: a symmetric matrix with a nonnegative diagonal
        pts = np.linspace(0.2, 2.0, 6)
        values = np.array([[inverse_bessel_kernel(1.0, a, b) for b in pts] for a in pts])
        np.testing.assert_allclose(values, values.T, rtol=1e-12, atol=1e-10)
        assert np.all(np.diag(values) >= 0)

    def test_arrays_match_scalar_calls(self):
        # one call on the grid: the scalar values, and exactly symmetric
        pts = np.linspace(0.2, 2.0, 6)
        scalar = np.array([[inverse_bessel_kernel(1.0, a, b) for b in pts] for a in pts])
        assert type(inverse_bessel_kernel(1.0, 0.2, 0.4)) is float
        assert type(bessel_kernel(1.0, 2.0, 2.0)) is float
        values = inverse_bessel_kernel(1.0, *np.meshgrid(pts, pts, indexing="ij"))
        np.testing.assert_allclose(values, scalar, rtol=1e-13, atol=0)
        assert np.array_equal(values, values.T)
        # the diagonal form is chosen per entry: a pair 1e-7 apart among far pairs
        x = np.array([2.0, 2.0, 0.5, 7.0, 15.0])
        y = np.array([2.0 + 1e-7, 5.0, 3.0, 7.0, 0.1])
        want = [bessel_kernel(1.0, u, v) for u, v in zip(x, y)]
        np.testing.assert_allclose(bessel_kernel(1.0, x, y), want, rtol=1e-13, atol=0)
