import numpy as np
import pytest
import scipy.stats
from scipy.stats import ks_2samp

from hardedge.errors import DomainError, EmptySample
from hardedge.rng import RandomSource
from hardedge.stats import _pairwise_distances, energy_permutation_test, ks_per_coordinate


def energy_distance(a, b):
    """Energy statistic 2 E|A-B| - E|A-A'| - E|B-B'| (V-statistic form),
    from direct norms of the differences rather than the permutation
    test's Gram expansion and quadratic form."""

    def mean_dist(x, y):
        return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1).mean()

    return float(2.0 * mean_dist(a, b) - mean_dist(a, a) - mean_dist(b, b))


def null_calibration_pvalues(n_reps, n, dim, n_perm, rng, max_points=2500):
    """p-values of the energy permutation test under the null, for calibration."""
    ps = np.empty(n_reps)
    for r in range(n_reps):
        sub = rng.child(r)
        a = sub.standard_normal((n, dim))
        b = sub.standard_normal((n, dim))
        ps[r] = energy_permutation_test(a, b, n_perm, sub, max_points=max_points)[1]
    return ps


class TestEnergyDistance:
    def test_identical_sets_zero(self):
        a = np.random.default_rng(0).normal(size=(50, 3))
        stat, _, _ = energy_permutation_test(a, a.copy(), 200, RandomSource(0))
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_coincident_points_are_at_distance_zero(self):
        # the Gram expansion's rounding noise must not reach the diagonal
        # or the pairs of coincident points
        a = RandomSource(7).standard_normal((300, 2))
        d = _pairwise_distances(np.concatenate([a, a]))
        assert not np.diag(d).any() and not np.diag(d, 300).any()

    def test_positive_for_shifted(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(400, 2))
        b = rng.normal(size=(400, 2)) + 3.0
        stat, _, _ = energy_permutation_test(a, b, 200, RandomSource(1))
        assert stat > 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            energy_permutation_test(np.zeros((5, 2)), np.zeros((5, 3)), 200, RandomSource(0))

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            energy_permutation_test(np.zeros((0, 2)), np.zeros((5, 2)), 200, RandomSource(0))


class TestPermutationTest:
    def test_rejects_small_n_perm(self):
        a = np.zeros((10, 1))
        with pytest.raises(DomainError):
            energy_permutation_test(a, a, 50, RandomSource(0))

    def test_null_p_not_small(self):
        rng = RandomSource(3)
        a = rng.standard_normal((500, 2))
        b = rng.standard_normal((500, 2))
        _, p, _ = energy_permutation_test(a, b, 200, rng)
        assert p > 0.01

    def test_power_at_five_sigma(self):
        rng = RandomSource(4)
        a = rng.standard_normal((400, 1))
        b = rng.standard_normal((400, 1)) + 5.0
        _, p, _ = energy_permutation_test(a, b, 200, rng)
        assert p < 0.01

    def test_reproducible_with_subsampling(self):
        base = RandomSource(5)
        a = base.standard_normal((4000, 2))
        b = base.standard_normal((4000, 2))
        _, p1, _ = energy_permutation_test(a, b, 200, RandomSource(6), max_points=500)
        _, p2, _ = energy_permutation_test(a, b, 200, RandomSource(6), max_points=500)
        assert p1 == p2

    def test_matches_direct_statistic(self):
        rng = RandomSource(7)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + 0.2
        stat, _, _ = energy_permutation_test(a, b, 200, RandomSource(8))
        assert stat == pytest.approx(energy_distance(a, b), rel=1e-13)

    def test_null_calibration(self):
        # the spec-level calibration run: iid same-law samples must pass
        # (p > 0.01) in at least 98 of 100 seeded repetitions
        ps = null_calibration_pvalues(100, 1000, 2, 200, RandomSource(9), max_points=1000)
        assert np.mean(ps > 0.01) >= 0.98


class TestKs:
    def test_identical_gives_one(self):
        a = np.random.default_rng(2).normal(size=(100, 3))
        ps = ks_per_coordinate(a, a.copy())
        np.testing.assert_array_equal(ps, np.ones(3))

    def test_detects_marginal_shift(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(800, 2))
        b = rng.normal(size=(800, 2))
        b[:, 1] += 2.0
        ps = ks_per_coordinate(a, b)
        assert ps[0] > 0.01 and ps[1] < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 256, 1000, 10000])
    @pytest.mark.parametrize("shift", [0.0, 0.3])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_equal_size_pvalue_is_scipys_bit_for_bit(self, monkeypatch, n, shift, ties):
        # each case's h >= 2 at n = 5, so scipy stays exact (h = 1 is below)
        rng = np.random.default_rng([1, n, int(10 * shift), int(ties)])
        a = rng.normal(size=(n, 1))
        b = rng.normal(size=(n, 1)) + shift
        if ties:
            a, b = np.round(a, 1), np.round(b, 1)
        want = ks_2samp(a[:, 0], b[:, 0]).pvalue

        def no_scipy(*args, **kwargs):
            raise AssertionError("equal sizes must not reach scipy.stats")

        monkeypatch.setattr(scipy.stats, "ks_2samp", no_scipy)
        assert ks_per_coordinate(a, b)[0] == want

    @pytest.mark.parametrize(
        "na, nb, shift", [(30, 40, 0.3), (10001, 10001, 0.05)], ids=["unequal", "n10001"]
    )
    def test_other_sizes_are_scipys(self, na, nb, shift):
        rng = np.random.default_rng(na)
        a = rng.normal(size=(na, 1))
        b = rng.normal(size=(nb, 1)) + shift
        assert ks_per_coordinate(a, b)[0] == ks_2samp(a[:, 0], b[:, 0]).pvalue

    def test_exact_probability_above_one_is_scipys_asymptotic(self):
        # n = 5, h = 1: the exact recursion gives 2P > 1, where scipy warns
        # and switches to the asymptotic law
        a = np.arange(1.0, 6.0)[:, None]
        b = a + 0.5
        with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
            want = ks_2samp(a[:, 0], b[:, 0]).pvalue
        with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
            got = ks_per_coordinate(a, b)[0]
        assert got == want
