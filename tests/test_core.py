import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardedge.core import (
    OmegaPlusPoint,
    OrderedConfig,
    SdeParams,
    Trajectory,
    char_poly_phi,
    drift_via_charpoly,
    embed,
    limit_entire_eplus,
    lyapunov_f,
    reverse_char_poly,
    singular_drift,
)
from hardedge.errors import CoincidentCoordinates, DomainError
from hardedge.rng import RandomSource


def random_interior_config(rng, n, scale=1.0):
    """Strictly ordered positive config with comfortably separated gaps."""
    gaps = rng.exponential(size=n) + 0.05
    vals = np.cumsum(gaps)[::-1] * scale
    return OrderedConfig(vals)


class TestOrderedConfig:
    def test_accepts_ordered(self):
        c = OrderedConfig([3.0, 2.0, 2.0, 0.0])
        assert c.n == 4

    @pytest.mark.parametrize(
        "values, named",
        [
            ([3.0, 2.0, 2.0, 0.0], r"x\[1\] = x\[2\] = 2\.0"),
            ([0.0, 0.0], r"x\[0\] = x\[1\] = 0\.0"),
            ([3.0, 2.0, 0.0], r"x\[2\] = 0"),
        ],
    )
    def test_require_interior_names_the_tie_or_the_zero(self, values, named):
        with pytest.raises(DomainError, match=named):
            OrderedConfig(values).require_interior()
        OrderedConfig([3.0, 2.0, 1.0]).require_interior()

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            OrderedConfig([1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            OrderedConfig([1.0, -0.5])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            OrderedConfig([np.inf, 1.0])

    def test_values_are_readonly(self):
        c = OrderedConfig([2.0, 1.0])
        with pytest.raises(ValueError):
            c.values[0] = 5.0


class TestOmegaPlusPoint:
    def test_mass_bound_enforced(self):
        with pytest.raises(DomainError):
            OmegaPlusPoint([1.0, 0.5], gamma=1.0)

    def test_slack_gamma_allowed(self):
        p = OmegaPlusPoint([0.5, 0.25], gamma=2.0)
        assert p.support == 2
        assert p.coordinate(5) == 0.0

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            OmegaPlusPoint([0.1, 0.2], gamma=1.0)

    @pytest.mark.parametrize(
        "xs, gamma",
        [([float("nan")], 1.0), ([float("inf")], float("inf")), ([1.0], float("inf")),
         ([1.0], float("nan"))],
        ids=["nan-xs", "inf-xs", "inf-gamma", "nan-gamma"],
    )
    def test_validation(self, xs, gamma):
        with pytest.raises(DomainError, match="must be finite"):
            OmegaPlusPoint(xs, gamma)


class TestSdeParams:
    def test_validation(self):
        for eta in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="eta must be finite"):
                SdeParams(eta=eta)


class TestTrajectory:
    def test_times_must_start_at_zero(self):
        c = OrderedConfig([1.0])
        with pytest.raises(DomainError):
            Trajectory(times=(0.5, 1.0), states=(c, c))

    def test_shared_n(self):
        with pytest.raises(DomainError):
            Trajectory(
                times=(0.0, 1.0),
                states=(OrderedConfig([1.0]), OrderedConfig([2.0, 1.0])),
            )


class TestEmbed:
    def test_three_point(self):
        om = embed(OrderedConfig([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(om.xs, [2 / 3, 1 / 3, 0.0])
        assert om.gamma == pytest.approx(1.0)

    def test_zero_case(self):
        om = embed(OrderedConfig([0.0, 0.0]))
        assert om.gamma == 0.0
        assert np.all(om.xs == 0.0)

    def test_single_point(self):
        om = embed(OrderedConfig([5.0]))
        np.testing.assert_allclose(om.xs, [5.0])
        assert om.gamma == pytest.approx(5.0)

    def test_mass_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            om = embed(random_interior_config(rng, 7))
            assert float(om.xs.sum()) == om.gamma

    def test_homogeneous_in_scale(self):
        c = OrderedConfig([4.0, 2.0, 1.0])
        om1 = embed(c)
        om2 = embed(OrderedConfig(c.values * 3.0))
        np.testing.assert_allclose(om2.xs, 3.0 * om1.xs)
        assert om2.gamma == pytest.approx(3.0 * om1.gamma)


class TestSingularDrift:
    def test_two_particles(self):
        assert singular_drift(0, OrderedConfig([2.0, 1.0])) == pytest.approx(2.0)

    def test_single_particle_empty_sum(self):
        assert singular_drift(0, OrderedConfig([7.0])) == 0.0

    def test_three_particles_middle(self):
        assert singular_drift(1, OrderedConfig([3.0, 2.0, 1.0])) == pytest.approx(-4.0)

    def test_coincident_raises(self):
        c = OrderedConfig([1.0, 1.0])
        with pytest.raises(CoincidentCoordinates):
            singular_drift(0, c)


class TestLyapunov:
    def test_two_particles(self):
        assert lyapunov_f(OrderedConfig([2.0, 1.0]), 1) == pytest.approx(np.log(2.0))

    def test_zero_coordinate_rejected(self):
        with pytest.raises(DomainError):
            lyapunov_f(OrderedConfig([1.0, 0.0]), 1)

    def test_three_particles(self):
        val = lyapunov_f(OrderedConfig([4.0, 2.0, 1.0]), 1)
        assert val == pytest.approx(-np.log(0.5 * 0.75))

    def test_positive_and_divergent_as_gap_closes(self):
        prev = 0.0
        for eps in [0.5, 0.1, 0.01, 1e-4, 1e-8]:
            val = lyapunov_f(OrderedConfig([2.0, 2.0 - eps, 0.5]), 1)
            assert val > prev > -1e-15
            prev = val


class TestCharPoly:
    def test_single_particle_empty_product(self):
        assert char_poly_phi(0, 0.7, OrderedConfig([3.0])) == 1.0

    def test_root_at_inverse_coordinate(self):
        assert char_poly_phi(0, 1.0, OrderedConfig([2.0, 1.0])) == 0.0

    def test_direct_value(self):
        assert char_poly_phi(1, 0.25, OrderedConfig([2.0, 1.0])) == pytest.approx(0.25)

    def test_double_roots_at_other_inverse_coordinates(self):
        c = OrderedConfig([5.0, 3.0, 1.0])
        for i in range(3):
            for j in range(3):
                if j == i:
                    continue
                val = char_poly_phi(i, 1.0 / c.values[j], c)
                assert abs(val) < 1e-18


class TestDriftViaCharPoly:
    def test_matches_drift_two_particles(self):
        assert drift_via_charpoly(0, OrderedConfig([2.0, 1.0])) == pytest.approx(2.0)

    def test_single_particle(self):
        assert drift_via_charpoly(0, OrderedConfig([4.0])) == 0.0

    def test_three_particles(self):
        assert drift_via_charpoly(1, OrderedConfig([3.0, 2.0, 1.0])) == pytest.approx(-4.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**31))
    def test_identity_random_configs(self, n, seed):
        rng = np.random.default_rng(seed)
        c = random_interior_config(rng, n)
        i = int(rng.integers(0, n))
        a = singular_drift(i, c)
        b = drift_via_charpoly(i, c)
        assert abs(a - b) <= 1e-9 * (1 + abs(a))


class TestEntireLimit:
    def test_zero_support(self):
        om = OmegaPlusPoint([0.0], gamma=2.0)
        assert limit_entire_eplus(1.5, om) == pytest.approx(np.exp(-3.0))

    def test_single_atom_with_tight_mass(self):
        om = OmegaPlusPoint([1.0], gamma=1.0)
        for z in [0.3, -1.0, 2.0 + 1.0j]:
            assert limit_entire_eplus(z, om) == pytest.approx(1.0 - z)

    def test_normalised_at_zero(self):
        om = OmegaPlusPoint([0.5, 0.25, 0.1], gamma=1.0)
        assert limit_entire_eplus(0.0, om) == pytest.approx(1.0)

    def test_reverse_charpoly_converges_to_limit(self):
        # geometric family: embedded configs converge to the dyadic boundary
        # point, so the reverse characteristic polynomials converge to the
        # entire limit on |z| <= 2.
        support = 0.5 ** np.arange(1, 61)
        omega = OmegaPlusPoint(support, gamma=float(support.sum()))
        grid = np.array([2.0, 1.0, 0.5, -0.5, -2.0, 1.0j, 1.0 + 1.0j, 2.0j])
        target = limit_entire_eplus(grid, omega)
        errs = []
        for n in (4, 8, 16, 32, 64):
            vals = reverse_char_poly(grid, 0.5 ** np.arange(1, n + 1))
            errs.append(np.max(np.abs(vals - target)))
        assert errs[-1] < 1e-12
        assert all(a >= b * 0.999 for a, b in zip(errs, errs[1:]))


class TestRandomSource:
    def test_same_key_same_sequence(self):
        a = RandomSource(123, 7).standard_normal(16)
        b = RandomSource(123, 7).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(123, 0).standard_normal(16)
        b = RandomSource(123, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_children_are_reproducible_and_distinct(self):
        root = RandomSource(9, 4)
        a = root.child(2).standard_normal(8)
        b = RandomSource(9, 4).child(2).standard_normal(8)
        c = root.child(3).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_complex_normal_unit_variance(self):
        z = RandomSource(1).complex_normal((20000,))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("shape", [(), (7,), (256, 3, 3), (4096, 3, 3)])
    def test_complex_normal_matches_the_pairwise_formula(self, shape):
        z = RandomSource(31, 2).complex_normal(shape)
        g = RandomSource(31, 2).standard_normal(shape + (2,))
        assert z.shape == shape and z.dtype == complex
        np.testing.assert_array_equal(z, (g[..., 0] + 1j * g[..., 1]) / np.sqrt(2.0))
