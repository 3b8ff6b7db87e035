import numpy as np
import pytest

from hardedge.core import OmegaPlusPoint, OrderedConfig
from hardedge.errors import DomainError, ParameterError, StepFailure
from hardedge.experiments import (
    ExperimentReport,
    bump_function,
    run_collision_bound,
    run_coupling_l2,
    run_equilibrium,
    run_hard_edge_density,
    run_intertwining,
    run_matrix_eigen_agreement,
    run_uniform_approx,
)
from hardedge.rng import RandomSource


# a 1-ulp gap at dt = 1 fails at every depth of halving, whatever the noise
ULP_GAP = OrderedConfig([np.nextafter(1.0, 2.0), 1.0])


class TestExperimentReport:
    def test_verdicts_derived(self):
        r = ExperimentReport(
            name="demo",
            statistics={"p": 0.2, "err": 0.5},
            thresholds={"p": {"op": ">", "value": 0.01}, "err": {"op": "<", "value": 0.1}},
        )
        assert r.verdicts == {"p": True, "err": False}
        assert not r.passed

    def test_threshold_without_statistic_rejected(self):
        with pytest.raises(DomainError):
            ExperimentReport(
                name="demo", statistics={}, thresholds={"x": {"op": "<", "value": 1}}
            )


class TestBump:
    def test_support_and_smooth_peak(self):
        g = bump_function(0.2, 0.8)
        vals = g(np.array([[0.1], [0.5], [0.79], [0.9]]))
        assert vals[0] == 0.0 and vals[3] == 0.0
        assert vals[1] == pytest.approx(1.0)
        assert 0 < vals[2] < 1


class TestIntertwining:
    def test_t_zero_degenerate(self):
        rep = run_intertwining(
            OrderedConfig([3.0, 2.0, 1.0]), 0.0, 0.0, 2000, RandomSource(20), dt=1e-3, n_perm=200
        )
        assert rep.passed
        assert rep.statistics["energy_statistic"] < 0.05

    def test_same_eta_passes_short_time(self):
        rep = run_intertwining(
            OrderedConfig([3.0, 2.0, 1.0]),
            0.1,
            0.0,
            3000,
            RandomSource(21),
            dt=1e-3,
            n_perm=300,
        )
        assert rep.verdicts["energy_pvalue"], rep.summary()

    def test_reports_identical_across_threads(self):
        kw = dict(dt=2e-3, n_perm=200)
        a = run_intertwining(
            OrderedConfig([2.0, 1.0]), 0.05, 0.5, 1200, RandomSource(22), threads=1, **kw
        )
        b = run_intertwining(
            OrderedConfig([2.0, 1.0]), 0.05, 0.5, 1200, RandomSource(22), threads=4, **kw
        )
        assert a.as_dict() == b.as_dict()

    def test_every_replica_failed_is_a_step_failure(self):
        with pytest.raises(StepFailure, match="intertwining: all 4 replicas failed"):
            run_intertwining(ULP_GAP, 1.0, 0.0, 4, RandomSource(1), dt=1.0, n_perm=200)


class TestUniformApprox:
    def test_shrinking_differences(self):
        g = bump_function(0.2, 0.8)
        family = [OrderedConfig(m * 0.5 ** np.arange(1, m + 1)) for m in (4, 8, 16)]
        rep = run_uniform_approx(1, g, family, 5000, RandomSource(23))
        assert rep.statistics["final_abs_diff"] < 0.05
        assert "abs_diff_N4" in rep.statistics

    def test_constant_config_degenerate(self):
        # constant configs: the chain side is a point mass at c; the
        # boundary side concentrates there at rate 1/N, so the gaps shrink
        g = bump_function(0.5, 1.5)
        family = [OrderedConfig(np.full(m, 1.0)) for m in (8, 32)]
        rep = run_uniform_approx(1, g, family, 2000, RandomSource(24))
        assert rep.statistics["abs_diff_N8"] > rep.statistics["abs_diff_N32"]
        assert rep.statistics["final_abs_diff"] < 0.2

    def test_zero_function(self):
        g = lambda y: np.zeros(np.atleast_2d(y).shape[0])
        family = [OrderedConfig(m * 0.5 ** np.arange(1, m + 1)) for m in (4, 8)]
        rep = run_uniform_approx(1, g, family, 500, RandomSource(25))
        assert rep.statistics["final_abs_diff"] == 0.0
        assert rep.passed


class TestEquilibrium:
    def test_n1_exact_law(self):
        rep = run_equilibrium(
            1,
            1.0,
            OrderedConfig([3.0]),
            [2.0, 6.0],
            3000,
            RandomSource(26),
            dt=2e-3,
            n_perm=200,
        )
        assert rep.statistics["final_ks_exact_pvalue"] > 0.01, rep.summary()

    def test_stationary_start_flat(self):
        # starting every replica from an equilibrium draw keeps the
        # statistic at the noise floor
        rep = run_equilibrium(
            2, 0.5, None, [0.3, 0.6], 2500, RandomSource(28), dt=2e-3, n_perm=200
        )
        assert rep.verdicts["final_pvalue"], rep.summary()
        assert rep.verdicts["monotone_margin"], rep.summary()

    @pytest.mark.parametrize("eta", [-1.0, -2.0, np.nan])
    def test_eta_at_or_below_minus_one_is_named(self, eta):
        with pytest.raises(ParameterError, match=f"need eta > -1, got {eta}"):
            run_equilibrium(1, eta, OrderedConfig([3.0]), [0.1], 10, RandomSource(29))

    @pytest.mark.parametrize("t_grid", [[0.01], [0.01, 0.02, 0.03]])
    def test_failed_replicas_are_not_stepped_again(self, monkeypatch, t_grid):
        # every replica fails in the first span, after one draw and 40 halving
        # draws; later spans draw nothing
        calls = []
        draw = RandomSource.standard_normal

        def counted(self, size=None):
            calls.append(size)
            return draw(self, size)

        monkeypatch.setattr(RandomSource, "standard_normal", counted)
        x0 = OrderedConfig([1 + 1e-15, 1.0])
        with pytest.raises(StepFailure, match="equilibrium: all 4 replicas failed"):
            run_equilibrium(2, 1.0, x0, t_grid, 4, RandomSource(1), dt=0.01, n_perm=200)
        assert len(calls) == 41


class TestCouplingL2:
    def test_single_atom_decreasing(self):
        om = OmegaPlusPoint([1.0], gamma=1.0)
        rep = run_coupling_l2(om, [4, 8, 16], 0.25, 1e-3, RandomSource(29))
        assert "sup_l2_N4_vs_N8" in rep.statistics
        assert rep.passed, rep.summary()

    def test_t_zero_truncation_error(self):
        om = OmegaPlusPoint([1.0, 0.5], gamma=1.5)
        rep = run_coupling_l2(om, [4, 8], 0.0, 1e-3, RandomSource(30))
        # only the entrance ramps differ: squares at the dt/(2N) scale
        assert rep.statistics["sup_l2_N4_vs_N8"] < 1e-6

    @pytest.mark.parametrize(
        "sizes", [[8, 8], [4, 4, 8], [4.5, 8]], ids=["repeated", "repeated-inside", "fractional"]
    )
    def test_repeated_or_fractional_sizes_rejected(self, sizes):
        # a repeated size gives a zero discrepancy and an infinite ratio
        om = OmegaPlusPoint([1.0], gamma=1.0)
        with pytest.raises(DomainError, match="N_list"):
            run_coupling_l2(om, sizes, 0.1, 1e-3, RandomSource(31))

    def test_decreasing_sizes_rejected(self):
        om = OmegaPlusPoint([1.0], gamma=1.0)
        with pytest.raises(DomainError):
            run_coupling_l2(om, [16, 8], 0.1, 1e-3, RandomSource(31))


class TestPreconditions:
    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_collision_eps_must_be_finite_and_positive(self, eps):
        fam = [OrderedConfig([2.0, 1.0])]
        with pytest.raises(DomainError):
            run_collision_bound(fam, 0.05, eps, 0.01, 10, RandomSource(34))

    @pytest.mark.parametrize(
        "bins", [[0.3], [[0.1, 0.2]], [0.1, np.nan], [0.1, np.inf], [0.2, 0.2]]
    )
    def test_hard_edge_bins_must_be_increasing_edges(self, bins):
        with pytest.raises(DomainError):
            run_hard_edge_density(100, 1.0, 10, bins, RandomSource(35))


class TestCollisionBound:
    def test_well_separated_tiny_time(self):
        # a wide top gap cannot shrink to a 5% ratio within t = 0.01
        fam = [OrderedConfig([8.0, 1.0]), OrderedConfig([8.0, 1.0, 0.5, 0.25])]
        rep = run_collision_bound(fam, 0.05, 0.1, 0.01, 800, RandomSource(32), dt=1e-3)
        assert rep.statistics["estimate_N2"] == 0.0
        assert rep.statistics["estimate_N4"] == 0.0
        assert rep.passed

    def test_tiny_delta_bound_goes_to_zero(self):
        fam = [OrderedConfig([2.0, 1.0])]
        rep = run_collision_bound(fam, 1e-40, 0.1, 0.5, 500, RandomSource(33), dt=1e-3)
        assert rep.statistics["bound"] < 0.2
        # a step that would cross is halved, not counted, so only a frozen
        # replica could register here; far below the bound either way
        assert rep.statistics["estimate_N2"] <= 0.01
        assert rep.passed

    def test_lyapunov_constant_from_family(self):
        fam = [OrderedConfig([2.0, 1.0]), OrderedConfig([2.0, 1.9])]
        rep = run_collision_bound(fam, 0.05, 0.1, 0.01, 200, RandomSource(34))
        from hardedge.core import lyapunov_f

        want = max(lyapunov_f(c, 1) for c in fam)
        assert rep.statistics["lyapunov_constant"] == pytest.approx(want)


class TestHardEdge:
    def test_far_tail_is_empty_and_kernel_tiny(self):
        # beyond the top particle's range: no counts, and the kernel itself
        # is small compared with its near-origin scale
        from hardedge.equilibrium import inverse_bessel_kernel, inverse_laguerre_samples

        tops = inverse_laguerre_samples(150, 1.0, 300, RandomSource(40), top=3) / 150
        assert np.histogram(tops.ravel(), bins=np.linspace(50.0, 80.0, 4))[0].sum() == 0
        assert inverse_bessel_kernel(1.0, 60.0, 60.0) < 1e-3 * inverse_bessel_kernel(1.0, 0.1, 0.1)

    def test_rescaled_kernel_tracks_data(self):
        rep = run_hard_edge_density(
            100, 1.0, 800, np.linspace(0.08, 0.6, 9), RandomSource(35), min_count=80
        )
        # the corrected-scale diagnostic should be near the data; the
        # documented kernel carries a factor-two argument slip
        assert rep.statistics["sup_rel_error_rescaled4"] < 0.35
        assert rep.statistics["sup_rel_error"] > rep.statistics["sup_rel_error_rescaled4"]

    def test_small_report_is_pinned(self):
        # values from the per-row LAPACK bisection that the batch-last one
        # replaced: a changed eigensolver must not move a count
        rep = run_hard_edge_density(
            100, 1.0, 400, [0.1, 0.2, 0.3, 0.5, 1.0], RandomSource(23), min_count=50
        )
        assert rep.statistics["bins_used"] == 4.0
        assert rep.statistics["min_bin_count"] == 96.0
        assert rep.statistics["sup_rel_error"] == pytest.approx(0.3512802871237141, rel=1e-12)
        assert rep.statistics["sup_rel_error_rescaled4"] == pytest.approx(
            0.1819734345255775, rel=1e-12
        )

    def test_needs_large_n(self):
        with pytest.raises(DomainError):
            run_hard_edge_density(50, 1.0, 100, np.linspace(0.1, 0.5, 5), RandomSource(36))


class TestMatrixEigenAgreement:
    def test_t_zero_trivial(self):
        rep = run_matrix_eigen_agreement(
            3, 0.0, OrderedConfig([3.0, 2.0, 1.0]), 0.0, 500, RandomSource(37)
        )
        assert rep.statistics["min_ks_pvalue"] == 1.0
        assert rep.passed

    def test_short_time_agreement(self):
        rep = run_matrix_eigen_agreement(
            2, 0.0, OrderedConfig([2.0, 1.0]), 0.1, 2500, RandomSource(38), dt=1e-3
        )
        assert rep.passed, rep.summary()

    def test_interior_precondition(self):
        with pytest.raises(DomainError):
            run_matrix_eigen_agreement(2, 0.0, OrderedConfig([1.0, 1.0]), 0.1, 100, RandomSource(39))

    def test_every_replica_failed_is_a_step_failure(self):
        match = "matrix_eigen_agreement: all 4 replicas failed"
        with pytest.raises(StepFailure, match=match):
            run_matrix_eigen_agreement(2, 0.0, ULP_GAP, 1.0, 4, RandomSource(1), dt=1.0)
