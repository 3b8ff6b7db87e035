import math

import numpy as np
import pytest

from hardedge import sde
from hardedge.core import OrderedConfig, SdeParams
from hardedge.errors import DomainError, StepFailure
from hardedge.rng import RandomSource, ZeroNoise
from hardedge.sde import (
    SmoothFunction,
    _certified_pd,
    _matrix_euler,
    _project_psd_batch,
    eigen_drift,
    eigenvalues,
    evolve_ensemble,
    evolve_matrix_ensemble,
    generator_apply,
    log_drift,
    simulate,
)

PLAIN = SdeParams(eta=0.0, rescaled=False)


def drift_by_loops(x: np.ndarray, params: SdeParams, kind: str) -> np.ndarray:
    """The eigen or log drift from its defining sums, one particle at a time,
    adding the interaction terms over j != i in increasing j."""
    out = np.empty_like(x)
    for row in np.ndindex(x.shape[:-1]):
        v = x[row]
        c = 1.0 / (2.0 * v.size) if params.rescaled else 0.5
        for i in range(v.size):
            s = 0.0
            for j in range(v.size):
                if j != i:
                    s += (v[i] * v[j] if kind == "eigen" else v[j]) / (v[i] - v[j])
            if kind == "eigen":
                out[row + (i,)] = -(params.eta / 2.0) * v[i] + c + s
            else:
                out[row + (i,)] = -(1.0 + params.eta) / 2.0 + c / v[i] + s
    return out


def reference_evolve(x0, params, steps, dt, rng, kind):
    """The batched Euler engine written plainly: draw the grid increments for
    every row not yet frozen, propose, accept, re-integrate the rejected rows
    as two dt/2 halves whose increments split theirs at a Brownian-bridge
    midpoint (the second half only for rows that survived the first), freeze
    them at depth 0; frozen rows keep their state and draw nothing.  Returns
    (x, failed, rejections)."""

    def advance(x, h, dw, depth):
        if kind == "eigen":
            prop = x + x * dw + eigen_drift(x, params) * h
        else:
            prop = x * np.exp(dw + log_drift(x, params) * h)
        floor = 1e-12 if kind == "eigen" else 0.0
        ok = np.all(np.isfinite(prop), axis=1) & (prop[:, -1] > floor)
        gaps = prop[:, :-1] - prop[:, 1:]
        ok &= np.all(gaps > params.gap_safety * (x[:, :-1] - x[:, 1:]), axis=1)
        new = np.where(ok[:, None], prop, x)
        failed = np.zeros(len(x), dtype=bool)
        rejections = int((~ok).sum())
        bad = np.nonzero(~ok)[0]
        if bad.size and depth == 0:
            failed[bad] = True
        elif bad.size:
            first = dw[bad] / 2.0 + rng.standard_normal((bad.size, x.shape[1])) * np.sqrt(h / 4.0)
            second = dw[bad] - first
            mid, f1, r1 = advance(x[bad], h / 2.0, first, depth - 1)
            rejections += r1
            alive = np.nonzero(~f1)[0]
            if alive.size:
                end, f2, r2 = advance(mid[alive], h / 2.0, second[alive], depth - 1)
                mid[alive] = end
                f1[alive[f2]] = True
                rejections += r2
            new[bad] = mid
            failed[bad] = f1
        return new, failed, rejections

    x = np.array(x0, dtype=float)
    failed = np.zeros(len(x), dtype=bool)
    rejections = 0
    depth = 40
    for _ in range(steps):
        live = np.nonzero(~failed)[0]
        dw = rng.standard_normal((live.size, x.shape[1])) * np.sqrt(dt)
        x[live], failed[live], r = advance(x[live], dt, dw, depth)
        rejections += r
    return x, failed, rejections


class CountingNoise:
    """A RandomSource that counts its ``standard_normal`` calls."""

    def __init__(self, *key):
        self.source = RandomSource(*key)
        self.calls = 0

    def standard_normal(self, size):
        self.calls += 1
        return self.source.standard_normal(size)


class ScriptedNoise:
    """Zero noise, into which ``script(call, draw)`` writes the values of each
    call's standard normals in place."""

    def __init__(self, script):
        self.script = script
        self.calls = 0

    def standard_normal(self, size):
        draw = np.zeros(size)
        self.script(self.calls, draw)
        self.calls += 1
        return draw


def one_step(x0, params, dt, rng, kind):
    """One grid step of one path: a one-row evolve_ensemble call.
    Returns (state, failed)."""
    out, failed = evolve_ensemble(np.array([x0], dtype=float), params, dt, dt, rng, kind)
    return out[0], failed[0]


def sum_sq() -> SmoothFunction:
    return SmoothFunction(
        value=lambda x: float(np.sum(x**2)),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(x.size),
    )


class TestEigenStep:
    def test_drift_only_n1_plain(self):
        out, _ = one_step([1.0], PLAIN, 0.1, ZeroNoise(), "eigen")
        assert out[0] == pytest.approx(1.05)

    def test_drift_only_n2_plain(self):
        dt = 1e-4
        out, _ = one_step([2.0, 1.0], PLAIN, dt, ZeroNoise(), "eigen")
        np.testing.assert_allclose(out, [2.0 + 2.5 * dt, 1.0 - 1.5 * dt])

    def test_n1_rescaled_equals_plain(self):
        p = SdeParams(eta=0.0, rescaled=True)
        out, _ = one_step([1.0], p, 0.1, ZeroNoise(), "eigen")
        assert out[0] == pytest.approx(1.05)

    def test_requires_interior(self):
        with pytest.raises(DomainError, match=r"x\[0\] = x\[1\] = 1\.0"):
            simulate(OrderedConfig([1.0, 1.0]), PLAIN, 0.01, 1e-3, [0.01], ZeroNoise(), "eigen")

    def test_step_failure_on_impossible_state(self):
        # at dt = 1 the shortest sub-step is 2^-40 ~ 9e-13; across a 5e-13 gap
        # the interaction kick at that dt is ~2, so positivity always fails
        x0 = [1.0 + 5e-13, 1.0]
        out, failed = one_step(x0, PLAIN, 1.0, ZeroNoise(), "eigen")
        assert failed
        np.testing.assert_array_equal(out, x0)

    def test_noise_increment_scales_linearly(self):
        # diffusion part of the Euler update is x * dw: exactly 1-homogeneous
        rng1 = RandomSource(42, 0)
        rng2 = RandomSource(42, 0)
        c = 3.7
        dt = 1e-5
        base = np.array([2.0, 1.0])
        out1, _ = one_step(base, SdeParams(eta=0.0), dt, rng1, "eigen")
        out2, _ = one_step(c * base, SdeParams(eta=0.0), dt, rng2, "eigen")
        drift1 = eigen_drift(base, SdeParams(eta=0.0))
        drift2 = eigen_drift(c * base, SdeParams(eta=0.0))
        noise1 = out1 - base - drift1 * dt
        noise2 = out2 - c * base - drift2 * dt
        np.testing.assert_allclose(noise2, c * noise1, rtol=1e-12)
        # eta part and interaction are 1-homogeneous; the constant is not
        np.testing.assert_allclose(
            drift2, c * drift1 + 0.5 * (1 - c), rtol=1e-12
        )


class TestLogStep:
    def test_stationary_point_n1_rescaled(self):
        p = SdeParams(eta=0.0, rescaled=True)
        out, _ = one_step([1.0], p, 0.01, ZeroNoise(), "log")
        assert out[0] == pytest.approx(1.0)

    def test_drift_n1_rescaled_x2(self):
        p = SdeParams(eta=0.0, rescaled=True)
        dt = 0.01
        out, _ = one_step([2.0], p, dt, ZeroNoise(), "log")
        assert out[0] == pytest.approx(2.0 * np.exp((-0.5 + 0.25) * dt))

    def test_ito_consistency_of_drifts(self):
        # exact algebraic identity: log drift = eigen drift / x - 1/2
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = np.sort(rng.uniform(0.2, 5.0, 6))[::-1]
            for params in (PLAIN, SdeParams(eta=1.3, rescaled=True)):
                np.testing.assert_allclose(
                    log_drift(x, params),
                    eigen_drift(x, params) / x - 0.5,
                    rtol=1e-12,
                )

    def test_one_step_agreement_on_shared_noise(self):
        # pathwise gap between the two integrators is O(dt) with a modest
        # constant; the Ito correction prevents anything better
        dt = 1e-4
        a, _ = one_step([2.0, 1.0], PLAIN, dt, RandomSource(5, 1), "eigen")
        b, _ = one_step([2.0, 1.0], PLAIN, dt, RandomSource(5, 1), "log")
        assert np.max(np.abs(a - b)) < 10 * dt

    def test_positivity_automatic(self):
        out, failed = one_step([1e-6], SdeParams(eta=5.0), 1e-3, RandomSource(6), "log")
        assert out[0] > 0 and not failed


class TestSimulate:
    def test_path_stays_interior(self):
        traj = simulate(
            OrderedConfig([3.0, 2.0, 1.0]),
            SdeParams(eta=0.5),
            horizon=0.2,
            dt=1e-3,
            save_times=[0.05, 0.1, 0.2],
            rng=RandomSource(7),
        )
        assert traj.times == (0.0, 0.05, 0.1, 0.2)
        for s in traj.states:
            assert s.is_strictly_interior()

    def test_zero_noise_is_deterministic(self):
        kw = dict(
            params=SdeParams(eta=1.0),
            horizon=0.1,
            dt=1e-3,
            save_times=[0.1],
            integrator="eigen",
        )
        a = simulate(OrderedConfig([2.0, 1.0]), rng=ZeroNoise(), **kw)
        b = simulate(OrderedConfig([2.0, 1.0]), rng=ZeroNoise(), **kw)
        np.testing.assert_array_equal(a.states[-1].values, b.states[-1].values)

    def test_seeded_reproducibility(self):
        kw = dict(
            params=SdeParams(eta=0.0),
            horizon=0.05,
            dt=1e-3,
            save_times=[0.05],
        )
        a = simulate(OrderedConfig([2.0, 1.0]), rng=RandomSource(11, 3), **kw)
        b = simulate(OrderedConfig([2.0, 1.0]), rng=RandomSource(11, 3), **kw)
        np.testing.assert_array_equal(a.states[-1].values, b.states[-1].values)

    def test_save_time_validation(self):
        with pytest.raises(DomainError):
            simulate(OrderedConfig([1.0]), PLAIN, 1.0, 1e-3, [2.0], ZeroNoise())

    def test_step_failure_reports_the_start_of_the_failing_step(self):
        cfg = OrderedConfig([1.0 + 5e-13, 1.0])
        with pytest.raises(StepFailure) as info:
            simulate(cfg, PLAIN, 1.0, 1.0, [1.0], RandomSource(3), "eigen")
        assert info.value.time == 0.0

    @pytest.mark.parametrize(
        "x0, kind, halves",
        [
            ([3.0, 2.0, 1.0], "log", False),
            ([3.0, 2.0, 1.0], "eigen", False),
            ([1.0 + 1e-4, 1.0, 0.9], "eigen", True),
        ],
    )
    def test_one_path_is_one_ensemble_row(self, x0, kind, halves):
        # same grid and stream; the near-tie case halves along the way
        steps, dt = 20, 1e-3
        params = SdeParams(eta=0.5)
        rng = CountingNoise(23, 1)
        traj = simulate(OrderedConfig(x0), params, steps * dt, dt, [steps * dt], rng, kind)
        ens, failed = evolve_ensemble(np.array([x0]), params, steps * dt, dt, RandomSource(23, 1), kind)
        assert not failed.any()
        np.testing.assert_array_equal(traj.states[-1].values, ens[0])
        assert (rng.calls > steps) == halves


class TestDriftDefinition:
    PARAMS = (SdeParams(eta=0.0, rescaled=False), SdeParams(eta=1.3, rescaled=True))

    def configs(self, N):
        rng = np.random.default_rng(N)
        for shape in ((N,), (7, N), (2, 7, N)):
            yield -np.sort(-rng.uniform(0.1, 4.0, shape), axis=-1)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_equals_defining_sums(self, N):
        for x in self.configs(N):
            for params in self.PARAMS:
                np.testing.assert_array_equal(eigen_drift(x, params), drift_by_loops(x, params, "eigen"))
                np.testing.assert_array_equal(log_drift(x, params), drift_by_loops(x, params, "log"))

    @pytest.mark.parametrize("N", [8, 16])
    def test_matches_defining_sums_large_n(self, N):
        # numpy's pairwise summation may regroup eight or more terms
        for x in self.configs(N):
            for params in self.PARAMS:
                np.testing.assert_allclose(
                    eigen_drift(x, params), drift_by_loops(x, params, "eigen"), rtol=1e-13
                )
                np.testing.assert_allclose(
                    log_drift(x, params), drift_by_loops(x, params, "log"), rtol=1e-13
                )


class TestEnsemble:
    def test_matches_single_path_layout(self):
        x0 = np.array([[3.0, 2.0, 1.0]] * 4)
        out, failed = evolve_ensemble(x0, SdeParams(eta=0.0), 0.05, 1e-3, RandomSource(8))
        assert out.shape == (4, 3)
        assert not failed.any()
        assert np.all(np.diff(out, axis=1) < 0) and np.all(out[:, -1] > 0)

    def test_failed_replicas_freeze(self):
        # unresolvable near-tie: with a gap below the shortest sub-step every
        # replica freezes and is flagged rather than crashing the ensemble
        x0 = np.array([[1.0 + 5e-13, 1.0]] * 3)
        out, failed = evolve_ensemble(x0, PLAIN, 1.0, 1.0, RandomSource(9), integrator="eigen")
        assert failed.all()
        np.testing.assert_array_equal(out, x0)

    def test_frozen_rows_stop_drawing(self):
        # the near-tie row freezes in the first step after all 40 halvings;
        # after that only the healthy rows draw, once per step
        x0 = np.array([[1.0 + 1e-15, 1.0]] + [[2.0, 1.0]] * 3)
        steps, dt = 100, 0.01
        rng = CountingNoise(9)
        _, failed = evolve_ensemble(x0, PLAIN, steps * dt, dt, rng, "eigen")
        np.testing.assert_array_equal(failed, [True, False, False, False])
        assert rng.calls == steps + 40

    @pytest.mark.parametrize("horizon", [0.0, 0.01])
    def test_unknown_integrator_is_a_domain_error(self, horizon):
        x0 = np.array([[2.0, 1.0]])
        with pytest.raises(DomainError):
            evolve_ensemble(x0, PLAIN, horizon, 1e-3, RandomSource(8), integrator="midpoint")

    @pytest.mark.parametrize(
        "horizon, dt", [(0.1, 0.0), (0.1, -0.1), (0.1, math.nan), (-0.1, 1e-3)]
    )
    def test_time_grid_is_validated(self, horizon, dt):
        with pytest.raises(DomainError):
            evolve_ensemble(np.array([[2.0, 1.0]]), PLAIN, horizon, dt, RandomSource(8))
        with pytest.raises(DomainError):
            evolve_matrix_ensemble(np.diag([2.0, 1.0])[None], PLAIN, horizon, dt, RandomSource(8))


class TestEngineAgainstReference:
    def check(self, x0, params, steps, dt, kind, noise):
        want, want_failed, rejections = reference_evolve(x0, params, steps, dt, noise(), kind)
        got, failed = evolve_ensemble(x0, params, steps * dt, dt, noise(), kind)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(failed, want_failed)
        return want_failed, rejections

    def test_all_accepted(self):
        x0 = np.array([[3.0, 2.0, 1.0]] * 8)
        params = SdeParams(eta=0.5, rescaled=True)
        failed, rejections = self.check(x0, params, 40, 1e-3, "log", lambda: RandomSource(21))
        assert rejections == 0 and not failed.any()

    def test_near_tie_halves_without_freezing(self):
        # eigen step across a 1e-4 gap: at dt = 1e-3 the interaction pushes
        # the middle particle through the bottom one; a few halvings resolve it
        x0 = np.array([[3.0, 2.0, 1.0]] * 4 + [[1.0 + 1e-4, 1.0, 0.9]])
        params = SdeParams(eta=0.5)
        failed, rejections = self.check(x0, params, 20, 1e-3, "eigen", lambda: RandomSource(22))
        assert rejections > 0 and not failed.any()

    def test_frozen_rows_mixed_with_healthy_rows(self):
        x0 = np.array([[1.0 + 1e-15, 1.0]] + [[2.0, 1.0]] * 3)
        failed, _ = self.check(x0, PLAIN, 4, 0.25, "eigen", lambda: RandomSource(9))
        np.testing.assert_array_equal(failed, [True, False, False, False])

    def test_row_failing_in_its_second_half_stays_frozen(self):
        # row 0's grid increment throws its top particle below the others, so
        # the step is rejected; the bridge draw puts the whole increment into
        # the second half, so the first half is accepted and the second is
        # rejected on every try (its halves are still hundreds of units).
        # Every other draw is zero, so rows 1 and 2 are always accepted.
        def script(call, draw):
            if call < 2:
                draw[0, 0] = 1e16 if call else -1e16

        x0 = np.array([[3.0, 2.0, 1.0]] * 3)
        failed, _ = self.check(x0, PLAIN, 3, 1e-3, "eigen", lambda: ScriptedNoise(script))
        np.testing.assert_array_equal(failed, [True, False, False])

    def test_row_failing_after_another_froze(self):
        # a NaN increment poisons both of its bridge halves, so row 0 fails on
        # every try in step 1 (calls 0-40); in step 2 only rows 1 and 2 draw,
        # and row 2 (index 1 of that draw) fails in the same way
        depth = 40  # halvings of every step, down to dt * 2^-40

        def script(call, draw):
            if call == 0:
                draw[0] = np.nan
            elif call == depth + 1:
                draw[1] = np.nan

        x0 = np.array([[3.0, 2.0, 1.0]] * 3)
        failed, _ = self.check(x0, PLAIN, 4, 1e-3, "eigen", lambda: ScriptedNoise(script))
        np.testing.assert_array_equal(failed, [True, False, True])

    def test_remainder_step_halves_as_often_as_a_full_step(self):
        # a horizon of 1.5 dt is one full step and one dt/2 remainder; a NaN
        # increment poisons row 0 on the full step and row 1 on the remainder,
        # and each takes exactly 40 one-row bridge draws before it freezes
        dt = 1e-3
        shapes = []

        def script(call, draw):
            shapes.append(draw.shape)
            if call in (0, 41):
                draw[0] = np.nan

        x0 = np.array([[3.0, 2.0, 1.0]] * 3)
        _, failed = evolve_ensemble(x0, PLAIN, 1.5 * dt, dt, ScriptedNoise(script), "eigen")
        np.testing.assert_array_equal(failed, [True, True, False])
        assert shapes == [(3, 3)] + [(1, 3)] * 40 + [(2, 3)] + [(1, 3)] * 40

    def test_halved_row_moves_by_its_grid_increment(self, monkeypatch):
        # record each proposal's step and increments and whether it was
        # accepted; the accepted sub-steps of every grid step add up to the
        # grid step and to its increment
        calls = []
        propose, accept = sde._propose, sde._accept

        def spy_propose(kind, x, dt, dw, params):
            calls.append([dt, dw[0].copy(), False])
            return propose(kind, x, dt, dw, params)

        def spy_accept(kind, new, old, params):
            good = accept(kind, new, old, params)
            calls[-1][2] = bool(good.all())
            return good

        monkeypatch.setattr(sde, "_propose", spy_propose)
        monkeypatch.setattr(sde, "_accept", spy_accept)
        x0 = np.array([[1.0 + 1e-4, 1.0, 0.9]])
        dt = 1e-3
        _, failed = evolve_ensemble(x0, SdeParams(eta=0.5), 20 * dt, dt, RandomSource(22), "eigen")
        assert not failed.any()
        grid = [k for k, (h, _, _) in enumerate(calls) if h == dt]
        assert len(grid) == 20 and len(calls) > 20
        for start, stop in zip(grid, grid[1:] + [len(calls)]):
            taken = [(h, dw) for h, dw, ok in calls[start:stop] if ok]
            assert math.fsum(h for h, _ in taken) == dt
            total = np.sum([dw for _, dw in taken], axis=0)
            np.testing.assert_allclose(total, calls[start][1], rtol=0, atol=1e-15)


# lambda_min / lambda_max of the stacks the PSD screen is checked on
PSD_RATIOS = (0.0, 1e-18, -1e-18, 1e-12, -1e-12, 1e-9, 1e-3)


def project_by_eigvalsh(mats):
    """The PSD repair with every row screened by eigvalsh: the projected
    stack and the mask of repaired rows."""
    bad = np.linalg.eigvalsh(mats)[:, 0] < 0.0
    out = mats.copy()
    if bad.any():
        w, v = np.linalg.eigh(mats[bad])
        out[bad] = np.einsum("nij,nj,nkj->nik", v, np.clip(w, 0.0, None), np.conjugate(v))
    return out, bad


def hermitian_stack(n, ratios, rng):
    """Hermitian n x n matrices, four per ratio, with spectrum in [ratio, 1]
    times a scale from 1e-6 to 1e6 (ratio = lambda_min / lambda_max), rotated by
    a random unitary; then random positive semidefinite and indefinite rows."""
    rows = []
    for ratio in ratios:
        for scale in (1e-6, 1.0, 1e3, 1e6):
            lam = np.concatenate([[1.0], rng.uniform(ratio, 1.0, max(n - 2, 0)), [ratio]])[-n:]
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            rows.append(scale * (q * lam) @ q.conj().T)
    for _ in range(20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rows.append(a @ a.conj().T / n)
        rows.append((a + a.conj().T) / 2)
    h = np.array(rows)
    return (h + np.conjugate(np.swapaxes(h, -1, -2))) / 2


def two_matmul_step(h, params, dt, rng):
    """The matrix Euler step written out with both matmuls, unprojected."""
    n = h.shape[-1]
    dg = rng.complex_normal(h.shape) * np.sqrt(2.0 * dt)
    tr = np.trace(h, axis1=-2, axis2=-1).real
    drift = -(params.eta + n) / 2.0 * h + 0.5 * (1.0 + tr)[:, None, None] * np.eye(n)
    return h + 0.5 * (dg @ h + h @ np.conjugate(np.swapaxes(dg, -1, -2))) + drift * dt


class TestMatrixStep:
    def test_scalar_drift_reduction(self):
        out, _ = evolve_matrix_ensemble(np.ones((1, 1, 1), complex), PLAIN, 0.1, 0.1, ZeroNoise())
        assert out[0, 0, 0].real == pytest.approx(1.05)

    def test_drift_at_zero(self):
        h = np.zeros((1, 3, 3), complex)
        out, _ = evolve_matrix_ensemble(h, SdeParams(eta=0.7), 0.01, 0.01, ZeroNoise())
        np.testing.assert_allclose(out[0], 0.005 * np.eye(3), atol=1e-15)

    def test_trace_drift_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a @ a.conj().T / 4
        eta, dt = 1.3, 1e-5
        out, _ = evolve_matrix_ensemble(h[None], SdeParams(eta=eta), dt, dt, ZeroNoise())
        tr0 = np.trace(h).real
        tr1 = np.trace(out[0]).real
        want = tr0 + (-(eta + 4) / 2 * tr0 + 4 / 2 * (1 + tr0)) * dt
        assert tr1 == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_matmul_agrees_with_two(self, n):
        params = SdeParams(eta=0.7)
        h = hermitian_stack(n, (1e-3,), np.random.default_rng(n))[:8]
        got = _matrix_euler(h, params, 1e-3, RandomSource(12, n))
        want = two_matmul_step(h, params, 1e-3, RandomSource(12, n))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(h).max())

    def test_exactly_hermitian_without_repairs(self):
        h0 = np.tile(np.diag([3.0, 2.0, 1.0]).astype(complex), (64, 1, 1))
        h, repairs = evolve_matrix_ensemble(h0, PLAIN, 0.05, 1e-3, RandomSource(14))
        assert repairs.shape == (64,) and not repairs.any()
        np.testing.assert_array_equal(h, np.conjugate(np.swapaxes(h, -1, -2)))
        one, _ = evolve_matrix_ensemble(h, PLAIN, 1e-3, 1e-3, RandomSource(15))
        np.testing.assert_array_equal(one, np.conjugate(np.swapaxes(one, -1, -2)))

    def test_repairs_are_counted_per_row(self):
        h0 = np.array([np.diag([10.0, 0.0]), np.diag([2.0, 1.0])], dtype=complex)
        h, repairs = evolve_matrix_ensemble(h0, PLAIN, 0.05, 1e-3, RandomSource(10))
        # replay the same steps and count the repairs of each row by hand
        state, want, rng = h0, np.zeros(2, dtype=int), RandomSource(10)
        for _ in range(50):
            state = _matrix_euler(state, PLAIN, 1e-3, rng)
            state, bad = project_by_eigvalsh(state)
            want += bad
        assert repairs[0] > 0 and repairs[1] == 0
        np.testing.assert_array_equal(repairs, want)
        np.testing.assert_array_equal(h, state)

    @pytest.mark.parametrize("upper", ["hermitian", "noise"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_psd_screen_matches_eigvalsh(self, n, upper):
        rng = np.random.default_rng(n)
        h = hermitian_stack(n, PSD_RATIOS, rng)
        if upper == "noise":  # eigvalsh reads the lower triangle only; so must the screen
            h = np.tril(h) + np.triu(rng.normal(size=h.shape), 1)
        out, repaired = _project_psd_batch(h)
        want, want_repaired = project_by_eigvalsh(h)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(repaired, want_repaired)
        # both paths run: some rows are certified and some are repaired
        cert = _certified_pd(h)
        assert cert.any() and repaired.any()
        assert np.linalg.eigvalsh(h[cert])[:, 0].min() > 0.0

    def test_psd_certificate_needs_a_margin(self):
        # prod(d) / tr^3 is 1e-9 / 8 < 1e-8 here, and 1e-6 / 8 > 1e-8 below
        h = np.diag([1.0, 1.0, 1e-9]).astype(complex)[None]
        assert not _certified_pd(h)[0]
        assert _certified_pd(np.diag([1.0, 1.0, 1e-6]).astype(complex)[None])[0]

    def test_psd_screen_returns_a_clean_stack_as_is(self):
        h = hermitian_stack(3, (1e-3,), np.random.default_rng(0))[:4]
        out, repaired = _project_psd_batch(h)
        assert out is h and not repaired.any()

    def test_projection_keeps_psd(self):
        state = np.diag([10.0, 0.0]).astype(complex)[None]
        rng, repairs = RandomSource(10), 0
        for _ in range(50):
            state, repaired = evolve_matrix_ensemble(state, PLAIN, 1e-3, 1e-3, rng)
            repairs += repaired[0]
            np.testing.assert_allclose(state, np.conj(np.swapaxes(state, -1, -2)), atol=1e-12)
            w = np.linalg.eigvalsh(state)
            assert w.min() >= -1e-14
        assert repairs > 0


class TestEigenvalues:
    def test_sorted(self):
        out = eigenvalues(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(out.values, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        out = eigenvalues(np.outer(v, v))
        np.testing.assert_allclose(out.values, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a @ a.conj().T
        out = eigenvalues(h)
        assert out.values.sum() == pytest.approx(np.trace(h).real, rel=1e-9)


class TestGenerator:
    def test_linear_function(self):
        f = SmoothFunction(
            value=lambda x: float(np.sum(x)),
            gradient=lambda x: np.ones_like(x),
            hessian=lambda x: np.zeros((x.size, x.size)),
        )
        assert generator_apply(f, OrderedConfig([2.0, 1.0]), 0.0) == pytest.approx(1.0)

    def test_constant_function(self):
        f = SmoothFunction(
            value=lambda x: 1.0,
            gradient=lambda x: np.zeros_like(x),
            hessian=lambda x: np.zeros((x.size, x.size)),
        )
        assert generator_apply(f, OrderedConfig([3.0, 1.0]), 2.0) == 0.0

    def test_sum_of_squares(self):
        assert generator_apply(sum_sq(), OrderedConfig([2.0, 1.0]), 0.0) == pytest.approx(12.0)

    def test_martingale_increment_small_n(self):
        # (E[f(X_d)] - f(x))/d approximates L f within Monte Carlo error
        x0 = np.array([2.0, 1.0])
        delta = 1e-3
        n = 30_000
        ens, failed = evolve_ensemble(
            np.tile(x0, (n, 1)), PLAIN, delta, delta / 5, RandomSource(13), "eigen"
        )
        assert not failed.any()
        f = sum_sq()
        vals = np.sum(ens**2, axis=1)
        est = (vals.mean() - f.value(x0)) / delta
        se = vals.std() / np.sqrt(n) / delta
        want = generator_apply(f, OrderedConfig(x0), 0.0)
        assert abs(est - want) < 3 * se + 50 * delta
