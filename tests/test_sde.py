import math
import re
import warnings

import numpy as np
import pytest

from hardedge import sde
from hardedge.core import OrderedConfig, SdeParams
from hardedge.errors import DomainError, StepFailure
from hardedge.rng import RandomSource
from hardedge.sde import (
    SmoothFunction,
    eigen_drift,
    evolve_ensemble,
    evolve_matrix_ensemble,
    generator_apply,
    log_drift,
    simulate,
)

PLAIN = SdeParams(eta=0.0, rescaled=False)


def drift_by_loops(x: np.ndarray, params: SdeParams, kind: str) -> np.ndarray:
    """The eigen or log drift of a coordinate-first (N, ...) stack from its
    defining sums, one particle at a time, adding the interaction terms over
    j != i in increasing j."""
    out = np.empty_like(x)
    for col in np.ndindex(x.shape[1:]):
        v = x[(slice(None),) + col]
        c = 1.0 / (2.0 * v.size) if params.rescaled else 0.5
        for i in range(v.size):
            s = 0.0
            for j in range(v.size):
                if j != i:
                    s += (v[i] * v[j] if kind == "eigen" else v[j]) / (v[i] - v[j])
            if kind == "eigen":
                out[(i,) + col] = -(params.eta / 2.0) * v[i] + c + s
            else:
                out[(i,) + col] = -(1.0 + params.eta) / 2.0 + c / v[i] + s
    return out


def row_major_log_drift(x: np.ndarray, params: SdeParams) -> np.ndarray:
    """The log drift of an (n, N) array of rows, its pair terms gathered
    row-major as (n, N, N-1) and summed over the last axis."""
    n = x.shape[-1]
    i = np.repeat(np.arange(n), n - 1).reshape(n, n - 1)
    j = np.array([[k for k in range(n) if k != m] for m in range(n)], dtype=int)
    xi, xj = x[..., i], x[..., j]
    c = 1.0 / (2.0 * n) if params.rescaled else 0.5
    return -(1.0 + params.eta) / 2.0 + c / x + (xj / (xi - xj)).sum(axis=-1)


def reference_evolve(x0, params, steps, dt, rng):
    """The batched log-Euler engine written plainly and row-major, on (n, N)
    rows: draw the grid increments for every row not yet frozen, propose,
    accept, re-integrate the rejected rows as two dt/2 halves whose
    increments split theirs at a Brownian-bridge midpoint (the second half
    only for rows that survived the first), freeze them at depth 0; a frozen
    row returns to its state at the start of the step and draws nothing more.
    Returns (x, failed, rejections)."""

    def advance(x, h, dw, depth):
        with np.errstate(over="ignore"):
            prop = x * np.exp(dw + row_major_log_drift(x, params) * h)
        ok = np.all(np.isfinite(prop), axis=1) & (prop[:, -1] > 0.0)
        gaps = prop[:, :-1] - prop[:, 1:]
        ok &= np.all(gaps > 0.1 * (x[:, :-1] - x[:, 1:]), axis=1)
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
        new[failed] = x[failed]
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


class ZeroNoise:
    """A noise source that returns zeros, which turns an SDE step into an ODE step."""

    def standard_normal(self, size):
        return np.zeros(size)


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


def one_step(x0, params, dt, rng):
    """One grid step of one path: a one-row evolve_ensemble call.
    Returns (state, failed)."""
    out, failed = evolve_ensemble(np.array([x0], dtype=float), params, dt, dt, rng)
    return out[0], failed[0]


def sum_sq() -> SmoothFunction:
    return SmoothFunction(
        value=lambda x: float(np.sum(x**2)),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(x.size),
    )


class TestLogStep:
    def test_stationary_point_n1_rescaled(self):
        p = SdeParams(eta=0.0, rescaled=True)
        out, _ = one_step([1.0], p, 0.01, ZeroNoise())
        assert out[0] == pytest.approx(1.0)

    def test_drift_n1_rescaled_x2(self):
        p = SdeParams(eta=0.0, rescaled=True)
        dt = 0.01
        out, _ = one_step([2.0], p, dt, ZeroNoise())
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

    def test_positivity_automatic(self):
        out, failed = one_step([1e-6], SdeParams(eta=5.0), 1e-3, RandomSource(6))
        assert out[0] > 0 and not failed

    def test_step_failure_on_impossible_state(self):
        # a 1-ulp tie at dt = 1: even at the shortest sub-step 2^-40 the
        # interaction kick in log coordinates is ~4000, so the top particle's
        # exp overflows and the bottom one's underflows at every depth
        x0 = [np.nextafter(1.0, 2.0), 1.0]
        out, failed = one_step(x0, PLAIN, 1.0, ZeroNoise())
        assert failed
        np.testing.assert_array_equal(out, x0)


class TestSimulate:
    def test_path_stays_interior(self):
        traj = simulate(
            OrderedConfig([3.0, 2.0, 1.0]),
            SdeParams(eta=0.5),
            dt=1e-3,
            save_times=[0.05, 0.1, 0.2],
            rng=RandomSource(7),
        )
        assert traj.times == (0.0, 0.05, 0.1, 0.2)
        for s in traj.states:
            s.require_interior()

    def test_zero_noise_is_deterministic(self):
        kw = dict(
            params=SdeParams(eta=1.0),
            dt=1e-3,
            save_times=[0.1],
        )
        a = simulate(OrderedConfig([2.0, 1.0]), rng=ZeroNoise(), **kw)
        b = simulate(OrderedConfig([2.0, 1.0]), rng=ZeroNoise(), **kw)
        np.testing.assert_array_equal(a.states[-1].values, b.states[-1].values)

    def test_seeded_reproducibility(self):
        kw = dict(
            params=SdeParams(eta=0.0),
            dt=1e-3,
            save_times=[0.05],
        )
        a = simulate(OrderedConfig([2.0, 1.0]), rng=RandomSource(11, 3), **kw)
        b = simulate(OrderedConfig([2.0, 1.0]), rng=RandomSource(11, 3), **kw)
        np.testing.assert_array_equal(a.states[-1].values, b.states[-1].values)

    def test_save_time_validation(self):
        for save in ([math.nan], [0.1, math.inf], [-0.1], [0.2, 0.1], [0.1, 0.1]):
            with pytest.raises(DomainError, match="save_times"):
                simulate(OrderedConfig([1.0]), PLAIN, 1e-3, save, ZeroNoise())

    def test_requires_interior(self):
        with pytest.raises(DomainError, match=r"x\[0\] = x\[1\] = 1\.0"):
            simulate(OrderedConfig([1.0, 1.0]), PLAIN, 1e-3, [0.01], ZeroNoise())

    def test_step_failure_reports_the_start_of_the_failing_step(self):
        # the first half-step is accepted at ~1e202 before the rest fails;
        # the overflowing proposals on the way raise no warning
        cfg = OrderedConfig([1.0 + 5e-13, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure) as info:
                simulate(cfg, PLAIN, 1.0, [1.0], RandomSource(3))
        assert info.value.time == 0.0

    @pytest.mark.parametrize(
        "x0, halves",
        [([3.0, 2.0, 1.0], False), ([1.0 + 1e-4, 1.0, 0.9], True)],
    )
    def test_one_path_is_one_ensemble_row(self, x0, halves):
        # same grid and stream; the near-tie case halves along the way
        steps, dt = 20, 1e-3
        params = SdeParams(eta=0.5)
        rng = CountingNoise(23, 1)
        traj = simulate(OrderedConfig(x0), params, dt, [steps * dt], rng)
        ens, failed = evolve_ensemble(np.array([x0]), params, steps * dt, dt, RandomSource(23, 1))
        assert not failed.any()
        np.testing.assert_array_equal(traj.states[-1].values, ens[0])
        assert (rng.calls > steps) == halves


class TestDriftDefinition:
    PARAMS = (SdeParams(eta=0.0, rescaled=False), SdeParams(eta=1.3, rescaled=True))

    def configs(self, N):
        # one configuration, then coordinate-first (N, 7) and (N, 2, 7) stacks
        rng = np.random.default_rng(N)
        for shape in ((N,), (7, N), (2, 7, N)):
            x = -np.sort(-rng.uniform(0.1, 4.0, shape), axis=-1)
            yield np.ascontiguousarray(np.moveaxis(x, -1, 0))

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

    def test_eigen_drift_homogeneity(self):
        # the eta part and the interaction are 1-homogeneous; the constant is not
        c = 3.7
        base = np.array([2.0, 1.0])
        np.testing.assert_allclose(
            eigen_drift(c * base, PLAIN), c * eigen_drift(base, PLAIN) + 0.5 * (1 - c), rtol=1e-12
        )


class TestEnsemble:
    def test_matches_single_path_layout(self):
        x0 = np.array([[3.0, 2.0, 1.0]] * 4)
        out, failed = evolve_ensemble(x0, SdeParams(eta=0.0), 0.05, 1e-3, RandomSource(8))
        assert out.shape == (4, 3)
        assert not failed.any()
        assert np.all(np.diff(out, axis=1) < 0) and np.all(out[:, -1] > 0)

    def test_failed_replicas_freeze(self):
        # unresolvable near-tie: a 1-ulp gap overflows at every depth, so every
        # replica freezes at its start and is flagged rather than crashing the
        # ensemble
        x0 = np.array([[np.nextafter(1.0, 2.0), 1.0]] * 3)
        out, failed = evolve_ensemble(x0, PLAIN, 1.0, 1.0, RandomSource(9))
        assert failed.all()
        np.testing.assert_array_equal(out, x0)

    def test_overflowing_proposal_freezes_without_warning(self):
        # a 5e-13 gap at dt = 1: the rejected proposals overflow exp, which
        # the acceptance test handles, so numpy raises no warning.  The first
        # half-step is accepted at ~1e202 before the second fails at every
        # depth; the failed row still comes back at its start
        x0 = np.array([[1.0 + 5e-13, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, failed = evolve_ensemble(x0, PLAIN, 1.0, 1.0, RandomSource(3))
        assert failed.all()
        np.testing.assert_array_equal(out, x0)

    def test_frozen_rows_stop_drawing(self):
        # the near-tie row freezes in the first step after all 40 halvings;
        # after that only the healthy rows draw, once per step
        x0 = np.array([[1.0 + 1e-15, 1.0]] + [[2.0, 1.0]] * 3)
        steps, dt = 100, 0.01
        rng = CountingNoise(9)
        _, failed = evolve_ensemble(x0, PLAIN, steps * dt, dt, rng)
        np.testing.assert_array_equal(failed, [True, False, False, False])
        assert rng.calls == steps + 40

    def test_each_grid_step_calls_the_module_drift_once(self, monkeypatch):
        # the engine looks log_drift up on the sde module, where a wrapper
        # (the benchmark's sde.drift span) sees one batch-last call per step
        shapes = []
        drift = sde.log_drift

        def counting_drift(x, params):
            shapes.append(x.shape)
            return drift(x, params)

        monkeypatch.setattr(sde, "log_drift", counting_drift)
        steps, dt = 25, 1e-3
        x0 = np.array([[3.0, 2.0, 1.0]] * 16)
        rng = CountingNoise(8)
        _, failed = evolve_ensemble(x0, SdeParams(eta=0.5), steps * dt, dt, rng)
        assert not failed.any() and rng.calls == steps  # no step was halved
        assert shapes == [(3, 16)] * steps

    @pytest.mark.parametrize(
        "horizon, dt", [(0.1, 0.0), (0.1, -0.1), (0.1, math.nan), (-0.1, 1e-3)]
    )
    def test_time_grid_is_validated(self, horizon, dt):
        with pytest.raises(DomainError):
            evolve_ensemble(np.array([[2.0, 1.0]]), PLAIN, horizon, dt, RandomSource(8))
        with pytest.raises(DomainError):
            evolve_matrix_ensemble(np.diag([2.0, 1.0])[None], PLAIN, horizon, dt, RandomSource(8))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2, 3)])
    def test_matrix_stack_must_be_square(self, shape):
        with pytest.raises(DomainError, match=re.escape(f"got shape {shape}")):
            evolve_matrix_ensemble(np.ones(shape), PLAIN, 0.1, 1e-3, RandomSource(8))


class TestEngineAgainstReference:
    def check(self, x0, params, steps, dt, noise):
        want, want_failed, rejections = reference_evolve(x0, params, steps, dt, noise())
        got, failed = evolve_ensemble(x0, params, steps * dt, dt, noise())
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(failed, want_failed)
        return want_failed, rejections

    def test_all_accepted(self):
        x0 = np.array([[3.0, 2.0, 1.0]] * 8)
        params = SdeParams(eta=0.5, rescaled=True)
        failed, rejections = self.check(x0, params, 40, 1e-3, lambda: RandomSource(21))
        assert rejections == 0 and not failed.any()

    def test_near_tie_halves_without_freezing(self):
        # a step across a 1e-4 gap: at dt = 1e-3 the interaction pushes the
        # middle particle through the bottom one; a few halvings resolve it
        x0 = np.array([[3.0, 2.0, 1.0]] * 4 + [[1.0 + 1e-4, 1.0, 0.9]])
        params = SdeParams(eta=0.5)
        failed, rejections = self.check(x0, params, 20, 1e-3, lambda: RandomSource(22))
        assert rejections > 0 and not failed.any()

    @pytest.mark.parametrize("rows", [1, 2, 7, 256])
    @pytest.mark.parametrize("N", [1, 2, 3, 9, 16, 64])
    def test_bit_identical_across_sizes_and_row_counts(self, N, rows):
        # numpy sums the row-major pair terms pairwise on one row at N >= 9
        # and in increasing j on two or more rows; the batch-last sum over
        # axis 1 does the same, so drift and engine agree bit for bit
        gen = np.random.default_rng(1000 * N + rows)
        x0 = N - np.arange(N) + gen.uniform(-0.25, 0.25, (rows, N))
        params = SdeParams(eta=0.5, rescaled=N % 2 == 0)
        np.testing.assert_array_equal(
            log_drift(np.ascontiguousarray(x0.T), params).T, row_major_log_drift(x0, params)
        )
        if N > 2:
            # a near tie whose repulsion pushes x_1 through x_2, so row 0
            # halves; at N = 2 the tied pair only moves apart
            x0[0, 0] = x0[0, 1] * (1.0 + 1e-4)
        failed, rejections = self.check(x0, params, 3, 1e-3, lambda: RandomSource(31, N))
        assert not failed.any() and (rejections > 0) == (N > 2)

    def test_frozen_rows_mixed_with_healthy_rows(self):
        x0 = np.array([[1.0 + 1e-15, 1.0]] + [[2.0, 1.0]] * 3)
        failed, _ = self.check(x0, PLAIN, 4, 0.25, lambda: RandomSource(9))
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
        failed, _ = self.check(x0, PLAIN, 3, 1e-3, lambda: ScriptedNoise(script))
        np.testing.assert_array_equal(failed, [True, False, False])
        out, _ = evolve_ensemble(x0, PLAIN, 3e-3, 1e-3, ScriptedNoise(script))
        np.testing.assert_array_equal(out[0], x0[0])

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
        failed, _ = self.check(x0, PLAIN, 4, 1e-3, lambda: ScriptedNoise(script))
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
        _, failed = evolve_ensemble(x0, PLAIN, 1.5 * dt, dt, ScriptedNoise(script))
        np.testing.assert_array_equal(failed, [True, True, False])
        assert shapes == [(3, 3)] + [(1, 3)] * 40 + [(2, 3)] + [(1, 3)] * 40

    def test_halved_row_moves_by_its_grid_increment(self, monkeypatch):
        # record each proposal's step and increments and whether it was
        # accepted; the accepted sub-steps of every grid step add up to the
        # grid step and to its increment
        calls = []
        propose, accept = sde._propose, sde._accept

        def spy_propose(x, dt, dw, params):
            calls.append([dt, dw[:, 0].copy(), False])
            return propose(x, dt, dw, params)

        def spy_accept(new, old):
            good = accept(new, old)
            calls[-1][2] = bool(good.all())
            return good

        monkeypatch.setattr(sde, "_propose", spy_propose)
        monkeypatch.setattr(sde, "_accept", spy_accept)
        x0 = np.array([[1.0 + 1e-4, 1.0, 0.9]])
        dt = 1e-3
        _, failed = evolve_ensemble(x0, SdeParams(eta=0.5), 20 * dt, dt, RandomSource(22))
        assert not failed.any()
        grid = [k for k, (h, _, _) in enumerate(calls) if h == dt]
        assert len(grid) == 20 and len(calls) > 20
        for start, stop in zip(grid, grid[1:] + [len(calls)]):
            taken = [(h, dw) for h, dw, ok in calls[start:stop] if ok]
            assert math.fsum(h for h, _ in taken) == dt
            total = np.sum([dw for _, dw in taken], axis=0)
            np.testing.assert_allclose(total, calls[start][1], rtol=0, atol=1e-15)


class ScriptedComplexNoise:
    """Returns ``draws[call]``, times the call's scale, as its complex normals."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def complex_normal(self, size, scale=1.0):
        draw = self.draws.pop(0)
        assert draw.shape == tuple(size)
        return draw * scale


def step_mean(h, params, dt):
    """The exact conditional mean of one matrix step from h.

    The step is a quadratic polynomial in the real and imaginary parts of G,
    which are independent N(0, 1/2).  For such a polynomial f,
    E f = f(0) + sum_k [(f(s e_k) + f(-s e_k))/2 - f(0)] with s^2 = 1/2, so
    one step of a stack holding 0 and every +-s e_k gives the mean exactly.
    """
    n = h.shape[-1]
    s = math.sqrt(0.5)
    points = [np.zeros((n, n), complex)]
    for i in range(n):
        for j in range(n):
            for unit in (1.0, 1j):
                for sign in (s, -s):
                    g = np.zeros((n, n), complex)
                    g[i, j] = sign * unit
                    points.append(g)
    noise = ScriptedComplexNoise(np.array(points))
    out = evolve_matrix_ensemble(np.tile(h, (len(points), 1, 1)), params, dt, dt, noise)
    return out[0] + np.sum(out[1:] - out[0], axis=0) / 2.0


def euler_drift_step(h, params, dt):
    """The Euler map of the matrix SDE's drift: h + [-(eta+N)/2 h + (1+tr h)/2 I] dt."""
    n = h.shape[-1]
    tr = np.trace(h).real
    return h + (-(params.eta + n) / 2.0 * h + (1.0 + tr) / 2.0 * np.eye(n)) * dt


def random_psd(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T / n


def is_hermitian(h):
    return np.array_equal(h, np.conjugate(np.swapaxes(h, -1, -2)))


class TestMatrixStep:
    def test_scalar_drift_reduction(self):
        # N = 1: E[|e|^2] h' = ((1 - c)^2 + dt/2)(h + dt/2) with c = (eta+1)/4 dt
        h, dt = np.ones((1, 1), complex), 0.1
        mean = step_mean(h, PLAIN, dt)
        assert mean[0, 0] == pytest.approx((0.975**2 + 0.05) * 1.05, rel=1e-14)
        assert mean[0, 0].real == pytest.approx(1.05, abs=dt**2)  # the Euler value

    def test_drift_at_zero(self):
        # from h = 0 the mean is dt/2 I, the Euler value, up to O(dt^2)
        dt, params = 0.01, SdeParams(eta=0.7)
        c = (0.7 + 3) / 4 * dt
        mean = step_mean(np.zeros((3, 3), complex), params, dt)
        np.testing.assert_allclose(mean, ((1 - c) ** 2 + 3 * dt / 2) * dt / 2 * np.eye(3), rtol=1e-13, atol=0)
        np.testing.assert_allclose(mean, 0.005 * np.eye(3), rtol=0, atol=dt**2)

    def test_trace_drift_linearity(self):
        h = random_psd(4, np.random.default_rng(1))
        eta, dt = 1.3, 1e-5
        tr0 = np.trace(h).real
        tr1 = np.trace(step_mean(h, SdeParams(eta=eta), dt)).real
        want = tr0 + (-(eta + 4) / 2 * tr0 + 4 / 2 * (1 + tr0)) * dt
        assert tr1 == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_mean_is_the_euler_drift_to_second_order(self, n):
        params = SdeParams(eta=0.7)
        h = random_psd(n, np.random.default_rng(n))
        scaled = []
        for dt in (1e-2, 1e-3, 1e-4):
            c = (params.eta + n) / 4 * dt
            shifted = h + dt / 2 * np.eye(n)
            mean = step_mean(h, params, dt)
            want = (1 - c) ** 2 * shifted + dt / 2 * np.trace(shifted) * np.eye(n)
            np.testing.assert_allclose(mean, want, rtol=0, atol=1e-14 * np.abs(h).max())
            scaled.append(np.abs(mean - euler_drift_step(h, params, dt)).max() / dt**2)
        # the remainder is O(dt^2), and not smaller: its scaled size settles
        assert scaled[1] == pytest.approx(scaled[2], rel=0.05)
        assert scaled[0] == pytest.approx(scaled[2], rel=0.5)

    @pytest.mark.parametrize(
        "n, lead",
        [(1, (8,)), (2, (8,)), (3, (8,)), (4, (8,)), (5, (8,)), (3, (2, 4))],
        ids=["1", "2", "3", "4", "5", "3-stacked-2x4"],
    )
    def test_congruence_matches_its_expansion(self, n, lead):
        # every stack, 4-D included, draws one (8, n, n) block per step
        params, dt = SdeParams(eta=0.7), 1e-3
        gen = np.random.default_rng(n)
        h = np.array([random_psd(n, gen) for _ in range(8)]).reshape(lead + (n, n))
        draw = RandomSource(12, n).complex_normal((8, n, n))
        got = evolve_matrix_ensemble(h, params, dt, dt, ScriptedComplexNoise(draw.copy()))
        assert got.shape == h.shape
        dg = draw.reshape(h.shape) * math.sqrt(2 * dt)
        dgh = np.conjugate(np.swapaxes(dg, -1, -2))
        c = (params.eta + n) / 4 * dt
        shifted = h + dt / 2 * np.eye(n)
        want = (1 - c) ** 2 * shifted + (1 - c) * (dg @ shifted + shifted @ dgh) / 2 + dg @ shifted @ dgh / 4
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(h).max())

    def test_exactly_hermitian_without_repairs(self):
        h0 = np.tile(np.diag([3.0, 2.0, 1.0]).astype(complex), (64, 1, 1))
        h = evolve_matrix_ensemble(h0, PLAIN, 0.05, 1e-3, RandomSource(14))
        assert is_hermitian(h)
        assert is_hermitian(evolve_matrix_ensemble(h, PLAIN, 1e-3, 1e-3, RandomSource(15)))

    def test_psd_for_huge_draws(self):
        # |G| ~ 1e3 at dt = 1e-3 makes dG h dwarf h: an Euler step from these
        # states is indefinite on every row, while every congruence state is
        # positive definite, its least eigenvalue ~1e-9 of its largest or more
        gen, n = np.random.default_rng(3), 64
        h = np.array([np.diag([10.0, 0.0, 0.0])] + [random_psd(3, gen) for _ in range(n - 1)], complex)
        draws = [1e3 * (gen.normal(size=h.shape) + 1j * gen.normal(size=h.shape)) for _ in range(5)]
        rng = ScriptedComplexNoise(*draws)
        for _ in draws:
            h = evolve_matrix_ensemble(h, PLAIN, 1e-3, 1e-3, rng)
            assert is_hermitian(h)
            assert np.linalg.eigvalsh(h)[:, 0].min() > 0.0

    def test_least_eigenvalue_stays_positive_from_a_zero_start(self):
        h = np.tile(np.diag([2.0, 1.0, 0.0]).astype(complex), (4096, 1, 1))
        rng, dt = RandomSource(10), 5e-4
        for _ in range(500):  # t = 0.25
            h = evolve_matrix_ensemble(h, PLAIN, dt, dt, rng)
            assert np.linalg.eigvalsh(h)[:, 0].min() > 0.0


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
            np.tile(x0, (n, 1)), PLAIN, delta, delta / 5, RandomSource(13)
        )
        assert not failed.any()
        f = sum_sq()
        vals = np.sum(ens**2, axis=1)
        est = (vals.mean() - f.value(x0)) / delta
        se = vals.std() / np.sqrt(n) / delta
        want = generator_apply(f, OrderedConfig(x0), 0.0)
        assert abs(est - want) < 3 * se + 50 * delta
