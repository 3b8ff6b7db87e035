"""Time integrators for the eigenvalue SDE and its relatives.

The N-particle equation is

    dx_i = x_i dw_i + [-(eta/2) x_i + c] dt + sum_{j != i} x_i x_j/(x_i - x_j) dt

with c = 1/2 (plain normalisation) or 1/(2N) (hard-edge rescaling).  Steps
are explicit Euler-Maruyama in log coordinates y = log x, the natural chart
of a positive diffusion with multiplicative noise x dw, so a step cannot
cross zero.  Steps halve adaptively: a proposal that closes an ordering gap
or is not finite and positive is rejected, and the interval is re-integrated
as two halves whose increments split the rejected one at a Brownian-bridge
midpoint (Gaines & Lyons, SIAM J. Appl. Math. 57, 1997), so the Brownian path
is preserved and paths driven by shared increments stay coupled.  A row that
still fails comes back at its state at the start of the grid step.  The
engine steps its replicas batch-last, as one (N, n) stack with the replicas
contiguous along each coordinate, and the drifts take coordinate-first
(N, ...) stacks.  A matrix-valued integrator, whose congruence step keeps
every state positive semidefinite and contracts batch-last (N, N, n)
stacks, and the action of the infinitesimal generator complete the set of
finite-N diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import OrderedConfig, SdeParams, Trajectory
from .errors import DomainError, StepFailure

__all__ = [
    "SmoothFunction",
    "simulate",
    "generator_apply",
    "evolve_ensemble",
    "evolve_matrix_ensemble",
    "eigen_drift",
    "log_drift",
]

# A step of length dt halves at most this many times, so its shortest sub-step
# is dt * 2**-40; a row still rejected at that length fails.
_MAX_HALVINGS = 40
# A step is accepted only if every gap keeps more than this share of its size.
_GAP_SAFETY = 0.1


@dataclass(frozen=True)
class SmoothFunction:
    """Scalar observable with gradient and Hessian callbacks."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# drift fields
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) index arrays of shape (n, n-1): row i lists every
    j != i in increasing order."""
    i = np.repeat(np.arange(n), n - 1).reshape(n, n - 1)
    j = np.arange(n - 1) + (np.arange(n - 1) >= i)
    for a in (i, j):
        a.setflags(write=False)
    return i, j


def _pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresh (x_i, x_j) arrays over the off-diagonal pairs of a coordinate-first
    (N, ...) stack, shaped (N, N-1, ...); summing a pair term over axis 1 adds
    it up over j != i in increasing j.  The drifts compute their terms in these
    two buffers: at large N, fresh (N, N-1, ...) temporaries would cost more
    than the arithmetic."""
    i, j = _pair_index(x.shape[0])
    return x.take(i, axis=0), x.take(j, axis=0)


def _constant_drift(n: int, params: SdeParams) -> float:
    return 1.0 / (2.0 * n) if params.rescaled else 0.5


def eigen_drift(x: np.ndarray, params: SdeParams) -> np.ndarray:
    """Full drift of the eigenvalue SDE at a configuration x of shape (N,),
    or at a coordinate-first (N, ...) stack of them."""
    n = x.shape[0]
    xi, xj = _pairs(x)
    diff = xi - xj
    interaction = np.divide(np.multiply(xi, xj, out=xi), diff, out=xi).sum(axis=1)
    return -(params.eta / 2.0) * x + _constant_drift(n, params) + interaction


def log_drift(x: np.ndarray, params: SdeParams) -> np.ndarray:
    """Drift of the log-coordinate SDE, expressed through x = exp(y), at a
    configuration of shape (N,) or a coordinate-first (N, ...) stack."""
    n = x.shape[0]
    xi, xj = _pairs(x)
    interaction = np.divide(xj, np.subtract(xi, xj, out=xi), out=xi).sum(axis=1)
    return -(1.0 + params.eta) / 2.0 + _constant_drift(n, params) / x + interaction


# ---------------------------------------------------------------------------
# batched Euler stepping with per-replica halving
# ---------------------------------------------------------------------------

def _propose(x: np.ndarray, dt: float, dw: np.ndarray, params: SdeParams):
    return x * np.exp(dw + log_drift(x, params) * dt)


def _accept(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Entrywise acceptance of an (N, b) proposal; column r is accepted when
    all of ``good[:, r]`` is."""
    good = np.isfinite(new)
    good[:-1] &= new[:-1] - new[1:] > _GAP_SAFETY * (old[:-1] - old[1:])
    # x exp(.) is positive unless the exp underflows to zero
    good[-1] &= new[-1] > 0.0
    return good


def _advance_batch(x, dt, dw, rng, params, depth=_MAX_HALVINGS):
    """Advance the b replicas of a C-contiguous (N, b) stack by dt on their
    (N, b) Brownian increments dw.  Returns (new_x, failed_mask), the mask
    (b,) and None when every replica was accepted at the first proposal.
    Callers enter ``np.errstate(over="ignore")`` once around their stepping
    loop: a proposal whose exp overflows is inf, which the acceptance test
    rejects, so numpy's warning would say nothing more.

    A rejected replica is re-integrated as two dt/2 halves: the first takes
    the bridge midpoint dw/2 + sqrt(dt/4) Z (one (rejected, N) draw, copied
    batch-last), the second the rest of dw, so a halved replica still moves
    by its own increment.  A replica still rejected after ``depth`` halvings
    is flagged failed and returned at its state at the start of dt.
    """
    prop = _propose(x, dt, dw, params)
    good = _accept(prop, x)
    if good.all():
        return prop, None
    bad = np.nonzero(~good.all(axis=0))[0]
    failed = np.zeros(x.shape[1], dtype=bool)
    if depth <= 0:
        failed[bad] = True
    else:
        rejected = dw.take(bad, axis=1)
        z = rng.standard_normal((bad.size, x.shape[0]))
        first = rejected / 2.0 + np.multiply(z.T, math.sqrt(dt / 4.0), order="C")
        second = rejected - first
        sub, f1 = _advance_batch(x.take(bad, axis=1), dt / 2.0, first, rng, params, depth - 1)
        f1 = np.zeros(bad.size, dtype=bool) if f1 is None else f1
        alive = np.nonzero(~f1)[0]
        if alive.size:
            sub[:, alive], f2 = _advance_batch(
                sub.take(alive, axis=1), dt / 2.0, second.take(alive, axis=1),
                rng, params, depth - 1,
            )
            if f2 is not None:
                f1[alive[f2]] = True
        prop[:, bad] = sub
        failed[bad] = f1
    prop[:, failed] = x[:, failed]
    return prop, failed


def _time_steps(horizon: float, dt: float) -> list[float]:
    """Step lengths covering [0, horizon]: whole dt steps, then the remainder
    only when it exceeds floating-point residue."""
    if not (np.isfinite(dt) and dt > 0 and np.isfinite(horizon) and horizon >= 0):
        raise DomainError(f"need a finite dt > 0 and horizon >= 0, got dt={dt}, horizon={horizon}")
    count = int(np.floor(horizon / dt + 1e-9))
    rest = horizon - count * dt
    return [dt] * count + ([rest] if rest > 1e-9 * dt else [])


def evolve_ensemble(
    states: np.ndarray,
    params: SdeParams,
    horizon: float,
    dt: float,
    rng,
):
    """Evolve an (n, N) ensemble to the horizon on a dt grid.

    Each grid step draws one Brownian increment per live replica, which a
    rejected replica splits by ``_advance_batch``'s bridge rule.  Replicas
    still rejected after 40 halvings are frozen and flagged; the returned
    mask marks them.  Frozen replicas draw no further noise.  Noise
    consumption is a deterministic function of the rng stream, so identical
    sources give identical ensembles.

    The replicas are stepped batch-last: the ensemble is copied once on
    entry into a C-contiguous (N, n) stack and once back on exit.  Each step
    draws ``standard_normal((live, N))``, in row order, and copies it
    batch-last while scaling it.
    """
    out = np.array(states, dtype=float)
    if out.ndim == 1:
        out = out[None, :]
    live = np.arange(out.shape[0])
    failed = np.zeros(out.shape[0], dtype=bool)
    x = np.ascontiguousarray(out.T)
    with np.errstate(over="ignore"):
        for step in _time_steps(horizon, dt):
            if not live.size:
                break
            z = rng.standard_normal((live.size, x.shape[0]))
            dw = np.multiply(z.T, math.sqrt(step), order="C")
            x, fail_now = _advance_batch(x, step, dw, rng, params)
            if fail_now is not None and fail_now.any():
                out[live[fail_now]] = x[:, fail_now].T
                failed[live[fail_now]] = True
                live, x = live[~fail_now], x.compress(~fail_now, axis=1)
    out[live] = x.T
    return out, failed


# ---------------------------------------------------------------------------
# one recorded path
# ---------------------------------------------------------------------------

def simulate(
    initial: OrderedConfig,
    params: SdeParams,
    dt: float,
    save_times: Sequence[float],
    rng,
) -> Trajectory:
    """Integrate one path on a dt grid up to the last save time and record the
    state at each save time.

    Each grid step is a one-row :func:`evolve_ensemble` call; a step whose
    halving bottoms out raises :class:`StepFailure` at the step's start time.
    """
    save = [float(t) for t in save_times]
    if not all(np.isfinite(t) and t >= 0 for t in save) or np.any(np.diff(save) <= 0):
        raise DomainError(f"save_times must be finite, >= 0 and strictly increasing, got {save}")
    if not (np.isfinite(dt) and dt > 0):
        raise DomainError(f"need a finite dt > 0, got dt={dt}")
    times = [0.0]
    states = [initial]
    x, started = initial.values[None, :], False
    for target in save:
        if target <= 0.0:
            continue
        t = times[-1]
        for step in _time_steps(target - t, dt):
            if not started:  # accepted steps stay interior, so only the start is checked
                initial.require_interior()
                started = True
            x, failed = evolve_ensemble(x, params, step, step, rng)
            if failed[0]:
                raise StepFailure(f"step failed at t={t:.6g}", time=t)
            t += step
        times.append(target)
        states.append(OrderedConfig(x[0]))
    return Trajectory(times=tuple(times), states=tuple(states))


# ---------------------------------------------------------------------------
# matrix-valued dynamics
# ---------------------------------------------------------------------------

def _matrix_step(h: np.ndarray, params: SdeParams, dt: float, rng) -> np.ndarray:
    """One step of the Hermitian matrix SDE for a batch-last (N, N, b) stack,
    as a congruence:

        h <- E (h + dt/2 I) E^H,  E = I + dG/2 - (eta+N)/4 dt I,  dG = sqrt(2 dt) G.

    With c = (eta+N)/4 dt and h' = h + dt/2 I, the step expands to

        (1-c)^2 h' + (1-c) (dG h' + h' dG^H)/2 + dG h' dG^H/4,

    whose conditional mean (1-c)^2 h' + dt/2 tr(h') I is the Euler drift
    h + [-(eta+N)/2 h + (1+tr h)/2 I] dt up to O(dt^2); the Ito term
    dG h' dG^H/4 supplies the tr(h)/2 dt I.  A congruence of a positive
    semidefinite h' stays positive semidefinite for every draw, so the step
    needs no projection.  The product is averaged with its conjugate
    transpose, so every state is exactly Hermitian.

    G is drawn as a (b, N, N) stack, already scaled by sqrt(2 dt)/2, and
    copied batch-last.  The two products are einsum contractions over the
    batch axis, which at N <= 4 beat one BLAS call per matrix, match it at
    N = 5 and lose to it from N = 8 up.
    ``h`` is consumed: its diagonal is shifted in place.
    """
    n = h.shape[0]
    g = rng.complex_normal((h.shape[-1], n, n), math.sqrt(2.0 * dt) / 2.0)
    e = np.copy(g.transpose(1, 2, 0), order="C")
    np.einsum("iib->ib", e)[...] += 1.0 - (params.eta + n) / 4.0 * dt
    np.einsum("iib->ib", h)[...] += dt / 2.0
    new = np.einsum("ijb,jkb->ikb", e, np.einsum("ijb,kjb->ikb", h, np.conjugate(e)))
    new += np.conjugate(new.transpose(1, 0, 2))
    new *= 0.5
    return new


def evolve_matrix_ensemble(h0: np.ndarray, params: SdeParams, horizon: float, dt: float, rng):
    """Evolve one Hermitian positive semidefinite (N, N) state, or an
    (..., N, N) stack of them, to the horizon on a dt grid; the result has
    the input's shape.  Each step draws one complex Gaussian per entry, as
    ``complex_normal((n, N, N))`` over the n stacked states in their row-major
    order, and leaves every state exactly Hermitian and positive
    semidefinite.  The stack is stepped batch-last: its leading axes are
    flattened and moved last once on entry, and back once on exit.
    """
    h = np.asarray(h0)
    shape = h.shape
    if h.ndim < 2 or shape[-1] != shape[-2]:
        raise DomainError(f"need an (..., N, N) stack of square matrices, got shape {shape}")
    h = np.moveaxis(h.reshape((-1,) + shape[-2:]), 0, -1).astype(complex, order="C")
    for step in _time_steps(horizon, dt):
        h = _matrix_step(h, params, step, rng)
    return np.moveaxis(h, -1, 0).reshape(shape)


# ---------------------------------------------------------------------------
# infinitesimal generator
# ---------------------------------------------------------------------------

def generator_apply(f: SmoothFunction, config: OrderedConfig, eta: float) -> float:
    """Apply the generator of the (plain) N-particle dynamics to f at config.

    L f = sum_i x_i^2/2 f_ii + sum_i [ -(eta/2) x_i + 1/2 + interaction_i ] f_i.
    """
    config.require_interior()
    x = config.values
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian(x), dtype=float)
    hess_diag = np.diag(hess) if hess.ndim == 2 else hess
    drift = eigen_drift(x, SdeParams(eta=eta))
    return float(np.sum(x**2 / 2.0 * hess_diag) + np.sum(drift * grad))
