"""Time integrators for the eigenvalue SDE and its relatives.

The N-particle equation is

    dx_i = x_i dw_i + [-(eta/2) x_i + c] dt + sum_{j != i} x_i x_j/(x_i - x_j) dt

with c = 1/2 (plain normalisation) or 1/(2N) (hard-edge rescaling).  Steps
are explicit Euler-Maruyama with adaptive halving: a proposal that crosses
an ordering gap or the positivity boundary is rejected, and the interval is
re-integrated as two halves whose increments split the rejected one at a
Brownian-bridge midpoint (Gaines & Lyons, SIAM J. Appl. Math. 57, 1997), so
the Brownian path is preserved and paths driven by shared increments stay
coupled.  The log-coordinate integrator removes the positivity failure mode
and is the default near the hard edge.  A matrix-valued integrator and the
action of the infinitesimal generator complete the set of finite-N
diagnostics.
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
# The bottom coordinate an eigen-coordinate step must stay above.
_POSITIVITY_FLOOR = 1e-12
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
    """Fresh (x_i, x_j) arrays over the off-diagonal pairs, shaped (..., N, N-1);
    summing a pair term over the last axis adds it up over j != i in increasing j.
    The drifts compute their terms in these two buffers: at large N, fresh
    (..., N, N-1) temporaries would cost more than the arithmetic."""
    i, j = _pair_index(x.shape[-1])
    return x[..., i], x[..., j]


def _constant_drift(n: int, params: SdeParams) -> float:
    return 1.0 / (2.0 * n) if params.rescaled else 0.5


def eigen_drift(x: np.ndarray, params: SdeParams) -> np.ndarray:
    """Full drift of the eigenvalue SDE at x (batched over leading axes)."""
    n = x.shape[-1]
    xi, xj = _pairs(x)
    diff = xi - xj
    interaction = np.divide(np.multiply(xi, xj, out=xi), diff, out=xi).sum(axis=-1)
    return -(params.eta / 2.0) * x + _constant_drift(n, params) + interaction


def log_drift(x: np.ndarray, params: SdeParams) -> np.ndarray:
    """Drift of the log-coordinate SDE, expressed through x = exp(y)."""
    n = x.shape[-1]
    xi, xj = _pairs(x)
    interaction = np.divide(xj, np.subtract(xi, xj, out=xi), out=xi).sum(axis=-1)
    return -(1.0 + params.eta) / 2.0 + _constant_drift(n, params) / x + interaction


# ---------------------------------------------------------------------------
# batched Euler stepping with per-replica halving
# ---------------------------------------------------------------------------

def _propose(kind: str, x: np.ndarray, dt: float, dw: np.ndarray, params: SdeParams):
    if kind == "eigen":
        return x + x * dw + eigen_drift(x, params) * dt
    return x * np.exp(dw + log_drift(x, params) * dt)


def _accept(kind: str, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Entrywise acceptance; a row is accepted when all its entries are."""
    good = np.isfinite(new)
    good[..., :-1] &= new[..., :-1] - new[..., 1:] > _GAP_SAFETY * (old[..., :-1] - old[..., 1:])
    # log steps keep positivity by construction; eigen steps must clear the floor
    good[..., -1] &= new[..., -1] > (_POSITIVITY_FLOOR if kind == "eigen" else 0.0)
    return good


def _advance_batch(x, dt, dw, rng, params, kind, depth=_MAX_HALVINGS):
    """Advance all rows by dt on their Brownian increments dw.  Returns
    (new_x, failed_mask), the mask None when every row was accepted at the
    first proposal.

    A rejected row is re-integrated as two dt/2 halves: the first takes the
    bridge midpoint dw/2 + sqrt(dt/4) Z (one draw over the rejected rows),
    the second the rest of dw, so a halved row still moves by its own
    increment.  A row still rejected after ``depth`` halvings keeps its state
    and is flagged failed.
    """
    prop = _propose(kind, x, dt, dw, params)
    good = _accept(kind, prop, x)
    if good.all():
        return prop, None
    bad = np.nonzero(~good.all(axis=-1))[0]
    failed = np.zeros(x.shape[0], dtype=bool)
    if depth <= 0:
        prop[bad] = x[bad]
        failed[bad] = True
        return prop, failed
    rejected = dw[bad]
    first = rejected / 2.0 + rng.standard_normal(rejected.shape) * math.sqrt(dt / 4.0)
    second = rejected - first
    sub, f1 = _advance_batch(x[bad], dt / 2.0, first, rng, params, kind, depth - 1)
    f1 = np.zeros(bad.size, dtype=bool) if f1 is None else f1
    alive = np.nonzero(~f1)[0]
    if alive.size:
        sub[alive], f2 = _advance_batch(
            sub[alive], dt / 2.0, second[alive], rng, params, kind, depth - 1
        )
        if f2 is not None:
            f1[alive[f2]] = True
    prop[bad] = sub
    failed[bad] = f1
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
    integrator: str = "log",
):
    """Evolve an (n, N) ensemble to the horizon on a dt grid.

    Each grid step draws one Brownian increment per live replica, which a
    rejected replica splits by ``_advance_batch``'s bridge rule.  Replicas
    still rejected after 40 halvings are frozen and flagged; the returned
    mask marks them.  Frozen replicas draw no further noise.  Noise
    consumption is a deterministic function of the rng stream, so identical
    sources give identical ensembles.
    """
    if integrator not in ("eigen", "log"):
        raise DomainError(f"unknown integrator {integrator!r}")
    x = np.array(states, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    failed = np.zeros(x.shape[0], dtype=bool)
    for step in _time_steps(horizon, dt):
        if failed.any():
            live = np.nonzero(~failed)[0]
            dw = rng.standard_normal((live.size, x.shape[1])) * math.sqrt(step)
            x[live], fail_now = _advance_batch(x[live], step, dw, rng, params, integrator)
            if fail_now is not None:
                failed[live[fail_now]] = True
        else:
            dw = rng.standard_normal(x.shape) * math.sqrt(step)
            x, fail_now = _advance_batch(x, step, dw, rng, params, integrator)
            if fail_now is not None:
                failed = fail_now
    return x, failed


# ---------------------------------------------------------------------------
# one recorded path
# ---------------------------------------------------------------------------

def simulate(
    initial: OrderedConfig,
    params: SdeParams,
    horizon: float,
    dt: float,
    save_times: Sequence[float],
    rng,
    integrator: str = "log",
) -> Trajectory:
    """Integrate one path on a dt grid and record the state at the requested times.

    Each grid step is a one-row :func:`evolve_ensemble` call; a step whose
    halving bottoms out raises :class:`StepFailure` at the step's start time.
    """
    save = [float(t) for t in save_times]
    if any(t < 0 or t > horizon for t in save) or np.any(np.diff(save) <= 0):
        raise DomainError("save_times must be increasing within [0, horizon]")
    if integrator not in ("eigen", "log"):
        raise DomainError(f"unknown integrator {integrator!r}")
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
            x, failed = evolve_ensemble(x, params, step, step, rng, integrator)
            if failed[0]:
                raise StepFailure(f"step failed at t={t:.6g}", time=t)
            t += step
        times.append(target)
        states.append(OrderedConfig(x[0]))
    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        seed=getattr(rng, "master_seed", -1),
        stream=getattr(rng, "stream", -1),
        params=params,
    )


# ---------------------------------------------------------------------------
# matrix-valued dynamics
# ---------------------------------------------------------------------------

# Relative floor on the pivot product in the positive-definiteness certificate.
_PD_CERT_TAU = 1e-8


def _certified_pd(mats: np.ndarray) -> np.ndarray:
    """Rows of an (n, N, N) Hermitian stack certified positive definite.

    A batched LDL^H pass, vectorised over rows and reading only the lower
    triangle (as ``eigvalsh`` does), gives the pivots d_k.  A row is
    certified iff its trace is > 0, every pivot is > 0 and
    prod(d_k) > TAU tr^N, with TAU = ``_PD_CERT_TAU``.

    Why this is sound: positive pivots make the computed factors the exact
    LDL^H factorisation of a positive definite h + E, with backward error
    ||E|| <= c N^2 u tr (u the unit roundoff).  For h + E, prod(d_k) = det
    and lambda_max <= tr, so

        lambda_min >= det / lambda_max^(N-1) >= det / tr^(N-1) > TAU tr >= TAU ||h||_2.

    That bound is about 1e7 times the backward error of both the pivots and
    ``eigvalsh``, so ``eigvalsh`` never finds a negative eigenvalue in a
    certified row.  The product is taken as prod(d_k / tr), which cannot
    overflow; an underflow only withholds the certificate.
    """
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    ok = tr > 0.0
    ratio = np.ones_like(tr)
    s = mats
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(mats.shape[-1]):  # s: the Schur complement left by the pivots so far
            d = s[:, 0, 0].real
            ok &= d > 0.0
            ratio *= d / tr
            col = s[:, 1:, 0]
            s = s[:, 1:, 1:] - col[:, :, None] * (np.conjugate(col) / d[:, None])[:, None, :]
    return ok & (ratio > _PD_CERT_TAU)


def _project_psd_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip negative eigenvalues to zero where needed.

    Returns the projected stack and the per-row mask of repaired rows (its
    sum is the repair count).  Rows the LDL^H certificate (``_certified_pd``)
    proves positive definite are kept as they are; the rest are screened by
    ``eigvalsh``, and a row whose least eigenvalue is negative is rebuilt
    from its ``eigh`` decomposition with the eigenvalues clipped at zero.
    """
    repaired = np.zeros(mats.shape[0], dtype=bool)
    rest = np.nonzero(~_certified_pd(mats))[0]
    if rest.size:
        repaired[rest] = np.linalg.eigvalsh(mats[rest])[:, 0] < 0.0
    idx = np.nonzero(repaired)[0]
    if not idx.size:
        return mats, repaired
    wb, vb = np.linalg.eigh(mats[idx])
    wb = np.clip(wb, 0.0, None)
    out = mats.copy()
    out[idx] = np.einsum("nij,nj,nkj->nik", vb, wb, np.conjugate(vb))
    return out, repaired


def _matrix_euler(h: np.ndarray, params: SdeParams, dt: float, rng) -> np.ndarray:
    """Unprojected Euler proposal of the Hermitian matrix SDE for an (n, N, N) stack:

        h + (dG h + h dG^H)/2 + [-(eta+N)/2 h + (1+tr h)/2 I] dt,  dG = sqrt(2 dt) G.

    With A = dG h, h dG^H = A^H for Hermitian h, so one matmul serves.  A + A^H
    is formed before h is added, so an exactly Hermitian h gives an exactly
    Hermitian proposal.
    """
    n = h.shape[-1]
    a = rng.complex_normal(h.shape) @ h
    a *= math.sqrt(2.0 * dt) / 2.0
    tr = np.trace(h, axis1=-2, axis2=-1).real
    new = a + np.conjugate(np.swapaxes(a, -1, -2))
    new += h * (1.0 - (params.eta + n) / 2.0 * dt)
    diag = np.einsum("...ii->...i", new)  # a writable view of the diagonals
    diag += (0.5 * (1.0 + tr) * dt)[..., None]
    return new


def evolve_matrix_ensemble(h0: np.ndarray, params: SdeParams, horizon: float, dt: float, rng):
    """Evolve a stacked batch of Hermitian states to the horizon.

    Returns ``(h, repairs)``: ``repairs[i]`` counts the steps at which row i
    was projected back onto the PSD cone.
    """
    h = np.array(h0, dtype=complex)
    repairs = np.zeros(h.shape[0], dtype=int)
    for step in _time_steps(horizon, dt):
        h, repaired = _project_psd_batch(_matrix_euler(h, params, step, rng))
        repairs += repaired
    return h, repairs


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
