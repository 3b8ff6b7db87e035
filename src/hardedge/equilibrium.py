"""Equilibrium ensembles and hard-edge correlation kernels.

The N-particle dynamics equilibrate on the inverse points of a beta=2
Laguerre ensemble; at the hard edge (coordinates of size 1/N) the embedded
points form a determinantal process whose kernel is an inverse-coordinate
transform of the Bessel kernel.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsterf
from scipy.special import jv

from .errors import ConvergenceFailure, DomainError, ParameterError

__all__ = [
    "laguerre_samples",
    "inverse_laguerre_samples",
    "bessel_j",
    "bessel_kernel",
    "inverse_bessel_kernel",
]

# Below this relative separation the divided difference in the kernel
# cancels catastrophically; switch to the analytic diagonal form.
_DIAGONAL_SWITCH = 1e-6

# Twice the underflow threshold: the bisection's absolute width floor, as
# in LAPACK's most accurate dstebz setting.
_ABSTOL = 2.0 * np.finfo(float).tiny
# A target stops at this relative Newton step or bracket width, or at the
# absolute floor above; halving from any finite bracket reaches the floor
# within the bound on count sweeps plus Newton passes.
_RTOL = 1e-12
_MAX_SWEEPS = 2100
# Pivots whose signs are counted per ufunc call; keeps the pivot buffer
# (B, k, n) under 1 MB at k = 3, n = 1000.
_PIVOT_BLOCK = 25


# ---------------------------------------------------------------------------
# Laguerre / inverse Laguerre sampling
# ---------------------------------------------------------------------------

def _sturm_count(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues below x of each tridiagonal, batch-last.

    d (N, n) is the diagonal and e2 (N-1, n) the squared off-diagonal of n
    matrices; x (m, n) holds m shifts per matrix.  Counts the negative
    pivots of the LDL^T factorization of T - x (Barth, Martin & Wilkinson
    1967), two ufuncs per pivot, with the signs of each block of pivots
    counted at once.  A zero pivot makes e2/0 = inf and the next pivot
    -inf, which IEEE arithmetic counts exactly once; its divide warning is
    silenced.
    """
    N = d.shape[0]
    B = min(_PIVOT_BLOCK, N)
    # buf[0] carries the previous block's last pivot
    buf = np.empty((B + 1,) + x.shape)
    negative = np.empty((B,) + x.shape, dtype=bool)
    tmp = np.empty(x.shape)
    count = np.zeros(x.shape, dtype=np.intp)
    with np.errstate(divide="ignore", over="ignore"):
        for i0 in range(0, N, B):
            m = min(B, N - i0)
            if i0:
                buf[0] = buf[B]
            np.subtract(d[i0 : i0 + m, None, :], x, out=buf[1 : m + 1])
            for j in range(0 if i0 else 1, m):
                np.divide(e2[i0 + j - 1], buf[j], out=tmp)
                np.subtract(buf[j + 1], tmp, out=buf[j + 1])
            np.signbit(buf[1 : m + 1], out=negative[:m])
            count += np.add.reduce(negative[:m].view(np.uint8), axis=0, dtype=np.uint8)
    return count


def _sturm_newton(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The count of ``_sturm_count`` and S(x) = d/dx log|det(T - x)|, batch-last.

    One walk over the same LDL^T pivots q_i of T - x: S = sum q_i'/q_i, with
    q_1' = -1 and q_i' = -1 + (e2_{i-1}/q_{i-1}) (q_{i-1}'/q_{i-1}), so the
    Newton step for det(T - x) = 0 is x - 1/S.  A zero pivot that is not the
    last makes S NaN, which the caller treats as a step that left its
    bracket; a zero last pivot (x an eigenvalue) makes S infinite and the
    step 0.
    """
    N = d.shape[0]
    B = min(_PIVOT_BLOCK, N)
    # q[0] and r[0] carry the previous block's last pivot and q'/q
    q = np.empty((B + 1,) + x.shape)
    r = np.empty((B + 1,) + x.shape)
    negative = np.empty((B,) + x.shape, dtype=bool)
    t = np.empty(x.shape)
    count = np.zeros(x.shape, dtype=np.intp)
    S = np.zeros(x.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i0 in range(0, N, B):
            m = min(B, N - i0)
            if i0:
                q[0], r[0] = q[B], r[B]
            np.subtract(d[i0 : i0 + m, None, :], x, out=q[1 : m + 1])
            if not i0:
                np.divide(-1.0, q[1], out=r[1])
            for j in range(0 if i0 else 1, m):
                np.divide(e2[i0 + j - 1], q[j], out=t)
                np.subtract(q[j + 1], t, out=q[j + 1])
                np.multiply(t, r[j], out=t)
                np.subtract(t, 1.0, out=t)
                np.divide(t, q[j + 1], out=r[j + 1])
            np.signbit(q[1 : m + 1], out=negative[:m])
            count += np.add.reduce(negative[:m].view(np.uint8), axis=0, dtype=np.uint8)
            S += np.add.reduce(r[1 : m + 1], axis=0)
    return count, S


def _not_positive_definite(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Rows whose LDL^T pivots at x = 0 are not all > 0, batch-last."""
    q = d[0]
    bad = q <= 0
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, d.shape[0]):
            q = d[i] - e2[i - 1] / q
            bad |= q <= 0
    return bad


def _narrow(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Brackets at relative width 1e-12, or at the absolute floor."""
    return hi - lo <= np.maximum(_RTOL * hi, _ABSTOL)


def _isolation_pass(d, e2, lo, hi, c_lo, c_hi) -> np.ndarray:
    """One bisection sweep over (k, n) brackets and the counts at their ends.

    Returns the rows in which each target j is alone in its bracket,
    count(lo) = j - 1 and count(hi) = j, or its bracket is narrow.
    """
    target = np.arange(1, lo.shape[0] + 1)[:, None]
    mid = 0.5 * (lo + hi)
    count = _sturm_count(d, e2, mid)
    below = count >= target
    np.copyto(hi, mid, where=below)
    np.copyto(c_hi, count, where=below)
    np.copyto(lo, mid, where=~below)
    np.copyto(c_lo, count, where=~below)
    return (((c_lo == target - 1) & (c_hi == target)) | _narrow(lo, hi)).all(axis=0)


def _newton_pass(d, e2, lo, hi, x, last, move, stopped) -> np.ndarray:
    """One safeguarded Newton pass over (k, n) iterates x in their brackets.

    The count at x narrows the bracket.  A target stops when its Newton
    step |1/S| <= 1e-12 x (tested first: at an eigenvalue S is infinite and
    the step 0) or when its bracket is narrow; its x is then kept.
    Otherwise a step at most half the last one taken (``last``, inf after a
    midpoint) is taken.  Close to the eigenvalue S is rounding noise and
    the steps stall: one in the same direction doubles the last move
    (``move``) rather than creep; one that turns back, as between the two
    bracket ends, gives way to the midpoint, as does any move out of
    [lo, hi].  Returns the rows whose targets have all stopped.
    """
    target = np.arange(1, lo.shape[0] + 1)[:, None]
    count, S = _sturm_newton(d, e2, x)
    below = count >= target
    np.copyto(hi, x, where=below)
    np.copyto(lo, x, where=~below)
    # S = +-inf at an eigenvalue gives step 0, and 0 * inf a NaN test
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -1.0 / S
        expand = step * last > 0
    converged = np.abs(step) <= _RTOL * x
    stall = 2.0 * np.abs(step) > np.abs(last)
    expand &= stall
    trial = x + np.where(expand, 2.0 * move, step)
    take = (lo <= trial) & (trial <= hi) & (expand | ~stall)
    nxt = np.where(converged, x + step, np.where(take, trial, 0.5 * (lo + hi)))
    live = ~stopped
    np.copyto(last, np.where(take, step, np.inf), where=live)
    np.copyto(move, nxt - x, where=live)
    np.copyto(x, nxt, where=live)
    stopped |= converged | _narrow(lo, hi)
    return stopped.all(axis=0)


def _until_done(step, d, e2, state: list, passes: int) -> int:
    """Apply ``step(d, e2, *state)`` to the rows still running until all are done.

    ``state`` holds (k, n) arrays that each pass updates in place and that
    hold every row's final values on return.  Once half the rows still
    running are done, they leave the batch.  Returns ``passes`` plus the
    passes taken; past _MAX_SWEEPS in all raises ConvergenceFailure.
    """
    rows = np.arange(d.shape[1])
    live = list(state)
    while passes < _MAX_SWEEPS:
        passes += 1
        done = step(d, e2, *live)
        if 2 * np.count_nonzero(done) >= rows.size:
            for full, part in zip(state, live):
                full[:, rows[done]] = part[:, done]
            if done.all():
                return passes
            keep = ~done
            rows, d, e2 = rows[keep], d[:, keep], e2[:, keep]
            live = [a[:, keep] for a in live]
    raise ConvergenceFailure(f"tridiagonal bisection did not converge in {_MAX_SWEEPS} sweeps")


def _bisect_smallest(d: np.ndarray, e2: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """The k smallest eigenvalues of n positive definite tridiagonals.

    d (N, n) and e2 (N-1, n) batch-last, k < N.  All k x n targets start on
    [0, hi], hi the Gershgorin bound of the trailing k x k block: by Cauchy
    interlacing it bounds the k-th eigenvalue of T.  Two phases follow,
    each on all rows at once:

    1. Isolation: Sturm-count bisection until each target is alone in its
       bracket (``_isolation_pass``).
    2. Newton: from each bracket's midpoint, safeguarded Newton passes on
       det(T - x) that walk the same LDL^T pivots (``_newton_pass``), until
       the step is within 1e-12 relative or the bracket is that narrow.

    Returns the (n, k) eigenvalues, rows increasing, and the count sweeps
    plus Newton passes taken.
    """
    N, n = d.shape
    e = np.sqrt(e2[N - k :])
    bound = d[N - k :].copy()
    bound[:-1] += e
    bound[1:] += e
    hi = np.repeat(bound.max(axis=0, keepdims=True), k, axis=0)
    lo = np.zeros((k, n))
    # counts at the bracket ends; hi's is N + 1 until hi has been counted
    counts = [np.zeros((k, n), np.intp), np.full((k, n), N + 1)]
    passes = _until_done(_isolation_pass, d, e2, [lo, hi, *counts], 0)
    x = 0.5 * (lo + hi)
    state = [lo, hi, x, np.full((k, n), np.inf), np.zeros((k, n)), np.zeros((k, n), bool)]
    passes = _until_done(_newton_pass, d, e2, state, passes)
    return x.T, passes


def _smallest_eigenvalues(N: int, eta: float, n: int, rng, k: int) -> np.ndarray:
    """The k smallest eigenvalues of n Laguerre draws, rows increasing.

    k = N solves each row by one ``dsterf`` call: the QL/QR root-free
    solver that ``eigh_tridiagonal`` reaches through ``dstevd``, without its
    per-call checks.  k < N finds all k x n eigenvalues at once: Sturm-count
    bisection isolates each, then Newton steps converge from the same LDL^T
    pivots (``_bisect_smallest``).  The gamma draws do not depend on k.
    A row that is numerically not positive definite, which happens near
    eta = -1, raises ConvergenceFailure: on the dsterf path a smallest
    eigenvalue <= 0, on the top-k path a pivot <= 0 at x = 0.
    """
    if not eta > -1:
        raise ParameterError(f"need eta > -1, got {eta}")
    if N < 1:
        raise DomainError("need N >= 1")
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")
    # chi_k draws enter through their squares: chi^2_k = Gamma(k/2, scale 2)
    diag_sq = rng.gamma(eta + N - np.arange(N), scale=2.0, size=(n, N))
    sub_sq = np.empty((n, 0))
    if N > 1:
        sub_sq = rng.gamma(np.arange(N - 1, 0, -1, dtype=float), scale=2.0, size=(n, N - 1))
    if k == N:
        main = diag_sq.copy()
        main[:, 1:] += sub_sq
        off = np.sqrt(diag_sq[:, :-1] * sub_sq)
        _check_finite(main, off)
        out = main
        if N > 1:
            out = np.empty((n, N))
            for r in range(n):
                lam, info = dsterf(main[r], off[r])
                if info != 0:
                    raise ConvergenceFailure(f"tridiagonal eigensolve failed (info={info})")
                out[r] = lam
        bad = int(np.count_nonzero(out[:, 0] <= 0))
    else:
        d = np.ascontiguousarray(diag_sq.T)
        d[1:] += sub_sq.T
        e2 = np.multiply(diag_sq.T[:-1], sub_sq.T, out=np.empty((N - 1, n)))
        _check_finite(d, e2)
        bad = int(np.count_nonzero(_not_positive_definite(d, e2)))
        if not bad:
            out = _bisect_smallest(d, e2, k)[0]
    # Near eta = -1 the smallest eigenvalue can fall below the solvers'
    # absolute error, ~eps * |T|.
    if bad:
        raise ConvergenceFailure(
            f"smallest Laguerre eigenvalue <= 0 in {bad} of {n} rows "
            f"(eta={eta}, N={N}): below the eigensolver's absolute accuracy"
        )
    return out / 2.0


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConvergenceFailure("Laguerre tridiagonal has non-finite entries")


def laguerre_samples(N: int, eta: float, n: int, rng) -> np.ndarray:
    """n draws of the beta=2 Laguerre ensemble with weight y^eta e^-y.

    Tridiagonal bidiagonal-square construction: valid for all real
    eta > -1, each row's spectrum solved by one LAPACK ``dsterf`` call.
    Rows are sorted decreasing.
    """
    return _smallest_eigenvalues(N, eta, n, rng, N)[:, ::-1]


def inverse_laguerre_samples(
    N: int, eta: float, n: int, rng, top: int | None = None
) -> np.ndarray:
    """n draws of the inverse Laguerre ensemble (coordinate-wise 1/y, resorted).

    Rows are sorted decreasing.  ``top=k`` returns only the k largest inverse
    points, shape (n, k): the first k columns of the full draw from the same
    stream, from the k smallest Laguerre eigenvalues of all rows found at
    once: Sturm-count bisection until each is isolated, then Newton steps on
    the same LDL^T pivots.  Both solvers are exact to ~eps |T| in absolute
    terms, so the two agree to ~1e-9 relative for eta >= 0, and to ~4e-8 at
    eta = -0.5, N = 200, where the smallest eigenvalue is ~1e-6.
    ``top=None`` or ``N`` is the full draw, solved by ``dsterf``.  Either
    way the random stream advances alike.
    """
    if top is not None and not 1 <= top <= N:
        raise DomainError(f"top must be in 1..N={N}, got {top}")
    return 1.0 / _smallest_eigenvalues(N, eta, n, rng, N if top is None else top)


# ---------------------------------------------------------------------------
# Bessel and inverse Bessel kernels
# ---------------------------------------------------------------------------

def bessel_j(nu: float, x) -> float | np.ndarray:
    """Bessel function of the first kind J_nu(x) for x >= 0, nu > -1.

    Backed by the library implementation; raises if it fails to produce a
    finite value in the supported range.
    """
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr < 0):
        raise DomainError("bessel_j needs x >= 0")
    val = jv(nu, xarr)
    if not np.all(np.isfinite(val)):
        raise ConvergenceFailure(f"J_{nu} evaluation failed for some x")
    return float(val) if np.isscalar(x) else val


def _bessel_kernel_diagonal(eta: float, x: float) -> float:
    z = np.sqrt(x)
    j0 = bessel_j(eta, z)
    j1 = bessel_j(eta + 1.0, z)
    return 0.25 * (j0**2 + j1**2 - (2.0 * eta / z) * j0 * j1)


def bessel_kernel(eta: float, x: float, y: float) -> float:
    """Hard-edge Bessel kernel in squared variables.

    Off the diagonal this is the divided difference
    [sqrt(x) J_{eta+1}(sqrt(x)) J_eta(sqrt(y)) - (x <-> y)] / (2(x-y));
    within relative separation 1e-6 the analytic diagonal limit is used.
    Needs eta > -1.
    """
    if not eta > -1:
        raise ParameterError(f"need eta > -1, got {eta}")
    if x <= 0 or y <= 0:
        raise DomainError("bessel_kernel needs x, y > 0")
    if abs(x - y) < _DIAGONAL_SWITCH * max(x, y):
        return _bessel_kernel_diagonal(eta, 0.5 * (x + y))
    sx, sy = np.sqrt(x), np.sqrt(y)
    num = sx * bessel_j(eta + 1.0, sx) * bessel_j(eta, sy) - sy * bessel_j(
        eta + 1.0, sy
    ) * bessel_j(eta, sx)
    return float(num / (2.0 * (x - y)))


def inverse_bessel_kernel(eta: float, x: float, y: float) -> float:
    """Correlation kernel of the inverse points process: (8/xy) J(8/x, 8/y).

    The first correlation function (the density of points) is the diagonal
    value.
    """
    if x <= 0 or y <= 0:
        raise DomainError("inverse_bessel_kernel needs x, y > 0")
    return float(8.0 / (x * y) * bessel_kernel(eta, 8.0 / x, 8.0 / y))
