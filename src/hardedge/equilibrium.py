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
# Bisection stops at this relative width, or at the absolute floor above;
# halving from any finite bracket reaches the floor within the sweep bound.
_BISECT_RTOL = 1e-12
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


def _not_positive_definite(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Rows whose LDL^T pivots at x = 0 are not all > 0, batch-last."""
    q = d[0]
    bad = q <= 0
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, d.shape[0]):
            q = d[i] - e2[i - 1] / q
            bad |= q <= 0
    return bad


def _bisect_smallest(d: np.ndarray, e2: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """The k smallest eigenvalues of n positive definite tridiagonals.

    d (N, n) and e2 (N-1, n) batch-last, k < N.  All k x n targets are
    bisected at once on [0, hi], hi the Gershgorin bound of the trailing
    k x k block: by Cauchy interlacing it bounds the k-th eigenvalue of T.
    A target stops at relative width 1e-12 (or the absolute floor); once
    half the matrices still bisecting are done, they leave the batch.
    Returns the (n, k) midpoints, rows increasing, and the sweeps taken.
    """
    N, n = d.shape
    e = np.sqrt(e2[N - k :])
    bound = d[N - k :].copy()
    bound[:-1] += e
    bound[1:] += e
    hi = np.repeat(bound.max(axis=0, keepdims=True), k, axis=0)
    lo = np.zeros((k, n))
    target = np.arange(1, k + 1)[:, None]
    live = np.arange(n)
    out = np.empty((k, n))
    for sweep in range(1, _MAX_SWEEPS + 1):
        mid = 0.5 * (lo + hi)
        below = _sturm_count(d, e2, mid) >= target
        np.copyto(hi, mid, where=below)
        np.copyto(lo, mid, where=~below)
        done = (hi - lo <= np.maximum(_BISECT_RTOL * hi, _ABSTOL)).all(axis=0)
        if 2 * np.count_nonzero(done) >= live.size:
            out[:, live[done]] = 0.5 * (lo[:, done] + hi[:, done])
            if done.all():
                return out.T, sweep
            keep = ~done
            live, d, e2, lo, hi = live[keep], d[:, keep], e2[:, keep], lo[:, keep], hi[:, keep]
    raise ConvergenceFailure(f"tridiagonal bisection did not converge in {_MAX_SWEEPS} sweeps")


def _smallest_eigenvalues(N: int, eta: float, n: int, rng, k: int) -> np.ndarray:
    """The k smallest eigenvalues of n Laguerre draws, rows increasing.

    k = N solves each row by one ``dsterf`` call: the QL/QR root-free
    solver that ``eigh_tridiagonal`` reaches through ``dstevd``, without its
    per-call checks.  k < N bisects all k x n eigenvalues at once with the
    Sturm count (``_bisect_smallest``).  The gamma draws do not depend on k.
    A row that is numerically not positive definite, which happens near
    eta = -1, raises ConvergenceFailure: on the dsterf path a smallest
    eigenvalue <= 0, on the bisection path a pivot <= 0 at x = 0.
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
    once by Sturm-count bisection.  Both solvers are exact to ~eps |T| in
    absolute terms, so the two agree to ~1e-9 relative for eta >= 0, and to
    ~4e-8 at eta = -0.5, N = 200, where the smallest eigenvalue is ~1e-6.  ``top=None`` or ``N`` is the full
    draw, solved by ``dsterf``.  Either way the random stream advances alike.
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
