"""Equilibrium ensembles and hard-edge correlation kernels.

The N-particle dynamics equilibrate on the inverse points of a beta=2
Laguerre ensemble; at the hard edge (coordinates of size 1/N) the embedded
points form a determinantal process whose kernel is an inverse-coordinate
transform of the Bessel kernel.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dstebz, dsterf
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

# Twice the underflow threshold: dstebz's setting for the most accurate
# eigenvalues.
_ABSTOL = 2.0 * np.finfo(float).tiny


# ---------------------------------------------------------------------------
# Laguerre / inverse Laguerre sampling
# ---------------------------------------------------------------------------

def _smallest_eigenvalues(N: int, eta: float, n: int, rng, k: int) -> np.ndarray:
    """The k smallest eigenvalues of n Laguerre draws, rows increasing.

    k = N solves each row by one ``dsterf`` call: the QL/QR root-free
    solver that ``eigh_tridiagonal`` reaches through ``dstevd``, without its
    per-call checks.  k < N finds the k values by ``dstebz`` bisection at
    LAPACK's most accurate tolerance.  The gamma draws do not depend on k.
    A smallest eigenvalue that comes out <= 0, which happens near eta = -1,
    raises ConvergenceFailure.
    """
    if not eta > -1:
        raise ParameterError(f"need eta > -1, got {eta}")
    if N < 1:
        raise DomainError("need N >= 1")
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")
    # chi_k draws enter through their squares: chi^2_k = Gamma(k/2, scale 2)
    diag_sq = rng.gamma(eta + N - np.arange(N), scale=2.0, size=(n, N))
    main = diag_sq.copy()
    off = np.empty((n, 0))
    if N > 1:
        sub_sq = rng.gamma(np.arange(N - 1, 0, -1, dtype=float), scale=2.0, size=(n, N - 1))
        main[:, 1:] += sub_sq
        off = np.sqrt(diag_sq[:, :-1] * sub_sq)
    if not (np.isfinite(main).all() and np.isfinite(off).all()):
        raise ConvergenceFailure("Laguerre tridiagonal has non-finite entries")
    if N == 1:
        out = main
    else:
        out = np.empty((n, k))
        for r in range(n):
            if k == N:
                lam, info = dsterf(main[r], off[r])
                m = N
            else:
                m, lam, _, _, info = dstebz(main[r], off[r], 2, 0.0, 0.0, 1, k, _ABSTOL, "E")
            if info != 0 or m < k:
                raise ConvergenceFailure(
                    f"tridiagonal eigensolve failed (info={info}, {m} of {k} eigenvalues)"
                )
            out[r] = lam[:k]
    # Both solvers err by ~eps * |T| in absolute terms, which near eta = -1
    # can exceed the (positive) smallest eigenvalue itself.
    bad = int(np.count_nonzero(out[:, 0] <= 0))
    if bad:
        raise ConvergenceFailure(
            f"smallest Laguerre eigenvalue <= 0 in {bad} of {n} rows "
            f"(eta={eta}, N={N}): below the eigensolver's absolute accuracy"
        )
    return out / 2.0


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
    stream to ~1e-9 relative (the error either solver makes on the smallest
    eigenvalues), from the k smallest Laguerre eigenvalues found by
    ``dstebz`` bisection.  ``top=None`` or ``N`` is the full draw,
    solved by ``dsterf``.  Either way the random stream advances alike.
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
    if z == 0.0:
        # finite only for eta >= 0; the eta-in-(-1,0) kernel diverges at 0
        return 0.25 * (j0**2 + j1**2) if eta >= 0 else np.inf
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
