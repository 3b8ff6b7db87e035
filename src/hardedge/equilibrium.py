"""Equilibrium ensembles and hard-edge correlation kernels.

The N-particle dynamics equilibrate on the inverse points of a beta=2
Laguerre ensemble; at the hard edge (coordinates of size 1/N) the embedded
points form a determinantal process whose kernel is an inverse-coordinate
transform of the Bessel kernel.
"""

from __future__ import annotations

import math

import numpy as np

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
# J_nu(x) comes from Miller's backward recurrence below x = 25 + nu^2 and
# from Hankel's expansion above, where its first _HANKEL_TERMS terms fall
# below eps.
_HANKEL_SWITCH = 25.0
_HANKEL_TERMS = 30

# Twice the underflow threshold: the bisection's absolute width floor, as
# in LAPACK's most accurate dstebz setting, and the smallest eigenvalue a
# row may have.
_ABSTOL = 2.0 * np.finfo(float).tiny
# A target stops at this relative Newton step or bracket width, or at the
# absolute floor above; halving from any finite bracket reaches the floor
# within the bound on count sweeps plus Newton passes.
_RTOL = 1e-12
_MAX_SWEEPS = 2100
# Pivots whose signs are counted per ufunc call; keeps the pivot buffer
# (B, k, n) under 1 MB at k = 3, n = 1000.
_PIVOT_BLOCK = 25
# Rows go to _bisect_smallest in blocks of _TARGET_BLOCK // k, and to
# _embedded_tail_counts in blocks of _TARGET_BLOCK // shifts, so that the
# pivot buffers stay a few MB at k = N: a full draw at N = 200, n = 1000
# peaks at ~44 MB in place of ~150 MB, and no slower.
_TARGET_BLOCK = 8192


# ---------------------------------------------------------------------------
# Laguerre / inverse Laguerre sampling
# ---------------------------------------------------------------------------

def _sturm_count(a, b, x, ab=None, nan_as_one=False) -> np.ndarray | tuple:
    """Eigenvalues below x of each T = L L^T, batch-last; with ``ab``, also the slope.

    L is lower bidiagonal with squared diagonal a (N, n) and squared
    subdiagonal b (N-1, n); x (m, n) holds m shifts per matrix.  Counts the
    negative pivots q_i = a_i + s_i of L L^T - x, with s_1 = -x and
    s_{i+1} = (s_i/q_i) b_i - x: the stationary qd transform of LAPACK's
    dlaneg, exact for a relatively tiny change of a and b (Demmel & Kahan
    1990).  The signs of each block of pivots are counted at once.

    Given ab = a[:-1] * b, the same walk also returns (count, S) with
    S(x) = d/dx log|det(L L^T - x)| = sum s_i'/q_i, s_1' = -1 and
    s_{i+1}' = (a_i b_i / q_i) (s_i'/q_i) - 1, so the Newton step for
    det(L L^T - x) = 0 is x - 1/S.  That walk costs about twice a count.

    A zero pivot makes the next one -inf, which is counted once; one more
    pivot on, s/q is inf/inf.  A walk that ends on a NaN pivot is redone
    with that ratio at its limit 1 (Marques, Riedy & Voemel 2006).  A zero
    pivot that is not the last makes S NaN, after the redo as well, which
    the caller treats as a step that left its bracket; a zero last pivot
    (x an eigenvalue) makes S infinite and the step 0.
    """
    N = a.shape[0]
    B = min(_PIVOT_BLOCK, N)
    # q[j - 1] and r[j - 1] at j = 0 are the previous block's last pivot and s'/q
    q = np.empty((B,) + x.shape)
    negative = np.empty((B,) + x.shape, dtype=bool)
    s = -x
    count = np.zeros(x.shape, dtype=np.intp)
    if ab is not None:
        r = np.empty((B,) + x.shape)
        ds = np.full(x.shape, -1.0)
        S = np.zeros(x.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(N):
            j = i % B
            if i:
                np.divide(s, q[j - 1], out=s)
                if nan_as_one:
                    np.copyto(s, 1.0, where=np.isnan(s))
                np.multiply(s, b[i - 1], out=s)
                np.subtract(s, x, out=s)
            np.add(a[i], s, out=q[j])
            if ab is not None:
                if i:
                    np.multiply(r[j - 1], ab[i - 1], out=ds)
                    np.divide(ds, q[j - 1], out=ds)
                    np.subtract(ds, 1.0, out=ds)
                np.divide(ds, q[j], out=r[j])
            if j == B - 1 or i == N - 1:
                np.signbit(q[: j + 1], out=negative[: j + 1])
                count += np.add.reduce(negative[: j + 1].view(np.uint8), axis=0, dtype=np.uint8)
                if ab is not None:
                    S += np.add.reduce(r[: j + 1], axis=0)
    if not nan_as_one and np.isnan(q[j]).any():
        return _sturm_count(a, b, x, ab, True)
    return count if ab is None else (count, S)


def _midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The bracket's midpoint in sigma = sqrt(x), L's singular value."""
    return (0.5 * (np.sqrt(lo) + np.sqrt(hi))) ** 2


def _narrow(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Brackets at relative width 1e-12, or at the absolute floor."""
    return hi - lo <= np.maximum(_RTOL * hi, _ABSTOL)


def _isolation_pass(a, b, lo, hi, c_lo, c_hi) -> np.ndarray:
    """One bisection sweep over (k, n) brackets and the counts at their ends.

    Returns the rows in which each target j is alone in its bracket,
    count(lo) = j - 1 and count(hi) = j, or its bracket is narrow.
    """
    target = np.arange(1, lo.shape[0] + 1)[:, None]
    mid = _midpoint(lo, hi)
    count = _sturm_count(a, b, mid)
    below = count >= target
    np.copyto(hi, mid, where=below)
    np.copyto(c_hi, count, where=below)
    np.copyto(lo, mid, where=~below)
    np.copyto(c_lo, count, where=~below)
    return (((c_lo == target - 1) & (c_hi == target)) | _narrow(lo, hi)).all(axis=0)


def _newton_pass(a, b, ab, lo, hi, x, last, stopped) -> np.ndarray:
    """One safeguarded Newton pass over (k, n) iterates x in their brackets.

    One ``_sturm_count`` walk with ab = a[:-1] * b gives the count at x,
    which narrows the bracket, and the slope S, which gives the Newton step.
    A target stops when its Newton step |1/S| <= 1e-12 x (tested first: at
    an eigenvalue S is infinite and the step 0) or when its bracket is
    narrow; its x is then kept.
    Otherwise the step is taken if it lands in [lo, hi] and is at most half
    the last step taken (``last``, inf after a midpoint), and the bracket's
    midpoint is taken if not.  Returns the rows whose targets have all
    stopped.
    """
    target = np.arange(1, lo.shape[0] + 1)[:, None]
    count, S = _sturm_count(a, b, x, ab)
    below = count >= target
    np.copyto(hi, x, where=below)
    np.copyto(lo, x, where=~below)
    with np.errstate(divide="ignore"):
        step = -1.0 / S
    converged = np.abs(step) <= _RTOL * x
    trial = x + step
    take = (lo <= trial) & (trial <= hi) & (2.0 * np.abs(step) <= np.abs(last))
    live = ~stopped
    np.copyto(last, np.where(take, step, np.inf), where=live)
    np.copyto(x, np.where(converged | take, trial, _midpoint(lo, hi)), where=live)
    stopped |= converged | _narrow(lo, hi)
    return stopped.all(axis=0)


def _until_done(step, mats: list, state: list, passes: int) -> int:
    """Apply ``step(*mats, *state)`` to the rows still running until all are done.

    ``mats`` holds the batch-last (., n) inputs and ``state`` (k, n) arrays
    that each pass updates in place and that hold every row's final values
    on return.  Once half the rows still running are done, they leave the
    batch.  Returns ``passes`` plus the passes taken; past _MAX_SWEEPS in
    all raises ConvergenceFailure.
    """
    rows = np.arange(mats[0].shape[1])
    live = list(state)
    while passes < _MAX_SWEEPS:
        passes += 1
        done = step(*mats, *live)
        if 2 * np.count_nonzero(done) >= rows.size:
            for full, part in zip(state, live):
                full[:, rows[done]] = part[:, done]
            if done.all():
                return passes
            keep = ~done
            rows, mats = rows[keep], [m[:, keep] for m in mats]
            live = [p[:, keep] for p in live]
    raise ConvergenceFailure(f"tridiagonal bisection did not converge in {_MAX_SWEEPS} sweeps")


def _bisect_smallest(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """The k smallest eigenvalues of n matrices L L^T, L lower bidiagonal.

    a (N, n) and b (N-1, n) batch-last are the squares of L's diagonal and
    subdiagonal, k <= N.  All k x n targets start on [0, hi], hi the
    Gershgorin bound of the trailing k x k block of L L^T: by Cauchy
    interlacing it bounds the k-th eigenvalue.  Two phases follow, each on
    all rows at once:

    1. Isolation: Sturm-count bisection in sigma = sqrt(x) until each
       target is alone in its bracket (``_isolation_pass``).
    2. Newton: from each bracket's midpoint, safeguarded Newton passes on
       det(L L^T - x) that walk the same pivots (``_newton_pass``), until
       the step is within 1e-12 relative or the bracket is that narrow.

    Returns the (n, k) eigenvalues, rows increasing, and the count sweeps
    plus Newton passes taken.
    """
    N, n = a.shape
    ab = a[:-1] * b
    e = np.sqrt(ab[N - k :])
    # T's first diagonal entry has no b term: pad b with a zero row in front
    bound = a[N - k :] + np.concatenate((np.zeros((1, n)), b[max(N - k - 1, 0) :]))[-k:]
    bound[:-1] += e
    bound[1:] += e
    hi = np.repeat(bound.max(axis=0, keepdims=True), k, axis=0)
    lo = np.zeros((k, n))
    # counts at the bracket ends; hi's is N + 1 until hi has been counted
    counts = [np.zeros((k, n), np.intp), np.full((k, n), N + 1)]
    passes = _until_done(_isolation_pass, [a, b], [lo, hi, *counts], 0)
    x = _midpoint(lo, hi)
    state = [lo, hi, x, np.full((k, n), np.inf), np.zeros((k, n), bool)]
    passes = _until_done(_newton_pass, [a, b, ab], state, passes)
    return x.T, passes


def _laguerre_factor(N: int, eta: float, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The squares (a, b) of L's diagonal and subdiagonal for n Laguerre draws.

    Each draw is T = L L^T, L lower bidiagonal with chi-distributed entries
    (Dumitriu & Edelman 2002).  a is (N, n) and b (N-1, n), batch-last,
    from two gamma draws whose stream does not depend on the caller.
    Raises ConvergenceFailure unless every entry is finite.
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
    a, b = np.ascontiguousarray(diag_sq.T), np.ascontiguousarray(sub_sq.T)
    del diag_sq, sub_sq
    _check_finite(a, b)
    return a, b


def _underflow_failure(bad: int, n: int, N: int, eta: float) -> ConvergenceFailure:
    return ConvergenceFailure(
        f"smallest Laguerre eigenvalue <= 0 in {bad} of {n} rows "
        f"(eta={eta}, N={N}): below the eigensolver's accuracy"
    )


def _smallest_eigenvalues(N: int, eta: float, n: int, rng, k: int) -> np.ndarray:
    """The k smallest eigenvalues of n Laguerre draws, rows increasing.

    All k x n eigenvalues, k = N included, are found at once from the
    squares of L's entries (``_laguerre_factor``): Sturm-count bisection
    isolates each, then Newton steps converge from the same qd pivots
    (``_bisect_smallest``), to high relative accuracy at any eta > -1.  The
    gamma draws do not depend on k.  A row whose smallest eigenvalue comes
    out <= 2 * tiny, as a gamma draw of exactly 0 makes it, raises
    ConvergenceFailure.
    """
    a, b = _laguerre_factor(N, eta, n, rng)
    out = np.empty((n, k))
    rows = max(1, _TARGET_BLOCK // k)
    for r in range(0, n, rows):
        out[r : r + rows] = _bisect_smallest(a[:, r : r + rows], b[:, r : r + rows], k)[0]
    bad = int(np.count_nonzero(out[:, 0] <= _ABSTOL))
    if bad:
        raise _underflow_failure(bad, n, N, eta)
    return out / 2.0


def _embedded_tail_counts(N: int, eta: float, n: int, rng, top: int, edges) -> np.ndarray:
    """How many embedded top points lie at or above each edge, over n draws.

    The points are those of ``inverse_laguerre_samples(N, eta, n, rng, top)
    / N`` on the same stream: y = 2/(N lam) over the top smallest
    eigenvalues lam of each T = L L^T.  A row has min(top, #{lam < 2/(N e)})
    of them at or above an edge e > 0, and all top at or above e <= 0, so
    one ``_sturm_count`` walk with one shift per edge gives every count and
    no eigenvalue is solved.  The walk's first shift is 2 * tiny: a row
    with an eigenvalue below it raises the ConvergenceFailure of
    ``_smallest_eigenvalues``.  Rows go in blocks of _TARGET_BLOCK // shifts.
    Returns the counts, an integer array shaped like ``edges``.
    """
    if not 1 <= top <= N:
        raise DomainError(f"top must be in 1..N={N}, got {top}")
    a, b = _laguerre_factor(N, eta, n, rng)
    edges = np.asarray(edges, dtype=float)
    positive = edges > 0
    # a subnormal edge's shift overflows to inf, where every pivot counts
    with np.errstate(over="ignore"):
        shifts = np.concatenate(([_ABSTOL], 2.0 / (N * edges[positive])))
    below = np.zeros(shifts.size - 1, dtype=np.intp)
    bad = 0
    rows = max(1, _TARGET_BLOCK // shifts.size)
    for r in range(0, n, rows):
        x = np.repeat(shifts[:, None], min(rows, n - r), axis=1)
        count = _sturm_count(a[:, r : r + rows], b[:, r : r + rows], x)
        bad += int(np.count_nonzero(count[0]))
        below += np.minimum(count[1:], top).sum(axis=1)
    if bad:
        raise _underflow_failure(bad, n, N, eta)
    tail = np.full(edges.shape, n * top, dtype=np.intp)
    tail[positive] = below
    return tail


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConvergenceFailure("Laguerre tridiagonal has non-finite entries")


def laguerre_samples(N: int, eta: float, n: int, rng) -> np.ndarray:
    """n draws of the beta=2 Laguerre ensemble with weight y^eta e^-y.

    Tridiagonal bidiagonal-square construction: valid for all real
    eta > -1, every row's spectrum found at once from the squares of the
    bidiagonal factor's entries, to high relative accuracy.  Rows are
    sorted decreasing.
    """
    return _smallest_eigenvalues(N, eta, n, rng, N)[:, ::-1]


def inverse_laguerre_samples(
    N: int, eta: float, n: int, rng, top: int | None = None
) -> np.ndarray:
    """n draws of the inverse Laguerre ensemble (coordinate-wise 1/y, resorted).

    Rows are sorted decreasing.  ``top=k`` returns only the k largest inverse
    points, shape (n, k): the first k columns of the full draw
    (``top=None``, the same as ``top=N``) from the same stream, which
    advances alike for every ``top``.  The k smallest Laguerre eigenvalues
    of all rows are found at once by counting on the bidiagonal factor's
    own entries: Sturm-count bisection until each is isolated, then Newton
    steps on the same qd pivots.  That is accurate to ~1e-14 relative at
    any eta > -1; only a row whose smallest eigenvalue underflows, as a
    gamma draw of 0 near eta = -1 makes it, raises ConvergenceFailure.
    """
    if top is not None and not 1 <= top <= N:
        raise DomainError(f"top must be in 1..N={N}, got {top}")
    return 1.0 / _smallest_eigenvalues(N, eta, n, rng, N if top is None else top)


# ---------------------------------------------------------------------------
# Bessel and inverse Bessel kernels
# ---------------------------------------------------------------------------

def _bessel_miller(nu: float, x: np.ndarray) -> np.ndarray:
    """(J_nu(x), J_{nu+1}(x)) for x > 0, shape (2, x.size), by Miller's method.

    The backward recurrence f_{m-1} = 2(nu+m)/x f_m - f_{m+1} from
    f_{M+1} = 0 is carried as the ratios q_m = f_{m+1}/f_m, so that f's
    growth over the M steps cannot overflow.  M = x + 9 x^(1/3) + 8, rounded
    up to even, puts f_M/f_0 ~ J_{nu+M}/J_nu below rounding for every x this
    route takes.
    The Neumann series (x/2)^nu / Gamma(nu+1) = sum_k c_k J_{nu+2k}(x), with
    c_0 = 1, c_k = (nu+2k) h_k, h_1 = 1, h_{k+1} = h_k (nu+k)/(k+1),
    normalises f.
    """
    top = float(x.max())
    M = int(top + 9.0 * top ** (1.0 / 3.0) + 8.0)
    M += M % 2
    a = (2.0 * (nu + np.arange(1, M + 1)))[:, None] / x  # a[m - 1] = 2(nu+m)/x
    q = np.empty((M, x.size))
    q[M - 1] = 1.0 / a[M - 1]
    for m in range(M - 1, 0, -1):
        np.reciprocal(np.subtract(a[m - 1], q[m]), out=q[m - 1])
    f = np.cumprod(q, axis=0)  # f[m - 1] = f_m / f_0
    k = np.arange(1.0, M // 2)
    h = np.cumprod(np.concatenate(([1.0], (nu + k) / (k + 1.0))))
    c = (nu + 2.0 * np.arange(1, M // 2 + 1)) * h
    S = 1.0 + c @ f[1::2]
    # from nu ~ 150 at x in the thousands, c_k and the sum overflow: make
    # that J NaN, a failure, where dividing by S = inf would give 0
    S[~np.isfinite(S)] = np.nan
    J = np.exp(nu * np.log(0.5 * x) - math.lgamma(nu + 1.0)) / S
    return np.stack([J, J * f[0]])


def _bessel_hankel(nu: float, x: np.ndarray) -> np.ndarray:
    """(J_nu(x), J_{nu+1}(x)) for x >= 25 + nu^2, shape (2, x.size).

    Hankel's expansion sqrt(2/(pi x)) (P cos chi - Q sin chi), with
    chi = x - phi, phi = (mu/2 + 1/4) pi: P and Q sum the alternate terms
    t_k = prod_{j<=k} (4 mu^2 - (2j-1)^2)/(8 j x), which fall below eps
    within _HANKEL_TERMS at that x.  cos(x) and sin(x) are taken apart
    from phi, so x's rounding does not shift the phase.
    """
    mu = np.array([[nu], [nu + 1.0]])
    j = np.arange(1.0, _HANKEL_TERMS + 1.0)[:, None, None]
    t = np.cumprod((4.0 * mu**2 - (2.0 * j - 1.0) ** 2) / (8.0 * j) / x, axis=0)
    P = 1.0 - t[1::4].sum(axis=0) + t[3::4].sum(axis=0)
    Q = t[0::4].sum(axis=0) - t[2::4].sum(axis=0)
    phi = (0.5 * mu + 0.25) * np.pi
    c, s = np.cos(phi), np.sin(phi)
    return np.sqrt(2.0 / (np.pi * x)) * (
        np.cos(x) * (P * c + Q * s) + np.sin(x) * (P * s - Q * c)
    )


def _bessel_pair(nu: float, x: np.ndarray) -> np.ndarray:
    """(J_nu(x), J_{nu+1}(x)) at 1-D x >= 0, shape (2, x.size), for nu > -1.

    Miller's method below x = 25 + nu^2, Hankel's expansion above.  Against
    a 40-digit reference at nu in [-0.9, 6] the error was at most
    2.5e-15 max(1, |J|) up to x = 1e3, and 1.3e-15 of the envelope
    sqrt(2/(pi x)) up to 1e5.  Raises ConvergenceFailure unless every value
    is finite.
    """
    out = np.full((2, x.size), np.nan)
    out[:, x == 0] = [[1.0 if nu == 0 else 0.0 if nu > 0 else np.inf], [0.0]]
    low = (x > 0) & (x < _HANKEL_SWITCH + nu * nu)
    high = x >= _HANKEL_SWITCH + nu * nu
    # a tiny x overflows 2(nu+m)/x, a large nu the Neumann sum, and x = inf
    # makes cos(x) NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if low.any():
            out[:, low] = _bessel_miller(nu, x[low])
        if high.any():
            out[:, high] = _bessel_hankel(nu, x[high])
    if not np.isfinite(out).all():
        raise ConvergenceFailure(f"J_{nu} evaluation failed for some x")
    return out


def bessel_j(nu: float, x) -> float | np.ndarray:
    """Bessel function of the first kind J_nu(x) for x >= 0, nu > -1.

    Computed with numpy by Miller's backward recurrence or, for large x,
    Hankel's asymptotic expansion (``_bessel_pair``).  Raises
    ConvergenceFailure where the value is not finite (J at x = 0 for
    nu < 0, and at a NaN or infinite x) or its normalisation overflows
    (from nu ~ 150 at x in the thousands).
    """
    if not nu > -1:
        raise ParameterError(f"bessel_j needs nu > -1, got {nu}")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr < 0):
        raise DomainError("bessel_j needs x >= 0")
    val = _bessel_pair(float(nu), xarr.ravel())[0].reshape(xarr.shape)
    return float(val) if np.isscalar(x) else val


def bessel_kernel(eta: float, x, y) -> float | np.ndarray:
    """Hard-edge Bessel kernel in squared variables, at x, y > 0 that broadcast.

    Off the diagonal this is the divided difference
    [sqrt(x) J_{eta+1}(sqrt(x)) J_eta(sqrt(y)) - (x <-> y)] / (2(x-y));
    where |x - y| < 1e-6 max(x, y) the analytic diagonal limit is taken at
    the midpoint.  J_eta and J_{eta+1} come from one ``_bessel_pair`` call
    on the distinct square roots, so K(x, y) and K(y, x) are equal bit for
    bit.  Returns a float for scalar x and y.  Needs eta > -1.
    """
    if not eta > -1:
        raise ParameterError(f"need eta > -1, got {eta}")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.all(x > 0) and np.all(y > 0)):
        raise DomainError("bessel_kernel needs x, y > 0")
    diagonal = np.abs(x - y) < _DIAGONAL_SWITCH * np.maximum(x, y)
    mid = 0.5 * (x + y)
    x, y = np.where(diagonal, mid, x), np.where(diagonal, mid, y)
    sx, sy = np.sqrt(x), np.sqrt(y)
    roots, where = np.unique(np.stack([sx, sy]), return_inverse=True)
    (jx, jy), (jx1, jy1) = _bessel_pair(eta, roots)[:, where.reshape((2,) + x.shape)]
    # the divided difference is 0/0 on the diagonal, where it is not taken
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (sx * jx1 * jy - sy * jy1 * jx) / (2.0 * (x - y))
    val = np.where(diagonal, 0.25 * (jx**2 + jx1**2 - (2.0 * eta / sx) * jx * jx1), off)
    return float(val) if val.ndim == 0 else val


def inverse_bessel_kernel(eta: float, x, y) -> float | np.ndarray:
    """Correlation kernel of the inverse points process: (8/xy) J(8/x, 8/y).

    x, y > 0 broadcast as in ``bessel_kernel``; a float for scalar x and y.
    The first correlation function (the density of points) is the diagonal
    value.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(x > 0) and np.all(y > 0)):
        raise DomainError("inverse_bessel_kernel needs x, y > 0")
    val = 8.0 / (x * y) * bessel_kernel(eta, 8.0 / x, 8.0 / y)
    return float(val) if val.ndim == 0 else val
