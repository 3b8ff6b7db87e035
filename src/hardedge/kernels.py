"""Interlacing corner kernels, the fundamental spline and boundary sampling.

The N-to-K chain kernel is the law of the spectrum of the top-left K x K
block of U diag(x) U* with U Haar.  That block needs only the first K
columns of U, so every corner and chain law is sampled exactly by
compressing diag(x) with one Haar N x K frame.  The kernel's density is a
determinant of shifted fundamental splines with a binomial prefactor; the
one-level, one-point case collapses to the spline itself.  One positive
Cox-de Boor recurrence gives both the spline's density and its tail mass.
Boundary states use the same compression, with an unnormalised Gaussian
frame plus the scalar term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import OmegaPlusPoint, OrderedConfig
from .errors import DegenerateKnots, DomainError, EigensolveFailure, NumericalInstability, OrderTooHigh

__all__ = [
    "KnotVector",
    "spline_m",
    "spline_m_derivative",
    "spline_m_tail_mass",
    "corner_samples",
    "chain_samples",
    "corner_of_each",
    "lambda_kn_density",
    "lambda_k2_cell_masses",
    "boundary_corner_samples",
]

# Determinant entries beyond this condition estimate are meaningless in
# double precision.
DENSITY_COND_LIMIT = 1e12
# Stability envelope of the determinant density formula.
DENSITY_MAX_N = 30
DENSITY_MAX_K = 6
# Boundary sampling drops the smallest atoms whose total mass is below this.
_TAIL_CUT = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Finite decreasing knot list of length >= 2; ties up to multiplicity N-2."""

    knots: np.ndarray

    def __init__(self, knots):
        arr = np.array(knots, dtype=float)
        arr.setflags(write=False)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("need at least two knots")
        if not np.all(np.isfinite(arr)):
            raise DomainError("knots must be finite")
        if np.any(np.diff(arr) > 0):
            raise DomainError("knots must be decreasing")
        object.__setattr__(self, "knots", arr)

    @property
    def n(self) -> int:
        return self.knots.size


def _as_knots(knots) -> np.ndarray:
    if isinstance(knots, KnotVector):
        return knots.knots
    return KnotVector(knots).knots


def _check_multiplicity(sorted_knots: np.ndarray):
    n = sorted_knots.size
    _, counts = np.unique(sorted_knots, return_counts=True)
    if counts.max() > max(n - 2, 1):
        raise DegenerateKnots(
            f"knot multiplicity {counts.max()} exceeds N-2={n - 2}"
        )


def _spline_args(y, knots) -> tuple[np.ndarray, np.ndarray, bool]:
    """The common front of the spline evaluators: the knots sorted ascending
    (rejected when they all coincide or a multiplicity exceeds N-2), y as a
    1-d float array (rejected if any entry is NaN), and whether y was a
    scalar."""
    x = _as_knots(knots)
    if x[0] == x[-1]:
        raise DegenerateKnots("all knots coincide")
    nodes = np.sort(x)
    _check_multiplicity(nodes)
    scalar = np.isscalar(y) or np.ndim(y) == 0
    yarr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.isnan(yarr).any():
        raise DomainError("spline evaluation points must not be NaN")
    return nodes, yarr, scalar


def _cox_de_boor(nodes_asc: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """First normalised B-spline of each degree d = 0..N-2, the one on the
    nodes t_0..t_{d+1}, by the positive recurrence (0/0 := 0).

    Every entry is a convex combination of lower ones, so nothing cancels
    where the Newton tableau of truncated powers does for clustered knots.
    """
    t = nodes_asc
    p = t.size - 2
    vals = [((y >= t[i]) & (y < t[i + 1])).astype(float) for i in range(p + 1)]
    firsts = [vals[0]]
    for k in range(1, p + 1):
        nxt = []
        for i in range(p + 1 - k):
            acc = np.zeros_like(y)
            dl = t[i + k] - t[i]
            if dl > 0:
                acc += (y - t[i]) / dl * vals[i]
            dr = t[i + k + 1] - t[i + 1]
            if dr > 0:
                acc += (t[i + k + 1] - y) / dr * vals[i + 1]
            nxt.append(acc)
        vals = nxt
        firsts.append(vals[0])
    return firsts


def spline_m(y, knots) -> float | np.ndarray:
    """Fundamental spline density with the given decreasing knots.

    The normalised divided difference of the truncated power
    t -> (t-y)_+^(N-2) over the knot multiset, which is the degree-(N-2)
    B-spline on all knots scaled by (N-1)/(max knot - min knot).
    Nonnegative, supported on [min knot, max knot], integrates to one.
    """
    nodes, yarr, scalar = _spline_args(y, knots)
    n = nodes.size
    out = np.zeros_like(yarr)
    inside = (yarr >= nodes[0]) & (yarr <= nodes[-1])
    if np.any(inside):
        basis = _cox_de_boor(nodes, yarr[inside])[-1]
        out[inside] = basis * (n - 1) / (nodes[-1] - nodes[0])
    return float(out[0]) if scalar else out


def spline_m_tail_mass(y, knots) -> float | np.ndarray:
    """Exact upper-tail mass of the spline: integral of M over [y, infinity).

    With ascending knots t_0..t_{N-1} and B_d the first degree-d B-spline
    of the same recurrence as the density (Leibniz rule for divided
    differences),
    tail(y) = 1[y < t_0] + sum_d (t_{d+1} - y) B_d(y) / (t_{d+1} - t_0),
    skipping d with t_{d+1} = t_0.  Every term is nonnegative, since B_d
    vanishes for y >= t_{d+1}.  The complementary CDF used by the
    goodness-of-fit checks.
    """
    nodes, yarr, scalar = _spline_args(y, knots)
    out = (yarr < nodes[0]).astype(float)
    # every B_d vanishes off [t_0, t_{N-1}), where the tail is 1 or 0; only
    # the support is summed, so y = +-inf never meets inf * 0
    inside = (yarr >= nodes[0]) & (yarr < nodes[-1])
    ys = yarr[inside]
    tail = np.zeros_like(ys)
    for d, basis in enumerate(_cox_de_boor(nodes, ys)):
        span = nodes[d + 1] - nodes[0]
        if span > 0:
            tail += (nodes[d + 1] - ys) / span * basis
    out[inside] = tail
    # rounding can lift the sum a few ulps above 1
    np.minimum(out, 1.0, out=out)
    return float(out[0]) if scalar else out


def spline_m_derivative(y, knots, order: int):
    """order-th y-derivative of the spline via the knot-dropping recursion.

    Each application trades one knot for a difference of two lower
    splines; valid for order <= N-2.
    """
    x = _as_knots(knots)
    n = x.size
    if order < 0:
        raise OrderTooHigh("derivative order must be nonnegative")
    if order > n - 2:
        raise OrderTooHigh(f"order {order} exceeds N-2={n - 2}")
    if order == 0:
        return spline_m(y, x)
    if x[0] == x[-1]:
        raise DegenerateKnots("all knots coincide")
    lead = (n - 1) / (x[0] - x[-1])
    lower = spline_m_derivative(y, x[1:], order - 1)
    upper = spline_m_derivative(y, x[:-1], order - 1)
    return lead * (lower - upper)


# ---------------------------------------------------------------------------
# exact corner sampling
# ---------------------------------------------------------------------------

def _haar_frame(rng, shape) -> np.ndarray:
    """Haar isometries of shape (..., N, K): the phase-fixed thin QR of a
    complex Ginibre draw of that shape."""
    q, r = np.linalg.qr(rng.complex_normal(shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _compressed_spectrum(x, frame: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Decreasing eigenvalues of F^H diag(x) F + shift I, clipped at zero.

    ``x`` is one spectrum (N,) or one per row (n, N); ``frame`` is (n, N, K).
    """
    mats = np.conjugate(np.swapaxes(frame, -1, -2)) @ (x[..., :, None] * frame)
    mats += shift * np.eye(frame.shape[-1])
    try:
        w = np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolveFailure(str(exc)) from exc
    return np.clip(w[..., ::-1], 0.0, None)


def chain_samples(config: OrderedConfig, K: int, n: int, rng) -> np.ndarray:
    """n independent draws of the N-to-K chain kernel, shape (n, K).

    The K-level chain is the spectrum of the top-left K x K block of
    U diag(x) U* with U Haar, which sees only the first K columns of U.
    """
    if not 1 <= K < config.n:
        raise DomainError(f"need 1 <= K < N, got K={K}, N={config.n}")
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")
    return _compressed_spectrum(config.values, _haar_frame(rng, (n, config.n, K)))


def corner_samples(config: OrderedConfig, n: int, rng) -> np.ndarray:
    """n independent one-level corner samples, shape (n, N-1)."""
    if config.n < 2:
        raise DomainError("corner sampling needs N >= 2")
    return chain_samples(config, config.n - 1, n, rng)


def corner_of_each(values: np.ndarray, rng) -> np.ndarray:
    """One corner draw for each row of spectra: (n, N) -> (n, N-1)."""
    vals = np.asarray(values, dtype=float)
    n, m = vals.shape
    return _compressed_spectrum(vals, _haar_frame(rng, (n, m, m - 1)))


# ---------------------------------------------------------------------------
# determinantal density
# ---------------------------------------------------------------------------

def _vandermonde(y: np.ndarray) -> float:
    diff = y[:, None] - y[None, :]
    return float(np.prod(diff[np.triu_indices(y.size, 1)]))


def lambda_kn_density(y, x, K: int) -> float:
    """Density of the N-to-K chain kernel at the ordered point y.

    Uses the binomial-prefactor determinant of shifted splines divided by
    the wide-gap coordinate differences, times the Vandermonde of y.  Only
    stable for N <= 30, K <= 6; larger requests raise
    :class:`NumericalInstability` (``chain_samples`` draws from the kernel
    at any size).
    """
    xv = x.values if isinstance(x, OrderedConfig) else np.asarray(x, dtype=float)
    yv = y.values if isinstance(y, OrderedConfig) else np.asarray(y, dtype=float)
    n = xv.size
    if not 1 <= K <= n - 1 or yv.size != K:
        raise DomainError(f"need 1 <= K <= N-1 and len(y)=K; got K={K}, N={n}")
    if np.any(np.diff(xv) >= 0):
        raise DomainError("density evaluation needs strictly decreasing x")
    if n > DENSITY_MAX_N or K > DENSITY_MAX_K:
        raise NumericalInstability(
            f"N={n}, K={K} outside the stability envelope "
            f"(N<={DENSITY_MAX_N}, K<={DENSITY_MAX_K})"
        )

    if K == 1:
        return float(spline_m(yv[0], xv))

    entries = np.empty((K, K))
    for i in range(1, K + 1):
        knots = xv[K - i : n - i + 1]
        for j in range(1, K + 1):
            entries[i - 1, j - 1] = spline_m(yv[K - j], knots)
    # a zero row or column means y is outside the kernel's support
    if np.any(~entries.any(axis=0)) or np.any(~entries.any(axis=1)):
        return 0.0
    cond = np.linalg.cond(entries)
    if not np.isfinite(cond) or cond > DENSITY_COND_LIMIT:
        raise NumericalInstability(f"spline determinant condition {cond:.2e} exceeds 1e12")

    prefactor = 1.0
    for l in range(1, K):
        prefactor *= comb(n - K + l, l)
    denom = 1.0
    for i in range(1, n + 1):
        for j in range(i + n - K + 1, n + 1):
            denom *= xv[i - 1] - xv[j - 1]
    det = float(np.linalg.det(entries))
    return prefactor * det / denom * _vandermonde(yv)


def lambda_k2_cell_masses(x, breaks, order: int = 8):
    """Integrals of the N-to-2 chain density over a break-grid partition.

    Returns a (B, B) matrix with entry [b, a] the mass of
    {y1 in cell b, y2 in cell a, y1 >= y2}; entries below the diagonal are
    zero and diagonal cells integrate the triangle through a Duffy map.
    Exact (up to roundoff) once ``breaks`` refines the knots of x, because
    the density is a polynomial inside every cell.
    """
    xv = x.values if isinstance(x, OrderedConfig) else np.asarray(x, dtype=float)
    cfg = OrderedConfig(xv)
    breaks = np.asarray(sorted(set(float(b) for b in breaks)))
    if breaks.size < 2:
        raise DomainError("need at least two break points")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes01 = (nodes + 1.0) / 2.0
    weights01 = weights / 2.0
    ncell = breaks.size - 1
    masses = np.zeros((ncell, ncell))

    def dens(y1, y2):
        return lambda_kn_density(np.array([y1, y2]), cfg, 2)

    for b in range(ncell):
        lo1, hi1 = breaks[b], breaks[b + 1]
        h1 = hi1 - lo1
        y1n = lo1 + nodes01 * h1
        for a in range(b + 1):
            lo2, hi2 = breaks[a], breaks[a + 1]
            h2 = hi2 - lo2
            if a < b:
                y2n = lo2 + nodes01 * h2
                vals = np.array([[dens(y1, y2) for y2 in y2n] for y1 in y1n])
                masses[b, a] = h1 * h2 * weights01 @ vals @ weights01
            else:
                # triangle y1 >= y2 inside the square cell
                acc = 0.0
                for s, ws in zip(nodes01, weights01):
                    y1 = lo1 + s * h1
                    for t, wt in zip(nodes01, weights01):
                        y2 = lo1 + s * t * h1
                        acc += ws * wt * s * dens(y1, y2)
                masses[b, a] = acc * h1 * h1
    return masses, breaks


# ---------------------------------------------------------------------------
# boundary kernel sampling
# ---------------------------------------------------------------------------

def boundary_corner_samples(omega: OmegaPlusPoint, K: int, n: int, rng) -> np.ndarray:
    """n draws of the K-level boundary corner law, shape (n, K).

    Builds the K x K compression of the scalar-plus-rank-one Gaussian
    matrix over the point's support.  The smallest atoms, as long as their
    total mass stays below ``_TAIL_CUT``, are dropped and their mass
    absorbed into the scalar term; this acts on finite supports too, so a
    geometric family keeps a bounded frame however large it grows.
    """
    if K < 1:
        raise DomainError("need K >= 1")
    xs = omega.xs[omega.xs > 0]
    xs = xs[np.cumsum(xs[::-1])[::-1] >= _TAIL_CUT]
    scalar = omega.gamma - float(xs.sum())
    return _compressed_spectrum(xs, rng.complex_normal((n, xs.size, K)), scalar)
