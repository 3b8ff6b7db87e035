"""Two-sample statistics for the experiment battery.

Energy distance with a label-permutation null is the workhorse: the pooled
pairwise-distance matrix is computed once and every permutation statistic
is recovered from one quadratic form, so the permutations batch into a
single matrix product.  Pools larger than ``max_points`` per side are
subsampled (the p-value stays exact for the subsample).

The per-coordinate KS p-value for two equal-size samples is computed here,
step for step as ``scipy.stats.ks_2samp`` computes it exactly, so importing
this module does not import ``scipy.stats``; the other cases call scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EmptySample

_EPS = np.finfo(float).eps

__all__ = [
    "energy_permutation_test",
    "ks_per_coordinate",
]


def _as_2d(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptySample("sample sets must be nonempty arrays of vectors")
    return arr


def _pairwise_distances(pool: np.ndarray) -> np.ndarray:
    sq = np.sum(pool**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pool @ pool.T)
    # The Gram expansion errs by ~eps |x|^2, so a smaller d2 is rounding
    # noise: zeroing it makes the diagonal, and the distance between
    # coincident points, exactly 0 (and clips negative values).
    np.copyto(d2, 0.0, where=d2 <= 4.0 * pool.shape[1] * _EPS * sq.max())
    return np.sqrt(d2)


def energy_permutation_test(a, b, n_perm: int, rng, max_points: int = 2500):
    """Energy statistic and its label-permutation p-value.

    Returns (statistic, pvalue, null_sd).  The p-value uses the add-one
    convention, so it is a valid level for any n_perm; n_perm >= 200 is
    required.  Larger samples are subsampled to max_points per side with
    draws from rng, keeping the whole test reproducible.
    """
    if n_perm < 200:
        raise DomainError("need n_perm >= 200")
    a = _as_2d(a)
    b = _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise DomainError("samples must share the vector dimension")
    if a.shape[0] > max_points:
        a = a[np.asarray(rng.permutation(a.shape[0]))[:max_points]]
    if b.shape[0] > max_points:
        b = b[np.asarray(rng.permutation(b.shape[0]))[:max_points]]
    na, nb = a.shape[0], b.shape[0]
    pool = np.concatenate([a, b])
    d = _pairwise_distances(pool)
    rowsum = d.sum(axis=1)
    total = rowsum.sum()

    def stat_from_membership(z):
        # z: (npool, m) 0/1 indicators of group-A membership
        s_aa = np.einsum("im,im->m", z, d @ z)
        s_arow = rowsum @ z
        s_ab = s_arow - s_aa
        s_bb = total - 2.0 * s_ab - s_aa
        return 2.0 * s_ab / (na * nb) - s_aa / na**2 - s_bb / nb**2

    z_obs = np.zeros((na + nb, 1))
    z_obs[:na, 0] = 1.0
    observed = float(stat_from_membership(z_obs)[0])

    z_perm = np.zeros((na + nb, n_perm))
    for p in range(n_perm):
        idx = np.asarray(rng.permutation(na + nb))[:na]
        z_perm[idx, p] = 1.0
    null = stat_from_membership(z_perm)
    pvalue = float((1 + np.sum(null >= observed)) / (n_perm + 1))
    return observed, pvalue, float(null.std())


# ks_2samp(method="auto") is exact up to this sample size
_KS_EXACT_MAX_N = 10000


def _prob_outside_square(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n) by Hodges' Horner recursion, as scipy evaluates it."""
    p = 0.0
    k = int(np.floor(n / h))
    while k >= 0:
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
        k -= 1
    return 2 * p


def _ks_exact_equal_size(x: np.ndarray, y: np.ndarray) -> float | None:
    """Two-sided exact KS p-value of equal-size finite samples, bit for bit
    ``ks_2samp(x, y).pvalue``; None where scipy would leave the exact branch."""
    n = x.shape[0]
    x = np.sort(x)
    y = np.sort(y)
    pooled = np.concatenate([x, y])
    diffs = np.searchsorted(x, pooled, side="right") / n - np.searchsorted(
        y, pooled, side="right"
    ) / n
    d = max(np.clip(-diffs.min(), 0, 1), diffs.max())
    h = int(np.round(d * n))
    if h == 0:
        return 1.0
    try:
        with np.errstate(invalid="raise", over="raise"):
            prob = _prob_outside_square(n, h)
    except (FloatingPointError, OverflowError):
        return None
    if not 0 <= prob <= 1:
        return None
    return prob


def ks_per_coordinate(a, b):
    """Two-sample KS p-value per ordered coordinate; returns array of p's.

    Each p-value is ``scipy.stats.ks_2samp``'s two-sided ``pvalue``.  Equal
    sizes up to 10000 finite points take the in-house exact route; scipy is
    imported only for the other inputs.
    """
    a = _as_2d(a)
    b = _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise DomainError("samples must share the vector dimension")
    exact = (
        a.shape[0] == b.shape[0] <= _KS_EXACT_MAX_N
        and np.isfinite(a).all()
        and np.isfinite(b).all()
    )
    ps = []
    for k in range(a.shape[1]):
        p = _ks_exact_equal_size(a[:, k], b[:, k]) if exact else None
        if p is None:
            from scipy.stats import ks_2samp

            p = float(ks_2samp(a[:, k], b[:, k]).pvalue)
        ps.append(p)
    return np.array(ps)
