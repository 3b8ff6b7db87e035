"""Domain types and the scalar observables of the particle system.

The state space is the positive chamber: ordered, nonnegative coordinate
vectors.  Boundary/limit states live in an enhanced space of decreasing
summable sequences carrying an extra total-mass coordinate ``gamma``; finite
configurations embed into it by ``values/N``.  The observables here (the
singular interaction drift, the pairwise-ratio Lyapunov functional and the
reverse characteristic polynomials) are shared by the integrators, the
collision experiments and the entire-function convergence checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import CoincidentCoordinates, DomainError

__all__ = [
    "OrderedConfig",
    "OmegaPlusPoint",
    "SdeParams",
    "Trajectory",
    "embed",
    "singular_drift",
    "lyapunov_f",
    "char_poly_phi",
    "drift_via_charpoly",
    "limit_entire_eplus",
    "reverse_char_poly",
]

# Pairs closer than this (relative to the larger coordinate) make the
# interaction drift numerically meaningless.
COINCIDENCE_RTOL = 1e-13


def _as_readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class OrderedConfig:
    """A point of the positive chamber: values[0] >= ... >= values[N-1] >= 0."""

    values: np.ndarray

    def __init__(self, values):
        arr = _as_readonly(np.atleast_1d(values))
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("config must be a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise DomainError("config values must be finite")
        if np.any(np.diff(arr) > 0):
            raise DomainError("config values must be decreasing")
        if arr[-1] < 0:
            raise DomainError("config values must be nonnegative")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def is_strictly_interior(self) -> bool:
        """Strictly decreasing with a strictly positive bottom coordinate."""
        v = self.values
        return bool(v[-1] > 0 and np.all(np.diff(v) < 0))

    def require_interior(self):
        """Raise a DomainError naming the first tied pair, else the zero
        bottom coordinate, of a config that is not strictly interior."""
        v = self.values
        ties = np.nonzero(np.diff(v) == 0)[0]
        if ties.size:
            i = int(ties[0])
            raise DomainError(
                f"config must be strictly ordered: x[{i}] = x[{i + 1}] = {float(v[i])!r}"
            )
        if v[-1] == 0:
            raise DomainError(f"config must be strictly positive: x[{v.size - 1}] = 0")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class OmegaPlusPoint:
    """Boundary state: a decreasing summable sequence plus a mass bound gamma.

    The sequence is stored by its finite support; the zero tail is implicit,
    so tail sums are exact.
    """

    xs: np.ndarray
    gamma: float

    def __init__(self, xs, gamma):
        arr = _as_readonly(np.atleast_1d(xs))
        gamma = float(gamma)
        if arr.size and (np.any(np.diff(arr) > 0) or arr[-1] < 0):
            raise DomainError("boundary sequence must be decreasing and nonnegative")
        total = float(arr.sum())
        if total > gamma * (1 + 1e-12) + 1e-300:
            raise DomainError(f"sum(xs)={total} exceeds gamma={gamma}")
        object.__setattr__(self, "xs", arr)
        object.__setattr__(self, "gamma", gamma)

    @property
    def support(self) -> int:
        return int(np.count_nonzero(self.xs))

    def coordinate(self, i: int) -> float:
        """i-th coordinate (0-based) of the infinite sequence."""
        return float(self.xs[i]) if i < self.xs.size else 0.0


@dataclass(frozen=True)
class SdeParams:
    """Parameters of the eigenvalue SDE and its step acceptance.

    ``rescaled`` selects the 1/(2N) constant-drift normalisation instead of
    the plain 1/2.  A proposed step is accepted only if every gap retains at
    least ``gap_safety`` of its previous size and the bottom coordinate stays
    above zero; rejected steps are halved.  The time grid is not a law
    parameter: every integrator takes its step ``dt`` as an argument.
    """

    eta: float = 0.0
    rescaled: bool = False
    gap_safety: float = 0.1

    def __post_init__(self):
        if not 0 < self.gap_safety < 1:
            raise DomainError("gap_safety must lie in (0,1)")


@dataclass(frozen=True)
class Trajectory:
    """Saved states of one simulated path, with its seed, stream and law parameters."""

    times: Tuple[float, ...]
    states: Tuple[OrderedConfig, ...]
    seed: int
    stream: int
    params: SdeParams = field(default_factory=SdeParams)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times or times[0] != 0.0:
            raise DomainError("trajectory times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise DomainError("trajectory times must be strictly increasing")
        if len(times) != len(self.states):
            raise DomainError("times and states must align")
        sizes = {s.n for s in self.states}
        if len(sizes) != 1:
            raise DomainError("all trajectory states must share one N")
        object.__setattr__(self, "times", times)

    @property
    def n(self) -> int:
        return self.states[0].n


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def embed(config: OrderedConfig) -> OmegaPlusPoint:
    """Embed an N-point configuration as a boundary state: values/N, mass sum/N."""
    xs = config.values / config.n
    return OmegaPlusPoint(xs, float(xs.sum()))


def singular_drift(i: int, config: OrderedConfig) -> float:
    """Interaction drift on coordinate i: sum_{j != i} x_i x_j / (x_i - x_j)."""
    x = config.values
    if not 0 <= i < x.size:
        raise IndexError(f"coordinate index {i} out of range for N={x.size}")
    if x.size == 1:
        return 0.0
    xi = x[i]
    others = np.delete(x, i)
    diffs = xi - others
    scale = np.maximum(np.abs(others), abs(xi))
    if np.any(np.abs(diffs) < COINCIDENCE_RTOL * scale):
        raise CoincidentCoordinates(
            f"coordinate {i} within coincidence tolerance of a neighbour"
        )
    return float(np.sum(xi * others / diffs))


def lyapunov_f(config: OrderedConfig, n: int) -> float:
    """-log of the partial ratio product prod_{i<=n<j} (1 - x_j/x_i).

    Blows up as the n-th gap closes; finite and positive on the strict
    interior.  ``n`` is 1-based and must satisfy 1 <= n <= N-1.
    """
    x = config.values
    if not 1 <= n <= x.size - 1:
        raise DomainError(f"need 1 <= n <= N-1, got n={n}, N={x.size}")
    if not config.is_strictly_interior():
        raise DomainError("Lyapunov functional needs a strictly ordered positive config")
    top = x[:n]
    bottom = x[n:]
    ratios = bottom[None, :] / top[:, None]
    return float(-np.sum(np.log1p(-ratios)))


def char_poly_phi(i: int, z: float, config: OrderedConfig) -> float:
    """Squared reverse characteristic polynomial omitting coordinate i."""
    x = config.values
    if not 0 <= i < x.size:
        raise IndexError(f"coordinate index {i} out of range for N={x.size}")
    others = np.delete(x, i)
    return float(np.prod((1.0 - others * z) ** 2))


def drift_via_charpoly(i: int, config: OrderedConfig) -> float:
    """Interaction drift recovered from the log-derivative of char_poly_phi.

    Evaluates half the log-derivative at z = 1/x_i, oriented so that it
    coincides with :func:`singular_drift`; analytically this is
    sum_{j != i} x_j / (1 - x_j/x_i).
    """
    x = config.values
    if not 0 <= i < x.size:
        raise IndexError(f"coordinate index {i} out of range for N={x.size}")
    if x.size == 1:
        return 0.0
    config.require_interior()
    xi = x[i]
    others = np.delete(x, i)
    denom = 1.0 - others / xi
    if np.any(np.abs(denom) < COINCIDENCE_RTOL):
        raise CoincidentCoordinates(f"coordinate {i} coincides with a neighbour")
    return float(np.sum(others / denom))


def reverse_char_poly(z, values) -> np.ndarray:
    """prod_j (1 - x_j z) for scalar or array z (complex allowed)."""
    z = np.asarray(z, dtype=complex)
    vals = np.asarray(values, dtype=float)
    return np.prod(1.0 - vals * z[..., None], axis=-1)


def limit_entire_eplus(z, omega: OmegaPlusPoint):
    """Limit entire function e^{-gamma z} prod_j e^{x_j z} (1 - x_j z).

    The product runs over the finite support; the zero tail contributes
    factors of one exactly.
    """
    z = np.asarray(z, dtype=complex)
    xs = omega.xs[omega.xs > 0]
    zz = z[..., None]
    factors = np.exp(xs * zz) * (1.0 - xs * zz)
    out = np.exp(-omega.gamma * z) * np.prod(factors, axis=-1)
    return complex(out) if out.ndim == 0 else out
