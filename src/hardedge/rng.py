"""Reproducible random streams.

Every stochastic routine in the package draws from a :class:`RandomSource`,
which wraps an SFC64 generator seeded from ``SeedSequence(master_seed,
spawn_key=path)``, where the index path starts with ``stream``.  Two sources
built from the same key produce the same variate sequence no matter how many
worker threads are running, so ensemble experiments assign one stream per
replica (or per replica block) and aggregate in stream order.

Reports from commits before the switch to SFC64 were drawn from a Philox
generator on the same keys, and differ from today's in every statistic.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it on import, not in the first draw

__all__ = ["RandomSource"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class RandomSource:
    """Deterministic random stream keyed by ``(master_seed, stream)``.

    ``child(*indices)`` derives an independent substream; children with
    distinct index paths never collide, which is what lets replicas run in
    any order or thread count without changing results.
    """

    def __init__(self, master_seed, stream=0, _path=()):
        self.master_seed = int(master_seed)
        self.stream = int(stream)
        self._path = (int(stream),) + tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(self.master_seed, spawn_key=self._path))
        )

    def child(self, *indices):
        """Independent substream addressed by an integer index path."""
        return RandomSource(self.master_seed, self.stream, _path=self._path[1:] + tuple(indices))

    # -- variate draws ------------------------------------------------------

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def complex_normal(self, size=(), scale=1.0):
        """``scale`` times standard complex Gaussians, whose Re and Im are
        independent N(0, 1/2); the scaling is one multiply per draw."""
        g = self._gen.standard_normal(tuple(size) + (2,))
        g *= scale * _INV_SQRT2
        return g.view(complex)[..., 0]

    def gamma(self, shape, scale=1.0, size=None):
        return self._gen.gamma(shape, scale, size)

    def exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def __repr__(self):
        return f"RandomSource(master_seed={self.master_seed}, stream={self.stream})"
