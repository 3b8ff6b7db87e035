"""The random streams, pinned.

Every report is a function of these streams, so a change of bit generator
or of seeding moves every statistic.  The recorded first values below make
such a change fail here, by name, instead of drifting reports silently.
"""

import itertools

import numpy as np
import pytest

from hardedge.rng import RandomSource

# Floating-point values are compared to 1e-14 relative, which any change of
# stream exceeds by far, so that the last bits of the platform's libm (the
# normal tails and gamma use exp and log) cannot fail the test.
RTOL = 1e-14


class TestRecordedStream:
    def test_root_stream(self):
        rng = RandomSource(0)
        np.testing.assert_allclose(
            rng.standard_normal(4),
            [-0.5504811808293575, 0.5197080686753037, 0.23055672602603425, 0.5962049767396235],
            rtol=RTOL,
            atol=0,
        )
        np.testing.assert_allclose(
            rng.complex_normal((2,)),
            [-0.5526123160065488 - 1.1295053153529937j, 0.7303410257558343 + 0.9780222247940736j],
            rtol=RTOL,
            atol=0,
        )
        np.testing.assert_allclose(
            rng.gamma(2.5, size=3),
            [1.7986576919717479, 1.9492782954500618, 2.9032894350262186],
            rtol=RTOL,
            atol=0,
        )
        np.testing.assert_array_equal(rng.permutation(5), [2, 3, 1, 4, 0])

    def test_child_stream(self):
        np.testing.assert_allclose(
            RandomSource(0).child(1, 2).standard_normal(3),
            [0.7688665648367171, -0.6966873196765659, 1.0978148024334728],
            rtol=RTOL,
            atol=0,
        )

    def test_numbered_stream(self):
        np.testing.assert_allclose(
            RandomSource(0, 3).standard_normal(3),
            [0.6878009581858139, 0.15643970928209244, -1.0689606935169629],
            rtol=RTOL,
            atol=0,
        )


def _sources():
    """Sources on pairwise distinct (master_seed, index path) keys."""
    return {
        "0": RandomSource(0),
        "1": RandomSource(1),
        "0/stream 1": RandomSource(0, 1),
        "0/stream 3": RandomSource(0, 3),
        "0/1": RandomSource(0).child(1),
        "0/2": RandomSource(0).child(2),
        "0/1/2": RandomSource(0).child(1, 2),
        "0/2/1": RandomSource(0).child(2, 1),
        "0/stream 1/2": RandomSource(0, 1).child(2),
        "0/0": RandomSource(0).child(0),
    }


class TestStreamKeys:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: RandomSource(7, 2).child(4, 1),
            lambda: RandomSource(7, 2).child(4).child(1),
        ],
        ids=["one-call", "nested"],
    )
    def test_equal_paths_give_equal_draws(self, make):
        want = RandomSource(7, 2).child(4, 1).standard_normal(16)
        np.testing.assert_array_equal(make().standard_normal(16), want)

    def test_distinct_paths_give_different_draws(self):
        draws = {name: src.standard_normal(16) for name, src in _sources().items()}
        for (a, da), (b, db) in itertools.combinations(draws.items(), 2):
            assert not np.any(da == db), f"{a} and {b} share a draw"
