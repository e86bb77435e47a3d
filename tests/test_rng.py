"""The per-path stream contract of ``condensim.rng.PathStreams``."""

import tracemalloc

import numpy as np
import pytest

from condensim.rng import PathStreams, path_generator


def _schedule(block: int) -> dict[int, int]:
    """Steps taken by each path: a live set that shrinks across three
    block boundaries, with removals one step before, right at and one
    step after a boundary, and mid-block.  Path 9 is never listed."""
    return {
        0: 3 * block + 5, 1: block - 1, 2: block, 3: block + 1,
        4: block // 2, 5: 2 * block, 6: 3 * block, 7: 3 * block + 5,
        8: 2 * block + 3, 9: 0,
    }


@pytest.mark.parametrize("gaussian, k, block", [(False, 2, 256), (True, 8, 64)])
def test_streams_match_path_generators(generator_calls, gaussian, k, block):
    seed = 12345
    steps = _schedule(block)
    streams = PathStreams(seed, len(steps), k, block, gaussian)
    rows = {p: [] for p in steps}
    for step in range(max(steps.values())):
        paths = np.array([p for p, n in steps.items() if n > step])
        got = streams.take(paths)
        assert got.shape == (len(paths), k)
        for p, row in zip(paths.tolist(), got):
            rows[p].append(row)

    for p, n in steps.items():
        g = path_generator(seed, p)
        want = g.standard_normal((n, k)) if gaussian else g.random((n, k))
        assert np.array_equal(np.reshape(rows[p], (n, k)), want), p
    # One generator per listed path, none for the path never listed.
    assert sorted(generator_calls) == [p for p, n in steps.items() if n > 0]


@pytest.mark.parametrize("gaussian, k, block", [(False, 2, 256), (True, 8, 64)])
def test_refill_memory_is_bounded(gaussian, k, block):
    # Construction and the first refill of 4000 paths allocate at most
    # the n_paths x block x k buffer (which may be mapped off the traced
    # heap), one generator per path (about 0.6 kB each) and 1 MB more.
    # A full-size transposed copy of the buffer would add 16 MB to the
    # transient peak.
    n = 4000
    buffer = n * block * k * 8
    tracemalloc.start()
    try:
        streams = PathStreams(7, n, k, block, gaussian)
        streams.take(np.arange(n))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current <= 2**20
    assert current - buffer <= 2**20 + n * 1024
