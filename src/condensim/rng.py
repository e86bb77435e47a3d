"""Reproducible per-path random streams, the run window and the sample slots.

Every simulated path owns a counter-based Philox stream keyed by
(master seed, path index) and consumed strictly in path order, so an
ensemble produces the same numbers regardless of batching, compaction,
or scheduling.  The engines step many paths in lockstep; to avoid one
generator call per path per step, draws are buffered in fixed-size
blocks per path.

Lockstep contract: every path passed to ``PathStreams.take`` has taken
exactly as many steps as every other path passed to it; paths only
ever leave the live set, never skip a step or join late.  One shared
step counter therefore locates every listed path in its buffer.

Both engines observe their paths on one grid of sample times inside the
run window [0, horizon or t_max]: ``check_window`` validates both, and
``due_samples`` hands out the slots each path reaches per iteration.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigRangeError


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for one named consumer of a master seed.

    Different engines sharing one config seed must not share bitstreams
    (both key their paths by (seed, path index)), so each derives its
    own master key from the common seed and its tag.
    """
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """The Philox stream owned by one path of one ensemble."""
    return np.random.Generator(np.random.Philox(key=[seed, path_index]))


class PathStreams:
    """Block-buffered per-path draws for the vectorized engines.

    Each step of path ``p`` consumes exactly ``values_per_step`` numbers
    from the stream keyed ``(seed, p)``.  ``take`` gathers the next
    values for a set of paths (identified by their original indices)
    and, at the start of each block of steps, refills the listed paths'
    buffers from their own generators.  The listed paths must obey the
    lockstep contract of this module.
    """

    def __init__(
        self,
        seed: int,
        n_paths: int,
        values_per_step: int,
        block: int = 256,
        gaussian: bool = False,
    ):
        self.k = int(values_per_step)
        self.block = int(block)
        self.gaussian = gaussian
        self._gens = [path_generator(seed, p) for p in range(n_paths)]
        self._buf = np.empty((n_paths, self.block, self.k))
        self._step = 0

    def _fill(self, path: int) -> None:
        g = self._gens[path]
        if self.gaussian:
            self._buf[path] = g.standard_normal((self.block, self.k))
        else:
            self._buf[path] = g.random((self.block, self.k))

    def take(self, paths: np.ndarray) -> np.ndarray:
        """Next ``values_per_step`` draws for each listed path."""
        slot = self._step % self.block
        if slot == 0:
            for p in paths:
                self._fill(int(p))
        self._step += 1
        return self._buf[paths, slot, :]


def check_window(horizon: float | None, t_max: float, sample_times) -> tuple[float, ...]:
    """Validate the run window and its sample grid; return the grid as floats.

    The end (``horizon``, else ``t_max``) must be finite, and the sample
    times >= 0 and strictly increasing.  Raises ConfigRangeError.
    """
    if not (horizon is None or np.isfinite(horizon)):
        raise ConfigRangeError(f"horizon = {horizon} must be finite")
    if not np.isfinite(t_max):
        raise ConfigRangeError(f"t_max = {t_max} must be finite")
    st = np.asarray(sample_times, dtype=float)
    if not (np.all(st >= 0) and np.all(np.diff(st) > 0)):
        raise ConfigRangeError("sample_times must be >= 0 and strictly increasing")
    return tuple(st.tolist())


def due_samples(
    grid: np.ndarray, next_samp: np.ndarray, bound: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, slots) of every sample slot the rows reach this iteration.

    ``grid`` is the sample grid with ``+inf`` appended, ``next_samp[row]``
    the first slot the row has not filled.  The pairs, row by row, have
    ``slot >= next_samp[row]`` and ``grid[slot] < bound[row]``;
    ``next_samp`` moves past them.  Only the rows with a slot due are
    searched.
    """
    rows = np.flatnonzero(grid[next_samp] < bound)
    if not rows.size:
        return rows, rows
    first = next_samp[rows]
    stop = np.searchsorted(grid, bound[rows])
    next_samp[rows] = stop
    count = stop - first
    # Slot first[i] + k for k < count[i], flattened row by row.
    start = np.cumsum(count) - count
    slots = np.arange(start[-1] + count[-1]) + np.repeat(first - start, count)
    return np.repeat(rows, count), slots
