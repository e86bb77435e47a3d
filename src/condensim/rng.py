"""Reproducible per-path random streams, the run window and the sample slots.

Every simulated path owns a counter-based Philox stream keyed by
(master seed, path index) and consumed strictly in path order, so an
ensemble produces the same numbers regardless of batching, compaction,
or scheduling.  The engines step many paths in lockstep; to avoid one
generator call per path per step, draws are buffered in fixed-size
blocks per path, and a path's generator is built at its first refill,
so a path that never steps costs no generator.

The buffer is slot-major, ``(block, n_paths, k)``: the draws of one
step for every path form one contiguous slab, so a step gathers its
live rows with one ``take``.  A refill draws a few paths at a time into
a small fixed scratch of contiguous per-path blocks and writes them
across the slots, so refilling never needs a second buffer-sized array.
Buffer and scratch live in an anonymous memory map of their own, off
the heap.

Lockstep contract: every path passed to ``PathStreams.take`` has taken
exactly as many steps as every other path passed to it; paths only
ever leave the live set, never skip a step or join late.  One shared
step counter therefore locates every listed path in its buffer.
``LiveSet``, the live set of both engines, holds that contract.  A path
leaves the lockstep for good when ``PathStreams.hand_out`` gives it the
rest of its stream, to be drawn one step at a time outside.

Both engines observe their paths on one grid of sample times inside the
run window [0, horizon or t_max]: ``check_window`` validates both, and
the live set hands out the sample slots each path reaches.
"""

from __future__ import annotations

import hashlib
import itertools
import mmap
from collections.abc import Iterator

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


# Bytes of draws one refill pass holds in its scratch: a few paths' blocks.
REFILL_SCRATCH_BYTES = 1 << 17


class PathStreams:
    """Block-buffered per-path draws for the vectorized engines.

    Each step of path ``p`` consumes exactly ``values_per_step`` numbers
    from the stream keyed ``(seed, p)``.  ``take`` gathers the next
    values for a set of paths (identified by their original indices)
    and, at the start of each block of steps, refills the listed paths'
    buffers from their own generators, building each generator at its
    path's first refill.  The listed paths must obey the lockstep
    contract of this module.

    ``_buf[slot, path]`` holds one step's draws.  A refill fills the
    scratch, ``REFILL_SCRATCH_BYTES`` at most, with one contiguous
    ``(block, k)`` array per path, then copies it into the slots, each
    step's ``k`` draws moved as one record.
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
        self._seed = seed
        self._gens: list[np.random.Generator | None] = [None] * n_paths
        chunk = max(1, REFILL_SCRATCH_BYTES // (self.block * self.k * 8))
        chunk = min(chunk, max(n_paths, 1))
        # The buffer and the scratch share one anonymous mapping, which
        # goes back to the system with the streams.  A heap block this
        # large leaves a hole that the next ensemble's buffer may not
        # fit, and the process peak RSS then depends on heap layout.
        cut = self.block * n_paths * self.k
        self._map = mmap.mmap(-1, (cut + chunk * self.block * self.k) * 8)
        doubles = np.frombuffer(self._map, dtype=np.float64)
        self._buf = doubles[:cut].reshape(self.block, n_paths, self.k)
        self._scratch = doubles[cut:].reshape(chunk, self.block, self.k)
        # One step's k draws as one opaque record of k doubles: the
        # transposing copy then moves records, not single doubles.
        record = np.dtype((np.void, self.k * 8))
        self._buf_rec = self._buf.view(record)[..., 0]
        self._scratch_rec = self._scratch.view(record)[..., 0]
        self._step = 0

    def _draw(self, paths: list[int], out: np.ndarray) -> None:
        """Fill ``out[i]``, one ``(block, k)`` array, with the next block of
        the stream of ``paths[i]``, building each generator at its path's
        first block."""
        for row, p in zip(out, paths):
            g = self._gens[p]
            if g is None:
                g = self._gens[p] = path_generator(self._seed, p)
            if self.gaussian:
                g.standard_normal(out=row)
            else:
                g.random(out=row)

    def _refill(self, paths: np.ndarray) -> None:
        chunk = len(self._scratch)
        for lo in range(0, len(paths), chunk):
            part = paths[lo : lo + chunk]
            self._draw(part.tolist(), self._scratch)
            self._buf_rec[:, part] = self._scratch_rec[: len(part)].T

    def take(self, paths: np.ndarray) -> np.ndarray:
        """Next ``values_per_step`` draws for each listed path."""
        slot = self._step % self.block
        if slot == 0:
            self._refill(paths)
        self._step += 1
        return self._buf[slot].take(paths, axis=0)

    def hand_out(self, path: int) -> Iterator[np.ndarray]:
        """Every later draw of ``path`` from the shared step on, as
        ``(steps, k)`` arrays: the buffered rest of the current block,
        then whole blocks from its own generator.  The path leaves the
        lockstep for good: ``take`` must not list it again."""
        slot = self._step % self.block
        rest = [self._buf[slot:, path].copy()] if slot else []
        return itertools.chain(rest, self._blocks(path))

    def _blocks(self, path: int) -> Iterator[np.ndarray]:
        while True:
            out = np.empty((1, self.block, self.k))
            self._draw([path], out)
            yield out[0]


def check_window(horizon: float | None, t_max: float, sample_times) -> tuple[float, ...]:
    """Validate the run window and its sample grid; return the grid as floats.

    The end (``horizon``, else ``t_max``) must be finite and positive,
    and the sample times >= 0 and strictly increasing; sample times past
    the end are allowed and stay unfilled.  Raises ConfigRangeError.
    """
    if not (horizon is None or np.isfinite(horizon)):
        raise ConfigRangeError(f"horizon = {horizon} must be finite")
    if not np.isfinite(t_max):
        raise ConfigRangeError(f"t_max = {t_max} must be finite")
    end = t_max if horizon is None else horizon
    if not end > 0:
        raise ConfigRangeError(f"run end {end} (horizon, else t_max) must be positive")
    st = np.asarray(sample_times, dtype=float)
    if not (np.all(st >= 0) and np.all(np.diff(st) > 0)):
        raise ConfigRangeError("sample_times must be >= 0 and strictly increasing")
    return tuple(st.tolist())


class LiveSet:
    """The live paths of one lockstep ensemble, one per column.

    ``ids`` are their original indices, ``t`` their clocks and ``cursor``
    the first slot of the sample grid (``+inf`` appended) each has not
    filled.  The run ends at ``end``, inclusive: a time below ``end_bound``
    is in it.  Times are in engine clock units, ``scale`` per unit of the
    run window.  Raises ConfigRangeError on a path count that is not a
    nonnegative integer.
    """

    def __init__(self, n_paths: int, horizon, t_max: float, sample_times, scale: float = 1.0):
        if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)):
            raise ConfigRangeError(f"n_paths = {n_paths!r} must be an integer")
        if n_paths < 0:
            raise ConfigRangeError(f"n_paths = {n_paths} must be >= 0")
        self.ids = np.arange(n_paths)
        self.t = np.zeros(n_paths)
        self.cursor = np.zeros(n_paths, dtype=np.int64)
        self.end = (t_max if horizon is None else horizon) * scale
        self.end_bound = np.nextafter(self.end, np.inf)
        self.grid = np.append(np.asarray(sample_times, dtype=float) * scale, np.inf)
        self.iterations = 0

    def draw(self, streams: PathStreams) -> np.ndarray:
        """The next draws of every live path, once per iteration; ``iterations`` counts them."""
        self.iterations += 1
        return streams.take(self.ids)

    def due_samples(self, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, slots) of every sample slot the rows reach this iteration.

        The pairs, row by row, have ``slot >= cursor[row]`` and
        ``grid[slot] < bound[row]``; ``cursor`` moves past them.  Only
        the rows with a slot due are searched.
        """
        rows = np.flatnonzero(self.grid[self.cursor] < bound)
        if not rows.size:
            return rows, rows
        first = self.cursor[rows]
        stop = np.searchsorted(self.grid, bound[rows])
        self.cursor[rows] = stop
        count = stop - first
        # Slot first[i] + k for k < count[i], flattened row by row.
        start = np.cumsum(count) - count
        slots = np.arange(start[-1] + count[-1]) + np.repeat(first - start, count)
        return np.repeat(rows, count), slots

    def retire(self, keep: np.ndarray | None, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """Keep the paths in ``keep`` (None: all) whose clock is before the
        end, here and along the last axis of ``columns``; return those.  A
        NaN clock is not before the end, so it cannot run forever."""
        if not self.t.max(initial=-np.inf) < self.end:
            running = self.t < self.end
            keep = running if keep is None else keep & running
        if keep is None or keep.all():
            return columns
        self.ids, self.t, self.cursor = self.ids[keep], self.t[keep], self.cursor[keep]
        return tuple(c.compress(keep, axis=-1) for c in columns)
