"""Exact event-driven simulation of the condensing zero-range process.

A configuration holds N particles on the sites of a finite chain; a
particle leaves site j at rate g_j(occupancy) and moves along the chain
rates.  The engine simulates the continuous-time chain exactly
(competing exponential clocks) and reports everything in macroscopic
time t = t_micro / N^2, where the rescaled occupation fractions
converge to the absorbed diffusion.

Ensembles are stepped in lockstep with numpy; every path consumes
exactly two uniforms per event from its own counter-based stream, so
results are independent of batching and bit-reproducible per
(config, seed, path index).  Once few paths are left (``FINISH_EDGES``),
they leave the lockstep for good and each runs to its end alone in
plain Python, with the same draws and the same float expressions in the
same order, so the outputs keep every bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import BadInitialError, ConfigRangeError, NotLatticeError, OutputInvariantError
from .rng import LiveSet, PathStreams, check_samples, check_window, derive_seed, run_end

G_FAMILIES = ("default", "corrected")

# Live width from which the cumulative rates are E - 1 in-place row adds
# rather than one np.add.accumulate down the edges, which runs one short
# inner loop per column; both give the same sums in the same order.  The
# measured crossover is near 100 columns at E = 6 and near 230 at
# E = 121 and 272.
ROW_SCAN_WIDTH = 200

# Live edge evaluations per iteration (width x E) at or below which the
# lockstep stops and each remaining path runs to its end alone in plain
# Python (``_finish``).  On a 2-vCPU x86 host a narrow lockstep iteration
# costs 15-30 us at any width and a Python event about 0.9 us at E = 6.
# On K3 this finishes the last 16 paths; a chain of more than 96 edges
# never leaves the lockstep.
FINISH_EDGES = 96

# Bytes the rate tables of one configuration may take: the L x (N + 1)
# table of g_j(n) and the E x (N + 1) table of edge rates.  K3 passes it
# above N = 932,066; every configuration in use is far below.
TABLE_BYTES = 1 << 26


def _g_table(chain: ChainSpec, b: float, family: str, correction: float, n_max: int):
    """Departure rates g_j(n) for all sites j and occupancies 0..n_max,
    validated >= 0 and with a finite largest total rate.

    The default family g_j(n) = m_j (1 + b/n) satisfies
    n (g_j(n)/m_j - 1) = b exactly for every n >= 1, so the asymptotic
    drift parameter is a finite-N identity.  The corrected family adds
    a c/n^2 term to probe sensitivity to the tail condition only
    fixing the limit.  g_j(0) = 0 always.
    """
    n = np.arange(n_max + 1)
    n1 = np.where(n > 0, n, 1)
    extra = correction / n1**2 if family == "corrected" else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.where(n > 0, chain.m[:, None] * (1.0 + b / n1 + extra), 0.0)
        # No configuration's total rate sum_j g_j(eta_j) lambda_j exceeds
        # this; an inf total would make every wait 0, and a run never end.
        top = float((table.max(axis=1) * chain.holding).sum())
    if not np.all(table >= 0):
        raise ConfigRangeError(
            f"jump-rate family {family!r} with b={b} produces negative or NaN rates"
        )
    if not math.isfinite(top):
        raise ConfigRangeError(
            f"jump-rate family {family!r} with b={b} gives total rates that overflow a double"
        )
    return table


@dataclass(frozen=True)
class ZrpConfig:
    """Parameters of one zero-range simulation.

    ``horizon`` (macroscopic) switches to fixed-horizon runs; otherwise
    paths stop at the condensation record, capped at ``t_max``, and a
    stopped path is sampled up to and including ``t_cond``.  All
    clocks, thresholds and outputs are macroscopic.
    """

    chain: ChainSpec
    n_particles: int
    b: float
    seed: int
    g_family: str = "default"
    g_correction: float = 0.0
    sample_times: tuple[float, ...] = ()
    horizon: float | None = None
    delta: float = 0.05
    t_max: float = 1e3

    def __post_init__(self):
        n = self.n_particles
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ConfigRangeError(f"n_particles = {n!r} must be an integer")
        if not n >= 1:
            raise ConfigRangeError("need at least one particle")
        cells = (self.chain.size + np.count_nonzero(self.chain.rates)) * (int(n) + 1)
        if cells * 8 > TABLE_BYTES:
            raise ConfigRangeError(
                f"n_particles = {n} needs rate tables of {cells * 8} bytes, "
                f"above the cap of {TABLE_BYTES}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ConfigRangeError("condensation threshold delta must be in (0, 1)")
        times = check_window(self.horizon, self.t_max, self.sample_times)
        object.__setattr__(self, "sample_times", times)
        if self.g_family not in G_FAMILIES:
            raise ConfigRangeError(f"unknown g family {self.g_family!r}")
        if self.b <= 1.0:
            warnings.warn(
                "b <= 1: no absorption in the scaling limit; "
                "tightness still holds, proceed at your own risk",
                stacklevel=2,
            )


@dataclass
class ZrpEnsemble:
    """Results of a batch of zero-range paths from a common start; the
    config and the start are the caller's and are not echoed here."""

    n_paths: int
    times: np.ndarray  # shared macroscopic sample grid (may be empty)
    samples: np.ndarray | None  # (n_paths, T, L) occupation fractions
    t_cond: np.ndarray  # (n_paths,) first condensation time, nan if none
    winner: np.ndarray  # (n_paths,) condensed site, -1 if none


def _check_lattice(x: np.ndarray, n: int) -> np.ndarray:
    xn = np.asarray(x, dtype=float) * n
    eta = np.rint(xn)
    # Written so that a NaN coordinate fails.
    if not (np.all(np.abs(xn - eta) <= 1e-9) and np.all(eta >= 0)):
        raise NotLatticeError(f"point is not on the 1/{n} simplex lattice")
    if abs(eta.sum(axis=-1) - n).max() > 0:
        raise NotLatticeError("lattice point does not carry the full mass")
    return eta.astype(np.int64)


def zrp_generator_apply(config: ZrpConfig, h, x: np.ndarray):
    """Rescaled generator of the occupation-fraction chain applied to h.

    (L_N h)(x) = N^2 sum_{j,k} g_j(N x_j) r(j,k) [h(x + (e_k - e_j)/N) - h(x)]

    ``h`` is a callback taking arrays of shape (..., L); ``x`` may be a
    single lattice point or a batch.  Raises NotLatticeError off the
    1/N lattice.  Rows are grouped by their occupancy vector eta = N x,
    and ``h`` sees each distinct point eta / N and its neighbours once.
    """
    chain = config.chain
    n = config.n_particles
    x = np.asarray(x, dtype=float)
    rows = _check_lattice(x, n).reshape(-1, chain.size)
    # One integer key per row, in radix N + 1 (every digit lies in 0..N,
    # as the row carries mass N).  Before a digit would overflow int64
    # (once (N+1)^L >= 2^63) the key is replaced by its rank, so the key
    # stays exact for every N and L.
    key = np.zeros(len(rows), dtype=np.int64)
    limit = (np.iinfo(np.int64).max - n) // (n + 1)
    for digit in rows.T:
        if key.max(initial=0) > limit:
            key = np.unique(key, return_inverse=True)[1]
        key = key * (n + 1) + digit
    distinct, inverse = np.unique(key, return_inverse=True)
    eta = np.empty((len(distinct), chain.size), dtype=np.int64)
    eta[inverse] = rows  # rows with one key hold one occupancy vector
    pts = eta / n
    src, dst = np.nonzero(chain.rates)
    r_edge = chain.rates[src, dst]
    table = _g_table(chain, config.b, config.g_family, config.g_correction, n)
    g = table.T[eta, np.arange(chain.size)]  # (D, L), D distinct points
    h0 = h(pts)
    shifts = np.zeros((len(src), chain.size))
    shifts[np.arange(len(src)), dst] += 1.0 / n
    shifts[np.arange(len(src)), src] -= 1.0 / n
    # (D, E, L) batch of displaced points, one per directed edge.
    moved = pts[:, None, :] + shifts
    dh = h(moved) - h0[:, None]
    rates = g[:, src] * r_edge
    vals = n * n * (rates * dh).sum(axis=-1)
    return vals[inverse].reshape(x.shape[:-1])


def initial_counts(config: ZrpConfig, eta0) -> np.ndarray:
    """``eta0`` as int64 counts; BadInitialError unless they are N on L sites."""
    size, n = config.chain.size, config.n_particles
    counts = np.asarray(eta0, dtype=float)
    # NaN fails each test.  Counts of sum n are at most n: exact as doubles.
    whole = np.all(counts >= 0) and np.all(counts == np.floor(counts))
    if counts.shape != (size,) or not whole or counts.sum() != n:
        raise BadInitialError(
            f"initial configuration must hold exactly {n} particles on {size} sites"
        )
    return counts.astype(np.int64)


def simulate_zrp_ensemble(config: ZrpConfig, eta0, n_paths: int) -> ZrpEnsemble:
    """Simulate ``n_paths`` independent paths started from ``eta0``.

    Paths are exact realizations; identical (config, eta0, path index)
    always reproduce the same trajectory.
    """
    chain = config.chain
    size = chain.size
    n = config.n_particles
    eta0 = initial_counts(config, eta0)
    scale = float(n) * n  # micro time per macro unit
    live = LiveSet(n_paths, config.horizon, config.t_max, config.sample_times, scale)

    table = _g_table(chain, config.b, config.g_family, config.g_correction, n)
    src, dst = np.nonzero(chain.rates)
    r_edge = chain.rates[src, dst]
    cond_level = (1.0 - config.delta) * n
    n_samp = len(config.sample_times)

    t_cond = np.full(n_paths, np.nan)
    winner = np.full(n_paths, -1, dtype=np.int64)
    samples = np.full((n_paths, n_samp, size), np.nan) if n_samp else None

    # Rate of edge e at source occupancy k is edge_rate[e * (n + 1) + k].
    n_edges = src.size
    edge_rate = (table[src] * r_edge[:, None]).flatten()
    edge_off = (np.arange(n_edges) * (n + 1))[:, None]
    # Column e is the change of every site's occupancy by a jump along e.
    jump = np.zeros((size, n_edges), dtype=np.int64)
    jump[src, np.arange(n_edges)] -= 1
    jump[dst, np.arange(n_edges)] += 1
    # The selected edge is a count of edges, below n_edges.
    count_dtype = np.uint8 if n_edges <= 255 else np.intp

    # Live paths are columns: eta[j, c] is the occupancy of site j on the
    # path with original index live.ids[c].
    eta = np.repeat(eta0[:, None], n_paths, axis=1)
    # Full-width work buffers, viewed at the live width.
    at_buf = np.empty(n_edges * n_paths, dtype=np.int64)
    off_buf = np.empty(n_edges * n_paths, dtype=np.int64)
    rate_buf = np.empty(n_edges * n_paths)
    less_buf = np.empty(n_edges * n_paths, dtype=np.bool_)

    streams = PathStreams(
        derive_seed(config.seed, "zrp"), n_paths, values_per_step=2, block=256
    )
    width = -1
    # A g that vanishes at some n > 0 can leave every rate of a path zero:
    # its wait then divides to inf, quietly.  Entered once, not per
    # iteration, where it would cost about 1.7 us (timeit).
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # Observe the state at t, the start included.  The record is the
            # first time a site holds >= (1-delta) N, set only by a path still
            # in the run; its winner is the fullest site.  Without a horizon a
            # path stops at its record, which is its last sample.
            keep = None
            if eta.size and eta.max() >= cond_level:
                rows = np.flatnonzero(eta.max(axis=0) >= cond_level)
                rows = rows[np.isnan(t_cond[live.ids[rows]])]
                if rows.size:
                    rows = rows[live.t[rows] < live.end]
                    pids = live.ids[rows]
                    t_cond[pids] = live.t[rows] / scale
                    winner[pids] = eta[:, rows].argmax(axis=0)
                    if config.horizon is None:
                        keep = np.ones(live.ids.size, dtype=bool)
                        keep[rows] = False
                        if n_samp:
                            bound = np.where(keep, -np.inf, np.nextafter(live.t, np.inf))
                            due, slots = live.due_samples(bound)
                            samples[live.ids[due], slots] = eta[:, due].T / n
            (eta,) = live.retire(keep, eta)
            if live.ids.size * n_edges <= FINISH_EDGES:
                break

            if live.ids.size != width:
                # Work arrays at the new width.
                width = live.ids.size
                cells = n_edges * width
                at = at_buf[:cells].reshape(n_edges, width)
                off = off_buf[:cells].reshape(n_edges, width)
                off[...] = edge_off
                rates = rate_buf[:cells].reshape(n_edges, width)
                total = rates[-1]  # shared with the selection, so u*total < cum[-1]
                less = less_buf[:cells].reshape(n_edges, width)
                less_count = less.view(np.uint8)
                # Row pairs (row, previous row) of the row-wise scan.
                scan = list(zip(rates[1:], rates[:-1])) if width >= ROW_SCAN_WIDTH else None
            eta.take(src, axis=0, out=at, mode="clip")
            at += off
            edge_rate.take(at, out=rates, mode="clip")
            # Cumulative rates down the edges, cum[e] = cum[e - 1] + rates[e].
            if scan is None:
                np.add.accumulate(rates, axis=0, out=rates)
            else:
                for row, prev in scan:
                    np.add(row, prev, out=row)
            u0, u1 = streams.take(live.ids).T
            t_new = live.t - np.log1p(-u0) / total
            if n_samp:
                # The pre-jump state is the path value on [t, t_new); a path
                # whose next event passes the end holds it up to the end.
                end = live.end
                bound = t_new if t_new.max() < end else np.where(t_new < end, t_new, live.end_bound)
                rows, slots = live.due_samples(bound)
                samples[live.ids[rows], slots] = eta[:, rows].T / n

            # Jump on every column; a path past the end retires unread.
            np.less(rates, u1 * total, out=less)
            edge = less_count.sum(axis=0, dtype=count_dtype)
            eta += jump.take(edge, axis=1)
            live.t = t_new

    if live.ids.size:
        _finish(live, eta, streams, edge_rate, src, dst, n, cond_level,
                config.horizon is None, (t_cond, winner, samples))
    ens = ZrpEnsemble(n_paths, np.asarray(config.sample_times), samples, t_cond, winner)
    _check_outputs(config, ens)
    return ens


def _check_outputs(config: ZrpConfig, ens: ZrpEnsemble) -> None:
    """Raise OutputInvariantError unless every path has a condensation
    time exactly when it has a winner, and samples up to the run's end,
    or up to its record when it stopped there."""
    recorded = ens.winner >= 0
    if np.any(np.isnan(ens.t_cond) == recorded):
        raise OutputInvariantError("condensation times and winners disagree")
    end = run_end(config.horizon, config.t_max)
    check_samples(ens.samples, config.sample_times, end, recorded & (config.horizon is None))


def _finish(live, eta, streams, edge_rate, src, dst, n, cond_level, stop_at_record, out):
    """Run each path still in ``live`` to its end alone, in plain Python.

    Each step is the lockstep iteration of ``simulate_zrp_ensemble`` on
    one column, with its draws from ``PathStreams.hand_out`` and the
    same float expressions in the same order, so every output keeps its
    bits: the logs come from ``np.log1p``, one call per block; the
    cumulative rate is a sequential sum down the edges (no rate is -0.0,
    so 0.0 plus the first rate is that rate) and the edge the count of
    ``cum < u1 * total``.  Every path has been observed at its clock, so
    a path without a record has no site at the level, and a jump can
    only lift its target site there.
    """
    t_cond, winner, samples = out
    scale = float(n) * n
    end, end_bound = float(live.end), float(live.end_bound)
    grid = live.grid.tolist()
    rate = edge_rate.tolist()
    src, dst = src.tolist(), dst.tolist()
    # (offset into rate, source site) of each edge, in edge order.
    edges = [(e * (n + 1), j) for e, j in enumerate(src)]
    paths = zip(live.ids.tolist(), eta.T.tolist(), live.t.tolist(), live.cursor.tolist())
    for pid, state, t, cursor in paths:
        recorded = not np.isnan(t_cond[pid])
        steps = itertools.chain.from_iterable(
            zip(np.log1p(-block[:, 0]).tolist(), block[:, 1].tolist())
            for block in streams.hand_out(pid)
        )
        for log_u, u1 in steps:
            cum, total = [], 0.0
            for off, j in edges:
                total += rate[off + state[j]]
                cum.append(total)
            if total:
                t_new = t - log_u / total
            else:
                # No event ever comes.  As in IEEE, t - log_u / 0 is inf,
                # or NaN when log_u is 0.
                t_new = math.inf if log_u else math.nan
            bound = t_new if t_new < end else end_bound
            if grid[cursor] < bound:
                stop = bisect.bisect_left(grid, bound, cursor)
                samples[pid, cursor:stop] = np.array(state) / n
                cursor = stop
            e = bisect.bisect_left(cum, u1 * total)
            state[src[e]] -= 1
            state[dst[e]] += 1
            t = t_new
            if not t < end:
                break
            if not recorded and state[dst[e]] >= cond_level:
                t_cond[pid] = t / scale
                winner[pid] = dst[e]
                recorded = True
                if stop_at_record:
                    stop = bisect.bisect_left(grid, math.nextafter(t, math.inf), cursor)
                    if stop > cursor:
                        samples[pid, cursor:stop] = np.array(state) / n
                    break
