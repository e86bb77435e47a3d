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
(config, seed, path index).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .errors import BadInitialError, ConfigRangeError, NotLatticeError
from .rng import PathStreams, check_window, derive_seed, due_samples

G_FAMILIES = ("default", "corrected")


def _g_table(chain: ChainSpec, b: float, family: str, correction: float, n_max: int):
    """Departure rates g_j(n) for all sites j and occupancies 0..n_max,
    validated >= 0.

    The default family g_j(n) = m_j (1 + b/n) satisfies
    n (g_j(n)/m_j - 1) = b exactly for every n >= 1, so the asymptotic
    drift parameter is a finite-N identity.  The corrected family adds
    a c/n^2 term to probe sensitivity to the tail condition only
    fixing the limit.  g_j(0) = 0 always.
    """
    n = np.arange(n_max + 1)
    n1 = np.where(n > 0, n, 1)
    extra = correction / n1**2 if family == "corrected" else 0.0
    table = np.where(n > 0, chain.m[:, None] * (1.0 + b / n1 + extra), 0.0)
    if not np.all(table >= 0):
        raise ConfigRangeError(
            f"jump-rate family {family!r} with b={b} produces negative or NaN rates"
        )
    return table


@dataclass(frozen=True)
class ZrpConfig:
    """Parameters of one zero-range simulation.

    ``horizon`` (macroscopic) switches to fixed-horizon runs; otherwise
    paths stop at the condensation record, capped at ``t_max``.  All
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
        if not self.n_particles >= 1:
            raise ConfigRangeError("need at least one particle")
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
    """Results of a batch of zero-range paths from a common start."""

    config: ZrpConfig
    eta0: np.ndarray
    n_paths: int
    times: np.ndarray  # shared macroscopic sample grid (may be empty)
    samples: np.ndarray | None  # (n_paths, T, L) occupation fractions
    t_cond: np.ndarray  # (n_paths,) first condensation time, nan if none
    winner: np.ndarray  # (n_paths,) condensed site, -1 if none
    first_event: np.ndarray  # (n_paths,) time of first jump, nan if none


def _check_lattice(x: np.ndarray, n: int) -> np.ndarray:
    xn = np.asarray(x, dtype=float) * n
    eta = np.rint(xn)
    if np.any(np.abs(xn - eta) > 1e-9) or np.any(eta < 0):
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
    h_fn = h.value if hasattr(h, "value") else h
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
    h0 = h_fn(pts)
    shifts = np.zeros((len(src), chain.size))
    shifts[np.arange(len(src)), dst] += 1.0 / n
    shifts[np.arange(len(src)), src] -= 1.0 / n
    # (D, E, L) batch of displaced points, one per directed edge.
    moved = pts[:, None, :] + shifts
    dh = h_fn(moved) - h0[:, None]
    rates = g[:, src] * r_edge
    vals = n * n * (rates * dh).sum(axis=-1)
    return vals[inverse].reshape(x.shape[:-1])


def simulate_zrp_ensemble(config: ZrpConfig, eta0, n_paths: int) -> ZrpEnsemble:
    """Simulate ``n_paths`` independent paths started from ``eta0``.

    Paths are exact realizations; identical (config, eta0, path index)
    always reproduce the same trajectory.
    """
    chain = config.chain
    size = chain.size
    n = config.n_particles
    eta0 = np.asarray(eta0, dtype=np.int64)
    if eta0.shape != (size,) or np.any(eta0 < 0) or eta0.sum() != n:
        raise BadInitialError(
            f"initial configuration must hold exactly {n} particles on {size} sites"
        )

    table = _g_table(chain, config.b, config.g_family, config.g_correction, n)
    src, dst = np.nonzero(chain.rates)
    r_edge = chain.rates[src, dst]
    cond_level = (1.0 - config.delta) * n
    scale = float(n) * n  # micro time per macro unit
    n_samp = len(config.sample_times)
    grid = np.append(np.asarray(config.sample_times) * scale, np.inf)
    end_micro = (config.horizon if config.horizon is not None else config.t_max) * scale
    end_bound = np.nextafter(end_micro, np.inf)  # the end is inclusive
    stop_on_condensation = config.horizon is None

    t_cond = np.full(n_paths, np.nan)
    winner = np.full(n_paths, -1, dtype=np.int64)
    samples = np.full((n_paths, n_samp, size), np.nan) if n_samp else None

    # Rate of edge e at source occupancy k is edge_rate[e * (n + 1) + k].
    edge_rate = (table[src] * r_edge[:, None]).flatten()
    edge_off = np.arange(src.size) * (n + 1)

    # Live paths are columns: eta[j, c] is the occupancy of site j on the
    # path with original index ids[c].
    ids = np.arange(n_paths)
    eta = np.repeat(eta0[:, None], n_paths, axis=1)
    t = np.zeros(n_paths)
    next_samp = np.zeros(n_paths, dtype=np.int64)
    first_event = np.full(n_paths, np.nan)
    # Full-width work buffers, viewed at the live width, and few
    # long-lived 2-D arrays (edge_rate is a flat copy, edge_off is 1-D).
    # numpy keeps the shape blocks of freed arrays for reuse; one
    # allocated while the stream buffer lives can stay behind it in the
    # heap, so that a later ensemble's buffer no longer fits the freed
    # space and the process peak RSS grows (by 7 MB on configs/asym3.yaml).
    all_cols = np.arange(n_paths)
    at_buf = np.empty(src.size * n_paths, dtype=np.int64)
    rate_buf = np.empty(src.size * n_paths)
    streams = PathStreams(
        derive_seed(config.seed, "zrp"), n_paths, values_per_step=2, block=256
    )

    if eta0.max() >= cond_level:
        t_cond[:] = 0.0
        winner[:] = int(eta0.argmax())
        if stop_on_condensation:
            # Stopped at time zero; only a t=0 sample can be emitted.
            if n_samp and config.sample_times[0] == 0.0:
                samples[:, 0, :] = eta0 / n
            return ZrpEnsemble(
                config, eta0, n_paths,
                np.asarray(config.sample_times), samples, t_cond, winner, first_event,
            )

    first_pass = True
    width = -1
    while ids.size:
        if ids.size != width:
            # Work arrays and flat jump indices at the new width.
            width = ids.size
            col = all_cols[:width]
            src_flat, dst_flat = src * width, dst * width
            at = at_buf[: src.size * width].reshape(src.size, width)
            rates = rate_buf[: src.size * width].reshape(src.size, width)
        eta.take(src, axis=0, out=at, mode="clip")
        at += edge_off[:, None]
        edge_rate.take(at, out=rates, mode="clip")
        cum = np.add.accumulate(rates, axis=0, out=rates)
        total = cum[-1]  # shared with the selection, so u*total < cum[-1]
        u = streams.take(ids)
        tau = -np.log1p(-u[:, 0]) / total
        t_new = t + tau
        if first_pass:
            # All paths are present on the first pass; their first
            # waiting time is the holding time of the initial state.
            first_event[:] = t_new / scale
            first_pass = False

        # NaN-safe: a NaN clock retires its path instead of running forever.
        done = ~(t_new < end_micro)
        any_done = done.any()
        if n_samp:
            # The pre-jump state is the path value on [t, t_new); a
            # retiring path holds it up to the end.
            bound = np.where(done, end_bound, t_new) if any_done else t_new
            rows, slots = due_samples(grid, next_samp, bound)
            samples[ids[rows], slots] = eta[:, rows].T / n

        # Jump on every column; retiring columns are dropped below unread.
        edge = (cum < u[:, 1] * total).sum(axis=0)
        flat = eta.reshape(-1)  # a view while eta is C-contiguous
        flat[src_flat[edge] + col] -= 1
        to = dst_flat[edge] + col
        landed = flat[to] + 1
        flat[to] = landed
        t = t_new

        # Condensation record: first time a site holds >= (1-delta) N.
        # Before the jump no site of a path without a record is that
        # full, so only the receiving site can reach the level.
        hit = landed >= cond_level
        if any_done:
            hit &= ~done
        shrink = any_done
        if hit.any():
            rows = np.nonzero(hit)[0]
            if stop_on_condensation:
                done |= hit
                shrink = True
            else:
                rows = rows[np.isnan(t_cond[ids[rows]])]
            t_cond[ids[rows]] = t_new[rows] / scale
            winner[ids[rows]] = dst[edge[rows]]
        if shrink:
            keep = ~done
            ids = ids[keep]
            # Not eta[:, keep]: that is not C-contiguous, so reshape(-1)
            # would copy it and the jumps would be lost.
            eta = eta.compress(keep, axis=1)
            t = t[keep]
            next_samp = next_samp[keep]

    return ZrpEnsemble(
        config, eta0, n_paths, np.asarray(config.sample_times),
        samples, t_cond, winner, first_event,
    )
