"""Euler-Maruyama integration of the absorbed simplex diffusion.

Between absorptions the process solves

    dX = b * sum_{j in B} (m_j / X_j) v^B_j dt + noise,

where the noise is F^B xi for a standard gaussian vector xi and a
factor F^B of twice the symmetrized Dirichlet matrix of the trace
chain on the active set B: the law of the diffusion depends on the
noise only through that covariance.  When a coordinate reaches the
absorption threshold (or is driven negative within one step) it is
glued to 0 forever, the remaining coordinates are renormalized, and
the integration continues with the trace chain of the surviving set,
recursively, until a single vertex remains.  After an absorption the
path is the same diffusion on a smaller face, so a start on a face or
on a vertex is just the state after an absorption: the engine observes
every state, the start included, in one place, then steps the paths
still live.

The ensemble engine steps all paths in lockstep with numpy; every path
consumes L gaussians per step from its own counter-based stream, so
trajectories are reproducible per (config, seed, path index)
regardless of batching.  Like the ZRP engine it keeps the live paths
as columns: the state is (L, M), one column per live path, so each
per-path minimum, maximum, test and sum is one numpy pass down the L
sites, in numpy's own order, rather than a reduction along M short
rows.  Only the noise F xi is computed on rows, one (L,) vector per
path, and then transposed, because that einsum is faster than one
down the sites.  The last step of a run is cut to end on the run's
end (the horizon, else ``T_MAX``), so no record or sample stands for
a later time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, dirichlet_matrix, mask_of, trace_rates
from .errors import (
    ConfigRangeError,
    NonSimplexStartError,
    OutputInvariantError,
    SingularSystemError,
    StepBlowupError,
    StepStallError,
    ZeroCoordinateError,
)
from .rng import LiveSet, PathStreams, check_samples, check_window, derive_seed, run_end

# Hyperplane drift tolerance: increments sum to zero analytically, so
# any larger deviation signals a step-size blowup.
SUM_TOL = 1e-9
# Maximum relative coordinate move per step allowed by the clamped rule.
MAX_RELATIVE_MOVE = 0.25
# Step-size rules: "clamped" also caps the relative move per step.
DT_RULES = ("clamped", "quadratic")

# Time at which a run without a horizon stops, trapped or not.
T_MAX = 100.0


def eps_abs_limit(size: int) -> float:
    """Exclusive upper bound of ``eps_abs`` on an L-site chain: min(0.1, 1/L)."""
    return 0.1 if size <= 10 else 1.0 / size


@dataclass(frozen=True)
class DiffusionConfig:
    """Parameters of the absorbed-diffusion integrator.

    The chain has at most 12 sites: the engine's face table holds all
    2^L faces.  ``horizon=None`` runs every path to its trapped vertex
    (capped at ``T_MAX``); the end must be positive.  ``eps_abs`` is
    below 1/L, so an absorption always leaves a coordinate above it.
    ``noise_scale=0`` turns the engine into a drift-only ODE integrator
    for deterministic cross-checks.  ``cond_delta``
    optionally records the first time the maximal coordinate reaches
    1 - cond_delta, the same functional reported by the particle
    engine.
    """

    chain: ChainSpec
    b: float
    seed: int
    dt_base: float = 1e-3
    eps_abs: float = 1e-4
    noise_scale: float = 1.0
    dt_rule: str = "clamped"  # one of DT_RULES
    horizon: float | None = None
    sample_times: tuple[float, ...] = ()
    cond_delta: float | None = None
    allow_small_b: bool = False

    def __post_init__(self):
        if self.chain.size > 12:
            raise ConfigRangeError(
                f"chain has {self.chain.size} sites; the ensemble engine precomputes "
                f"2^L faces and supports L <= 12"
            )
        if not self.dt_base > 0:
            raise ConfigRangeError("dt_base must be positive")
        if not 0 < self.eps_abs < eps_abs_limit(self.chain.size):
            raise ConfigRangeError("eps_abs must be a positive threshold below 0.1 and 1/L")
        if not 0.0 <= self.noise_scale <= 1.0:
            raise ConfigRangeError("noise_scale must be in [0, 1]")
        if self.dt_rule not in DT_RULES:
            raise ConfigRangeError(f"unknown dt rule {self.dt_rule!r}")
        if self.cond_delta is not None and not 0.0 < self.cond_delta < 1.0:
            raise ConfigRangeError("condensation threshold cond_delta must be in (0, 1)")
        times = check_window(self.horizon, T_MAX, self.sample_times)
        object.__setattr__(self, "sample_times", times)
        if not (self.b > 1.0 or self.allow_small_b):
            raise ConfigRangeError(
                "b <= 1 gives a diffusion that is not expected to be "
                "absorbed; pass allow_small_b=True to experiment anyway"
            )


class FaceTable:
    """Dense per-face drift and noise data for the ensemble engine.

    Index by bitmask of the active set (bit j <-> site j).  ``noise_f``
    holds one L x L noise factor F per face: F F^T = 2 a_s^B on the
    face, the rows off the face are zero and every column sums to zero,
    so the noise F xi stays on the face and on the hyperplane.
    ``noise_diag`` is the diagonal of 2 a_s^B.  ``active`` marks the
    sites of each face, site-major as (L, 2^L) so the engine gathers
    whole columns from contiguous rows; a vertex (a mask with one bit)
    is the argmax of its column.  Faces with fewer than two sites stay
    zero; a trapped path never gathers them.
    """

    def __init__(self, chain: ChainSpec):
        size = chain.size
        n_masks = 1 << size
        self.drift_v = np.zeros((n_masks, size, size))
        self.noise_f = np.zeros((n_masks, size, size))
        self.noise_diag = np.zeros((n_masks, size))
        self.active = np.zeros((size, n_masks), dtype=bool)
        for mask in range(1, n_masks):
            members = [j for j in range(size) if mask >> j & 1]
            self.active[members, mask] = True
            if len(members) < 2:
                continue
            trace = trace_rates(chain, members)
            a_s = dirichlet_matrix(trace)
            self.drift_v[mask][np.ix_(members, members)] = trace.generator
            self.noise_f[mask, members, : len(members) - 1] = _noise_factor(a_s)
            self.noise_diag[mask, members] = 2.0 * np.diag(a_s)


def _noise_factor(dirichlet: np.ndarray) -> np.ndarray:
    """A k x (k-1) factor F of 2 a with zero column sums.

    ``dirichlet`` is the Dirichlet matrix a of an irreducible chain on k
    sites: its rows sum to zero and, with the last site pinned, it is
    positive definite.  The first k-1 rows of F are the Cholesky factor
    of that pinned block and the last row is minus their sum, which
    gives F F^T = 2 a exactly in the algebra, with no eigenvalue cutoff.
    """
    try:
        low = np.linalg.cholesky(2.0 * dirichlet[:-1, :-1])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Dirichlet matrix is not positive on the face: {exc}") from exc
    return np.vstack([low, -low.sum(axis=0)])


def drift(
    faces: FaceTable, masks: np.ndarray, x: np.ndarray, m: np.ndarray, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Restricted drift b * sum_{j in B} (m_j / x_j) v^B_j, one column per path.

    Column ``c`` is on the face ``masks[c]`` at the full-length point
    ``x[:, c]``.  Returns the (L, M) active-set indicator and the (L, M)
    drift, which is zero off the active set and sums to zero down each
    column because every v^B_j does.  Raises ZeroCoordinateError when
    an active coordinate is not strictly positive (a missed absorption).
    """
    active = faces.active.take(masks, axis=1)  # (L, M)
    x_on = np.where(active, x, 1.0)
    if not np.all(x_on > 0):
        raise ZeroCoordinateError("zero coordinate inside an active set")
    w = np.where(active, m[:, None] / x_on, 0.0)
    vv = faces.drift_v.take(masks, axis=0)  # (M, L, L)
    # einsum writes its (L, M) result transposed; b * it is stored
    # site-major, so every later pass over the drift reads one layout.
    return active, np.multiply(b, np.einsum("jm,mjk->km", w, vv), order="C")


def em_step(
    faces: FaceTable,
    masks: np.ndarray,
    paths: np.ndarray,
    x: np.ndarray,
    t: np.ndarray,
    drift_vec: np.ndarray,
    dt: np.ndarray,
    xi: np.ndarray | None,
    noise_scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One explicit Euler-Maruyama step per column; absorption is NOT applied.

    The increment is drift_vec * dt + sqrt(dt) * noise, where the noise
    of column ``c`` is F xi[c] with F = noise_f of its face (so
    F F^T = 2 a_s^B) and ``xi`` of shape (M, L) holding L standard
    gaussians per path; ``xi`` is unused when ``noise_scale`` is 0.
    ``x`` and ``drift_vec`` are (L, M); ``paths`` names the columns in
    errors.  Returns the renormalized points and t + dt.  The points may
    carry negative coordinates; absorption detection owns their
    handling.  Raises StepBlowupError when a column leaves the
    hyperplane beyond tolerance (or turns NaN), which signals dt too
    large near the singular drift, and StepStallError when a clock does
    not advance, which would loop forever.
    """
    xb_new = drift_vec * dt
    xb_new += x
    if noise_scale > 0:
        incr = np.einsum("pjk,pk->pj", faces.noise_f.take(masks, axis=0), xi).T
        xb_new += (noise_scale * np.sqrt(dt)) * incr

    total = xb_new.sum(axis=0)
    bad = ~(np.abs(total - 1.0) <= SUM_TOL)
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise StepBlowupError(
            f"hyperplane violated by {total[col] - 1.0:.3e} on path "
            f"{paths[col]} at t={t[col]:.6g}, x={x[:, col]}"
        )
    t_new = t + dt
    advanced = t_new > t
    if not advanced.all():
        col = int(advanced.argmin())
        raise StepStallError(f"path {paths[col]} does not advance from t={t[col]:.6g}")
    xb_new /= total
    return xb_new, t_new


@dataclass
class DiffusionEnsemble:
    """Results of a batch of absorbed-diffusion paths; the config, the
    start and the path count are the caller's and are not echoed here.
    The face of a filled sample is its support, ``samples > 0``."""

    times: np.ndarray
    samples: np.ndarray | None  # (n_paths, T, L)
    sigma1: np.ndarray  # first absorption time per path (nan if none)
    trapped_vertex: np.ndarray  # site index, -1 if not trapped
    trapped_time: np.ndarray  # nan if not trapped
    t_cond: np.ndarray  # first time max coordinate >= 1 - cond_delta
    events: list  # per path: (time, surviving bitmask) per absorption, faces shrinking


def simplex_point(x0, size: int) -> np.ndarray:
    """``x0`` renormalised, if it lies on the simplex of ``size`` sites."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (size,) or not np.all(x0 >= 0):
        raise NonSimplexStartError("point must be a nonnegative vector on the simplex")
    if not abs(x0.sum() - 1.0) <= SUM_TOL:
        raise NonSimplexStartError(f"coordinates sum to {x0.sum()}, not 1")
    return x0 / x0.sum()


def simulate_diffusion_ensemble(
    config: DiffusionConfig, x0, n_paths: int
) -> DiffusionEnsemble:
    """Integrate ``n_paths`` paths of the absorbed diffusion from x0."""
    if not config.b > 1.0:
        warnings.warn("running the diffusion with b <= 1", stacklevel=2)
    chain = config.chain
    size = chain.size
    x0 = simplex_point(x0, size)
    live = LiveSet(n_paths, config.horizon, T_MAX, config.sample_times)
    faces = FaceTable(chain)

    n_samp = len(config.sample_times)
    cond_level = None if config.cond_delta is None else 1.0 - config.cond_delta

    sigma1 = np.full(n_paths, np.nan)
    trapped_vertex = np.full(n_paths, -1, dtype=np.int64)
    trapped_time = np.full(n_paths, np.nan)
    t_cond = np.full(n_paths, np.nan)
    events: list[list] = [[] for _ in range(n_paths)]
    samples = np.full((n_paths, n_samp, size), np.nan) if n_samp else None

    x = np.repeat(x0[:, None], n_paths, axis=1)  # (L, M): one column per live path
    masks = np.full(n_paths, mask_of(np.nonzero(x0 > 0)[0]), dtype=np.int64)

    # A drift-only run draws nothing.
    streams = None
    if config.noise_scale > 0:
        streams = PathStreams(
            derive_seed(config.seed, "diffusion"),
            n_paths,
            values_per_step=size,
            block=64,
            gaussian=True,
        )
    eta = MAX_RELATIVE_MOVE
    eps_guard = 10.0 * config.eps_abs
    # Per-face noise variance per unit time, one column per face.
    noise_var = np.ascontiguousarray((config.noise_scale**2 * faces.noise_diag).T)

    while True:
        # Observe: the state at t stands for the times in (t_prev, t]
        # (the start for t = 0 alone), never past the end; a trapped
        # vertex stands for the rest of the run.
        if cond_level is not None:
            crossed = (np.maximum.reduce(x, axis=0) >= cond_level) & np.isnan(t_cond[live.ids])
            t_cond[live.ids[crossed]] = live.t[crossed]
        trapped = (masks & (masks - 1)) == 0
        if n_samp:
            bound = np.nextafter(live.t, np.inf)
            bound[trapped] = live.end_bound
            cols, slots = live.due_samples(bound)
            samples[live.ids[cols], slots] = x[:, cols].T
        trapped_vertex[live.ids[trapped]] = faces.active[:, masks[trapped]].argmax(axis=0)
        trapped_time[live.ids[trapped]] = live.t[trapped]
        x, masks = live.retire(~trapped, x, masks)
        if not live.ids.size:
            break

        active, drift_vec = drift(faces, masks, x, chain.m, config.b)
        xa = np.where(active, x, np.inf)
        xmin = np.minimum.reduce(xa, axis=0)
        dt = config.dt_base * np.minimum(1.0, (xmin / eps_guard) ** 2)
        if config.dt_rule == "clamped":
            # Keep both |drift| dt and the noise std within a fraction
            # of every active coordinate: the quadratic rule alone does
            # not bound the relative move at desk-scale dt_base.  A zero
            # drift or noise entry divides to an infinite cap, and off
            # the face xa is infinite, so neither cap binds there.
            move = eta * xa
            with np.errstate(divide="ignore"):
                cap_d = np.minimum.reduce(move / np.abs(drift_vec), axis=0)
                cap_n = np.minimum.reduce(move**2 / noise_var.take(masks, axis=1), axis=0)
            dt = np.minimum(dt, np.minimum(cap_d, cap_n))
        # The last step ends on the end of the run.
        dt = np.minimum(dt, live.end - live.t)

        xi = None if streams is None else streams.take(live.ids)
        x, t = em_step(faces, masks, live.ids, x, live.t, drift_vec, dt, xi, config.noise_scale)
        # Below end/2 the gap end - t is rounded, so t + dt can land an
        # ulp past the end (clamped here) or short of it (one more step).
        live.t = np.minimum(t, live.end, out=t)

        # Absorption: coordinates at or below the threshold (including
        # negatives) are glued to zero; simultaneous hits allowed.  As
        # eps_abs < 1/L, every hit path keeps a coordinate.
        hit = (x <= config.eps_abs) & active
        cols = np.flatnonzero(np.logical_or.reduce(hit, axis=0))
        if cols.size:
            keep = active[:, cols] & ~hit[:, cols]
            x_hit = np.where(keep, x[:, cols], 0.0)
            x[:, cols] = x_hit / x_hit.sum(axis=0)
            masks[cols] = (1 << np.arange(size)) @ keep
            pids = live.ids[cols]
            first = np.isnan(sigma1[pids])
            sigma1[pids[first]] = t[cols[first]]
            for pid, t_hit, mask in zip(pids.tolist(), t[cols].tolist(), masks[cols].tolist()):
                events[pid].append((t_hit, mask))

    times = np.asarray(config.sample_times)
    ens = DiffusionEnsemble(times, samples, sigma1, trapped_vertex, trapped_time, t_cond, events)
    _check_outputs(config, ens)
    return ens


def _check_outputs(config: DiffusionConfig, ens: DiffusionEnsemble) -> None:
    """Raise OutputInvariantError unless every path has a trapping time
    exactly when it has a trapped vertex, and samples up to the run's
    end."""
    if np.any((ens.trapped_vertex >= 0) != np.isfinite(ens.trapped_time)):
        raise OutputInvariantError("trapped vertices and trapping times disagree")
    end = run_end(config.horizon, T_MAX)
    never = np.zeros(len(ens.sigma1), dtype=bool)
    check_samples(ens.samples, config.sample_times, end, never)


def drift_field(chain: ChainSpec, b: float, x: np.ndarray) -> np.ndarray:
    """Full-chain singular drift b sum_j 1{x_j > 0} (m_j / x_j) v_j.

    Vectorized over points of shape (..., L).  Intended for states
    whose coordinates are either exactly zero or macroscopic.
    """
    x = np.asarray(x, dtype=float)
    w = np.where(x > 0, chain.m / np.where(x > 0, x, 1.0), 0.0)
    return b * (w @ chain.generator)


def generator_apply(chain: ChainSpec, b: float, h, x: np.ndarray) -> np.ndarray:
    """Limit generator b(x) . grad H + Tr[a_s Hess H] at points x.

    ``h`` must expose ``derivatives(x) -> (grad, hess)``, the gradient
    of shape (..., L) and the Hessian of shape (..., L, L) at points of
    shape (..., L) (see :class:`condensim.bumps.BumpFunction`).
    """
    x = np.asarray(x, dtype=float)
    grad, hess = h.derivatives(x)
    a_s = dirichlet_matrix(chain)
    first = (drift_field(chain, b, x) * grad).sum(axis=-1)
    second = np.einsum("jk,...jk->...", a_s, hess)
    return first + second
