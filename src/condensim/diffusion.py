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
recursively, until a single vertex remains.

The ensemble engine steps all paths in lockstep with numpy; every path
consumes L gaussians per step from its own counter-based stream, so
trajectories are reproducible per (config, seed, path index)
regardless of batching.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, dirichlet_matrix, trace_rates
from .errors import (
    ConfigRangeError,
    NonSimplexStartError,
    SingularSystemError,
    StepBlowupError,
    ZeroCoordinateError,
)
from .rng import PathStreams, check_window, derive_seed, due_samples

# Hyperplane drift tolerance: increments sum to zero analytically, so
# any larger deviation signals a step-size blowup.
SUM_TOL = 1e-9
# Maximum relative coordinate move per step allowed by the clamped rule.
MAX_RELATIVE_MOVE = 0.25


@dataclass(frozen=True)
class DiffusionConfig:
    """Parameters of the absorbed-diffusion integrator.

    ``horizon=None`` runs every path to its trapped vertex (capped at
    ``t_max``).  ``noise_scale=0`` turns the engine into a drift-only
    ODE integrator for deterministic cross-checks.  ``cond_delta``
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
    dt_rule: str = "clamped"  # "clamped" | "quadratic"
    horizon: float | None = None
    t_max: float = 100.0
    sample_times: tuple[float, ...] = ()
    cond_delta: float | None = None
    allow_small_b: bool = False

    def __post_init__(self):
        if not self.dt_base > 0:
            raise ConfigRangeError("dt_base must be positive")
        if not 0 < self.eps_abs < 0.1:
            raise ConfigRangeError("eps_abs must be a small positive threshold")
        if not 0.0 <= self.noise_scale <= 1.0:
            raise ConfigRangeError("noise_scale must be in [0, 1]")
        if self.dt_rule not in ("clamped", "quadratic"):
            raise ConfigRangeError(f"unknown dt rule {self.dt_rule!r}")
        times = check_window(self.horizon, self.t_max, self.sample_times)
        object.__setattr__(self, "sample_times", times)
        if not self.b > 1.0:
            if not self.allow_small_b:
                raise ConfigRangeError(
                    "b <= 1 gives a diffusion that is not expected to be "
                    "absorbed; pass allow_small_b=True to experiment anyway"
                )
            warnings.warn("running the diffusion with b <= 1", stacklevel=2)

    @property
    def eps_guard(self) -> float:
        return 10.0 * self.eps_abs


class FaceTable:
    """Dense per-face drift and noise data for the ensemble engine.

    Index by bitmask of the active set (bit j <-> site j).  ``noise_f``
    holds one L x L noise factor F per face: F F^T = 2 a_s^B on the
    face, the rows off the face are zero and every column sums to zero,
    so the noise F xi stays on the face and on the hyperplane.
    ``noise_diag`` is the diagonal of 2 a_s^B.  Faces with fewer than
    two sites stay zero; a trapped path never gathers them.
    """

    def __init__(self, chain: ChainSpec):
        if chain.size > 12:
            raise ConfigRangeError("ensemble engine precomputes 2^L faces; L > 12 unsupported")
        size = chain.size
        n_masks = 1 << size
        self.drift_v = np.zeros((n_masks, size, size))
        self.noise_f = np.zeros((n_masks, size, size))
        self.noise_diag = np.zeros((n_masks, size))
        self.active = np.zeros((n_masks, size), dtype=bool)
        self.popcount = np.zeros(n_masks, dtype=np.int64)
        for mask in range(1, n_masks):
            members = [j for j in range(size) if mask >> j & 1]
            self.active[mask, members] = True
            self.popcount[mask] = len(members)
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
    """Restricted drift b * sum_{j in B} (m_j / x_j) v^B_j, one row per path.

    Row ``p`` is on the face ``masks[p]`` at the full-length point
    ``x[p]``.  Returns the (M, L) active-set indicator and the (M, L)
    drift, which is zero off the active set and sums to zero along each
    row because every v^B_j does.  Raises ZeroCoordinateError when an
    active coordinate is not strictly positive (a missed absorption).
    """
    active = faces.active[masks]  # (M, L)
    if not np.all(x[active] > 0):
        raise ZeroCoordinateError("zero coordinate inside an active set")
    vv = faces.drift_v[masks]  # (M, L, L)
    w = np.where(active, m / np.where(active, x, 1.0), 0.0)
    return active, b * np.einsum("pj,pjk->pk", w, vv)


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
    """One explicit Euler-Maruyama step per row; absorption is NOT applied.

    The increment is drift_vec * dt + sqrt(dt) * noise, where the noise
    of row ``p`` is F xi[p] with F = noise_f of its face (so
    F F^T = 2 a_s^B) and ``xi`` of shape (M, L) holding L standard
    gaussians per row; ``xi`` is unused when ``noise_scale`` is 0.
    ``paths`` names the rows in errors.  Returns the renormalized points
    and t + dt.  The points may carry negative coordinates; absorption
    detection owns their handling.  Raises StepBlowupError when a row
    leaves the hyperplane beyond tolerance (or turns NaN), which signals
    dt too large near the singular drift.
    """
    xb_new = x + drift_vec * dt[:, None]
    if noise_scale > 0:
        incr = np.einsum("pjk,pk->pj", faces.noise_f[masks], xi)
        xb_new = xb_new + (noise_scale * np.sqrt(dt))[:, None] * incr

    total = xb_new.sum(axis=1)
    bad = ~(np.abs(total - 1.0) <= SUM_TOL)
    if bad.any():
        row = int(np.nonzero(bad)[0][0])
        raise StepBlowupError(
            f"hyperplane violated by {total[row] - 1.0:.3e} on path "
            f"{paths[row]} at t={t[row]:.6g}, x={x[row]}"
        )
    return xb_new / total[:, None], t + dt


@dataclass
class DiffusionEnsemble:
    """Results of a batch of absorbed-diffusion paths."""

    config: DiffusionConfig
    x0: np.ndarray
    n_paths: int
    times: np.ndarray
    samples: np.ndarray | None  # (n_paths, T, L)
    sample_masks: np.ndarray | None  # (n_paths, T) active-set bitmasks
    sigma1: np.ndarray  # first absorption time per path (nan if none)
    trapped_vertex: np.ndarray  # site index, -1 if not trapped
    trapped_time: np.ndarray  # nan if not trapped
    t_cond: np.ndarray  # first time max coordinate >= 1 - cond_delta
    events: list  # per path: (time, surviving bitmask) per absorption, faces shrinking


def simulate_diffusion_ensemble(
    config: DiffusionConfig, x0, n_paths: int
) -> DiffusionEnsemble:
    """Integrate ``n_paths`` paths of the absorbed diffusion from x0."""
    chain = config.chain
    size = chain.size
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (size,) or not np.all(x0 >= 0):
        raise NonSimplexStartError("point must be a nonnegative vector on the simplex")
    if not abs(x0.sum() - 1.0) <= SUM_TOL:
        raise NonSimplexStartError(f"coordinates sum to {x0.sum()}, not 1")
    x0 = x0 / x0.sum()
    faces = FaceTable(chain)
    mask0 = int(sum(1 << int(j) for j in np.nonzero(x0 > 0)[0]))

    sample_times = np.asarray(config.sample_times, dtype=float)
    n_samp = sample_times.size
    grid = np.append(sample_times, np.inf)
    end_time = config.t_max if config.horizon is None else config.horizon
    end_bound = np.nextafter(end_time, np.inf)  # the end is inclusive
    cond_level = None if config.cond_delta is None else 1.0 - config.cond_delta

    sigma1 = np.full(n_paths, np.nan)
    trapped_vertex = np.full(n_paths, -1, dtype=np.int64)
    trapped_time = np.full(n_paths, np.nan)
    t_cond = np.full(n_paths, np.nan)
    events: list[list] = [[] for _ in range(n_paths)]
    samples = np.full((n_paths, n_samp, size), np.nan) if n_samp else None
    sample_masks = np.zeros((n_paths, n_samp), dtype=np.int64) if n_samp else None

    ids = np.arange(n_paths)
    x = np.tile(x0, (n_paths, 1))
    t = np.zeros(n_paths)
    masks = np.full(n_paths, mask0, dtype=np.int64)
    next_samp = np.zeros(n_paths, dtype=np.int64)

    if cond_level is not None and x0.max() >= cond_level:
        t_cond[:] = 0.0

    at_vertex = faces.popcount[mask0] == 1
    if n_samp:
        # The start stands for t = 0, and a vertex start for the whole run.
        n_start = np.searchsorted(sample_times, end_time if at_vertex else 0.0, side="right")
        samples[:, :n_start] = x0
        sample_masks[:, :n_start] = mask0
        next_samp[:] = n_start
    if at_vertex:
        # Started at a vertex: trapped forever at time zero.
        trapped_vertex[:] = mask0.bit_length() - 1
        trapped_time[:] = 0.0
        return DiffusionEnsemble(
            config, x0, n_paths, sample_times, samples, sample_masks,
            sigma1, trapped_vertex, trapped_time, t_cond, events,
        )

    streams = PathStreams(
        derive_seed(config.seed, "diffusion"),
        n_paths,
        values_per_step=size,
        block=64,
        gaussian=True,
    )
    eta = MAX_RELATIVE_MOVE
    eps_guard = config.eps_guard
    ns2 = config.noise_scale**2

    while ids.size:
        active, drift_vec = drift(faces, masks, x, chain.m, config.b)
        xa = np.where(active, x, np.inf)
        xmin = xa.min(axis=1)
        dt = config.dt_base * np.minimum(1.0, (xmin / eps_guard) ** 2)
        if config.dt_rule == "clamped":
            # Keep both |drift| dt and the noise std within a fraction
            # of every active coordinate: the quadratic rule alone does
            # not bound the relative move at desk-scale dt_base.  A zero
            # drift or noise entry divides to an infinite cap, and off
            # the face xa is infinite, so neither cap binds there.
            with np.errstate(divide="ignore"):
                cap_d = (eta * xa / np.abs(drift_vec)).min(axis=1)
                cap_n = ((eta * xa) ** 2 / (ns2 * faces.noise_diag[masks])).min(axis=1)
            dt = np.minimum(dt, np.minimum(cap_d, cap_n))

        xi = None
        if config.noise_scale > 0:
            xi = streams.take(ids)
        x_new, t_new = em_step(
            faces, masks, ids, x, t, drift_vec, dt, xi, config.noise_scale
        )

        # Absorption: coordinates at or below the threshold (including
        # negatives) are glued to zero; simultaneous hits allowed.
        hit = (x_new <= config.eps_abs) & active
        hit_rows = np.nonzero(hit.any(axis=1))[0]
        for row in hit_rows:
            keep = active[row] & ~hit[row]
            new_mask = int(sum(1 << j for j in np.nonzero(keep)[0]))
            x_new[row, ~keep] = 0.0
            rem = x_new[row, keep].sum()
            x_new[row, keep] /= rem
            pid = int(ids[row])
            events[pid].append((float(t_new[row]), new_mask))
            if np.isnan(sigma1[pid]):
                sigma1[pid] = t_new[row]
            masks[row] = new_mask

        if cond_level is not None:
            crossed = (x_new.max(axis=1) >= cond_level) & np.isnan(t_cond[ids])
            if crossed.any():
                t_cond[ids[crossed]] = t_new[crossed]

        trapped = faces.popcount[masks] == 1
        if n_samp:
            # The post-step state stands for times in (t, t_new], never
            # past the end; a trapped vertex stands for the rest of it.
            bound = np.nextafter(np.minimum(t_new, end_time), np.inf)
            bound[trapped] = end_bound
            rows, slots = due_samples(grid, next_samp, bound)
            samples[ids[rows], slots] = x_new[rows]
            sample_masks[ids[rows], slots] = masks[rows]

        if trapped.any():
            for row in np.nonzero(trapped)[0]:
                pid = int(ids[row])
                trapped_vertex[pid] = int(masks[row]).bit_length() - 1
                trapped_time[pid] = t_new[row]
                if np.isnan(t_cond[pid]) and cond_level is not None:
                    t_cond[pid] = t_new[row]

        retire = trapped | (t_new >= end_time)
        x = x_new
        t = t_new
        if retire.any():
            keep = ~retire
            ids = ids[keep]
            x = x[keep]
            t = t[keep]
            masks = masks[keep]
            next_samp = next_samp[keep]

    return DiffusionEnsemble(
        config, x0, n_paths, sample_times, samples, sample_masks,
        sigma1, trapped_vertex, trapped_time, t_cond, events,
    )


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
