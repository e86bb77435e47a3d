"""Shared test chains, generators of randomized irreducible chains, a
Monte-Carlo estimate of the trace rates, the generator Taylor residual
on the 1/N lattice, a runner for scripts in a fresh interpreter,
point-by-point references for the verification lattices, and a check of
diffusion samples against the faces their absorption events give."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from condensim.bumps import BumpFunction
from condensim.chain import ChainSpec, _normalize_subset, validate_chain
from condensim.diffusion import generator_apply
from condensim.errors import ConfigRangeError, MismatchedChainsError
from condensim.experiments import GRID_POINTS
from condensim.zrp import ZrpConfig, _g_table, zrp_generator_apply

# Complete graph on three sites, unit rates; m is uniform by symmetry.
K3_RATES = np.array(
    [
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]
)

# Non-reversible three-site chain with all rates distinct.
ASYM3_RATES = np.array(
    [
        [0.0, 2.0, 1.0],
        [1.0, 0.0, 3.0],
        [2.0, 1.0, 0.0],
    ]
)

# Directed 3-cycle with distinct rates; invariant measure proportional
# to the inverse rate around the ring.
CYCLE3_RATES = np.array(
    [
        [0.0, 2.0, 0.0],
        [0.0, 0.0, 1.0],
        [3.0, 0.0, 0.0],
    ]
)

# Complete graph on four sites, unit rates.
K4_RATES = np.ones((4, 4)) - np.eye(4)

# Asymmetric four-site chain (strongly connected, non-reversible).
ASYM4_RATES = np.array(
    [
        [0.0, 2.0, 0.5, 0.0],
        [0.3, 0.0, 1.5, 0.7],
        [1.1, 0.2, 0.0, 0.9],
        [0.4, 1.3, 0.0, 0.0],
    ]
)


def k3() -> ChainSpec:
    return validate_chain(K3_RATES)


def asym3() -> ChainSpec:
    return validate_chain(ASYM3_RATES)


def cycle3() -> ChainSpec:
    return validate_chain(CYCLE3_RATES)


def k4() -> ChainSpec:
    return validate_chain(K4_RATES)


def asym4() -> ChainSpec:
    return validate_chain(ASYM4_RATES)


def ring(size: int) -> ChainSpec:
    """Non-reversible ring, the benchmark's chain at 8 sites:
    i -> i+1 at 1.0 + 0.2 (i mod 5), i+1 -> i at 0.5 + 0.1 (i mod 4),
    and a chord i -> i + size//2 at 0.3 + 0.1 (i mod 3) from every
    even site."""
    rates = np.zeros((size, size))
    for i in range(size):
        rates[i, (i + 1) % size] = 1.0 + 0.2 * (i % 5)
        rates[(i + 1) % size, i] = 0.5 + 0.1 * (i % 4)
        if i % 2 == 0:
            rates[i, (i + size // 2) % size] = 0.3 + 0.1 * (i % 3)
    return validate_chain(rates)


def paths_off_their_faces(ens, start_face: int) -> list[int]:
    """The paths of a diffusion ensemble with a filled sample off the
    face that its absorption events give.

    A sample at grid time s is the state at the first step time t >= s,
    so its face is the one after the events before s, or after one more
    event at t.  The faces come from ``start_face`` (a bitmask) and the
    events alone.  Each filled sample must have one of those two faces
    as its support and no negative coordinate, so it is exactly 0 off
    its face; and a path's samples never gain a site.
    """
    samples = ens.samples
    filled = ~np.isnan(samples).any(axis=2)
    support = (samples > 0) @ (1 << np.arange(samples.shape[2]))
    bad = []
    for i, events in enumerate(ens.events):
        faces = [start_face, *(mask for _, mask in events)]
        faces = np.array(faces + faces[-1:])
        before = np.searchsorted([t for t, _ in events], ens.times[filled[i]], side="left")
        s = support[i, filled[i]]
        on_face = np.all((s == faces[before]) | (s == faces[before + 1]))
        gained = np.any(s[1:] & ~s[:-1])
        if not on_face or gained or np.any(samples[i, filled[i]] < 0):
            bad.append(i)
    return bad


def random_irreducible_chain(rng: np.random.Generator, size: int) -> ChainSpec:
    """Random chain: a directed cycle (guaranteeing irreducibility) plus
    a random sprinkling of extra edges, with rates in [0.2, 2.2)."""
    r = np.zeros((size, size))
    order = rng.permutation(size)
    for i in range(size):
        r[order[i], order[(i + 1) % size]] = 0.2 + 2.0 * rng.random()
    extra = rng.random((size, size)) < 0.5
    np.fill_diagonal(extra, False)
    r = np.where(extra & (r == 0), 0.2 + 2.0 * rng.random((size, size)), r)
    return validate_chain(r)


def all_subsets_with_at_least(size: int, k: int):
    """All subsets of range(size) with at least k elements, as tuples."""
    out = []
    for mask in range(1, 2**size):
        subset = tuple(j for j in range(size) if mask >> j & 1)
        if len(subset) >= k:
            out.append(subset)
    return out


def run_python(script: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, timeout=timeout,
        capture_output=True, text=True,
    )


@dataclass(frozen=True)
class TraceRateEstimate:
    """Excursion-simulation estimate of one row of the trace rates."""

    j: int
    targets: tuple[int, ...]
    rates: np.ndarray
    stderr: np.ndarray
    n_excursions: int


def trace_rate_mc(
    chain: ChainSpec, B, j: int, n_excursions: int, seed: int
) -> TraceRateEstimate:
    """Estimate r^B(j, .) = lambda(j) P_j[return to B lands at .].

    Simulates the embedded jump chain from j until it hits B again and
    tallies the landing site; completely independent of the harmonic
    linear solve it cross-checks.  Landing back at j itself is a
    non-event of the trace chain and contributes to no target.
    """
    bset = _normalize_subset(chain.size, B)
    if j not in bset:
        raise MismatchedChainsError(f"start site {j} not in subset {bset}")
    rng = np.random.default_rng(seed)
    cum = (chain.rates / chain.holding[:, None]).cumsum(axis=1)
    cum /= cum[:, -1:]  # u < 1 always selects a real edge
    in_b = np.zeros(chain.size, dtype=bool)
    in_b[list(bset)] = True

    landed = np.full(n_excursions, -1, dtype=np.int64)
    # First jump away from j, then run until the walk is back in B.
    state = (cum[j][None, :] >= rng.random(n_excursions)[:, None]).argmax(axis=1)
    active = np.arange(n_excursions)
    while active.size:
        arrived = in_b[state]
        if arrived.any():
            landed[active[arrived]] = state[arrived]
            active = active[~arrived]
            state = state[~arrived]
        if not active.size:
            break
        u = rng.random(active.size)
        state = (cum[state] >= u[:, None]).argmax(axis=1)

    others = tuple(k for k in bset if k != j)
    lam = chain.holding[j]
    p_hat = np.array([(landed == k).mean() for k in others])
    stderr = lam * np.sqrt(p_hat * (1.0 - p_hat) / n_excursions)
    return TraceRateEstimate(
        j=j,
        targets=others,
        rates=lam * p_hat,
        stderr=stderr,
        n_excursions=n_excursions,
    )


def reference_region_grid(size: int, B, eps: float, a0: float, resolution: int):
    """The sign certificate's grid built point by point: the array
    builder in ``experiments.superharmonic_region_grid`` must give
    these rows, in this order, bit for bit."""
    bset = _normalize_subset(size, B)
    aset = tuple(j for j in range(size) if j not in bset)
    a_axis = a0 * eps * np.arange(1, resolution + 1) / resolution
    points = []
    n_b = len(bset)
    for xa in itertools.product(a_axis, repeat=len(aset)):
        mass = 1.0 - sum(xa)
        if mass < n_b * eps:
            continue
        for xb_free in _simplex_grid(mass, n_b, eps, resolution):
            x = np.zeros(size)
            x[list(aset)] = xa
            x[list(bset)] = xb_free
            points.append(x)
    return np.asarray(points)


def _simplex_grid(mass: float, n: int, floor: float, resolution: int):
    """Points of the (n-1)-simplex of given total mass with every
    coordinate at least ``floor``."""
    if n == 1:
        yield (mass,)
        return
    top = mass - (n - 1) * floor
    for v in np.linspace(floor, top, resolution):
        for rest in _simplex_grid(mass - v, n - 1, floor, resolution):
            yield (v,) + rest


def _lattice_points(size: int, n: int) -> np.ndarray:
    """Every point of the 1/n lattice of the simplex, in stars-and-bars
    order: the parts between size - 1 bars among n + size - 1 slots."""
    bars = np.array(list(itertools.combinations(range(n + size - 1), size - 1)))
    bars = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + size - 1))
    return (np.diff(bars) - 1) / n


def generator_taylor_residual(
    chain: ChainSpec,
    b: float,
    h: BumpFunction,
    n_list,
) -> dict[int, float]:
    """Max Taylor residual of the particle generator against the limit.

    For each N, the maximum over all points of the 1/N lattice of

        | L_N H - L H - (1/2) sum_j (g_j(N x_j) - m_j) Delta_j H |,

    which must vanish as N grows for test functions supported in the
    open simplex.  Every N is checked, and its lattice of
    C(N + L - 1, L - 1) points held to ``GRID_POINTS``, before any
    point is built.
    """
    configs = [
        ZrpConfig(chain=chain, n_particles=n, b=b, seed=0) for n in n_list
    ]
    for config in configs:
        n = config.n_particles
        count = math.comb(n + chain.size - 1, chain.size - 1)
        if count > GRID_POINTS:
            raise ConfigRangeError(
                f"N = {n} on {chain.size} sites has {count} lattice points, "
                f"above the cap of {GRID_POINTS}"
            )
    out = {}
    hd_idx = np.arange(chain.size)
    for config in configs:
        n = int(config.n_particles)
        pts = _lattice_points(chain.size, n)
        ln_h = zrp_generator_apply(config, h, pts)
        l_h = generator_apply(chain, b, h, pts)
        _, hess = h.derivatives(pts)
        hdiag = hess[..., hd_idx, hd_idx]
        # Delta_j H = sum_k r(j,k) (H_kk - 2 H_jk + H_jj)
        delta = (
            chain.rates[None, :, :]
            * (hdiag[:, None, :] - 2 * hess + hdiag[:, :, None])
        ).sum(axis=2)
        table = _g_table(chain, b, 0.0, n)
        eta = np.rint(pts * n).astype(np.int64)
        g = table.T[eta, hd_idx]
        correction = 0.5 * ((g - chain.m) * delta).sum(axis=1)
        out[n] = float(np.abs(ln_h - l_h - correction).max())
    return out


def reference_lattice_points(size: int, n: int) -> np.ndarray:
    """The 1/n simplex lattice built point by point, in the order of
    ``_lattice_points``."""
    pts = []
    for combo in itertools.combinations(range(n + size - 1), size - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n + size - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / n
