"""Shared test chains, generators of randomized irreducible chains, a
Monte-Carlo estimate of the trace rates, and a runner for scripts in a
fresh interpreter."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from condensim.chain import ChainSpec, _normalize_subset, validate_chain
from condensim.errors import MismatchedChainsError

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
