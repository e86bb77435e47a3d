"""Statistical verification harness.

Cross-engine convergence functionals (winner distributions, absorption
and condensation times), the expected-hitting-time bound, the
super-harmonicity sign certificate, generator Taylor diagnostics, and
martingale residuals.  Everything here reduces ensembles produced by
the engines; nothing re-simulates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bumps import BumpFunction, hole_product
from .chain import (
    ChainSpec,
    _normalize_subset,
    dirichlet_matrix,
    hitting_diagonal_min,
    superharmonic_radius,
    subset_complement,
)
from .diffusion import generator_apply
from .errors import (
    BadExponentsError,
    ConfigRangeError,
    EmptyRegionError,
    IncompletePathError,
    MismatchedChainsError,
)
from .zrp import ZrpConfig, zrp_generator_apply

# Sample points per generator call in ``martingale_residual``.  Smaller
# blocks speed the diffusion generator and slow the ZRP's, which does its
# work once per distinct point in a call.  On 1000 x 151 K3 samples and
# the three standard bumps (2-vCPU x86 host) 32k gives the least total:
# 0.21 s against 0.27 s in one call, with peaks of 8 MB instead of 34 MB.
GENERATOR_BLOCK_POINTS = 32_768


def _mean_stderr(values) -> tuple[float, float, int]:
    """Sample mean, its standard error (NaN below two values) and the count."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, float("nan"), n
    m2 = float(((values - mean) ** 2).sum())
    var = m2 / (n - 1)
    return mean, float(np.sqrt(var / n)), n


@dataclass(frozen=True)
class WinnerHistogram:
    """Tally of final sites (trapped vertices or condensation winners)."""

    counts: np.ndarray
    total: int
    engine: str
    chain_id: str = ""


def winner_distribution(
    winners, size: int, engine: str = "", chain_id: str = ""
) -> WinnerHistogram:
    """Tally winners; every path must have reached its stopping rule."""
    w = np.asarray(winners)
    if w.size == 0:
        raise IncompletePathError("no paths to tally")
    if np.any(~np.isfinite(w.astype(float))) or np.any(w < 0) or np.any(w >= size):
        raise IncompletePathError("some paths did not reach their stopping rule")
    counts = np.bincount(w.astype(np.int64), minlength=size)
    return WinnerHistogram(counts=counts, total=int(w.size), engine=engine, chain_id=chain_id)


@dataclass(frozen=True)
class WinnerComparison:
    tv: float
    tv_stderr: float
    chi2: float
    dof: int
    pvalue: float


def compare_winner(h1: WinnerHistogram, h2: WinnerHistogram) -> WinnerComparison:
    """Total-variation distance and a two-sample chi-square test."""
    # chdtrc is the chi-square tail behind scipy.stats.chi2.sf; importing
    # scipy.special here keeps it off the import path of every other command.
    from scipy.special import chdtrc

    if h1.counts.shape != h2.counts.shape:
        raise MismatchedChainsError("histograms cover different site sets")
    if h1.chain_id and h2.chain_id and h1.chain_id != h2.chain_id:
        raise MismatchedChainsError("histograms come from different chains")
    p = h1.counts / h1.total
    q = h2.counts / h2.total
    tv = 0.5 * float(np.abs(p - q).sum())
    se = 0.5 * float(
        np.sqrt((p * (1 - p) / h1.total + q * (1 - q) / h2.total).sum())
    )
    both = h1.counts + h2.counts
    cells = both > 0
    n1, n2 = h1.total, h2.total
    e1 = both[cells] * n1 / (n1 + n2)
    e2 = both[cells] * n2 / (n1 + n2)
    chi2 = float(
        ((h1.counts[cells] - e1) ** 2 / e1).sum()
        + ((h2.counts[cells] - e2) ** 2 / e2).sum()
    )
    dof = int(cells.sum()) - 1
    pvalue = float(chdtrc(dof, chi2)) if dof > 0 else 1.0
    return WinnerComparison(tv=tv, tv_stderr=se, chi2=chi2, dof=dof, pvalue=pvalue)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    The supremum is the exact fraction max |c_a n_b - c_b n_a| / (n_a n_b)
    over the pooled sample, with c the counts at or below each point,
    rounded once to a float: the value scipy's ``ks_2samp`` returns in
    its exact mode (up to 10,000 values per sample).
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if not (a.size and b.size):
        raise IncompletePathError("KS input is empty")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # a sort puts NaN last
        raise IncompletePathError("KS input contains unfinished paths")
    pooled = np.concatenate([a, b])
    n_a, n_b = a.size, b.size
    gap = np.searchsorted(a, pooled, side="right") * n_b
    gap -= np.searchsorted(b, pooled, side="right") * n_a
    g = math.gcd(n_a, n_b)
    return (int(np.abs(gap).max()) // g) / (n_a // g * n_b)


@dataclass(frozen=True)
class HittingBoundCheck:
    """Empirical check of the expected-hitting-time bound.

    The bound |B|^((q-1) v 1) / ((q+1)(q-b) d(B)) must dominate the
    sample mean of the first absorption time within confidence noise;
    d(B) scales with the normalization of m, which the engines and the
    bound share.
    """

    chain_id: str
    B: tuple[int, ...]
    b: float
    q: float
    d_B: float
    bound: float
    empirical_mean_sigma1: float
    ci_halfwidth: float
    n_samples: int
    violated: bool


def hitting_bound_check(
    chain: ChainSpec, B, b: float, q: float, sigma1_samples
) -> HittingBoundCheck:
    if not q > b:
        raise BadExponentsError(f"need q > b, got q={q}, b={b}")
    samples = np.asarray(sigma1_samples, dtype=float)
    if samples.size == 0 or np.any(np.isnan(samples)):
        raise IncompletePathError("sigma1 samples missing or unfinished")
    bset = _normalize_subset(chain.size, B)
    d_b = hitting_diagonal_min(chain, bset)
    size_b = len(bset)
    bound = size_b ** max(q - 1.0, 1.0) / ((q + 1.0) * (q - b) * d_b)
    mean, stderr, n = _mean_stderr(samples)
    ci = 1.96 * stderr
    return HittingBoundCheck(
        chain_id=chain.fingerprint(),
        B=bset,
        b=b,
        q=q,
        d_B=d_b,
        bound=bound,
        empirical_mean_sigma1=mean,
        ci_halfwidth=ci,
        n_samples=n,
        # NaN-safe: one sample has no confidence interval and fails.
        violated=not (mean - ci <= bound),
    )


def superharmonic_expression(
    chain: ChainSpec, B, b: float, p: float, points: np.ndarray
) -> np.ndarray:
    """Generator applied to the complement-coordinate monomial, in the
    three-term closed form, divided by p + 1.

    The monomial is the product of the complement (A = B^c) coordinates
    raised to p + 1; it is super-harmonic for the limit generator on
    the certified region, which is what the sign check exploits.  All
    quotients monomial / x_k and monomial / x_k^2 are evaluated through
    exponent algebra, so points with vanishing complement coordinates
    give exact zeros.  Coordinates in B must be strictly positive.
    """
    bset = _normalize_subset(chain.size, B)
    aset = subset_complement(chain.size, bset)
    if not aset:
        raise EmptyRegionError("B must be a proper subset")
    x = np.atleast_2d(np.asarray(points, dtype=float))
    xa = x[:, aset]  # (P, |A|)
    xb = x[:, bset]
    if np.any(xb <= 0):
        raise EmptyRegionError("points must keep the B coordinates positive")

    a_s = dirichlet_matrix(chain)
    m = chain.m
    pow_p1 = xa ** (p + 1.0)
    # prod_{l != k} x_l^{p+1}, per k
    hole1 = np.stack([hole_product(pow_p1, k) for k in range(len(aset))], axis=-1)

    # term3: -(b - p) sum_{k in A} M_k x_k^{p-1} prod_{l != k} x_l^{p+1}
    m_diag = chain.embedded_weights[list(aset)]
    term3 = -(b - p) * ((xa ** (p - 1.0)) * hole1 * m_diag).sum(axis=1)

    # term2: + b sum_{k in A, j in B} m_j r(j,k) x_k^p prod_{l != k} x_l^{p+1} / x_j
    cross = (m[list(bset), None] * chain.rates[np.ix_(bset, aset)])  # (|B|, |A|)
    fac_k = (xa**p) * hole1  # (P, |A|)
    term2 = b * np.einsum("pk,jk,pj->p", fac_k, cross, 1.0 / xb)

    # term1: -(p+1-b) sum_{j != k in A} <S e_j, e_k>_m x_j^p x_k^p prod_{l != j,k} x_l^{p+1}
    term1 = np.zeros(x.shape[0])
    n_a = len(aset)
    if n_a >= 2:
        s_od = -a_s[np.ix_(aset, aset)]  # <S e_j, e_k>_m off-diagonal
        for ji, ki in itertools.permutations(range(n_a), 2):
            prod = hole_product(pow_p1, ji, ki)
            term1 -= (p + 1.0 - b) * s_od[ji, ki] * (xa[:, ji] ** p) * (xa[:, ki] ** p) * prod
    out = term1 + term2 + term3
    return out if np.asarray(points).ndim > 1 else out[0]


def superharmonic_region_grid(
    chain: ChainSpec, B, eps: float, a0: float, resolution: int
) -> np.ndarray:
    """Lattice filling the certified region: complement coordinates in
    (0, a0*eps], active coordinates at least eps, total mass one."""
    if resolution < 2:
        raise EmptyRegionError("need at least two grid points per axis")
    bset = _normalize_subset(chain.size, B)
    aset = subset_complement(chain.size, bset)
    if not aset:
        raise EmptyRegionError("B must be a proper subset")
    a_axis = a0 * eps * np.arange(1, resolution + 1) / resolution
    points = []
    n_b = len(bset)
    for xa in itertools.product(a_axis, repeat=len(aset)):
        mass = 1.0 - sum(xa)
        if mass < n_b * eps:
            continue
        for xb_free in _simplex_grid(mass, n_b, eps, resolution):
            x = np.zeros(chain.size)
            x[list(aset)] = xa
            x[list(bset)] = xb_free
            points.append(x)
    if not points:
        raise EmptyRegionError(
            f"no grid points: eps={eps}, a0={a0}, resolution={resolution}"
        )
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


@dataclass(frozen=True)
class SuperharmonicReport:
    """Sign certificate of the super-harmonicity expression on a grid."""

    chain_id: str
    B: tuple[int, ...]
    b: float
    p: float
    eps: float
    a0: float
    resolution: int
    n_points: int
    max_value: float
    argmax: tuple[float, ...]


def superharmonic_sign_check(
    chain: ChainSpec, B, b: float, p: float, eps: float, resolution: int = 50
) -> SuperharmonicReport:
    """Evaluate the closed-form expression over the certified region.

    The sign guarantee needs the full exponent chain 1 < p < b < p + 1;
    the maximum over the grid is reported, not asserted.
    """
    if not (1.0 < p < b < p + 1.0):
        raise BadExponentsError(f"need 1 < p < b < p + 1, got p={p}, b={b}")
    bset = _normalize_subset(chain.size, B)
    a0 = superharmonic_radius(chain, bset, b, p)
    grid = superharmonic_region_grid(chain, bset, eps, a0, resolution)
    values = superharmonic_expression(chain, bset, b, p, grid)
    imax = int(values.argmax())
    return SuperharmonicReport(
        chain_id=chain.fingerprint(),
        B=bset,
        b=b,
        p=p,
        eps=eps,
        a0=a0,
        resolution=resolution,
        n_points=grid.shape[0],
        max_value=float(values[imax]),
        argmax=tuple(grid[imax]),
    )


def _lattice_points(
    size: int, n: int, max_points: int, seed: int
) -> np.ndarray:
    """Lattice of occupation fractions: exhaustive when small enough,
    otherwise a seeded uniform-ish sample (rounded Dirichlet draws)."""
    from math import comb

    count = comb(n + size - 1, size - 1)
    if count <= max_points:
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
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(size), size=max_points) * n
    base = np.floor(raw).astype(np.int64)
    short = n - base.sum(axis=1)
    order = np.argsort(base - raw, axis=1)  # largest remainders first
    for i in range(base.shape[0]):
        base[i, order[i, : short[i]]] += 1
    return base.astype(float) / n


def generator_taylor_residual(
    chain: ChainSpec,
    b: float,
    h: BumpFunction,
    n_list,
    g_family: str = "default",
    g_correction: float = 0.0,
    max_points: int = 50_000,
    seed: int = 0,
) -> dict[int, float]:
    """Max Taylor residual of the particle generator against the limit.

    For each N, the maximum over lattice points of

        | L_N H - L H - (1/2) sum_j (g_j(N x_j) - m_j) Delta_j H |,

    which must vanish as N grows for test functions supported in the
    open simplex.
    """
    from .zrp import _g_table

    out = {}
    hd_idx = np.arange(chain.size)
    for n in n_list:
        pts = _lattice_points(chain.size, int(n), max_points, seed)
        config = ZrpConfig(chain=chain, n_particles=int(n), b=b, seed=0,
                           g_family=g_family, g_correction=g_correction)
        ln_h = zrp_generator_apply(config, h, pts)
        l_h = generator_apply(chain, b, h, pts)
        _, hess = h.derivatives(pts)
        hdiag = hess[..., hd_idx, hd_idx]
        # Delta_j H = sum_k r(j,k) (H_kk - 2 H_jk + H_jj)
        delta = (
            chain.rates[None, :, :]
            * (hdiag[:, None, :] - 2 * hess + hdiag[:, :, None])
        ).sum(axis=2)
        table = _g_table(chain, b, g_family, g_correction, int(n))
        eta = np.rint(pts * n).astype(np.int64)
        g = table.T[eta, hd_idx]
        correction = 0.5 * ((g - chain.m) * delta).sum(axis=1)
        out[int(n)] = float(np.abs(ln_h - l_h - correction).max())
    return out


@dataclass(frozen=True)
class MartingaleResidual:
    mean: float
    stderr: float
    n_paths: int

    @property
    def within(self) -> float:
        """|mean| in units of the standard error."""
        return abs(self.mean) / self.stderr if self.stderr > 0 else float("inf")


def martingale_residual(
    samples: np.ndarray, times: np.ndarray, h, generator_values
) -> MartingaleResidual:
    """Ensemble mean of H(X_T) - H(X_0) - int_0^T (gen H)(X_s) ds.

    ``samples`` has shape (paths, T, L) on a shared grid of ``times``;
    the time integral uses the trapezoid rule on that grid.
    ``generator_values`` maps point arrays to generator values (the
    particle or the limit generator).  It is called on consecutive
    blocks of whole paths of at most ``GENERATOR_BLOCK_POINTS`` sample
    points (one path when T is larger), so its temporaries stay bounded
    as the number of paths grows; both generators compute every value
    from its own point, so the blocks change no bit.  For test
    functions supported away from the boundary the stopped and
    unstopped residuals coincide, because both H and its generator
    image vanish on the faces.
    """
    samples = np.asarray(samples, dtype=float)
    times = np.asarray(times, dtype=float)
    if samples.ndim != 3 or times.shape != samples.shape[1:2] or not times.size:
        raise ConfigRangeError(
            f"samples of shape {samples.shape} do not fit a grid of {times.size} times"
        )
    n_paths = samples.shape[0]
    if not n_paths:
        raise IncompletePathError("no paths to average")
    if np.any(np.isnan(samples)):
        raise IncompletePathError("sample grid contains unfinished paths")
    gen = np.empty(samples.shape[:2])
    step = max(1, GENERATOR_BLOCK_POINTS // times.size)
    for lo in range(0, n_paths, step):
        gen[lo : lo + step] = generator_values(samples[lo : lo + step])
    integral = np.trapezoid(gen, times, axis=1)
    resid = h.value(samples[:, -1, :]) - h.value(samples[:, 0, :]) - integral
    mean, stderr, n = _mean_stderr(resid)
    return MartingaleResidual(mean=mean, stderr=stderr, n_paths=n)


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
