"""Statistical verification harness.

Cross-engine convergence functionals (winner distributions, absorption
and condensation times), the expected-hitting-time bound, the
super-harmonicity sign certificate, and martingale residuals.
Everything here reduces ensembles produced by the engines, or
evaluates closed forms on the chain; nothing re-simulates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bumps import hole_product
from .chain import (
    ChainSpec,
    _normalize_subset,
    dirichlet_matrix,
    hitting_diagonal_min,
    superharmonic_radius,
    subset_complement,
)
from .errors import (
    BadExponentsError,
    ConfigRangeError,
    EmptyRegionError,
    IncompletePathError,
    MismatchedChainsError,
)

# Sample points per generator call in ``martingale_residual``.  Smaller
# blocks speed the diffusion generator and slow the ZRP's, which does its
# work once per distinct point in a call.  On 1000 x 151 K3 samples and
# the three standard bumps (2-vCPU x86 host) 32k gives the least total:
# 0.21 s against 0.27 s in one call, with peaks of 8 MB instead of 34 MB.
GENERATOR_BLOCK_POINTS = 32_768

# Points the sign certificate's grid may hold: its bound resolution^(L-1)
# is checked before any point is built.  With the grid built as arrays
# the whole check costs 100-190 bytes of peak memory and 0.1-0.2 us a
# point (K3 to the six-site complete graph, 2-vCPU x86 host), about
# 50 MB and 0.06 s at the cap; K3 passes up to resolution 512.
GRID_POINTS = 1 << 18


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


def winner_distribution(winners, size: int) -> np.ndarray:
    """Counts of the final sites (trapped vertices or condensation winners)
    per site, summing to the path count; every path must have stopped."""
    w = np.asarray(winners)
    if w.size == 0:
        raise IncompletePathError("no paths to tally")
    if np.any(~np.isfinite(w.astype(float))) or np.any(w < 0) or np.any(w >= size):
        raise IncompletePathError("some paths did not reach their stopping rule")
    return np.bincount(w.astype(np.int64), minlength=size)


@dataclass(frozen=True)
class WinnerComparison:
    tv: float
    tv_stderr: float
    chi2: float
    dof: int
    pvalue: float


def _chi2_tail(dof: int, x: float) -> float:
    """Chi-square upper tail Q(dof/2, x/2), the regularized upper gamma.

    With y = x/2, Q(k, y) = sum_{i<k} y^i e^-y / i! for an integer k and
    Q(k + 1/2, y) = erfc(sqrt y) + sum_{i<k} y^(i+1/2) e^-y / Gamma(i + 3/2);
    each term is one exp of its logarithm, so no power or factorial
    overflows, and a term below the smallest double is 0.
    """
    if x == 0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)
    if dof % 2 == 0:
        return math.fsum(math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(dof // 2))
    terms = (math.exp((i + 0.5) * log_y - y - math.lgamma(i + 1.5)) for i in range(dof // 2))
    return math.fsum([math.erfc(math.sqrt(y)), *terms])


def compare_winner(c1: np.ndarray, c2: np.ndarray) -> WinnerComparison:
    """Total-variation distance and a two-sample chi-square test of two
    winner counts, as ``winner_distribution`` returns them.

    The p-value is the chi-square tail Q(dof/2, chi2/2): a finite sum of
    Poisson terms for even dof, and erfc plus such a sum for odd dof
    (``_chi2_tail``).  Against a 50-digit reference it is within 1.1e-13
    relative for dof 1 to 12 wherever the tail is at least 1e-290, as
    close as scipy's ``chdtrc``; dof 2 gives exp(-chi2/2) exactly.
    """
    if c1.shape != c2.shape:
        raise MismatchedChainsError("histograms cover different site sets")
    n1, n2 = int(c1.sum()), int(c2.sum())
    p = c1 / n1
    q = c2 / n2
    tv = 0.5 * float(np.abs(p - q).sum())
    se = 0.5 * float(np.sqrt((p * (1 - p) / n1 + q * (1 - q) / n2).sum()))
    both = c1 + c2
    cells = both > 0
    e1 = both[cells] * n1 / (n1 + n2)
    e2 = both[cells] * n2 / (n1 + n2)
    chi2 = float(((c1[cells] - e1) ** 2 / e1).sum() + ((c2[cells] - e2) ** 2 / e2).sum())
    dof = int(cells.sum()) - 1
    pvalue = _chi2_tail(dof, chi2) if dof > 0 else 1.0
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
    sample mean of the first absorption time within confidence noise:
    the check passes when mean - ci_halfwidth <= bound.  One sample has
    a NaN half-width, so it cannot pass.  d(B) scales with the
    normalization of m, which the engines and the bound share.
    """

    bound: float
    empirical_mean_sigma1: float
    ci_halfwidth: float


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
    bound = len(bset) ** max(q - 1.0, 1.0) / ((q + 1.0) * (q - b) * d_b)
    mean, stderr, _ = _mean_stderr(samples)
    return HittingBoundCheck(bound=bound, empirical_mean_sigma1=mean, ci_halfwidth=1.96 * stderr)


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
    # resolution^|A| complement points, each with resolution^(|B|-1) on B.
    bound = int(resolution) ** (chain.size - 1)
    if bound > GRID_POINTS:
        raise ConfigRangeError(
            f"resolution = {resolution} on {chain.size} sites allows {bound} grid points, "
            f"above the cap of {GRID_POINTS}"
        )
    a_axis = a0 * eps * np.arange(1, resolution + 1) / resolution
    n_b = len(bset)
    cols = [g.ravel() for g in np.meshgrid(*[a_axis] * len(aset), indexing="ij")]
    mass = 1.0 - sum(cols)  # left to right, per point
    keep = ~(mass < n_b * eps)
    if not keep.any():
        raise EmptyRegionError(
            f"no grid points: eps={eps}, a0={a0}, resolution={resolution}"
        )
    cols, rest = [c[keep] for c in cols], mass[keep]
    # Each free B coordinate in turn runs over linspace(eps, top,
    # resolution) of its row and leaves the rest to the coordinates
    # after it.  This is linspace's arithmetic row by row: linspace with
    # an array ``top`` would round every row by its zero-step formula
    # once any row had a zero step.
    steps = np.arange(resolution)
    for n in range(n_b, 1, -1):
        top = rest - (n - 1) * eps
        delta = top - eps
        step = delta / (resolution - 1)
        v = steps * step[:, None]
        tiny = step == 0  # linspace's subnormal branch
        v[tiny] = steps / (resolution - 1) * delta[tiny, None]
        v += eps
        v[:, -1] = top
        cols = [np.repeat(c, resolution) for c in cols]
        rest = np.repeat(rest, resolution) - v.ravel()
        cols.append(v.ravel())
    cols.append(rest)
    x = np.empty((rest.size, chain.size))
    x[:, aset + bset] = np.column_stack(cols)
    return x


@dataclass(frozen=True)
class SuperharmonicReport:
    """Sign certificate of the super-harmonicity expression on a grid;
    the subset, exponents, eps and resolution are the caller's."""

    a0: float
    n_points: int
    max_value: float
    argmax: tuple[float, ...]


def superharmonic_sign_check(
    chain: ChainSpec, B, b: float, p: float, eps: float, resolution: int
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
        a0=a0, n_points=grid.shape[0], max_value=float(values[imax]), argmax=tuple(grid[imax])
    )


@dataclass(frozen=True)
class MartingaleResidual:
    mean: float
    stderr: float
    n_paths: int


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
