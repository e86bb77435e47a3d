"""Finite-chain linear algebra.

Everything downstream (both simulation engines and the verification
harness) is built from the objects in this module: validated rate
matrices with their invariant measures, Dirichlet-form matrices,
harmonic extensions of indicators (whose transpose is the linear
projection onto a sub-simplex), trace chains on subsets (again
chains), the residuals of the identities tying them together, and the
explicit super-harmonicity radius.  All values are immutable after
construction and safe to share across simulation workers.

Sites are indexed 0..L-1 throughout the library; the CLI layer converts
to the 1-based labels used in configs and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadExponentsError,
    BadSubsetError,
    ChainValidationError,
    NonPositiveMeasureError,
    NotInvariantError,
    ReducibleChainError,
    SingularSystemError,
    SubsetTooSmallError,
)

# Algebraic identities on well-conditioned dense systems of this size
# hold to roughly machine precision; 1e-10 leaves two orders of slack.
IDENTITY_TOL = 1e-10
# Rows of the harmonic basis sum to 1, and its entries lie in [0, 1], up
# to the roundoff of one dense solve, far inside IDENTITY_TOL.
UNITY_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """A validated irreducible chain together with an invariant measure.

    ``rates`` has zero diagonal; ``m`` is strictly positive and
    satisfies m^T G = 0 (it is kept exactly as supplied, so it need not
    be a probability vector).
    """

    rates: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        self.rates.setflags(write=False)
        self.m.setflags(write=False)

    @property
    def size(self) -> int:
        return self.rates.shape[0]

    @property
    def holding(self) -> np.ndarray:
        """Holding rates lambda(j) = sum_k r(j, k)."""
        return self.rates.sum(axis=1)

    @property
    def generator(self) -> np.ndarray:
        """Generator matrix G with G[j, k] = r(j, k), G[j, j] = -lambda(j)."""
        return self.rates - np.diag(self.holding)

    @property
    def embedded_weights(self) -> np.ndarray:
        """M_j = m_j * lambda(j), invariant for the embedded jump chain."""
        return self.m * self.holding

    def fingerprint(self) -> str:
        """Stable hash of (rates, m), used to detect mismatched comparisons."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.rates).tobytes())
        h.update(np.ascontiguousarray(self.m).tobytes())
        return h.hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainSpec)
            and np.array_equal(self.rates, other.rates)
            and np.array_equal(self.m, other.m)
        )


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether every site is reachable from site 0 along ``edges[j, k]``."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def validate_chain(
    rates: Sequence | np.ndarray,
    m: Sequence | np.ndarray | None = None,
    tol: float = IDENTITY_TOL,
) -> ChainSpec:
    """Validate a rate matrix and pair it with an invariant measure.

    When ``m`` is omitted it is computed: the unique positive solution
    of m^T G = 0, normalized to sum 1.  Normalization to a probability
    vector is a convention of this artifact; identities that are
    homogeneous in m do not depend on it.  A supplied ``m`` is accepted
    unnormalized but must be finite, strictly positive and invariant:
    ||m^T G||_inf <= tol * ||m||_1 * max lambda.

    Raises
    ------
    ChainValidationError, ReducibleChainError, NotInvariantError,
    NonPositiveMeasureError
    """
    try:
        r = np.array(rates, dtype=float)
        mv = None if m is None else np.array(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChainValidationError(f"rates and m must be arrays of numbers: {exc}") from exc
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ChainValidationError(f"rate matrix must be square, got shape {r.shape}")
    if r.shape[0] < 2:
        raise ChainValidationError("need at least two sites")
    if not np.all(np.isfinite(r)):
        raise ChainValidationError("rates must be finite")
    if np.any(r < 0):
        raise ChainValidationError("rates must be nonnegative")
    if np.any(np.diag(r) != 0):
        raise ChainValidationError("rate matrix must have zero diagonal")
    # Irreducible iff site 0 reaches every site and every site reaches 0.
    edges = r > 0
    if not (_reaches_all(edges) and _reaches_all(edges.T)):
        raise ReducibleChainError("rate matrix is reducible")
    gen = r - np.diag(r.sum(axis=1))
    if mv is None:
        # m^T G = 0 with the normalization row appended in place of one
        # (redundant) balance equation.
        a = gen.T.copy()
        a[-1, :] = 1.0
        rhs = np.zeros(r.shape[0])
        rhs[-1] = 1.0
        try:
            mv = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SingularSystemError(str(exc)) from exc
        if not np.all(mv > 0):  # pragma: no cover - cannot happen for irreducible r
            raise SingularSystemError("computed measure is not strictly positive")
    else:
        if mv.shape != (r.shape[0],):
            raise ChainValidationError(
                f"measure has shape {mv.shape}, expected ({r.shape[0]},)"
            )
        # NaN-safe: a NaN entry or residual fails these comparisons.
        if not np.all((mv > 0) & (mv < np.inf)):
            raise NonPositiveMeasureError("invariant measure must be finite and strictly positive")
        residual = np.abs(mv @ gen).max()
        scale = mv.sum() * max(r.sum(axis=1).max(), 1.0)
        if not residual <= tol * scale:
            raise NotInvariantError(
                f"measure is not invariant: ||m^T G||_inf = {residual:.3e}"
            )
    return ChainSpec(rates=r, m=mv)


def dirichlet_matrix(chain: ChainSpec) -> np.ndarray:
    """Symmetrized Dirichlet-form matrix a_s of (rates, m).

    a[i, j] = <e_i, -L e_j>_m = -m_i G[i, j]; a_s = (a + a^T) / 2.
    Row and column sums vanish, and a_s is positive semidefinite with a
    one-dimensional kernel spanned by the constants.
    """
    a = -chain.m[:, None] * chain.generator
    return 0.5 * (a + a.T)


def _normalize_subset(size: int, subset: Iterable[int]) -> tuple[int, ...]:
    b = tuple(sorted(set(int(j) for j in subset)))
    if not b:
        raise BadSubsetError("subset is empty")
    if b[0] < 0 or b[-1] >= size:
        raise BadSubsetError(f"subset {b} out of range for {size} sites")
    return b


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a site subset: bit j <-> site j (site j+1 in reports)."""
    mask = 0
    for j in indices:
        mask |= 1 << int(j)
    return mask


def subset_complement(size: int, subset: Sequence[int]) -> tuple[int, ...]:
    return tuple(j for j in range(size) if j not in set(subset))


def harmonic_extensions(chain: ChainSpec, B: Iterable[int]) -> np.ndarray:
    """Harmonic extensions u_k, k in B, of the indicators of B's sites.

    Returns the read-only (L, |B|) matrix whose column ``i`` is
    u_{B[i]} (B sorted): the unique function equal to the indicator of
    B[i] on B and annihilated by the generator off B.  Its entries are
    the hitting probabilities P_j[chain hits B at B[i]], so each row
    sums to 1: roundoff up to UNITY_TOL outside [0, 1] is clipped, and
    anything beyond raises SingularSystemError.  For B = S it is the
    identity.  Otherwise, with A = B^c, each column solves
    (diag(lambda_A) - R_AA) u_A = R_AB e_k, which is nonsingular for
    irreducible chains.

    The transpose is the projection Upsilon_B of the full simplex onto
    the B-simplex, with entry (k, j) = u_k(j): it maps points of the
    simplex to points of the B-simplex and restricts to the identity on
    points supported in B.
    """
    b = _normalize_subset(chain.size, B)
    a = subset_complement(chain.size, b)
    u = np.zeros((chain.size, len(b)))
    u[list(b), :] = np.eye(len(b))
    if a:
        r = chain.rates
        sys = np.diag(chain.holding[list(a)]) - r[np.ix_(a, a)]
        rhs = r[np.ix_(a, b)]
        try:
            ua = np.linalg.solve(sys, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SingularSystemError(str(exc)) from exc
        # NaN-safe: a NaN entry is outside by NaN and raises.
        outside = np.maximum(ua - 1.0, -ua).max()
        if not outside <= UNITY_TOL:
            raise SingularSystemError(
                f"hitting probabilities for {b} leave [0, 1] by {outside:.3e}"
            )
        u[list(a), :] = np.clip(ua, 0.0, 1.0)
    u.setflags(write=False)
    return u


def trace_rates(chain: ChainSpec, B: Iterable[int]) -> ChainSpec:
    """Trace chain on B via the harmonic extensions.

    The chain watched only while on B is again a chain, on the sorted
    sites of B: r^B(j, k) = sum_l r(j, l) u_k(l) for j != k in B, with
    measure m restricted to B, which is invariant for r^B.  Row j of
    its generator is the drift vector v^B_j = sum_k r^B(j,k) (e_k - e_j)
    of the face diffusion, and its ``dirichlet_matrix`` is that
    diffusion's a_s^B.  The trace only adds mass (r^B >= r on B) and
    does not raise the holding rates.  The rates are nonnegative in
    exact arithmetic: roundoff down to -1e-12 times the largest holding
    rate is clipped to 0, anything below raises SingularSystemError.
    """
    b = _normalize_subset(chain.size, B)
    if len(b) < 2:
        raise SubsetTooSmallError(f"trace needs at least two sites, got {b}")
    return _trace(chain, b, harmonic_extensions(chain, b))


def _trace(chain: ChainSpec, b: tuple[int, ...], basis: np.ndarray) -> ChainSpec:
    """Trace chain on the sorted subset ``b`` from its harmonic basis."""
    rb = chain.rates[list(b), :] @ basis
    np.fill_diagonal(rb, 0.0)
    floor = -1e-12 * chain.holding.max()
    if not np.all(rb >= floor):
        raise SingularSystemError(
            f"trace rates on {b} reach {rb.min():.3e}, below roundoff {floor:.3e}"
        )
    rb[rb < 0] = 0.0
    return ChainSpec(rates=rb, m=chain.m[list(b)])


def superharmonic_radius(chain: ChainSpec, B: Iterable[int], b: float, p: float) -> float:
    """Radius constant a_0 of the super-harmonicity region.

    With A = B^c,

        1 / a_0 = max over k in A of
                  b * sum_{j in B} m_j r(j, k)
                  -----------------------------
                  (b - p) * m_k lambda(k)

    The constant is well defined and positive for any exponents
    1 < p < b.  The additional constraint b < p + 1, required for the
    sign guarantee on the product of A coordinates raised to p+1, is
    enforced by the sign check in :mod:`condensim.experiments`, not
    here, so that the monotonicity of a_0 in b can be probed.
    """
    if not (1.0 < p < b):
        raise BadExponentsError(f"need 1 < p < b, got p={p}, b={b}")
    bset = _normalize_subset(chain.size, B)
    aset = subset_complement(chain.size, bset)
    if not aset:
        raise BadSubsetError("B must be a proper subset (complement nonempty)")
    num = b * (chain.m[list(bset)] @ chain.rates[np.ix_(bset, aset)])
    den = (b - p) * chain.embedded_weights[list(aset)]
    inv_a0 = float(np.max(num / den))
    if inv_a0 <= 0:  # pragma: no cover - excluded by irreducibility
        raise SingularSystemError("no rate from B into the complement")
    return 1.0 / inv_a0


def hitting_diagonal_min(chain: ChainSpec, B: Iterable[int]) -> float:
    """d(B) = min over j in B of <(-S) e_j, e_j>_m = min m_j lambda(j).

    Controls the expected-hitting-time bound; note it scales with m, so
    it must be quoted together with the normalization of m.
    """
    b = _normalize_subset(chain.size, B)
    return float(chain.embedded_weights[list(b)].min())


def chain_identity_residuals(chain: ChainSpec) -> list[tuple[str, str, float, float]]:
    """Residuals of the exact chain identities, as (name, detail, value,
    tol) rows.

    Covers the invariance of m, the row sums and semidefiniteness of
    the Dirichlet matrix and, aggregated by their maximum over every
    subset B with at least two sites: the trace drift against the
    generator applied to the harmonic basis, the projection
    Upsilon_B = basis.T sending v_j to v^B_j for j in B and to 0
    off B, the invariance of m restricted to B for the trace chain, and
    the partition of unity of the basis.
    """
    size = chain.size
    gen = chain.generator
    a_s = dirichlet_matrix(chain)
    rows = [
        ("invariance", "m^T G residual", float(np.abs(chain.m @ gen).max()), IDENTITY_TOL),
        ("dirichlet_row_sums", "max |row sum|", float(np.abs(a_s.sum(axis=1)).max()), IDENTITY_TOL),
        ("dirichlet_psd", "-(min eigenvalue)", float(-np.linalg.eigvalsh(a_s).min()), IDENTITY_TOL),
    ]
    eq10 = uvuv = kills = minv = unity = 0.0
    for nb in range(2, size + 1):
        for subset in combinations(range(size), nb):
            basis = harmonic_extensions(chain, subset)
            trace = _trace(chain, subset, basis)
            v_b = trace.generator  # row j is the trace drift v^B_j
            # C-ordered: the product with the strided view basis.T
            # rounds differently in the last bits.
            ups = np.ascontiguousarray(basis.T)
            lu = gen @ basis  # (L, |B|): column k is L u_k
            eq10 = max(eq10, float(np.abs(v_b - lu[list(subset), :]).max()))
            for ji, j in enumerate(subset):
                uvuv = max(uvuv, float(np.abs(ups @ gen[j] - v_b[ji]).max()))
            for j in subset_complement(size, subset):
                kills = max(kills, float(np.abs(ups @ gen[j]).max()))
            minv = max(minv, float(np.abs(trace.m @ v_b).max()))
            unity = max(unity, float(np.abs(basis.sum(axis=1) - 1.0).max()))
    rows.append(("trace_drift_vs_harmonic", "max residual", eq10, IDENTITY_TOL))
    rows.append(("projection_intertwines", "max residual", uvuv, IDENTITY_TOL))
    rows.append(("projection_kills_complement", "max residual", kills, IDENTITY_TOL))
    rows.append(("restricted_measure_invariant", "max residual", minv, IDENTITY_TOL))
    rows.append(("partition_of_unity", "max residual", unity, UNITY_TOL))
    return rows
