import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from condensim.chain import (
    dirichlet_matrix,
    harmonic_extensions,
    hitting_diagonal_min,
    mask_of,
    superharmonic_radius,
    subset_complement,
    trace_rates,
    validate_chain,
)
from condensim.errors import (
    BadExponentsError,
    BadSubsetError,
    ChainValidationError,
    NonPositiveMeasureError,
    NotInvariantError,
    ReducibleChainError,
    SingularSystemError,
    SubsetTooSmallError,
)

from _chains import (
    ASYM3_RATES,
    K3_RATES,
    all_subsets_with_at_least,
    cycle3,
    k3,
    random_irreducible_chain,
)

TOL = 1e-10


class TestValidateChain:
    def test_k3_uniform_measure(self):
        chain = validate_chain(K3_RATES)
        np.testing.assert_allclose(chain.m, np.full(3, 1 / 3), atol=1e-14)

    def test_two_site_detailed_balance(self):
        # m1 r(1,2) = m2 r(2,1) and m1 + m2 = 1 force m = (1/3, 2/3).
        chain = validate_chain([[0.0, 2.0], [1.0, 0.0]])
        np.testing.assert_allclose(chain.m, [1 / 3, 2 / 3], atol=1e-14)

    def test_reducible_rejected(self):
        rates = np.zeros((3, 3))
        rates[0, 1] = 1.0
        with pytest.raises(ReducibleChainError):
            validate_chain(rates)

    def test_supplied_measure_accepted_unnormalized(self):
        chain = validate_chain(K3_RATES, m=[2.0, 2.0, 2.0])
        np.testing.assert_allclose(chain.m, [2.0, 2.0, 2.0])

    def test_supplied_measure_not_invariant(self):
        with pytest.raises(NotInvariantError):
            validate_chain(K3_RATES, m=[0.5, 0.25, 0.25])

    def test_supplied_measure_nonpositive(self):
        with pytest.raises(NonPositiveMeasureError):
            validate_chain(K3_RATES, m=[1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_supplied_measure_not_finite(self, bad):
        # A NaN entry passes every "<= 0" test, and an infinite one makes
        # the invariance residual and its scale both infinite.
        with pytest.raises(NonPositiveMeasureError):
            validate_chain([[0.0, 1.0], [1.0, 0.0]], [1.0, bad])

    @pytest.mark.parametrize(
        "rates, m",
        [
            ([[0.0, 1.0], [1.0]], None),
            ([[0.0, "a"], [1.0, 0.0]], None),
            ([[0.0, 1.0], [1.0, 0.0]], [1.0, "a"]),
            ([[0.0, 1.0], [1.0, 0.0]], [[1.0], [1.0, 1.0]]),
        ],
    )
    def test_unconvertible_input_is_typed(self, rates, m):
        with pytest.raises(ChainValidationError):
            validate_chain(rates, m)

    def test_diagonal_must_be_zero(self):
        rates = K3_RATES.copy()
        rates[0, 0] = 0.5
        with pytest.raises(Exception):
            validate_chain(rates)

    def test_caller_array_stays_writable(self):
        # The chain freezes its own copy, never the caller's matrix.
        r = np.array([[0.0, 1.0], [2.0, 0.0]])
        chain = validate_chain(r)
        r[0, 1] = 3.0
        assert chain.rates is not r
        assert chain.rates[0, 1] == 1.0

    @staticmethod
    def check_verdict(rates, irreducible):
        if irreducible:
            validate_chain(rates)
        else:
            with pytest.raises(ReducibleChainError):
                validate_chain(rates)

    @pytest.mark.parametrize(
        "size, edges, irreducible",
        [
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)], True),  # one-way ring
            (3, [(0, 1), (1, 0), (1, 2), (0, 2)], False),  # site 2 is a sink
            (3, [(1, 0), (2, 0), (1, 2)], False),  # site 0 is a sink, 1 a source
            (4, [(0, 1), (1, 0), (2, 3), (3, 2)], False),  # two closed classes
        ],
    )
    def test_irreducibility_examples(self, size, edges, irreducible):
        rates = np.zeros((size, size))
        for j, k in edges:
            rates[j, k] = 1.0
        self.check_verdict(rates, irreducible)

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 8), density=st.floats(0.1, 0.7))
    def test_irreducibility_matches_scipy(self, seed, size, density):
        # Oracle: one strongly connected component in scipy's csgraph.
        rng = np.random.default_rng(seed)
        edges = rng.random((size, size)) < density
        np.fill_diagonal(edges, False)
        n_classes = connected_components(csr_matrix(edges), directed=True, connection="strong")[0]
        self.check_verdict(np.where(edges, rng.uniform(0.1, 3.0, (size, size)), 0.0), n_classes == 1)


class TestInvariantMeasure:
    def test_k3(self):
        np.testing.assert_allclose(validate_chain(K3_RATES).m, np.full(3, 1 / 3), atol=1e-14)

    def test_two_site(self):
        np.testing.assert_allclose(
            validate_chain([[0.0, 2.0], [1.0, 0.0]]).m, [1 / 3, 2 / 3], atol=1e-14
        )

    def test_unit_cycle_is_uniform(self):
        rates = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(validate_chain(rates).m, np.full(3, 1 / 3), atol=1e-14)

    def test_defining_property_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            chain = random_irreducible_chain(rng, int(rng.integers(3, 8)))
            residual = np.abs(chain.m @ chain.generator).max()
            assert residual <= TOL
            assert chain.m.sum() == pytest.approx(1.0, abs=1e-12)


class TestDirichletMatrix:
    def test_k3_values(self):
        a_s = dirichlet_matrix(k3())
        expected = np.full((3, 3), -1 / 3) + np.eye(3)
        np.testing.assert_allclose(a_s, expected, atol=1e-14)

    def test_two_site_symmetric(self):
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            dirichlet_matrix(chain), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14
        )

    def test_row_sums_and_psd_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            chain = random_irreducible_chain(rng, int(rng.integers(3, 8)))
            a_s = dirichlet_matrix(chain)
            np.testing.assert_allclose(a_s.sum(axis=0), 0.0, atol=TOL)
            np.testing.assert_allclose(a_s.sum(axis=1), 0.0, atol=TOL)
            assert np.linalg.eigvalsh(a_s).min() >= -TOL

    def test_quadratic_form_matches_generator(self):
        rng = np.random.default_rng(13)
        chain = random_irreducible_chain(rng, 5)
        a_s = dirichlet_matrix(chain)
        for _ in range(5):
            v = rng.standard_normal(5)
            lhs = v @ a_s @ v
            rhs = np.sum(chain.m * v * (-(chain.generator @ v)))
            assert lhs == pytest.approx(rhs, abs=1e-11)


class TestHarmonicExtensions:
    def test_k3_pair(self):
        basis = harmonic_extensions(k3(), (0, 1))
        np.testing.assert_allclose(basis[:, 0], [1.0, 0.0, 0.5], atol=1e-14)
        np.testing.assert_allclose(basis[:, 1], [0.0, 1.0, 0.5], atol=1e-14)

    def test_full_set_is_identity(self):
        basis = harmonic_extensions(k3(), (0, 1, 2))
        np.testing.assert_allclose(basis, np.eye(3))

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            size = int(rng.integers(3, 8))
            chain = random_irreducible_chain(rng, size)
            for b in all_subsets_with_at_least(size, 1):
                basis = harmonic_extensions(chain, b)
                np.testing.assert_allclose(
                    basis.sum(axis=1), 1.0, atol=1e-12
                )

    def test_defining_equations(self):
        rng = np.random.default_rng(19)
        chain = random_irreducible_chain(rng, 6)
        b = (0, 2, 5)
        a = subset_complement(6, b)
        basis = harmonic_extensions(chain, b)
        for k in b:
            u = basis[:, b.index(k)]
            for j in b:
                assert u[j] == (1.0 if j == k else 0.0)
            lu = chain.generator @ u
            np.testing.assert_allclose(lu[list(a)], 0.0, atol=TOL)

    def test_empty_subset_rejected(self):
        with pytest.raises(BadSubsetError):
            harmonic_extensions(k3(), ())

    @staticmethod
    def _shift_solve(monkeypatch, error):
        # K3 on (0, 1) hits each site from site 2 with probability 1/2;
        # push those two entries out of [0, 1] by ``error``.
        solve = np.linalg.solve
        shift = np.array([[0.5 + error, -0.5 - error]])
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + shift)

    def test_roundoff_outside_unit_interval_clipped(self, monkeypatch):
        chain = k3()
        self._shift_solve(monkeypatch, 1e-13)
        np.testing.assert_array_equal(harmonic_extensions(chain, (0, 1))[2], [1.0, 0.0])

    @pytest.mark.parametrize("error", [1e-9, np.nan])
    def test_beyond_roundoff_raises(self, monkeypatch, error):
        chain = k3()
        self._shift_solve(monkeypatch, error)
        with pytest.raises(SingularSystemError, match="leave"):
            harmonic_extensions(chain, (0, 1))


class TestTraceRates:
    def test_k3_pair(self):
        trace = trace_rates(k3(), (0, 1))
        assert trace.rates[0, 1] == pytest.approx(1.5, abs=1e-14)
        assert trace.rates[1, 0] == pytest.approx(1.5, abs=1e-14)

    def test_full_set_is_original(self):
        chain = k3()
        trace = trace_rates(chain, (0, 1, 2))
        np.testing.assert_allclose(trace.rates, chain.rates, atol=1e-14)

    def test_k3_restricted_measure_invariant(self):
        trace = trace_rates(k3(), (0, 1))
        np.testing.assert_allclose(trace.m, [1 / 3, 1 / 3])
        np.testing.assert_allclose(trace.m @ trace.generator, 0.0, atol=TOL)

    def test_subset_too_small(self):
        with pytest.raises(SubsetTooSmallError):
            trace_rates(k3(), (0,))

    def test_trace_only_adds_mass(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            size = int(rng.integers(3, 8))
            chain = random_irreducible_chain(rng, size)
            for b in all_subsets_with_at_least(size, 2):
                trace = trace_rates(chain, b)
                sub = chain.rates[np.ix_(b, b)]
                assert np.all(trace.rates >= sub - TOL)
                # Excursions that return to their starting site are not
                # trace jumps, so holding rates can only decrease.
                assert np.all(trace.holding <= chain.holding[list(b)] + TOL)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 6))
def test_trace_of_trace_is_trace(seed, size):
    # A trace chain is a chain, so it has traces of its own: watching
    # the trace on B only while on B' inside B is watching the chain on
    # B'.  Sites of B' are re-indexed by their position in B.
    chain = random_irreducible_chain(np.random.default_rng(seed), size)
    tol = 1e-13 * chain.holding.max()
    for b in all_subsets_with_at_least(size, 3):
        outer = trace_rates(chain, b)
        for b2 in all_subsets_with_at_least(size, 2):
            if not set(b2) <= set(b):
                continue
            inner = trace_rates(outer, [b.index(j) for j in b2])
            direct = trace_rates(chain, b2)
            np.testing.assert_allclose(inner.rates, direct.rates, rtol=0, atol=tol)
            assert np.array_equal(inner.m, direct.m)


def upsilon(chain, b):
    """The projection Upsilon_B onto the B-simplex: the transposed
    harmonic basis."""
    return harmonic_extensions(chain, b).T


class TestUpsilonMap:
    def test_k3_point(self):
        ups = upsilon(k3(), (0, 1))
        np.testing.assert_allclose(ups @ [0.2, 0.3, 0.5], [0.45, 0.55], atol=1e-14)

    def test_identity_on_supported_points(self):
        ups = upsilon(k3(), (0, 1))
        np.testing.assert_allclose(ups @ [0.25, 0.75, 0.0], [0.25, 0.75], atol=1e-14)

    def test_drift_vector_projection_k3(self):
        # v_0 = (-2, 1, 1) projects onto the trace drift (-3/2, 3/2).
        chain = k3()
        ups = upsilon(chain, (0, 1))
        v0 = chain.generator[0]
        np.testing.assert_allclose(ups @ v0, [-1.5, 1.5], atol=1e-14)
        trace = trace_rates(chain, (0, 1))
        np.testing.assert_allclose(ups @ v0, trace.generator[0], atol=1e-14)

    def test_maps_simplex_to_simplex(self):
        rng = np.random.default_rng(29)
        chain = random_irreducible_chain(rng, 6)
        ups = upsilon(chain, (1, 3, 4))
        for _ in range(20):
            x = rng.dirichlet(np.ones(6))
            y = ups @ x
            assert np.all(y >= -1e-14)
            assert y.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(101)
    out = []
    for _ in range(8):
        size = int(rng.integers(3, 7))
        chain = random_irreducible_chain(rng, size)
        for b in all_subsets_with_at_least(size, 2):
            out.append((chain, b))
    return out


class TestChainIdentities:
    """Exact algebraic identities linking trace chains, harmonic
    extensions and the projection, on randomized chains."""

    def test_trace_drift_equals_generator_of_extension(self, cases):
        for chain, b in cases:
            basis = harmonic_extensions(chain, b)
            trace = trace_rates(chain, b)
            for ki, k in enumerate(b):
                lu = chain.generator @ basis[:, ki]
                np.testing.assert_allclose(
                    trace.generator[:, ki], lu[list(b)], atol=TOL
                )

    def test_projection_intertwines_drifts(self, cases):
        for chain, b in cases:
            ups = upsilon(chain, b)
            trace = trace_rates(chain, b)
            for ji, j in enumerate(b):
                np.testing.assert_allclose(
                    ups @ chain.generator[j], trace.generator[ji], atol=TOL
                )

    def test_projection_kills_complement_drifts(self, cases):
        for chain, b in cases:
            ups = upsilon(chain, b)
            for j in subset_complement(chain.size, b):
                np.testing.assert_allclose(ups @ chain.generator[j], 0.0, atol=TOL)

    def test_restricted_measure_invariant(self, cases):
        for chain, b in cases:
            trace = trace_rates(chain, b)
            np.testing.assert_allclose(trace.m @ trace.generator, 0.0, atol=TOL)

    def test_trace_dirichlet_psd(self, cases):
        for chain, b in cases:
            trace = trace_rates(chain, b)
            eig = np.linalg.eigvalsh(dirichlet_matrix(trace))
            assert eig.min() >= -TOL
            # Kernel on the zero-sum hyperplane is trivial: only one
            # eigenvalue (the constants) may vanish.
            assert eig[1] > 1e-12


class TestPsi4Radius:
    def test_k3_b2(self):
        assert superharmonic_radius(k3(), (0, 1), b=2.0, p=1.5) == pytest.approx(0.25, abs=1e-14)

    def test_k3_b3(self):
        assert superharmonic_radius(k3(), (0, 1), b=3.0, p=1.5) == pytest.approx(0.5, abs=1e-14)

    def test_bad_exponents(self):
        with pytest.raises(BadExponentsError):
            superharmonic_radius(k3(), (0, 1), b=1.5, p=1.5)
        with pytest.raises(BadExponentsError):
            superharmonic_radius(k3(), (0, 1), b=2.0, p=1.0)

    def test_full_subset_rejected(self):
        with pytest.raises(BadSubsetError):
            superharmonic_radius(k3(), (0, 1, 2), b=2.0, p=1.5)


class TestHittingDiagonalMin:
    def test_k3(self):
        assert hitting_diagonal_min(k3(), (0, 1, 2)) == pytest.approx(2 / 3)

    def test_two_site(self):
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]])
        assert hitting_diagonal_min(chain, (0, 1)) == pytest.approx(0.5)

    def test_cycle3(self):
        chain = cycle3()
        expected = (chain.m * chain.holding).min()
        assert hitting_diagonal_min(chain, (0, 1, 2)) == pytest.approx(expected)


def test_chainspec_immutable():
    chain = k3()
    with pytest.raises(ValueError):
        chain.rates[0, 1] = 5.0


def test_asym3_is_not_reversible():
    chain = validate_chain(ASYM3_RATES)
    flow = chain.m[:, None] * chain.rates
    assert not np.allclose(flow, flow.T)


def test_mask_of():
    assert mask_of(()) == 0
    assert mask_of([0, 2]) == 0b101
    assert mask_of(np.array([3, 1], dtype=np.int64)) == 0b1010
    assert type(mask_of(np.array([3]))) is int
