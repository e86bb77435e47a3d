import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensim.chain import validate_chain
from condensim.diffusion import DiffusionConfig
from condensim.errors import (
    BadInitialError,
    ConfigRangeError,
    NotLatticeError,
    OutputInvariantError,
)
from condensim.rng import derive_seed, path_generator
from condensim.zrp import (
    FINISH_EDGES,
    TABLE_BYTES,
    ZrpConfig,
    _check_outputs,
    _g_table,
    simulate_zrp_ensemble,
    zrp_generator_apply,
)

from _chains import asym3, k3, random_irreducible_chain, ring, run_python


@pytest.fixture
def two_site():
    return validate_chain([[0.0, 1.0], [1.0, 0.0]])


class TestJumpRate:
    """Entries g_j(n) of the departure-rate table, row j, column n."""

    def test_default_family_value(self, two_site):
        g = _g_table(two_site, 1.5, 0.0, 2)[0, 2]
        assert g == pytest.approx(0.875, abs=1e-15)

    def test_empty_site_never_jumps(self, two_site):
        for correction in (0.0, 1.0):
            assert np.all(_g_table(two_site, 1.5, correction, 3)[:, 0] == 0.0)

    def test_tail_approaches_measure(self, two_site):
        n = np.array([1, 10, 1000, 10**6])
        g = _g_table(two_site, 2.0, 0.0, 10**6)[1, n]
        m1 = two_site.m[1]
        assert np.all(np.abs(g - m1) <= m1 * 2.0 / n + 1e-15)

    def test_finite_n_identity(self, two_site):
        # n (g(n)/m - 1) = b exactly without the c/n^2 correction.
        n = np.arange(1, 50)
        g = _g_table(two_site, 1.7, 0.0, 49)[0, n]
        np.testing.assert_allclose(n * (g / two_site.m[0] - 1.0), 1.7, atol=1e-12)

    def test_corrected_family(self, two_site):
        g = _g_table(two_site, 1.5, 1.0, 2)[0, 2]
        assert g == pytest.approx(0.5 * (1 + 0.75 + 0.25), abs=1e-15)


class TestGeneratorApply:
    def test_constant_function_annihilated(self, two_site):
        config = ZrpConfig(chain=two_site, n_particles=4, b=1.5, seed=0)
        val = zrp_generator_apply(config, lambda x: np.full(x.shape[:-1], 3.7), [0.5, 0.5])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_linear_function_single_active_edge(self, two_site):
        # At x = (1, 0) only the 1 -> 2 clock runs, at rate g_1(2) = 0.875.
        config = ZrpConfig(chain=two_site, n_particles=2, b=1.5, seed=0)
        val = zrp_generator_apply(config, lambda x: x[..., 0], [1.0, 0.0])
        assert val == pytest.approx(4 * 0.875 * (-0.5), abs=1e-12)

    def test_off_lattice_rejected(self, two_site):
        config = ZrpConfig(chain=two_site, n_particles=3, b=1.5, seed=0)
        with pytest.raises(NotLatticeError):
            zrp_generator_apply(config, lambda x: x[..., 0], [0.5, 0.5])

    def test_nan_point_rejected(self, two_site):
        # A NaN coordinate is off the lattice; it used to pass the check,
        # whose comparisons are false for NaN, and fail later as an index.
        config = ZrpConfig(chain=two_site, n_particles=3, b=1.5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NotLatticeError):
                zrp_generator_apply(config, lambda x: x[..., 0], [np.nan, 1.0])

    def test_batch_evaluation(self):
        # A (paths, T, L) batch with repeated rows gives exactly the
        # point-by-point values, and h sees each distinct point and each
        # of its neighbours once.
        chain = k3()
        n = 10
        config = ZrpConfig(chain=chain, n_particles=n, b=1.5, seed=0)
        rng = np.random.default_rng(21)
        distinct = np.unique(rng.multinomial(n, np.full(3, 1 / 3), size=12), axis=0)
        eta = distinct[rng.integers(0, len(distinct), size=(4, 6))]
        eta[0, 0] = eta[3, 5]  # at least one repeat
        pts = eta / n
        seen = []

        def h(x):
            seen.extend(map(tuple, np.rint(x * n).astype(np.int64).reshape(-1, 3)))
            return x[..., 1] ** 2

        vals = zrp_generator_apply(config, h, pts)
        used = np.unique(eta.reshape(-1, 3), axis=0)
        src, dst = np.nonzero(chain.rates)
        expected = [tuple(e) for e in used]
        for e in used:
            for j, k in zip(src, dst):
                moved = e.copy()
                moved[j] -= 1
                moved[k] += 1
                expected.append(tuple(moved))
        assert sorted(seen) == sorted(expected)

        singles = [
            zrp_generator_apply(config, lambda x: x[..., 1] ** 2, p)
            for p in pts.reshape(-1, 3)
        ]
        assert vals.shape == (4, 6)
        assert np.array_equal(vals, np.reshape(singles, (4, 6)))

    @pytest.mark.parametrize("size, n", [(20, 10), (18, 15)])
    def test_wide_chain_beyond_integer_keys(self, size, n):
        # (N+1)^L > 2^63: the rows are still told apart exactly.  At
        # N + 1 = 16, L = 18 the first two digits weigh 2^68 and 2^64, so
        # a key left to wrap around in int64 would merge rows 0 and 1.
        rng = np.random.default_rng(22)
        assert (n + 1) ** size > 2**63
        chain = random_irreducible_chain(rng, size)
        config = ZrpConfig(chain=chain, n_particles=n, b=1.5, seed=0)
        weights = rng.random(size)
        eta = rng.multinomial(n, np.full(size, 1 / size), size=30)
        eta[:2] = 0
        eta[:2, -1] = n - 1
        eta[0, 0] = eta[1, 1] = 1
        rows = rng.integers(0, 30, size=(5, 9))
        rows[0, :2] = [0, 1]
        pts = eta[rows] / n

        def h(x):
            return (weights * x**2).sum(axis=-1)

        vals = zrp_generator_apply(config, h, pts)
        singles = [zrp_generator_apply(config, h, p) for p in pts.reshape(-1, size)]
        assert np.array_equal(vals, np.reshape(singles, (5, 9)))


class TestSimulate:
    def test_wrong_particle_count_rejected(self):
        config = ZrpConfig(chain=k3(), n_particles=10, b=1.5, seed=1)
        with pytest.raises(BadInitialError):
            simulate_zrp_ensemble(config, [3, 3, 3], 1)

    @pytest.mark.parametrize("eta0", [[1.5, 1.5, 1.0], [np.nan, 2, 1], [np.inf, 2, 1]])
    def test_start_that_is_not_counts_rejected(self, eta0):
        # [1.5, 1.5, 1.0] carries 4 particles, but truncated it would run
        # from [1, 1, 1]; NaN would not convert to an integer.
        config = ZrpConfig(chain=k3(), n_particles=3, b=1.5, seed=1)
        with pytest.raises(BadInitialError):
            simulate_zrp_ensemble(config, eta0, 2)

    @pytest.mark.parametrize("n", [2.0, True, 1.5])
    def test_particle_count_must_be_an_integer(self, n):
        with pytest.raises(ConfigRangeError, match="n_particles"):
            ZrpConfig(chain=k3(), n_particles=n, b=1.5, seed=1)

    def test_particle_count_bounded_before_any_table(self):
        # 10^9 particles on K3 would ask for 72 GB of rate tables.
        with pytest.raises(ConfigRangeError, match="n_particles"):
            ZrpConfig(chain=k3(), n_particles=10**9, b=1.5, seed=1)
        largest = TABLE_BYTES // (8 * 9) - 1
        ZrpConfig(chain=k3(), n_particles=np.int64(largest), b=1.5, seed=1)
        with pytest.raises(ConfigRangeError, match="n_particles"):
            ZrpConfig(chain=k3(), n_particles=largest + 1, b=1.5, seed=1)

    def test_already_condensed_at_start(self, generator_calls):
        for sample_times in ((), (0.0, 0.01)):
            config = ZrpConfig(
                chain=k3(), n_particles=30, b=1.5, seed=1, delta=0.05,
                sample_times=sample_times,
            )
            ens = simulate_zrp_ensemble(config, [30, 0, 0], 1)
            assert ens.t_cond[0] == 0.0
            assert ens.winner[0] == 0
            # Stopped at time zero before any jump: the start is its only
            # sample, and it builds no random generator.
            if sample_times:
                np.testing.assert_array_equal(ens.samples[0], [[1.0, 0.0, 0.0], [np.nan] * 3])
        assert generator_calls == []

    def test_conservation_along_path(self):
        times = tuple(np.linspace(0.0, 0.2, 41))
        config = ZrpConfig(
            chain=k3(), n_particles=30, b=1.5, seed=7,
            sample_times=times, horizon=0.2,
        )
        points = simulate_zrp_ensemble(config, [10, 10, 10], 1).samples[0]
        assert not np.any(np.isnan(points))
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-12)
        lattice = points * 30
        np.testing.assert_allclose(lattice, np.rint(lattice), atol=1e-9)

    def test_determinism_bit_identical(self):
        times = tuple(np.linspace(0.0, 0.1, 11))
        config = ZrpConfig(
            chain=k3(), n_particles=25, b=1.5, seed=99,
            sample_times=times, horizon=0.1,
        )
        a = simulate_zrp_ensemble(config, [9, 8, 8], n_paths=5)
        b = simulate_zrp_ensemble(config, [9, 8, 8], n_paths=5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.t_cond, b.t_cond, equal_nan=True)
        assert np.array_equal(a.winner, b.winner)

    def test_paths_independent_of_batch_size(self):
        # Path i is driven by the stream keyed (seed, i), so slicing the
        # ensemble differently cannot change it.
        times = tuple(np.linspace(0.0, 0.05, 6))
        config = ZrpConfig(
            chain=k3(), n_particles=20, b=1.5, seed=5,
            sample_times=times, horizon=0.05,
        )
        big = simulate_zrp_ensemble(config, [7, 7, 6], n_paths=4)
        small = simulate_zrp_ensemble(config, [7, 7, 6], n_paths=2)
        np.testing.assert_array_equal(big.samples[:2], small.samples)

    def test_holding_time_law_single_particle(self):
        # One particle on K3 jumps along each edge at rate lambda = g(1),
        # so at time t it is at its start with probability
        # 1/3 + (2/3) exp(-3 lambda t).  (N = 1 is condensed at once, so
        # the path runs on to the horizon.)  At 50,000 paths, rates 5 %
        # off move the fraction at t = 0.3 by about 5.5 standard errors.
        chain = k3()
        times = (0.1, 0.3, 0.6, 1.0)
        config = ZrpConfig(
            chain=chain, n_particles=1, b=1.5, seed=11, horizon=1.0, sample_times=times
        )
        ens = simulate_zrp_ensemble(config, [1, 0, 0], n_paths=50_000)
        lam = _g_table(chain, 1.5, 0.0, 1)[0, 1]
        assert lam == pytest.approx(5 / 6)
        p = 1 / 3 + 2 / 3 * np.exp(-3 * lam * np.array(times))
        at_start = (ens.samples[:, :, 0] == 1.0).mean(axis=0)
        z = (at_start - p) / np.sqrt(p * (1 - p) / 50_000)
        assert np.all(np.abs(z) <= 4.0), z

    def test_two_site_symmetric_winner_fairness(self, two_site):
        config = ZrpConfig(chain=two_site, n_particles=100, b=2.0, seed=13, delta=0.05)
        ens = simulate_zrp_ensemble(config, [50, 50], n_paths=10_000)
        assert not np.any(np.isnan(ens.t_cond))
        freq = (ens.winner == 0).mean()
        se = np.sqrt(0.25 / 10_000)
        assert abs(freq - 0.5) <= 3 * se

    def test_small_b_warns(self, two_site):
        config = ZrpConfig(chain=two_site, n_particles=10, b=0.5, seed=0, horizon=0.01)
        with pytest.warns(UserWarning, match="b <= 1"):
            simulate_zrp_ensemble(config, [5, 5], 1)


def test_non_finite_horizons_rejected(two_site):
    # A NaN horizon never retires a path: t >= NaN is always false.
    for make in (
        lambda **kw: ZrpConfig(chain=two_site, n_particles=10, b=1.5, seed=0, **kw),
        lambda **kw: DiffusionConfig(chain=two_site, b=1.5, seed=0, **kw),
    ):
        for bad in ({"horizon": np.nan}, {"horizon": np.inf}):
            with pytest.raises(ConfigRangeError):
                make(**bad)


def test_negative_sample_times_rejected(two_site):
    # No path has a state before t = 0 to report.
    for make in (
        lambda **kw: ZrpConfig(chain=two_site, n_particles=10, b=1.5, seed=0, **kw),
        lambda **kw: DiffusionConfig(chain=two_site, b=1.5, seed=0, **kw),
    ):
        with pytest.raises(ConfigRangeError, match=">= 0"):
            make(sample_times=(-0.1, 0.1))


def test_sample_at_a_jump_time_shows_the_jump():
    # With N = 32 the time scale N^2 is a power of two, so the macroscopic
    # first jump time maps back to the exact micro clock.  A path is
    # right-continuous: a sample just before its first jump is the start,
    # a sample at the jump is the state after it, unless the horizon ends
    # the path there; then the start is held up to and at the horizon.
    # The first jump time of path 0 comes from its own stream and the
    # start's rates, in the engine's order: the rates summed edge by edge,
    # the wait -log1p(-u) over their total.
    eta0 = np.array([11, 11, 10])
    chain = k3()
    g = _g_table(chain, 1.5, 0.0, 32)
    total = 0.0
    for j, k in zip(*np.nonzero(chain.rates)):
        total += g[j, eta0[j]] * chain.rates[j, k]
    u0 = path_generator(derive_seed(3, "zrp"), 0).random()
    jump = (0.0 - np.log1p(-u0) / total) / 32**2
    assert 0.0 < jump < 0.01
    grid = (np.nextafter(jump, 0.0), jump)
    later = ZrpConfig(chain=k3(), n_particles=32, b=1.5, seed=3, horizon=0.01, sample_times=grid)
    before, at = simulate_zrp_ensemble(later, eta0, 1).samples[0]
    np.testing.assert_array_equal(before, eta0 / 32)
    assert np.abs(at - eta0 / 32).sum() * 32 == 2.0
    ending = ZrpConfig(chain=k3(), n_particles=32, b=1.5, seed=3, horizon=jump, sample_times=grid)
    np.testing.assert_array_equal(simulate_zrp_ensemble(ending, eta0, 1).samples[0], [eta0 / 32] * 2)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 5),
    n=st.integers(1, 20),
    to_horizon=st.booleans(),
)
def test_sample_grid_changes_nothing_but_the_samples(seed, size, n, to_horizon):
    # A grid reaching past the end of every path fills exactly the slots
    # the path lives through and leaves the rest of the run as it is.
    rng = np.random.default_rng(seed)
    params = dict(
        chain=random_irreducible_chain(rng, size), n_particles=n,
        b=float(rng.uniform(1.5, 3.0)), seed=seed, delta=float(rng.uniform(0.1, 0.5)),
        horizon=float(rng.uniform(0.005, 0.05)) if to_horizon else None,
    )
    span = params["horizon"] or 0.2
    grid = np.unique(np.append(0.0, rng.uniform(0.0, 2 * span, 8)))
    eta0 = rng.multinomial(n, np.full(size, 1.0 / size))
    plain = simulate_zrp_ensemble(ZrpConfig(**params), eta0, 4)
    ens = simulate_zrp_ensemble(ZrpConfig(**params, sample_times=tuple(grid)), eta0, 4)
    for a, b in ((ens.t_cond, plain.t_cond), (ens.winner, plain.winner)):
        np.testing.assert_array_equal(a, b)
    filled = ~np.isnan(ens.samples).any(axis=2)
    if to_horizon:
        want = np.broadcast_to(grid <= params["horizon"], filled.shape)
    else:
        # Stopped at the condensation record; a run condensed at the
        # start reports its start at t = 0.
        want = (grid < ens.t_cond[:, None]) | (grid == 0.0)
    np.testing.assert_array_equal(filled, want)


def _pinned_cases():
    grid = tuple(np.linspace(0.0, 0.05, 11))
    yield "k3-condense", ZrpConfig(chain=k3(), n_particles=200, b=1.5, seed=3), [67, 67, 66], 300
    yield "asym3-corrected", ZrpConfig(
        chain=asym3(), n_particles=60, b=1.8, seed=4, g_correction=0.7,
        sample_times=grid, horizon=0.05,
    ), [20, 25, 15], 200
    yield "ring8-horizon", ZrpConfig(
        chain=ring(8), n_particles=40, b=1.5, seed=5,
        sample_times=grid, horizon=0.04,
    ), [5] * 8, 100
    yield "condensed-start", ZrpConfig(
        chain=k3(), n_particles=30, b=1.5, seed=6, sample_times=grid, horizon=0.05,
    ), [29, 1, 0], 50
    # 272 edges: the edge count must not wrap in a byte.
    yield "complete17-horizon", ZrpConfig(
        chain=validate_chain(np.ones((17, 17)) - np.eye(17)), n_particles=34, b=1.5,
        seed=7, sample_times=(0.0, 0.025), horizon=0.05,
    ), [2] * 17, 300
    # The live width falls from 1000 to 1, through the scan switch.
    yield "k3-scan-switch", ZrpConfig(
        chain=k3(), n_particles=60, b=1.5, seed=8, sample_times=(0.0, 0.01, 0.02),
    ), [20, 20, 20], 1000


def _digest(ens) -> str:
    h = hashlib.sha256()
    for a in (ens.t_cond, ens.winner, ens.samples):
        h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Taken on the code just before ``first_event`` left the ensemble, with
# this digest of t_cond, winner and samples: passing here shows those
# arrays kept every bit across that change.  A change that alters a
# stream on purpose updates them and says so in CHANGES.md.
PINNED = {
    "k3-condense": "248acadb8f18258c0311a0e35e881c4480a7237c5da251ebc9e6ec11784621b2",
    "asym3-corrected": "0c02ab9ec9e64099922f1820bbc18da270d818cada430bb5aad3f89ca5047c76",
    "ring8-horizon": "a33701219d43bc6781b1a2861eae2e26c75e41cb7de2201d1ba0f3a17937acb1",
    "condensed-start": "58757ae04246d19b52256c6140c895f6598e73d7f1091396b9a575649f48b939",
    "complete17-horizon": "8dd5e89f173e8b80c0b93795c8ecfda858efb0e1ea3b680be668414690988e71",
    "k3-scan-switch": "36b7b2748c3deae931ff72e3aef109a1d01812bbd4630b3f1851a2a3131dcabb",
}


def test_engine_outputs_pinned():
    # SHA-256 of t_cond, winner and samples: every stream,
    # the event selection, the condensation record and the sampling.
    got = {
        name: _digest(simulate_zrp_ensemble(config, eta0, paths))
        for name, config, eta0, paths in _pinned_cases()
    }
    assert got == PINNED


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 6),
    n=st.integers(1, 40),
    corrected=st.booleans(),
    n_paths=st.integers(2, 6),
)
def test_horizon_runs_are_consistent(seed, size, n, corrected, n_paths):
    rng = np.random.default_rng(seed)
    chain = random_irreducible_chain(rng, size)
    horizon = float(rng.uniform(0.005, 0.05))
    config = ZrpConfig(
        chain=chain, n_particles=n, b=float(rng.uniform(1.1, 3.0)), seed=seed,
        g_correction=float(rng.uniform(0.0, 2.0)) if corrected else 0.0,
        sample_times=tuple(np.unique(rng.uniform(0.0, horizon, 5))), horizon=horizon,
        delta=float(rng.uniform(0.05, 0.5)),
    )
    eta0 = rng.multinomial(n, np.full(size, 1.0 / size))
    ens = simulate_zrp_ensemble(config, eta0, n_paths)

    # Every sample lies on the 1/N lattice of the simplex.
    assert not np.any(np.isnan(ens.samples))
    assert np.all(ens.samples >= 0)
    np.testing.assert_allclose(ens.samples.sum(axis=-1), 1.0, atol=1e-12)
    lattice = ens.samples * n
    np.testing.assert_allclose(lattice, np.rint(lattice), atol=1e-9)

    # A condensation record lies within the horizon and names a site.
    cond = ~np.isnan(ens.t_cond)
    assert np.all(ens.t_cond[cond] <= horizon)
    assert np.all((ens.winner[cond] >= 0) & (ens.winner[cond] < size))
    assert np.all(ens.winner[~cond] == -1)

    # Path i depends on its own stream only.
    k = n_paths // 2
    part = simulate_zrp_ensemble(config, eta0, k)
    for full, sub in (
        (ens.t_cond, part.t_cond), (ens.winner, part.winner), (ens.samples, part.samples),
    ):
        np.testing.assert_array_equal(full[:k], sub)


def test_a_stopped_path_is_sampled_at_its_record():
    # N^2 = 1024 is a power of two, so t_cond maps back to the exact
    # micro clock.  Of 100 paths the first to condense stops in the
    # lockstep and the last in the finisher; each is sampled up to and
    # including its t_cond, and its record state is the one at t_cond.
    eta0 = [11, 11, 10]
    config = ZrpConfig(chain=k3(), n_particles=32, b=1.5, seed=4, delta=0.1)
    probe = simulate_zrp_ensemble(config, eta0, 100)
    order = np.argsort(probe.t_cond)
    assert 100 * 6 > FINISH_EDGES and not np.isnan(probe.t_cond[order[-1]])
    for pid in (order[0], order[-1]):
        t = probe.t_cond[pid]
        grid = (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf))
        ens = simulate_zrp_ensemble(replace(config, sample_times=grid), eta0, 100)
        before, at, after = ens.samples[pid] * 32
        assert before.max() < 0.9 * 32 <= at.max()
        assert at.argmax() == probe.winner[pid]
        assert np.isnan(after).all()


@pytest.mark.parametrize("n_paths", [3, 40])
def test_frozen_configuration_never_jumps(n_paths):
    # With b = -1, g(1) = 0: one particle never leaves, every rate is
    # zero and no event ever comes.  3 paths run only in the
    # plain-Python finisher, 40 start in the lockstep; neither raises a RuntimeWarning.
    assert 3 * 6 <= FINISH_EDGES < 40 * 6
    config = ZrpConfig(
        chain=k3(), n_particles=1, b=-1.0, seed=2, horizon=5.0,
        sample_times=tuple(np.linspace(0.0, 1.0, 6)),
    )
    with warnings.catch_warnings(), pytest.warns(UserWarning, match="b <= 1"):
        warnings.simplefilter("error", RuntimeWarning)
        ens = simulate_zrp_ensemble(config, [1, 0, 0], n_paths)
    # The start is condensed; the path holds it to the horizon.
    np.testing.assert_array_equal(ens.t_cond, 0.0)
    np.testing.assert_array_equal(ens.winner, 0)
    np.testing.assert_array_equal(ens.samples, np.broadcast_to([1.0, 0.0, 0.0], ens.samples.shape))


@pytest.mark.parametrize("n_paths", [3, 40])
def test_overflowing_total_rate_rejected(n_paths):
    # b = 1e308 on K3 with N = 3 sums the rates to inf: every wait would
    # be 0 and the horizon never reached.  3 paths would run only in the
    # finisher, 40 in the lockstep.  A fresh interpreter under a timeout,
    # so that a regression fails instead of hanging the suite.
    script = (
        "from condensim.chain import validate_chain\n"
        "from condensim.errors import ConfigRangeError\n"
        "from condensim.zrp import ZrpConfig, simulate_zrp_ensemble\n"
        "k3 = validate_chain([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])\n"
        "config = ZrpConfig(chain=k3, n_particles=3, b=1e308, seed=1, horizon=1.0)\n"
        "try:\n"
        f"    simulate_zrp_ensemble(config, [1, 1, 1], {n_paths})\n"
        "except ConfigRangeError as exc:\n"
        "    print(exc)\n"
    )
    done = run_python(script, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "overflow" in done.stdout
    assert "Warning" not in done.stderr


def test_generator_rejects_overflowing_total_rate():
    config = ZrpConfig(chain=k3(), n_particles=3, b=1e308, seed=1)
    with pytest.raises(ConfigRangeError, match="overflow"):
        zrp_generator_apply(config, lambda x: x.sum(-1), np.array([1.0, 1.0, 1.0]) / 3)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 5),
    n=st.integers(1, 20),
    corrected=st.booleans(),
    to_horizon=st.booleans(),
    small=st.integers(1, FINISH_EDGES),
)
def test_finisher_matches_the_lockstep(seed, size, n, corrected, to_horizon, small):
    # Path i of an ensemble narrow enough to run only in the plain-Python
    # finisher equals path i of one at least 4x as wide as the crossover,
    # which starts in the lockstep.
    rng = np.random.default_rng(seed)
    chain = random_irreducible_chain(rng, size)
    crossover = FINISH_EDGES // np.count_nonzero(chain.rates)
    small = min(small, crossover)
    horizon = float(rng.uniform(0.005, 0.05)) if to_horizon else None
    span = horizon or 0.2
    config = ZrpConfig(
        chain=chain, n_particles=n, b=float(rng.uniform(1.5, 3.0)), seed=seed,
        g_correction=float(rng.uniform(0.0, 2.0)) if corrected else 0.0,
        delta=float(rng.uniform(0.1, 0.5)), horizon=horizon,
        sample_times=tuple(np.unique(np.append(0.0, rng.uniform(0.0, 2 * span, 8)))),
    )
    eta0 = rng.multinomial(n, np.full(size, 1.0 / size))
    part = simulate_zrp_ensemble(config, eta0, small)
    whole = simulate_zrp_ensemble(config, eta0, 4 * crossover + 1)
    for a, b in (
        (part.t_cond, whole.t_cond), (part.winner, whole.winner), (part.samples, whole.samples),
    ):
        assert np.array_equal(a, b[:small], equal_nan=True)


def _corrupt_t_cond_of_recorded(ens):
    ens.t_cond[np.flatnonzero(ens.winner >= 0)[0]] = np.nan


def _corrupt_t_cond_of_unrecorded(ens):
    ens.t_cond[np.flatnonzero(ens.winner < 0)[0]] = 0.1


def _corrupt_sample_hole(ens):
    ens.samples[0, 1] = np.nan  # every path fills slots 0 to 3


def _corrupt_unstopped_short(ens):
    path = np.flatnonzero(ens.winner < 0)[0]
    ens.samples[path, 20] = np.nan  # slot 20 is t = 0.2, the run's end


@pytest.mark.parametrize("corrupt", [
    _corrupt_t_cond_of_recorded, _corrupt_t_cond_of_unrecorded,
    _corrupt_sample_hole, _corrupt_unstopped_short,
])
def test_output_checks_reject_corrupted_ensembles(corrupt, monkeypatch):
    # On K3 with N = 12 and the cap T_MAX at 0.2, 14 of 20 paths stop at
    # their record; the others sample every grid time up to 0.2.
    monkeypatch.setattr("condensim.zrp.T_MAX", 0.2)
    config = ZrpConfig(chain=k3(), n_particles=12, b=1.5, seed=3,
                       sample_times=tuple(np.linspace(0.0, 0.3, 31)))
    ens = simulate_zrp_ensemble(config, [4, 4, 4], 20)
    assert 0 < np.count_nonzero(ens.winner >= 0) < 20
    corrupt(ens)
    with pytest.raises(OutputInvariantError):
        _check_outputs(config, ens)
