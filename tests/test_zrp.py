import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensim.chain import validate_chain
from condensim.diffusion import DiffusionConfig
from condensim.errors import BadInitialError, ConfigRangeError, NotLatticeError
from condensim.zrp import (
    FINISH_EDGES,
    G_FAMILIES,
    ZrpConfig,
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
        g = _g_table(two_site, 1.5, "default", 0.0, 2)[0, 2]
        assert g == pytest.approx(0.875, abs=1e-15)

    def test_empty_site_never_jumps(self, two_site):
        for family in G_FAMILIES:
            assert np.all(_g_table(two_site, 1.5, family, 1.0, 3)[:, 0] == 0.0)

    def test_tail_approaches_measure(self, two_site):
        n = np.array([1, 10, 1000, 10**6])
        g = _g_table(two_site, 2.0, "default", 0.0, 10**6)[1, n]
        m1 = two_site.m[1]
        assert np.all(np.abs(g - m1) <= m1 * 2.0 / n + 1e-15)

    def test_finite_n_identity(self, two_site):
        # n (g(n)/m - 1) = b exactly for the default family.
        n = np.arange(1, 50)
        g = _g_table(two_site, 1.7, "default", 0.0, 49)[0, n]
        np.testing.assert_allclose(n * (g / two_site.m[0] - 1.0), 1.7, atol=1e-12)

    def test_corrected_family(self, two_site):
        g = _g_table(two_site, 1.5, "corrected", 1.0, 2)[0, 2]
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
            np.testing.assert_array_equal(ens.first_event, [np.nan])
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
        # With one particle at site j every clock dies except those out
        # of j, so the first waiting time is Exp(g_j(1) * lambda(j)).
        chain = k3()
        config = ZrpConfig(chain=chain, n_particles=1, b=1.5, seed=11, horizon=1e-9)
        ens = simulate_zrp_ensemble(config, [1, 0, 0], n_paths=100_000)
        g1 = _g_table(chain, 1.5, "default", 0.0, 1)[0, 1]
        rate = g1 * chain.holding[0]
        mean = ens.first_event.mean()
        se = ens.first_event.std(ddof=1) / np.sqrt(ens.n_paths)
        assert abs(mean - 1.0 / rate) <= 3 * se

    def test_two_site_symmetric_winner_fairness(self, two_site):
        config = ZrpConfig(chain=two_site, n_particles=100, b=2.0, seed=13, delta=0.05)
        ens = simulate_zrp_ensemble(config, [50, 50], n_paths=10_000)
        assert not np.any(np.isnan(ens.t_cond))
        freq = (ens.winner == 0).mean()
        se = np.sqrt(0.25 / ens.n_paths)
        assert abs(freq - 0.5) <= 3 * se

    def test_small_b_warns(self, two_site):
        with pytest.warns(UserWarning, match="b <= 1"):
            ZrpConfig(chain=two_site, n_particles=10, b=0.5, seed=0)


def test_non_finite_horizons_rejected(two_site):
    # A NaN horizon never retires a path: t >= NaN is always false.
    for make in (
        lambda **kw: ZrpConfig(chain=two_site, n_particles=10, b=1.5, seed=0, **kw),
        lambda **kw: DiffusionConfig(chain=two_site, b=1.5, seed=0, **kw),
    ):
        for bad in ({"horizon": np.nan}, {"horizon": np.inf}, {"t_max": np.nan}):
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
    eta0 = np.array([11, 11, 10])
    probe = ZrpConfig(chain=k3(), n_particles=32, b=1.5, seed=3, horizon=0.01)
    jump = simulate_zrp_ensemble(probe, eta0, 1).first_event[0]
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
    for a, b in ((ens.t_cond, plain.t_cond), (ens.winner, plain.winner),
                 (ens.first_event, plain.first_event)):
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
        chain=asym3(), n_particles=60, b=1.8, seed=4, g_family="corrected",
        g_correction=0.7, sample_times=grid, horizon=0.05,
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
    for a in (ens.t_cond, ens.winner, ens.first_event, ens.samples):
        h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Taken before the site-major rewrite of the lockstep loop (the last two
# before the row-wise scan and the byte-wide edge count); a change that
# alters a stream on purpose updates them and says so in CHANGES.md.
PINNED = {
    "k3-condense": "b75ec7d90328c7d886cb1dd096a6477d9fd1863459174fccd867540740e801f3",
    "asym3-corrected": "d9783676feca704562c1ce63a2dde46927d3a29e306847a3fcd1177c89e935fd",
    "ring8-horizon": "0527b14b2e6447ff2e461041c85164ed5fea926d990d6c4acfb168325b7c009d",
    "condensed-start": "2751d080500a55a0821681f88f1e04bf6dcc54c4b0dbe936b4e05d9eee89c75c",
    "complete17-horizon": "5c6c888335b37881ba266030908344b23b77b9199ea7607d77402082a43bf093",
    "k3-scan-switch": "8fd5c47ca291ad8af50a9d61ed2ec19c992766092e96d8f5d2fd53795b784a38",
}


def test_engine_outputs_pinned():
    # SHA-256 of t_cond, winner, first_event and samples: every stream,
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
    family=st.sampled_from(G_FAMILIES),
    n_paths=st.integers(2, 6),
)
def test_horizon_runs_are_consistent(seed, size, n, family, n_paths):
    rng = np.random.default_rng(seed)
    chain = random_irreducible_chain(rng, size)
    horizon = float(rng.uniform(0.005, 0.05))
    config = ZrpConfig(
        chain=chain, n_particles=n, b=float(rng.uniform(1.1, 3.0)), seed=seed,
        g_family=family, g_correction=float(rng.uniform(0.0, 2.0)),
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
        (ens.t_cond, part.t_cond), (ens.winner, part.winner),
        (ens.first_event, part.first_event), (ens.samples, part.samples),
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
    # zero and the first event never comes.  3 paths run only in the
    # plain-Python finisher, 40 start in the lockstep; neither warns.
    assert 3 * 6 <= FINISH_EDGES < 40 * 6
    with pytest.warns(UserWarning, match="b <= 1"):
        config = ZrpConfig(
            chain=k3(), n_particles=1, b=-1.0, seed=2, horizon=5.0,
            sample_times=tuple(np.linspace(0.0, 1.0, 6)),
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ens = simulate_zrp_ensemble(config, [1, 0, 0], n_paths)
    np.testing.assert_array_equal(ens.first_event, np.inf)
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
    family=st.sampled_from(G_FAMILIES),
    to_horizon=st.booleans(),
    small=st.integers(1, FINISH_EDGES),
)
def test_finisher_matches_the_lockstep(seed, size, n, family, to_horizon, small):
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
        g_family=family, g_correction=float(rng.uniform(0.0, 2.0)),
        delta=float(rng.uniform(0.1, 0.5)), horizon=horizon,
        sample_times=tuple(np.unique(np.append(0.0, rng.uniform(0.0, 2 * span, 8)))),
    )
    eta0 = rng.multinomial(n, np.full(size, 1.0 / size))
    part = simulate_zrp_ensemble(config, eta0, small)
    whole = simulate_zrp_ensemble(config, eta0, 4 * crossover + 1)
    for a, b in (
        (part.t_cond, whole.t_cond), (part.winner, whole.winner),
        (part.first_event, whole.first_event), (part.samples, whole.samples),
    ):
        assert np.array_equal(a, b[:small], equal_nan=True)
