import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from condensim import experiments
from condensim.bumps import BumpFunction, standard_bumps
from condensim.chain import dirichlet_matrix, validate_chain
from condensim.diffusion import drift_field, generator_apply
from condensim.errors import (
    BadExponentsError,
    BadSubsetError,
    ConfigRangeError,
    EmptyRegionError,
    IncompletePathError,
    MismatchedChainsError,
)
from condensim.experiments import (
    WinnerHistogram,
    _lattice_points,
    _mean_stderr,
    compare_winner,
    ks_distance,
    martingale_residual,
    superharmonic_expression,
    superharmonic_region_grid,
    superharmonic_sign_check,
    hitting_bound_check,
    generator_taylor_residual,
    trace_rate_mc,
    winner_distribution,
)
from condensim.zrp import ZrpConfig, simulate_zrp_ensemble, zrp_generator_apply

from _chains import asym3, k3


class TestMeanStderr:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(500)
        mean, stderr, n = _mean_stderr(values)
        assert n == 500
        assert mean == pytest.approx(values.mean(), abs=1e-12)
        assert stderr == pytest.approx(values.std(ddof=1) / np.sqrt(500), abs=1e-12)


class TestWinnerDistribution:
    def test_tally(self):
        hist = winner_distribution([1] * 10, size=3)
        np.testing.assert_array_equal(hist.counts, [0, 10, 0])
        assert hist.total == 10

    def test_empty_rejected(self):
        with pytest.raises(IncompletePathError):
            winner_distribution([], size=3)

    def test_unfinished_rejected(self):
        with pytest.raises(IncompletePathError):
            winner_distribution([0, 2, -1], size=3)


class TestCompareWinner:
    def test_identical_histograms(self):
        h = winner_distribution([0, 1, 2, 1], size=3)
        cmp = compare_winner(h, h)
        assert cmp.tv == 0.0
        assert cmp.chi2 == 0.0
        assert cmp.pvalue == pytest.approx(1.0)

    def test_disjoint_histograms(self):
        h1 = winner_distribution([0] * 10, size=2)
        h2 = winner_distribution([1] * 10, size=2)
        assert compare_winner(h1, h2).tv == 1.0

    def test_mismatched_sizes(self):
        h1 = winner_distribution([0], size=2)
        h2 = winner_distribution([0], size=3)
        with pytest.raises(MismatchedChainsError):
            compare_winner(h1, h2)

    def test_mismatched_chains(self):
        h1 = winner_distribution([0], size=3, chain_id="aaa")
        h2 = winner_distribution([0], size=3, chain_id="bbb")
        with pytest.raises(MismatchedChainsError):
            compare_winner(h1, h2)

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 8),
        scale=st.sampled_from([3, 30, 3000]),
    )
    def test_pvalue_matches_scipy(self, seed, size, scale):
        # Empty cells drop out of the dof, and dof = 0 has p-value 1.
        rng = np.random.default_rng(seed)
        c1, c2 = rng.integers(0, scale, size), rng.integers(0, scale, size)
        c1[0] += 1  # each histogram holds at least one path
        c2[-1] += 1
        cmp = compare_winner(
            WinnerHistogram(c1, int(c1.sum()), "zrp"), WinnerHistogram(c2, int(c2.sum()), "diff")
        )
        want = stats.chi2.sf(cmp.chi2, cmp.dof) if cmp.dof > 0 else 1.0
        assert cmp.pvalue == want


class TestKs:
    def test_identical_samples(self):
        a = np.linspace(0, 1, 100)
        assert ks_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_samples(self):
        a = np.linspace(0, 1, 1000)
        assert ks_distance(a, a + 10.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("a, b", [([], [0.5]), ([0.5], []), ([], [])])
    def test_empty_sample_rejected(self, a, b):
        with pytest.raises(IncompletePathError):
            ks_distance(a, b)

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 300),
        n_b=st.integers(1, 300),
        levels=st.sampled_from([2, 10, 100, 2**40]),
        same=st.booleans(),
    )
    def test_matches_scipy(self, seed, n_a, n_b, levels, same):
        # Few levels give ties within and across the samples.
        rng = np.random.default_rng(seed)
        a = rng.integers(0, levels, n_a) / levels
        b = a if same else rng.integers(0, levels, n_b) / levels + rng.choice([0.0, 0.05])
        assert ks_distance(a, b) == stats.ks_2samp(a, b).statistic

    @pytest.mark.parametrize("n_a, n_b", [(10_000, 10_000), (10_000, 9_973), (1, 10_000), (2000, 1500)])
    def test_matches_scipy_large(self, n_a, n_b):
        rng = np.random.default_rng(n_a + n_b)
        a, b = rng.exponential(1.0, n_a), rng.exponential(1.02, n_b)
        assert ks_distance(a, b) == stats.ks_2samp(a, b).statistic


class TestR06:
    def test_k3_bound_value(self):
        check = hitting_bound_check(k3(), (0, 1, 2), b=1.5, q=2.0, sigma1_samples=[0.1, 0.2])
        assert check.d_B == pytest.approx(2 / 3)
        assert check.bound == pytest.approx(3.0)
        assert not check.violated

    def test_two_site_bound_value(self):
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]])
        check = hitting_bound_check(chain, (0, 1), b=1.5, q=2.0, sigma1_samples=[0.3])
        assert check.d_B == pytest.approx(0.5)
        assert check.bound == pytest.approx(8 / 3)

    def test_exponent_validation(self):
        with pytest.raises(BadExponentsError):
            hitting_bound_check(k3(), (0, 1, 2), b=2.0, q=1.5, sigma1_samples=[0.1])

    def test_violation_flag(self):
        check = hitting_bound_check(
            k3(), (0, 1, 2), b=1.5, q=2.0, sigma1_samples=np.full(10_000, 50.0)
        )
        assert check.violated

    def test_repeated_site_counts_once(self):
        once = hitting_bound_check(k3(), (0,), b=1.5, q=2.0, sigma1_samples=[0.1, 0.2])
        twice = hitting_bound_check(k3(), (0, 0), b=1.5, q=2.0, sigma1_samples=[0.1, 0.2])
        assert twice.B == once.B == (0,)
        assert twice.bound == once.bound == pytest.approx(1.0)

    def test_one_sample_is_violated(self):
        # One sample has no confidence interval: the check cannot pass,
        # however far below the bound the sample lies.
        check = hitting_bound_check(k3(), (0, 1, 2), b=1.5, q=2.0, sigma1_samples=[0.01])
        assert check.n_samples == 1
        assert np.isnan(check.ci_halfwidth)
        assert check.violated


class TestR06Matrix:
    def test_bound_respected_across_chains_and_exponents(self):
        # Desk-scale sweep of the hitting-time bound: three drift
        # strengths on three chains, q = b + 0.5, interior starts.
        from condensim.diffusion import DiffusionConfig, simulate_diffusion_ensemble

        from _chains import cycle3, k4

        for chain in (k3(), cycle3(), k4()):
            for b in (1.2, 1.5, 2.0):
                config = DiffusionConfig(chain=chain, b=b, seed=5150)
                ens = simulate_diffusion_ensemble(
                    config, np.full(chain.size, 1 / chain.size), 2000
                )
                check = hitting_bound_check(
                    chain, tuple(range(chain.size)), b, b + 0.5, ens.sigma1
                )
                assert not check.violated, (chain.size, b, check)


class TestPsi4:
    def test_certified_region_sign_k3(self):
        report = superharmonic_sign_check(k3(), (0, 1), b=2.0, p=1.5, eps=0.3, resolution=50)
        assert report.a0 == pytest.approx(0.25)
        assert report.n_points == 2500
        assert report.max_value <= 1e-12

    def test_vanishing_complement_coordinate(self):
        val = superharmonic_expression(k3(), (0, 1), b=2.0, p=1.5, points=[0.5, 0.5, 0.0])
        assert val == 0.0

    def test_positive_outside_region(self):
        # Large complement coordinate: the cross term dominates and the
        # expression may turn positive; reported, never certified.
        val = superharmonic_expression(k3(), (0, 1), b=2.0, p=1.5, points=[0.05, 0.05, 0.9])
        assert val > 0.0

    def test_matches_generator_applied_to_fa(self):
        # Independent oracle: apply the limit generator to
        # f_A(x) = prod_A x^(p+1) via finite differences of f_A.
        chain = asym3()
        b, p = 2.0, 1.5
        aset = (2,)

        def f_a(x):
            return x[..., 2] ** (p + 1.0)

        rng = np.random.default_rng(3)
        a_s = dirichlet_matrix(chain)
        h = 1e-6
        for _ in range(10):
            x = rng.dirichlet(np.ones(3))
            if x.min() < 0.05:
                continue
            grad = np.zeros(3)
            hess = np.zeros((3, 3))
            for i in range(3):
                ei = np.eye(3)[i] * h
                grad[i] = (f_a(x + ei) - f_a(x - ei)) / (2 * h)
                for k in range(3):
                    ek = np.eye(3)[k] * h
                    hess[i, k] = (
                        f_a(x + ei + ek) - f_a(x + ei - ek)
                        - f_a(x - ei + ek) + f_a(x - ei - ek)
                    ) / (4 * h * h)
            lf = drift_field(chain, b, x) @ grad + np.einsum("jk,jk->", a_s, hess)
            val = superharmonic_expression(chain, (0, 1), b, p, x)
            assert (p + 1.0) * val == pytest.approx(lf, rel=1e-4, abs=1e-6)

    def test_exponent_chain_enforced(self):
        with pytest.raises(BadExponentsError):
            superharmonic_sign_check(k3(), (0, 1), b=3.0, p=1.5, eps=0.3)

    def test_empty_region(self):
        with pytest.raises(EmptyRegionError):
            superharmonic_region_grid(k3(), (0, 1), eps=0.6, a0=0.25, resolution=10)


def test_out_of_range_site_is_bad_subset():
    with pytest.raises(BadSubsetError):
        trace_rate_mc(k3(), (0, 9), 0, n_excursions=10, seed=1)
    with pytest.raises(BadSubsetError):
        superharmonic_region_grid(k3(), (0, 7), eps=0.3, a0=0.25, resolution=10)
    with pytest.raises(BadSubsetError):
        superharmonic_expression(k3(), (0, 5), b=2.0, p=1.5, points=[0.5, 0.25, 0.25])


class TestLatticePoints:
    def test_exhaustive_enumeration(self):
        pts = _lattice_points(3, 10, max_points=1000, seed=0)
        assert pts.shape[0] == 66  # C(12, 2)
        lat = pts * 10
        np.testing.assert_allclose(lat, np.rint(lat), atol=1e-12)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.unique(lat.round().astype(int), axis=0).shape[0] == 66

    def test_sampled_when_large(self):
        pts = _lattice_points(4, 500, max_points=200, seed=1)
        assert pts.shape == (200, 4)
        lat = pts * 500
        np.testing.assert_allclose(lat, np.rint(lat), atol=1e-9)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)


class TestTexp:
    def test_zero_function(self):
        # A bump supported off the simplex vanishes identically on it.
        h = BumpFunction(center=[-1.0, -1.0, -1.0], width=[0.1, 0.1, 0.1])
        res = generator_taylor_residual(k3(), 1.5, h, [10, 20])
        assert res[10] == 0.0
        assert res[20] == 0.0

    def test_residual_decreases(self):
        h = BumpFunction(center=np.full(3, 1 / 3), width=np.full(3, 0.3))
        res = generator_taylor_residual(k3(), 1.5, h, [20, 40, 80])
        assert res[40] < res[20]
        assert res[80] < res[40]


class TestMartingaleResidual:
    def test_trapped_path_exact_zero(self):
        h = BumpFunction(center=np.full(3, 1 / 3), width=np.full(3, 0.25))
        samples = np.tile(np.array([1.0, 0.0, 0.0]), (5, 11, 1))
        times = np.linspace(0, 1, 11)
        res = martingale_residual(samples, times, h, lambda p: np.zeros(p.shape[:-1]))
        assert res.mean == 0.0
        assert res.n_paths == 5

    def test_unfinished_paths_rejected(self):
        h = BumpFunction(center=np.full(3, 1 / 3), width=np.full(3, 0.25))
        samples = np.full((2, 3, 3), np.nan)
        with pytest.raises(IncompletePathError):
            martingale_residual(samples, np.arange(3.0), h, lambda p: p.sum(-1))

    def test_no_paths_rejected(self):
        h = BumpFunction(center=np.full(3, 1 / 3), width=np.full(3, 0.25))
        with pytest.raises(IncompletePathError):
            martingale_residual(np.zeros((0, 3, 3)), np.arange(3.0), h, lambda p: p.sum(-1))

    @pytest.mark.parametrize("n_times", [0, 2, 4])
    def test_grid_of_another_length_rejected(self, n_times):
        h = BumpFunction(center=np.full(3, 1 / 3), width=np.full(3, 0.25))
        samples = np.full((2, 3, 3), 1 / 3)
        with pytest.raises(ConfigRangeError):
            martingale_residual(samples, np.arange(float(n_times)), h, lambda p: p.sum(-1))

    @pytest.mark.parametrize("engine", ["diffusion", "zrp"])
    @pytest.mark.parametrize(
        "block, widths",
        [(14, [2] * 5), (21, [3, 3, 3, 1]), (4, [1] * 10)],  # T = 7 > 4
    )
    def test_blocks_change_no_bit(self, monkeypatch, engine, block, widths):
        samples = _lattice_samples(10, 7)
        times = np.linspace(0.0, 0.15, 7)
        for h in standard_bumps(3, collar=4e-4):
            calls = []
            generator = _generators(h)[engine]

            def recorded(points):
                calls.append(points.shape[0])
                return generator(points)

            monkeypatch.setattr(experiments, "GENERATOR_BLOCK_POINTS", 10**9)
            whole = martingale_residual(samples, times, h, recorded)
            assert calls == [10]
            calls.clear()
            monkeypatch.setattr(experiments, "GENERATOR_BLOCK_POINTS", block)
            blocked = martingale_residual(samples, times, h, recorded)
            assert calls == widths
            assert whole.mean != 0.0
            assert (blocked.mean, blocked.stderr, blocked.n_paths) == (
                whole.mean, whole.stderr, whole.n_paths,
            )

    @pytest.mark.parametrize("engine", ["diffusion", "zrp"])
    def test_memory_bounded_in_paths(self, engine):
        # One generator call on all 2000 x 151 points would peak at 63 MB
        # (diffusion) and 28 MB (ZRP); the blocks keep it near 10 MB.
        samples = _lattice_samples(2000, 151)
        times = np.linspace(0.0, 0.15, 151)
        h = standard_bumps(3, collar=4e-4)[0]
        generator = _generators(h)[engine]
        tracemalloc.start()
        try:
            martingale_residual(samples, times, h, generator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def _lattice_samples(paths, n_times, n=100, seed=5):
    """(paths, n_times, 3) occupation fractions of n particles near the
    barycentre: lattice points that repeat, inside the standard bumps."""
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, np.full(3, 1 / 3), size=(paths, n_times)) / n


def _generators(h):
    config = ZrpConfig(chain=k3(), n_particles=100, b=1.5, seed=0)
    return {
        "diffusion": lambda points: generator_apply(config.chain, config.b, h, points),
        "zrp": lambda points: zrp_generator_apply(config, h, points),
    }


def _generator_cases():
    grid = tuple(np.linspace(0.0, 0.15, 31))
    yield "k3-N100", ZrpConfig(
        chain=k3(), n_particles=100, b=1.5, seed=11, sample_times=grid, horizon=0.15,
    ), [34, 33, 33], 200
    yield "asym3-corrected", ZrpConfig(
        chain=asym3(), n_particles=60, b=1.8, seed=12, g_family="corrected",
        g_correction=0.7, sample_times=grid, horizon=0.15,
    ), [20, 25, 15], 150


# Taken before the generators learned to skip repeated work; the values
# must not move by a single bit.
GENERATOR_PINNED = {
    "k3-N100": "cefa594340c8425b8f8923cf6c0503716242067547349d42f77076911f49cd30",
    "asym3-corrected": "8d9751c16a8c39c6efd20fa559bd53d5b3fb874397ba472847b986345a14223b",
}


def test_generator_values_pinned():
    # SHA-256 of both generators applied to the three standard bumps on
    # seeded (paths, T, L) ZRP sample arrays, which repeat lattice points.
    got = {}
    for name, config, eta0, paths in _generator_cases():
        samples = simulate_zrp_ensemble(config, eta0, paths).samples
        digest = hashlib.sha256()
        for h in standard_bumps(3, collar=4e-4):
            for vals in (
                zrp_generator_apply(config, h, samples),
                generator_apply(config.chain, config.b, h, samples),
            ):
                assert vals.shape == samples.shape[:-1]
                digest.update(np.ascontiguousarray(vals).tobytes())
        got[name] = digest.hexdigest()
    assert got == GENERATOR_PINNED
