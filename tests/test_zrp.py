import numpy as np
import pytest

from condensim.chain import validate_chain
from condensim.diffusion import DiffusionConfig
from condensim.errors import BadInitialError, ConfigRangeError, NotLatticeError
from condensim.zrp import (
    ZrpConfig,
    jump_rate_g,
    simulate_zrp_ensemble,
    zrp_generator_apply,
)

from _chains import k3


@pytest.fixture
def two_site():
    return validate_chain([[0.0, 1.0], [1.0, 0.0]])


class TestJumpRate:
    def test_default_family_value(self, two_site):
        g = jump_rate_g(0, 2, two_site.m, b=1.5)
        assert g == pytest.approx(0.875, abs=1e-15)

    def test_empty_site_never_jumps(self, two_site):
        for family in ("default", "corrected"):
            assert jump_rate_g(0, 0, two_site.m, b=1.5, family=family) == 0.0

    def test_tail_approaches_measure(self, two_site):
        n = np.array([1, 10, 1000, 10**6])
        g = jump_rate_g(1, n, two_site.m, b=2.0)
        m1 = two_site.m[1]
        assert np.all(np.abs(g - m1) <= m1 * 2.0 / n + 1e-15)

    def test_finite_n_identity(self, two_site):
        # n (g(n)/m - 1) = b exactly for the default family.
        n = np.arange(1, 50)
        g = jump_rate_g(0, n, two_site.m, b=1.7)
        np.testing.assert_allclose(n * (g / two_site.m[0] - 1.0), 1.7, atol=1e-12)

    def test_corrected_family(self, two_site):
        g = jump_rate_g(0, 2, two_site.m, b=1.5, family="corrected", correction=1.0)
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
        chain = k3()
        config = ZrpConfig(chain=chain, n_particles=10, b=1.5, seed=0)
        pts = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        vals = zrp_generator_apply(config, lambda x: x[..., 1] ** 2, pts)
        singles = [
            zrp_generator_apply(config, lambda x: x[..., 1] ** 2, p) for p in pts
        ]
        np.testing.assert_allclose(vals, singles)


class TestSimulate:
    def test_wrong_particle_count_rejected(self):
        config = ZrpConfig(chain=k3(), n_particles=10, b=1.5, seed=1)
        with pytest.raises(BadInitialError):
            simulate_zrp_ensemble(config, [3, 3, 3], 1)

    def test_already_condensed_at_start(self):
        config = ZrpConfig(chain=k3(), n_particles=30, b=1.5, seed=1, delta=0.05)
        ens = simulate_zrp_ensemble(config, [30, 0, 0], 1)
        assert ens.t_cond[0] == 0.0
        assert ens.winner[0] == 0

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
        g1 = jump_rate_g(0, 1, chain.m, b=1.5)
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
