import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from condensim.chain import dirichlet_matrix, trace_rates, validate_chain
from condensim.diffusion import (
    DiffusionConfig,
    FaceTable,
    drift,
    drift_field,
    em_step,
    generator_apply,
    simulate_diffusion_ensemble,
)
from condensim.errors import (
    ConfigRangeError,
    NonSimplexStartError,
    StepBlowupError,
    ZeroCoordinateError,
)

from _chains import k3, random_irreducible_chain

# Deterministic blow-down time of the two-site drift ODE
#   dx/dt = c (2x - 1) / (x (1 - x)),  c = b * M,
# from x0 = 1/4 to 0: the separable integral gives
#   t* = (ln 2 - 3/8) / (8 c).
TWO_SITE_BLOWDOWN = (np.log(2.0) - 0.375) / (8 * 0.75)


@pytest.fixture
def two_site():
    return validate_chain([[0.0, 1.0], [1.0, 0.0]])


def face_masks(x: np.ndarray) -> np.ndarray:
    """Bitmask of the strictly positive coordinates of each row."""
    return ((x > 0) << np.arange(x.shape[1])).sum(axis=1)


def engine_drift(chain, x, b):
    """The engine's drift at the rows of x, each on its own support."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return drift(FaceTable(chain), face_masks(x), x, chain.m, b)[1]


def engine_step(chain, x, dt, xi=None, b=1.5, noise_scale=1.0):
    """One engine EM step of the single point x on its own support."""
    faces = FaceTable(chain)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    masks = face_masks(x)
    _, drift_vec = drift(faces, masks, x, chain.m, b)
    xi = np.zeros((1, chain.size, chain.size)) if xi is None else xi[None]
    x_new, t_new = em_step(
        faces, masks, np.arange(1), x, np.zeros(1), drift_vec,
        np.full(1, dt), xi, noise_scale,
    )
    assert t_new[0] == dt
    return x_new[0]


class TestDrift:
    def test_barycenter_of_symmetric_chain_is_critical(self):
        np.testing.assert_allclose(
            engine_drift(k3(), np.full(3, 1 / 3), b=1.5), 0.0, atol=1e-12
        )

    def test_k3_point_value(self):
        np.testing.assert_allclose(
            engine_drift(k3(), [0.5, 0.25, 0.25], b=1.5), [[2.0, -1.0, -1.0]], atol=1e-12
        )

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(31)
        chain = random_irreducible_chain(rng, 5)
        points = rng.dirichlet(np.ones(5), size=10)
        points[:3, 1] = 0.0  # rows on faces, off-face drift must vanish
        points /= points.sum(axis=1, keepdims=True)
        d = engine_drift(chain, points, b=2.0)
        assert np.all(np.abs(d.sum(axis=1)) <= 1e-12)
        assert np.all(d[:3, 1] == 0.0)

    def test_zero_active_coordinate_rejected(self):
        # A coordinate of the active face that is zero or NaN means an
        # absorption was missed; it must not yield an infinite drift.
        faces = FaceTable(k3())
        for bad in (0.0, np.nan):
            x = np.array([[bad, 0.5, 0.5]])
            with pytest.raises(ZeroCoordinateError):
                drift(faces, np.array([0b111]), x, k3().m, 1.5)


class TestNoiseBasis:
    """The engine's noise columns sqrt(m_j r^B(j,k)) (e_k - e_j), one per
    ordered pair of the face, are read off FaceTable.noise_c."""

    @staticmethod
    def columns(faces, mask):
        c = faces.noise_c[mask]
        cols = []
        for j, k in zip(*np.nonzero(~np.eye(c.shape[0], dtype=bool))):
            col = np.zeros(c.shape[0])
            col[k] = c[j, k]
            col[j] = -c[j, k]
            cols.append(col)
        return np.asarray(cols)

    def test_k3_column_entries(self):
        faces = FaceTable(k3())
        cols = self.columns(faces, 0b111)
        assert cols.shape == (6, 3)
        nz = cols[np.abs(cols) > 0]
        assert nz.size == 12
        np.testing.assert_allclose(np.abs(nz), np.sqrt(1 / 3), atol=1e-14)
        assert np.all(np.diag(faces.noise_c[0b111]) == 0.0)

    def test_columns_sum_to_zero(self):
        # Face {0, 1}: the noise stays on the face and on the hyperplane.
        faces = FaceTable(k3())
        cols = self.columns(faces, 0b011)
        np.testing.assert_allclose(cols.sum(axis=1), 0.0, atol=1e-15)
        assert np.all(cols[:, 2] == 0.0)
        x = np.array([0.5, 0.5, 0.0])
        new = engine_step(k3(), x, 1e-3, xi=np.arange(9.0).reshape(3, 3))
        assert new[2] == 0.0
        assert abs((new - x).sum()) <= 1e-15
        assert not np.allclose(new, x)

    def test_outer_product_identity_random(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            chain = random_irreducible_chain(rng, int(rng.integers(3, 7)))
            faces = FaceTable(chain)
            for mask in range(1, 1 << chain.size):
                members = [j for j in range(chain.size) if mask >> j & 1]
                if len(members) < 2:
                    continue
                trace = trace_rates(chain, members)
                cols = self.columns(faces, mask)
                outer = cols.T @ cols
                np.testing.assert_allclose(
                    outer[np.ix_(members, members)], 2 * trace.dirichlet, atol=1e-12
                )
                np.testing.assert_allclose(faces.noise_diag[mask], np.diag(outer), atol=1e-12)


class TestEmStep:
    def test_fixed_point_with_zero_draws(self):
        x = np.full(3, 1 / 3)
        np.testing.assert_allclose(engine_step(k3(), x, 1e-3), x, atol=1e-15)

    def test_ode_mode_drift_sign(self, two_site):
        # b * M * (1/x_2 - 1/x_1) = 1.5 * 0.5 * (4/3 - 4) < 0.
        new = engine_step(two_site, [0.25, 0.75], 1e-4, noise_scale=0.0)
        assert new[0] < 0.25

    def test_single_drift_step_value(self):
        new = engine_step(k3(), [0.5, 0.25, 0.25], 1e-3)
        np.testing.assert_allclose(new, [0.5 + 2e-3, 0.25 - 1e-3, 0.25 - 1e-3], atol=1e-12)

    def test_noise_moves_state(self):
        x = np.full(3, 1 / 3)
        new = engine_step(k3(), x, 1e-3, xi=np.arange(9.0).reshape(3, 3))
        assert not np.allclose(new, x)
        assert new.sum() == pytest.approx(1.0, abs=1e-12)

    def test_blowup_detected(self):
        # A huge step against a nearly-vanished coordinate produces
        # increments so large that float cancellation breaks the
        # hyperplane budget, which must surface, not renormalize away.
        with pytest.raises(StepBlowupError):
            engine_step(k3(), [1e-15, 0.5, 0.5 - 1e-15], 1e3)
        # A NaN increment must surface the same way.
        faces = FaceTable(k3())
        x = np.full((1, 3), 1 / 3)
        with pytest.raises(StepBlowupError):
            em_step(
                faces, np.array([0b111]), np.arange(1), x, np.zeros(1),
                np.array([[np.nan, 0.0, 0.0]]), np.full(1, 1e-3), np.zeros((1, 3, 3)), 1.0,
            )


class TestSimulate:
    def test_vertex_start_trapped_immediately(self):
        config = DiffusionConfig(chain=k3(), b=1.5, seed=3)
        ens = simulate_diffusion_ensemble(config, [1.0, 0.0, 0.0], 1)
        assert ens.trapped_vertex[0] == 0
        assert ens.trapped_time[0] == 0.0
        assert ens.events[0] == []

    def test_non_simplex_start_rejected(self):
        config = DiffusionConfig(chain=k3(), b=1.5, seed=3)
        for x0 in ([0.7, 0.7, 0.1], [np.nan, 0.5, 0.5]):
            with pytest.raises(NonSimplexStartError):
                simulate_diffusion_ensemble(config, x0, 1)

    def test_ode_blowdown_time_matches_reference(self, two_site):
        # Independent oracle: high-accuracy integration of the drift ODE
        # down to the absorption threshold.
        config = DiffusionConfig(
            chain=two_site, b=1.5, seed=0, noise_scale=0.0, dt_base=2.5e-4,
        )

        def rhs(_, y):
            return 0.75 * (2 * y[0] - 1) / (y[0] * (1 - y[0]))

        hit = lambda _, y: y[0] - config.eps_abs
        hit.terminal = True
        hit.direction = -1
        ref = solve_ivp(
            rhs, (0.0, 1.0), [0.25], rtol=1e-12, atol=1e-14, events=hit,
            dense_output=False, max_step=1e-3,
        )
        t_ref = float(ref.t_events[0][0])
        # Reference agrees with the closed-form blow-down integral.
        assert t_ref == pytest.approx(TWO_SITE_BLOWDOWN, abs=1e-6)

        ens = simulate_diffusion_ensemble(config, [0.25, 0.75], 1)
        assert ens.trapped_vertex[0] == 1
        assert ens.sigma1[0] == pytest.approx(t_ref, abs=1e-3)

    def test_absorption_structure(self):
        config = DiffusionConfig(chain=k3(), b=1.5, seed=17)
        ens = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=50)
        assert np.all(ens.trapped_vertex >= 0)
        for i in range(50):
            masks = [0b111] + [mask for _, mask in ens.events[i]]
            for prev, cur in zip(masks, masks[1:]):
                assert cur & prev == cur != prev
            assert ens.events[i][-1][1] == 1 << ens.trapped_vertex[i]
            times = [t for t, _ in ens.events[i]]
            assert all(a < b for a, b in zip(times, times[1:]))

    def test_zeros_stay_zero_in_samples(self):
        times = tuple(np.linspace(0.0, 2.0, 81))
        config = DiffusionConfig(chain=k3(), b=1.5, seed=23, sample_times=times)
        ens = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=20)
        for i in range(20):
            pts = ens.samples[i]
            masks = ens.sample_masks[i]
            for row, mask in zip(pts, masks):
                for j in range(3):
                    if not mask >> j & 1:
                        assert row[j] == 0.0
            # Once a coordinate leaves the active set it never returns.
            for j in range(3):
                active = (masks >> j & 1).astype(bool)
                switch = np.nonzero(~active)[0]
                if switch.size:
                    assert not active[switch[0]:].any()

    def test_simplex_conservation(self):
        times = tuple(np.linspace(0.0, 1.0, 51))
        config = DiffusionConfig(chain=k3(), b=1.5, seed=29, sample_times=times)
        ens = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=20)
        sums = ens.samples.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_determinism_bit_identical(self):
        config = DiffusionConfig(chain=k3(), b=1.5, seed=41)
        a = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=10)
        b = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=10)
        assert np.array_equal(a.sigma1, b.sigma1)
        assert np.array_equal(a.trapped_time, b.trapped_time)
        assert np.array_equal(a.trapped_vertex, b.trapped_vertex)

    def test_paths_independent_of_batch_size(self):
        config = DiffusionConfig(chain=k3(), b=1.5, seed=43)
        big = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=6)
        small = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), n_paths=3)
        np.testing.assert_array_equal(big.sigma1[:3], small.sigma1)
        np.testing.assert_array_equal(big.trapped_vertex[:3], small.trapped_vertex)

    def test_roundoff_negative_trace_rate_is_clipped(self):
        # On this chain the trace rate on face {0,1,2,3,4,5,7} comes out
        # near -3.8e-16 before clipping; its square root used to put NaN
        # noise into the face table, and the NaN paths never retired.
        rng = np.random.default_rng(0)
        chain = [random_irreducible_chain(rng, size) for size in (6, 8, 10)][-1]
        for mask in range(1, 1 << chain.size):
            members = [j for j in range(chain.size) if mask >> j & 1]
            if len(members) >= 2:
                assert np.all(trace_rates(chain, members).rates >= 0), members
        assert np.all(np.isfinite(FaceTable(chain).noise_c))
        # A hang must fail this test instead of stalling the suite.
        script = (
            "import numpy as np\n"
            "from condensim.chain import validate_chain\n"
            "from condensim.diffusion import DiffusionConfig, simulate_diffusion_ensemble\n"
            f"chain = validate_chain(np.array({chain.rates.tolist()!r}))\n"
            "config = DiffusionConfig(chain, b=1.5, seed=1, horizon=0.5, sample_times=(0.25, 0.5))\n"
            "ens = simulate_diffusion_ensemble(config, np.full(10, 0.1), 500)\n"
            "assert np.all(np.isfinite(ens.samples))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_small_b_requires_override(self):
        with pytest.raises(ConfigRangeError):
            DiffusionConfig(chain=k3(), b=0.8, seed=1)
        with pytest.warns(UserWarning):
            DiffusionConfig(chain=k3(), b=0.8, seed=1, allow_small_b=True, horizon=0.1)


class TestSchemeAccuracy:
    def test_blowdown_error_first_order_in_dt(self, two_site):
        errors = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            config = DiffusionConfig(
                chain=two_site, b=1.5, seed=0, noise_scale=0.0, dt_base=dt
            )
            ens = simulate_diffusion_ensemble(config, [0.25, 0.75], 1)
            errors.append(abs(ens.sigma1[0] - TWO_SITE_BLOWDOWN))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]
        # Halving dt roughly halves the error.
        assert 1.4 < errors[0] / errors[1] < 2.8
        assert 1.4 < errors[1] / errors[2] < 2.8

    def test_martingale_bias_decays_in_dt(self):
        # With the bare quadratic step rule the discretization bias of
        # the martingale residual is resolvable at coarse dt and must
        # shrink as dt halves.  (The clamped rule suppresses it below
        # Monte-Carlo noise already at these step sizes.)
        from condensim.bumps import BumpFunction
        from condensim.diffusion import generator_apply, simulate_diffusion_ensemble
        from condensim.experiments import martingale_residual

        chain = k3()
        h = BumpFunction(center=[0.55, 0.25, 0.20], width=[0.18, 0.14, 0.12])
        grid = tuple(np.linspace(0.0, 0.12, 121))
        x0 = np.array([0.55, 0.25, 0.20])
        means = []
        for dt in (4e-3, 2e-3, 1e-3):
            config = DiffusionConfig(
                chain=chain, b=1.5, seed=99, horizon=0.12,
                sample_times=grid, dt_base=dt, dt_rule="quadratic",
            )
            ens = simulate_diffusion_ensemble(config, x0, 8000)
            res = martingale_residual(
                ens.samples, ens.times, h,
                lambda p: generator_apply(chain, 1.5, h, p),
            )
            means.append(abs(res.mean))
        assert means[1] < means[0]
        assert means[2] < means[1]


class TestGeneratorApply:
    def test_matches_manual_sum_formulation(self):
        # Tr[a_s Hess] must equal (1/2) sum_{jk} m_j r(j,k) (d_k - d_j)^2.
        from condensim.bumps import BumpFunction

        rng = np.random.default_rng(47)
        chain = random_irreducible_chain(rng, 4)
        h = BumpFunction(center=np.full(4, 0.25), width=np.full(4, 0.2))
        pts = rng.dirichlet(np.ones(4), size=30)
        a_s = dirichlet_matrix(chain)
        vals = generator_apply(chain, 1.5, h, pts)
        for x, val in zip(pts, vals):
            grad = h.gradient(x)
            hess = h.hessian(x)
            first = drift_field(chain, 1.5, x) @ grad
            second = 0.0
            for j in range(4):
                for k in range(4):
                    second += 0.5 * chain.m[j] * chain.rates[j, k] * (
                        hess[k, k] - 2 * hess[j, k] + hess[j, j]
                    )
            assert val == pytest.approx(first + second, abs=1e-10)
            assert np.einsum("jk,jk->", a_s, hess) == pytest.approx(second, abs=1e-10)

    def test_two_site_second_order_coefficient(self, two_site):
        # Reduction to one dimension: for H(x) = f(x_1) the second-order
        # part is (M_1 + M_2) / 2 * f''(x_1).
        class Quad:
            def gradient(self, x):
                g = np.zeros_like(x)
                g[..., 0] = 2 * x[..., 0]
                return g

            def hessian(self, x):
                h = np.zeros(x.shape + (2,))
                h[..., 0, 0] = 2.0
                return h

        m_sum = float(two_site.embedded_weights.sum())
        val = generator_apply(two_site, 1.5, Quad(), np.array([0.5, 0.5]))
        # Drift vanishes at the symmetric midpoint, leaving the second
        # order term 0.5 * (M_1 + M_2) * f'' with f'' = 2.
        assert val == pytest.approx(0.5 * m_sum * 2.0, abs=1e-12)
