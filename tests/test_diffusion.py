import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from condensim.chain import (
    UNITY_TOL,
    ChainSpec,
    dirichlet_matrix,
    harmonic_extensions,
    trace_rates,
    validate_chain,
)
from condensim.diffusion import (
    DiffusionConfig,
    FaceTable,
    _check_outputs,
    drift,
    drift_field,
    em_step,
    generator_apply,
    simulate_diffusion_ensemble,
)
from condensim.errors import (
    ConfigRangeError,
    NonSimplexStartError,
    OutputInvariantError,
    SingularSystemError,
    StepBlowupError,
    StepStallError,
    ZeroCoordinateError,
)

from _chains import (
    all_subsets_with_at_least, k3, random_irreducible_chain, ring, run_python,
)

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
    return drift(FaceTable(chain), face_masks(x), x.T, chain.m, b)[1].T


def engine_step(chain, x, dt, xi=None, b=1.5, noise_scale=1.0):
    """One engine EM step of the single point x on its own support."""
    faces = FaceTable(chain)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    masks = face_masks(x)
    _, drift_vec = drift(faces, masks, x.T, chain.m, b)
    xi = np.zeros((1, chain.size)) if xi is None else xi[None]
    x_new, t_new = em_step(
        faces, masks, np.arange(1), x.T, np.zeros(1), drift_vec,
        np.full(1, dt), xi, noise_scale,
    )
    assert t_new[0] == dt
    return x_new[:, 0]


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
                drift(faces, np.array([0b111]), x.T, k3().m, 1.5)


class TestNoiseBasis:
    """The engine's noise is F xi with F = FaceTable.noise_f of the face:
    F F^T = 2 a_s^B on the face, zero rows off it, zero column sums."""

    def test_k3_closed_form(self):
        # K3 with uniform m: a_s = I - 11^T / 3.
        faces = FaceTable(k3())
        f = faces.noise_f[0b111]
        np.testing.assert_allclose(f @ f.T, 2 * (np.eye(3) - 1 / 3), atol=1e-14)
        np.testing.assert_allclose(faces.noise_diag[0b111], 4 / 3, atol=1e-14)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-15)

    def test_columns_sum_to_zero(self):
        # Face {0, 1}: the noise stays on the face and on the hyperplane.
        faces = FaceTable(k3())
        f = faces.noise_f[0b011]
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-15)
        assert np.all(f[2] == 0.0)
        x = np.array([0.5, 0.5, 0.0])
        new = engine_step(k3(), x, 1e-3, xi=np.arange(1.0, 4.0))
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
                f = faces.noise_f[mask]
                outer = f @ f.T
                off = np.ones(chain.size, dtype=bool)
                off[members] = False
                np.testing.assert_allclose(
                    outer[np.ix_(members, members)], 2 * dirichlet_matrix(trace), atol=1e-12
                )
                np.testing.assert_allclose(faces.noise_diag[mask], np.diag(outer), atol=1e-12)
                np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12)
                assert np.all(f[off] == 0.0)

    def test_singular_face_raises_typed_error(self):
        # Two sites with no rates, built without validation: the
        # Dirichlet matrix is zero, so it has no Cholesky factor.
        with pytest.raises(SingularSystemError, match="not positive on the face"):
            FaceTable(ChainSpec(np.zeros((2, 2)), np.full(2, 0.5)))

    def test_increment_covariance_is_twice_dirichlet(self):
        # With zero drift, the one-step increments of em_step on the face
        # {0, 1, 2, 4} of a random 5-site chain have covariance 2 a_s^B dt.
        # The sample covariance of n gaussian rows has standard error
        # sqrt((S_jj S_kk + S_jk^2) / n) in entry (j, k).
        rng = np.random.default_rng(53)
        chain = random_irreducible_chain(rng, 5)
        faces = FaceTable(chain)
        members = [0, 1, 2, 4]
        mask = 0b10111
        n, dt = 100_000, 1e-4
        x = np.zeros((n, 5))
        x[:, members] = [0.3, 0.2, 0.25, 0.25]
        x_new, _ = em_step(
            faces, np.full(n, mask), np.arange(n), x.T, np.zeros(n), np.zeros((5, n)),
            np.full(n, dt), rng.standard_normal((n, 5)), 1.0,
        )
        incr = x_new.T - x
        assert np.all(incr[:, 3] == 0.0)
        cov = incr.T @ incr / (n * dt)
        want = np.zeros((5, 5))
        want[np.ix_(members, members)] = 2 * dirichlet_matrix(trace_rates(chain, members))
        diag = np.diag(want)
        stderr = np.sqrt((np.outer(diag, diag) + want**2) / n)
        ix = np.ix_(members, members)
        assert np.all(np.abs(cov[ix] - want[ix]) <= 4 * stderr[ix]), (cov[ix] - want[ix]) / stderr[ix]


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
        new = engine_step(k3(), x, 1e-3, xi=np.arange(1.0, 4.0))
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
                faces, np.array([0b111]), np.arange(1), x.T, np.zeros(1),
                np.array([[np.nan, 0.0, 0.0]]).T, np.full(1, 1e-3), np.zeros((1, 3)), 1.0,
            )


class TestSimulate:
    def test_vertex_start_trapped_immediately(self, generator_calls):
        # A vertex start has condensed at time zero when a threshold is
        # set; without one t_cond is NaN, as on every other run.  It
        # never steps, so it builds no random generator.
        for cond_delta, t_cond in ((None, np.nan), (0.1, 0.0)):
            config = DiffusionConfig(chain=k3(), b=1.5, seed=3, cond_delta=cond_delta)
            ens = simulate_diffusion_ensemble(config, [1.0, 0.0, 0.0], 1)
            assert ens.trapped_vertex[0] == 0
            assert ens.trapped_time[0] == 0.0
            assert ens.events[0] == []
            np.testing.assert_array_equal(ens.t_cond, [t_cond])
        assert generator_calls == []
        # An interior start builds one generator per path.
        simulate_diffusion_ensemble(config, np.full(3, 1 / 3), 2)
        assert generator_calls == [0, 1]

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
        assert np.all(np.isfinite(FaceTable(chain).noise_f))
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
        done = run_python(script, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_zero_step_raises_instead_of_hanging(self):
        # A step of 0 (here forced past the config check) leaves every
        # clock where it is; the loop must fail, not spin forever.
        script = (
            "import numpy as np\n"
            "from condensim.chain import validate_chain\n"
            "from condensim.diffusion import DiffusionConfig, simulate_diffusion_ensemble\n"
            "from condensim.errors import StepStallError\n"
            f"chain = validate_chain(np.array({k3().rates.tolist()!r}))\n"
            "config = DiffusionConfig(chain, b=1.5, seed=1)\n"
            "object.__setattr__(config, 'dt_base', 0.0)\n"
            "try:\n"
            "    simulate_diffusion_ensemble(config, np.full(3, 1 / 3), 4)\n"
            "except StepStallError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no StepStallError')\n"
        )
        done = run_python(script, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("path 0 does not advance from t=0")

    def test_zero_step_names_the_stalled_path(self):
        faces = FaceTable(k3())
        x = np.full((3, 2), 1 / 3)
        with pytest.raises(StepStallError, match="path 7 does not advance from t=0.5"):
            em_step(
                faces, np.full(2, 0b111), np.array([3, 7]), x, np.full(2, 0.5),
                np.zeros((3, 2)), np.array([1e-3, 0.0]), None, 0.0,
            )

    def test_small_b_requires_override(self):
        with pytest.raises(ConfigRangeError):
            DiffusionConfig(chain=k3(), b=0.8, seed=1)
        with pytest.warns(UserWarning):
            DiffusionConfig(chain=k3(), b=0.8, seed=1, allow_small_b=True, horizon=0.1)

    def test_threshold_must_leave_a_coordinate(self):
        # With eps_abs * L >= 1 one step can put every coordinate under
        # the threshold and absorb the path to the empty face.
        with pytest.raises(ConfigRangeError, match="eps_abs"):
            DiffusionConfig(chain=ring(12), b=1.5, seed=1, eps_abs=0.09)
        DiffusionConfig(chain=ring(12), b=1.5, seed=1, eps_abs=0.08)

    def test_face_table_cap_checked_by_the_config(self):
        # The face table holds 2^L faces; the config rejects L > 12
        # before any engine work.
        with pytest.raises(ConfigRangeError, match="^chain has 13 sites"):
            DiffusionConfig(chain=ring(13), b=1.5, seed=1, eps_abs=0.01)

    def test_condensation_threshold_in_unit_interval(self):
        # 1.5 would put every t_cond at 0; -0.1 and NaN would record
        # the trap time instead of a threshold crossing.
        for cond_delta in (1.5, -0.1, np.nan):
            with pytest.raises(ConfigRangeError, match="cond_delta"):
                DiffusionConfig(chain=k3(), b=1.5, seed=1, cond_delta=cond_delta)


def _pinned_cases(noise_scale):
    grid = tuple(np.linspace(0.0, 0.2, 11))
    x8 = np.arange(1.0, 9.0) / 36.0
    tag = "ode" if noise_scale == 0 else "noisy"
    common = dict(b=1.5, noise_scale=noise_scale, cond_delta=0.1)
    horizon = dict(horizon=0.2, sample_times=grid)
    yield f"k3-trap-{tag}", DiffusionConfig(chain=k3(), seed=7, **common), [0.5, 0.3, 0.2], 20
    yield f"k3-horizon-{tag}", DiffusionConfig(
        chain=k3(), seed=8, **common, **horizon
    ), [0.5, 0.3, 0.2], 20
    # Seven sites: every sum down the sites has at most 7 terms, which
    # numpy adds in order whether the paths are rows or columns.
    x7 = np.arange(1.0, 8.0) / 28.0
    yield f"ring7-trap-{tag}", DiffusionConfig(chain=ring(7), seed=15, **common), x7, 20
    yield f"ring8-trap-{tag}", DiffusionConfig(chain=ring(8), seed=9, **common), x8, 10
    yield f"ring8-horizon-{tag}", DiffusionConfig(
        chain=ring(8), seed=10, **common, **horizon
    ), x8, 10
    # Ten sites: faces wide enough for kept-mass sums of 8 or 9 terms,
    # which numpy adds pairwise, not in order.
    x10 = np.arange(1.0, 11.0) / 55.0
    yield f"ring10-trap-{tag}", DiffusionConfig(chain=ring(10), seed=11, **common), x10, 10
    yield f"ring10-horizon-{tag}", DiffusionConfig(
        chain=ring(10), seed=12, **common, **horizon
    ), x10, 10
    # Twelve sites, the FaceTable cap: the widest faces, with hyperplane
    # and kept-mass sums of up to 12 terms.
    x12 = np.arange(1.0, 13.0) / 78.0
    yield f"ring12-trap-{tag}", DiffusionConfig(chain=ring(12), seed=13, **common), x12, 60
    yield f"ring12-horizon-{tag}", DiffusionConfig(
        chain=ring(12), seed=14, **common, **horizon
    ), x12, 60


def _digest(ens) -> str:
    h = hashlib.sha256()
    for a in (
        ens.sigma1, ens.trapped_vertex, ens.trapped_time, ens.t_cond,
        ens.samples, ens.sample_masks,
    ):
        h.update(b"none" if a is None else np.ascontiguousarray(a).tobytes())
    h.update(repr(ens.events).encode())
    return h.hexdigest()


# Drift-only runs: every formula but the noise.  Like the noisy runs,
# a change that alters their rounding on purpose updates them and says
# so in CHANGES.md.
PINNED_ODE = {
    "k3-trap-ode": "6ecc7cdb53975ea122c407d47baa111066ea27839c0d48212890ebb148b33138",
    "k3-horizon-ode": "f4fc68178781ff59ee02fbd2f6d8c1cb9254903c4345bac637b0ea1d6049d0db",
    "ring7-trap-ode": "779304482d55c27b95ada2d9f91c0ab4c2f3d57dca26c8f54568643630d394b4",
    "ring8-trap-ode": "16b8189e5abf636065e43bbf04f977c6505c214527430cdf7a6cad6eab15f4ba",
    "ring8-horizon-ode": "38fcac9749d1d0f443cd1e8a00bc282d6e527ffb43f2d8e0ab9a0f740e7b58ec",
    "ring10-trap-ode": "d1d571b92d30e9cfab667fbb3d9ca9500b8de47b8d56b92e638154da42157af5",
    "ring10-horizon-ode": "7e7229d547cde6028177cd4476b41080252d9ef7dc54322bd798d23e37be0ca3",
    "ring12-trap-ode": "d55860d6938a14c690c1881e61eebfb58e49899bf469425d6d968dce40965189",
    "ring12-horizon-ode": "1f394d5cdf5bc11416ec35b7098742e0b39653b6f0dac11e856983b268057d6e",
}

# Noisy runs: the gaussian streams and the per-face noise factor too.  A
# change that alters a stream on purpose updates them and says so in
# CHANGES.md.
PINNED_NOISY = {
    "k3-trap-noisy": "645cf739f88e7752adde9cc70bfb50eb61a2d2419c22f411ea3bd451e65d05db",
    "k3-horizon-noisy": "ab9f22f1b032d92ee96c88ddc3065c0047f032b362e0cabcb9a588b6402331f2",
    "ring7-trap-noisy": "27b1be3cc103cdca7d829aeef246e9c08c092e2b84d9d176b9f4bbae4cfd0696",
    "ring8-trap-noisy": "7d64e4deb3a5e30675de638af3df0c636725ec0013d87c62cc1392d16035b40d",
    "ring8-horizon-noisy": "c67c76d387915141368a1d3342973fc4821f0e06a86a53a679f8bc467f06a21f",
    "ring10-trap-noisy": "3cd9c092680ce0b1b3dc8af39a41edcf91b3cc08c4164d28670ac1dfb8647e53",
    "ring10-horizon-noisy": "3f51d4af9ef578faeb1ea21a33ff49b4513c3d24617b9f03c823eeda9a3d4408",
    "ring12-trap-noisy": "4ef3dcc3ab2e55280e29c9cc0ce7da0dcddc3a42b8aeceb29015b452f7af9810",
    "ring12-horizon-noisy": "464c62fcf95aff82e3144c4e4e3ebd850da1b6dad3351f7d756dfbccdbc7c46d",
}


@pytest.mark.parametrize(
    "noise_scale, pinned", [(0.0, PINNED_ODE), (1.0, PINNED_NOISY)], ids=["ode", "noisy"]
)
def test_engine_outputs_pinned(noise_scale, pinned):
    # SHA-256 of the absorption times, trapped vertices, condensation
    # times, samples with their faces, and the absorption events.
    got = {
        name: _digest(simulate_diffusion_ensemble(config, x0, paths))
        for name, config, x0, paths in _pinned_cases(noise_scale)
    }
    assert got == pinned


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 10))
def test_face_table_factors_every_face(seed, size):
    chain = random_irreducible_chain(np.random.default_rng(seed), size)
    faces = FaceTable(chain)
    assert np.all(np.isfinite(faces.noise_f))
    for mask in range(1, 1 << size):
        members = [j for j in range(size) if mask >> j & 1]
        if len(members) < 2:
            continue
        trace = trace_rates(chain, members)
        assert np.all(trace.rates >= 0), members
        # Hitting probabilities: 0 <= u <= 1 and each row sums to 1.
        u = harmonic_extensions(chain, members)
        assert np.all((u >= 0) & (u <= 1)), members
        assert np.abs(u.sum(axis=1) - 1.0).max() <= UNITY_TOL, members
        f = faces.noise_f[mask][members]
        want = 2 * dirichlet_matrix(trace)
        tol = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(f @ f.T, want, rtol=0, atol=tol)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, rtol=0, atol=tol)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 6))
def test_face_table_of_trace_is_restriction(seed, size):
    # The diffusion on a face of B is the face diffusion of the trace
    # chain on B: the face table built from the trace agrees, face by
    # face, with the full table restricted to the sites of B.
    chain = random_irreducible_chain(np.random.default_rng(seed), size)
    faces = FaceTable(chain)
    tol = 1e-13 * chain.holding.max()
    for b in all_subsets_with_at_least(size, 3):
        sub = FaceTable(trace_rates(chain, b))
        ix = np.ix_(b, b)
        for sub_mask in range(1, 1 << len(b)):
            mask = sum(1 << j for i, j in enumerate(b) if sub_mask >> i & 1)
            assert np.array_equal(sub.active[:, sub_mask], faces.active[list(b), mask])
            np.testing.assert_allclose(
                sub.drift_v[sub_mask], faces.drift_v[mask][ix], rtol=0, atol=tol
            )
            f, g = sub.noise_f[sub_mask], faces.noise_f[mask][list(b)]
            np.testing.assert_allclose(f @ f.T, g @ g.T, rtol=0, atol=tol)


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 6),
    n_paths=st.integers(2, 6),
)
def test_horizon_runs_are_consistent(seed, size, n_paths):
    rng = np.random.default_rng(seed)
    chain = random_irreducible_chain(rng, size)
    horizon = float(rng.uniform(0.005, 0.05))
    config = DiffusionConfig(
        chain=chain, b=float(rng.uniform(1.1, 3.0)), seed=seed, horizon=horizon,
        sample_times=tuple(np.unique(rng.uniform(0.0, horizon, 5))),
        cond_delta=float(rng.uniform(0.05, 0.5)),
    )
    x0 = rng.dirichlet(np.ones(size))
    ens = simulate_diffusion_ensemble(config, x0, n_paths)

    # Every sample is finite and lies on the simplex, on its own face.
    assert np.all(np.isfinite(ens.samples))
    assert np.all(ens.samples >= 0)
    np.testing.assert_allclose(ens.samples.sum(axis=-1), 1.0, atol=1e-9)
    off_face = ((ens.sample_masks[..., None] >> np.arange(size)) & 1) == 0
    assert np.all(ens.samples[off_face] == 0.0)
    for events in ens.events:
        assert all(t <= horizon for t, _ in events)

    # Path i depends on its own stream only.
    k = n_paths // 2
    head = simulate_diffusion_ensemble(config, x0, k)
    for a, b in (
        (ens.sigma1, head.sigma1), (ens.trapped_vertex, head.trapped_vertex),
        (ens.trapped_time, head.trapped_time), (ens.t_cond, head.t_cond),
        (ens.samples, head.samples), (ens.sample_masks, head.sample_masks),
    ):
        np.testing.assert_array_equal(a[:k], b)
    assert ens.events[:k] == head.events


def test_sample_at_a_step_time_is_that_steps_state(two_site):
    # Far from the boundary the quadratic rule takes dt = dt_base, a
    # power of two, so step k ends exactly at k * dt_base.  The state
    # after a step stands for (t, t_new]: a sample at 3 dt_base is the
    # state after step 3, not after step 4.
    h = 2.0**-12
    config = DiffusionConfig(
        chain=two_site, b=1.5, seed=0, noise_scale=0.0, dt_rule="quadratic",
        dt_base=h, horizon=8 * h, sample_times=(3 * h,),
    )
    ens = simulate_diffusion_ensemble(config, [0.25, 0.75], 1)
    faces, masks = FaceTable(two_site), np.array([0b11])
    x, t = np.array([[0.25, 0.75]]).T, np.zeros(1)
    for _ in range(3):
        _, v = drift(faces, masks, x, two_site.m, 1.5)
        x, t = em_step(faces, masks, np.arange(1), x, t, v, np.full(1, h), None, 0.0)
    assert t[0] == 3 * h
    np.testing.assert_array_equal(ens.samples[0, 0], x[:, 0])


@pytest.mark.parametrize("case", ["horizon", "t-max", "rounded-gap"])
def test_no_record_past_the_end(case):
    # The last step is cut to end on the run's end: no condensation
    # time, absorption or trap lies past it, and the clock never passes
    # it, so a sample one ulp past the end stays empty.
    params = dict(chain=k3(), b=1.5, seed=1, dt_base=1e-2, cond_delta=0.1)
    x0, n_paths = np.full(3, 1 / 3), 4000
    if case == "horizon":
        end = params["horizon"] = 0.05
    elif case == "t-max":
        # Run to the trap: most paths are still on a face at t_max.
        end = params["t_max"] = 0.05
    else:
        # A drift-only path from a symmetric start is glued to the middle
        # of an edge at t1, where the drift vanishes and dt_base = 1 cuts
        # the next step to the end.  Beyond 2 t1 the gap end - t1 is
        # rounded; the end is one where t1 + (end - t1) rounds past it.
        params.update(dt_base=1.0, noise_scale=0.0)
        x0, n_paths = [0.49, 0.49, 0.02], 1
        t1 = simulate_diffusion_ensemble(DiffusionConfig(**params), x0, 1).events[0][0][0]
        end = next(float(h) for h in np.linspace(2.2, 3.9, 200) * t1 if t1 + (h - t1) > h)
        params["horizon"] = end
    config = DiffusionConfig(**params, sample_times=(end, float(np.nextafter(end, np.inf))))
    ens = simulate_diffusion_ensemble(config, x0, n_paths)

    event_times = [t for events in ens.events for t, _ in events]
    for times in (ens.t_cond, ens.trapped_time, event_times):
        assert not np.any(np.asarray(times) > end)
    assert not np.isnan(ens.samples[:, 0]).any()
    assert np.isnan(ens.samples[:, 1]).all()
    if case == "rounded-gap":
        assert ens.events[0] == [(t1, 0b011)]
    else:
        # Some paths cross on the last step, which ends on the end itself.
        assert np.nanmax(ens.t_cond) == end
        assert np.isnan(ens.trapped_time).any()


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 5),
    to_horizon=st.booleans(),
)
def test_sample_grid_changes_nothing_but_the_samples(seed, size, to_horizon):
    # A grid reaching past the trap or the horizon leaves the rest of the
    # run as it is, fills every slot up to the end, and every slot from
    # the trap on holds the vertex.
    rng = np.random.default_rng(seed)
    params = dict(
        chain=random_irreducible_chain(rng, size), b=float(rng.uniform(1.5, 3.0)),
        seed=seed, dt_base=4e-3, cond_delta=float(rng.uniform(0.05, 0.5)),
        horizon=float(rng.uniform(0.005, 0.05)) if to_horizon else None,
    )
    end = params["horizon"] or DiffusionConfig(**params).t_max
    grid = np.unique(rng.uniform(0.0, 2 * (params["horizon"] or 1.0), 8))
    if not to_horizon:
        grid = np.append(grid, 2 * end)
    x0 = rng.dirichlet(np.ones(size))
    plain = simulate_diffusion_ensemble(DiffusionConfig(**params), x0, 4)
    ens = simulate_diffusion_ensemble(
        DiffusionConfig(**params, sample_times=tuple(grid)), x0, 4
    )
    for a, b in (
        (ens.sigma1, plain.sigma1), (ens.trapped_vertex, plain.trapped_vertex),
        (ens.trapped_time, plain.trapped_time), (ens.t_cond, plain.t_cond),
    ):
        np.testing.assert_array_equal(a, b)
    assert ens.events == plain.events
    filled = ~np.isnan(ens.samples).any(axis=2)
    np.testing.assert_array_equal(filled, np.broadcast_to(grid <= end, filled.shape))
    for i, vertex in enumerate(ens.trapped_vertex):
        if vertex < 0:
            continue
        after = filled[i] & (grid >= ens.trapped_time[i])
        np.testing.assert_array_equal(ens.samples[i, after], np.eye(size)[[vertex] * after.sum()])
        assert np.all(ens.sample_masks[i, after] == 1 << vertex)


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
            grad, hess = h.derivatives(x)
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
            def derivatives(self, x):
                g = np.zeros_like(x)
                g[..., 0] = 2 * x[..., 0]
                h = np.zeros(x.shape + (2,))
                h[..., 0, 0] = 2.0
                return g, h

        m_sum = float(two_site.embedded_weights.sum())
        val = generator_apply(two_site, 1.5, Quad(), np.array([0.5, 0.5]))
        # Drift vanishes at the symmetric midpoint, leaving the second
        # order term 0.5 * (M_1 + M_2) * f'' with f'' = 2.
        assert val == pytest.approx(0.5 * m_sum * 2.0, abs=1e-12)


def _corrupt_trapped_time(ens):
    ens.trapped_time[np.flatnonzero(ens.trapped_vertex >= 0)[0]] = np.nan


def _corrupt_untrapped_time(ens):
    ens.trapped_time[np.flatnonzero(ens.trapped_vertex < 0)[0]] = 0.1


def _corrupt_sample_hole(ens):
    ens.samples[0, 1] = np.nan


def _corrupt_sample_short(ens):
    ens.samples[0, 20] = np.nan  # slot 20 is t = 0.2, the run's end


def _corrupt_mask_on_empty_slot(ens):
    ens.sample_masks[0, 21] = 7


def _corrupt_mask_off_filled_slot(ens):
    ens.sample_masks[0, 3] = 0


@pytest.mark.parametrize("corrupt", [
    _corrupt_trapped_time, _corrupt_untrapped_time, _corrupt_sample_hole,
    _corrupt_sample_short, _corrupt_mask_on_empty_slot, _corrupt_mask_off_filled_slot,
])
def test_output_checks_reject_corrupted_ensembles(corrupt):
    # On K3 with t_max = 0.2, 15 of 20 paths are trapped, and every
    # path samples the 21 grid times up to 0.2.
    config = DiffusionConfig(chain=k3(), b=1.5, seed=3, t_max=0.2,
                             sample_times=tuple(np.linspace(0.0, 0.3, 31)))
    ens = simulate_diffusion_ensemble(config, np.full(3, 1 / 3), 20)
    assert 0 < np.count_nonzero(ens.trapped_vertex >= 0) < 20
    corrupt(ens)
    with pytest.raises(OutputInvariantError):
        _check_outputs(config, ens)
