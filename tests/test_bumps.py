"""Derivative checks for the bump test functions (finite differences
are the independent oracle)."""

import numpy as np
import pytest

from condensim.bumps import BumpFunction, standard_bumps
from condensim.errors import ConfigRangeError


@pytest.fixture
def bump():
    return BumpFunction(center=[1 / 3, 1 / 3, 1 / 3], width=[0.3, 0.3, 0.3])


def test_support(bump):
    assert bump.value(np.array([1 / 3, 1 / 3, 1 / 3])) == pytest.approx(1.0)
    assert bump.value(np.array([0.9, 0.05, 0.05])) == 0.0
    assert bump.value(np.array([0.0, 0.5, 0.5])) == 0.0


def test_gradient_matches_finite_differences(bump):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        x = rng.dirichlet(np.ones(3))
        grad, _ = bump.derivatives(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (bump.value(x + e) - bump.value(x - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-5)


def test_hessian_matches_finite_differences(bump):
    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))
        _, hess = bump.derivatives(x)
        for i in range(3):
            for k in range(3):
                ei = np.zeros(3)
                ek = np.zeros(3)
                ei[i] = h
                ek[k] = h
                fd = (
                    bump.value(x + ei + ek)
                    - bump.value(x + ei - ek)
                    - bump.value(x - ei + ek)
                    + bump.value(x - ei - ek)
                ) / (4 * h * h)
                assert hess[i, k] == pytest.approx(fd, rel=1e-3, abs=1e-2)


def test_vectorized_evaluation(bump):
    rng = np.random.default_rng(7)
    pts = rng.dirichlet(np.ones(3), size=40)
    vals = bump.value(pts)
    assert vals.shape == (40,)
    single = np.array([bump.value(p) for p in pts])
    np.testing.assert_allclose(vals, single)
    grads, hesses = bump.derivatives(pts)
    assert grads.shape == (40, 3)
    assert hesses.shape == (40, 3, 3)


def test_smooth_at_support_edge(bump):
    # Value and derivatives all vanish continuously at the support edge.
    edge = np.array([1 / 3 + 0.3 - 1e-9, 1 / 3, 1 / 3 - 0.3 + 1e-9])
    assert bump.value(edge) < 1e-12
    assert np.all(np.abs(bump.derivatives(edge)[0]) < 1e-6)


def test_standard_bumps_clear_of_collar():
    collar = 2e-4
    for b in standard_bumps(3, collar=collar):
        lo = b.center - b.width
        assert np.all(lo >= collar - 1e-15)
        hi = b.center + b.width
        assert np.all(hi < 1.0)


@pytest.mark.parametrize("width", [[0.3, 0.0, 0.3], [0.3, -0.1, 0.3]])
def test_nonpositive_width_is_typed(width):
    with pytest.raises(ConfigRangeError, match="widths must be positive"):
        BumpFunction(center=[1 / 3, 1 / 3, 1 / 3], width=width)


def test_collar_without_room_is_typed():
    with pytest.raises(ConfigRangeError, match="no room"):
        standard_bumps(4, collar=0.25)
