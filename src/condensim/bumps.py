"""Smooth test functions compactly supported in the open simplex.

The martingale and generator diagnostics need C^2 functions whose
support stays clear of the simplex boundary, so that all the boundary
quotients of the limit generator's domain vanish identically near the
faces.  Products of one-dimensional mollifier bumps in the coordinates
do the job and have closed-form derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _psi_parts(u: np.ndarray):
    """Mollifier psi(u) = exp(1 - 1/(1-u^2)) on |u| < 1 (0 outside),
    together with its first two derivatives."""
    inside = np.abs(u) < 1.0
    # Evaluate on a clipped copy to keep the arithmetic finite outside.
    uc = np.where(inside, u, 0.0)
    t = 1.0 - uc * uc
    psi = np.where(inside, np.exp(1.0 - 1.0 / t), 0.0)
    dphi = -2.0 * uc / t**2
    d2phi = -2.0 * (1.0 + 3.0 * uc * uc) / t**3
    dpsi = np.where(inside, psi * dphi, 0.0)
    d2psi = np.where(inside, psi * (dphi * dphi + d2phi), 0.0)
    return psi, dpsi, d2psi


def hole_product(values: np.ndarray, *skip: int) -> np.ndarray:
    """Product over the last axis with the slots ``skip`` left out
    (1 where no slot is left)."""
    keep = [j for j in range(values.shape[-1]) if j not in skip]
    return values[..., keep].prod(axis=-1)


@dataclass(frozen=True)
class BumpFunction:
    """H(x) = prod_j psi((x_j - c_j) / w_j).

    Support is the box prod_j [c_j - w_j, c_j + w_j]; pick it inside
    the open simplex (and clear of the absorption collar) so H is a
    valid test function for both generators.
    """

    center: np.ndarray
    width: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "width", np.asarray(self.width, dtype=float))
        if np.any(self.width <= 0):
            raise ValueError("bump widths must be positive")

    @property
    def size(self) -> int:
        return self.center.shape[0]

    def _parts(self, x: np.ndarray):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        psi, dpsi, d2psi = _psi_parts(u)
        return psi, dpsi / self.width, d2psi / self.width**2

    def value(self, x: np.ndarray) -> np.ndarray:
        """H at points of shape (..., L)."""
        psi, _, _ = self._parts(x)
        return psi.prod(axis=-1)

    def derivatives(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient (..., L) and Hessian (..., L, L) of H at points (..., L)."""
        psi, dpsi, d2psi = self._parts(x)
        n = self.size
        grad = np.empty_like(psi)
        hess = np.empty(psi.shape[:-1] + (n, n))
        for i in range(n):
            hole_i = hole_product(psi, i)
            grad[..., i] = dpsi[..., i] * hole_i
            hess[..., i, i] = d2psi[..., i] * hole_i
            for k in range(i + 1, n):
                mixed = dpsi[..., i] * dpsi[..., k] * hole_product(psi, i, k)
                hess[..., i, k] = mixed
                hess[..., k, i] = mixed
        return grad, hess

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value(x)


def standard_bumps(size: int, collar: float = 2e-4) -> list[BumpFunction]:
    """Three bumps of varying width and center for an L-site simplex.

    Supports stay at least ``collar`` away from every face (choose
    collar >= 2 * eps_abs so the absorption layer never meets them).
    """
    c = 1.0 / size
    wmax = c - collar
    if wmax <= 0:
        raise ValueError("collar leaves no room for a bump support")
    bary = np.full(size, c)
    off = bary.copy()
    off[0] += 0.4 * wmax
    off[1:] -= 0.4 * wmax / (size - 1)
    return [
        BumpFunction(bary, np.full(size, 0.90 * wmax)),
        BumpFunction(off, np.full(size, 0.55 * wmax)),
        BumpFunction(bary, np.full(size, 0.55 * wmax)),
    ]
