"""Canonical classical maps of the single and coupled kicked tops.

A point of the unit sphere is an array whose last axis is (X, Y, Z); a state
of the coupled tops has shape (..., 2, 3), one point per top.  Each step
rotates every sphere about its x-axis by its torsion angle, then swaps axes;
the coupled map mixes each top's own torsion with the partner's X component.
Iteration happens in the ambient coordinates; (cos theta, phi) are only
produced for output.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _kick(v: np.ndarray, delta) -> np.ndarray:
    """X' = Z cos(delta) + Y sin(delta), Y' = -Z sin(delta) + Y cos(delta),
    Z' = -X for points v of shape (..., 3) and torsion angles delta (...)."""
    # coordinate axis first (np.moveaxis, without its overhead); one point
    # unpacks to numpy scalars, which keeps the single-point step cheap
    x, y, z = v.transpose(-1, *range(v.ndim - 1))
    c, s = np.cos(delta), np.sin(delta)
    out = np.empty_like(v, dtype=float)
    out[..., 0] = z * c + y * s
    out[..., 1] = -z * s + y * c
    out[..., 2] = -x
    return out


def single_map(v: np.ndarray, k: float) -> np.ndarray:
    """One kick of the single top, torsion angle kX."""
    return _kick(v, k * v[..., 0])


def coupled_map(v: np.ndarray, k1: float, k2: float, epsilon: float) -> np.ndarray:
    """One kick of the coupled tops (..., 2, 3), torsion angles kX_self + epsilon X_other."""
    return _kick(v, np.array([k1, k2]) * v[..., 0] + epsilon * v[..., ::-1, 0])


def to_canonical(v: np.ndarray) -> np.ndarray:
    """(cos theta, phi) of points v (..., 3): cos(theta) = Z clipped to
    [-1, 1], phi = atan2(Y, X) in [-pi, pi]; phi := 0 at the poles."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.empty(np.shape(v)[:-1] + (2,))
    out[..., 0] = np.clip(z, -1.0, 1.0)
    out[..., 1] = np.where((x == 0.0) & (y == 0.0), 0.0, np.arctan2(y, x))
    return out


def phase_portrait(k: float, initial_conditions: np.ndarray, n_iter: int) -> np.ndarray:
    """(cos theta, phi) orbit samples of shape (M, n_iter + 1, 2) from M starts
    (M, 3) on the unit sphere, all iterated together; no transient is
    discarded."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    cur = np.asarray(initial_conditions, dtype=float)
    if cur.ndim != 2 or cur.shape[1] != 3:
        raise ValueError(f"initial conditions must have shape (M, 3), got {cur.shape}")
    r2 = (cur * cur).sum(axis=1)
    if not np.all(np.abs(r2 - 1.0) <= 1e-9):
        raise ValueError("initial conditions not on the unit sphere")
    samples = np.empty((len(cur), n_iter + 1, 2))
    samples[:, 0] = to_canonical(cur)
    for i in range(1, n_iter + 1):
        cur = single_map(cur, k)
        samples[:, i] = to_canonical(cur)
    return samples


def _poisson_tensor(v: np.ndarray) -> np.ndarray:
    """Spin Poisson structure of a coupled state (2, 3): {X,Y} = Z cyclically
    per sphere, zero across."""
    b = np.zeros((6, 6))
    for off, (x, y, z) in zip((0, 3), v):
        b[off : off + 3, off : off + 3] = [[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]]
    return b


def poisson_residual(map_fn: Callable, state: np.ndarray, h: float = 1e-5) -> float:
    """Max-norm canonicity defect ||J B(x) J^T - B(x')|| of a map of coupled
    states (..., 2, 3), such as coupled_map with fixed k1, k2, epsilon.

    J is the central-difference Jacobian of map_fn at the state, from all 12
    probe points mapped in one call; B is the spin Poisson tensor.  Exactly
    canonical maps give a residual at the finite-difference floor (~1e-8 for
    h = 1e-5).
    """
    if not 1e-7 <= h <= 1e-4:
        raise ValueError(f"h = {h} outside sane range [1e-7, 1e-4]")
    x0 = np.asarray(state, dtype=float)
    dx = h * np.eye(6).reshape(6, 2, 3)
    images = map_fn(np.concatenate([x0 + dx, x0 - dx])).reshape(12, 6)
    jac = (images[:6] - images[6:]).T / (2.0 * h)
    b0 = _poisson_tensor(x0)
    b1 = _poisson_tensor(map_fn(x0))
    return float(np.abs(jac @ b0 @ jac.T - b1).max())
