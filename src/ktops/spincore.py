"""Spin-j combinatorics, the pi/2 Wigner rotation matrix, and SU(2) coherent states.

Everything downstream (propagators, Husimi moments, occupancy measures) consumes
these primitives.  The binomials here are handled in log space, so that
quantities like C(160, 80) never overflow a double; the Husimi M2 weights
(husimi._m2_weights) are rounded from exact integers instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpinQuantum:
    """Spin j stored as the integer 2j, so half-integer spins stay exact.

    The magnetic index m in {-j, ..., +j} maps to array index m + j; every
    basis-ordered array in the package follows this ascending-m convention.
    """

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, (int, np.integer)) or self.two_j < 0:
            raise ValueError(f"two_j must be a nonnegative integer, got {self.two_j!r}")

    @classmethod
    def from_j(cls, j) -> "SpinQuantum":
        two_j = int(round(2 * j))
        if abs(two_j - 2 * j) > 1e-12:
            raise ValueError(f"j must be integer or half-integer, got {j!r}")
        return cls(two_j)

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        """Hilbert space dimension N = 2j + 1."""
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers, ascending from -j to +j (exact in binary)."""
        return np.arange(self.dim) - self.j


def ln_binomials(two_j: int) -> np.ndarray:
    """ln C(2j, k) for k = 0..2j from lf[i] = ln(i!), a running sum of ln i;
    k and 2j - k give identical floats."""
    lf = np.zeros(two_j + 1)
    lf[1:] = np.cumsum(np.log(np.arange(1, two_j + 1, dtype=float)))
    k = np.arange(two_j + 1)
    lo = np.minimum(k, two_j - k)
    return lf[two_j] - lf[lo] - lf[two_j - lo]


def wigner_d_half_pi(spin: SpinQuantum) -> np.ndarray:
    """Real orthogonal matrix d[s + j, m + j] = d^(j)_{s m}(pi/2).

    d = exp(-i pi Jz/2) exp(-i pi Jx/2) exp(+i pi Jz/2), with exp(-i pi Jx/2)
    from the eigenvectors of the real tridiagonal Jx, whose eigenvalues are
    exactly m (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)).  No entry
    grows beyond 1, so the matrix stays finite at any j.
    """
    j = spin.j
    m = spin.m_values()
    off = 0.5 * np.sqrt((j - m[:-1]) * (j + m[:-1] + 1.0))  # <m+1|Jx|m>
    _, v = np.linalg.eigh(np.diag(off, -1))  # columns ordered like m
    z = np.exp(-0.5j * np.pi * m)
    return (z[:, None] * ((v * z) @ v.T) * z.conj()).real


def coherent_amplitudes(spin: SpinQuantum, theta0: float, phi0: float) -> np.ndarray:
    """Amplitudes <j, m | theta0, phi0> of the directed angular momentum state,
    for theta0 in [0, pi]: one row of coherent_amplitude_block."""
    return coherent_amplitude_block(spin, np.array([theta0]), np.array([phi0]))[0]


def coherent_amplitude_block(
    spin: SpinQuantum, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Coherent amplitude vectors for many (theta, phi) pairs, shape (len, N).

    Component at m is (1 + |g|^2)^(-j) g^(j-m) sqrt(C(2j, j+m)) with
    g = exp(i phi) tan(theta / 2), evaluated in log space; rows come out unit
    norm.  The poles are snapped from the angle to a basis vector: theta = 0
    (or too small to halve) to m = +j, theta = pi to m = -j.  A theta outside
    [0, pi], or NaN, raises ValueError; a phi so large that a phase
    phi (j - m) is not finite raises FloatingPointError.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    in_range = (thetas >= 0.0) & (thetas <= math.pi)  # False for NaN
    if not in_range.all():
        raise ValueError(f"theta must lie in [0, pi], got {thetas[~in_range][0]}")
    j = spin.j
    m = spin.m_values()
    ln_c = ln_binomials(spin.two_j)

    at_north = 0.5 * thetas == 0.0
    at_south = thetas == math.pi  # tan(pi/2) is 1.6e16 in floats, not inf
    t = np.where(at_north | at_south, 1.0, np.tan(0.5 * thetas))
    j_minus_m = j - m  # descending from 2j to 0
    ln_mag = (
        -j * np.log1p(t * t).reshape(-1, 1)
        + np.outer(np.log(t), j_minus_m)
        + 0.5 * ln_c.reshape(1, -1)
    )
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        phases = np.exp(1j * np.outer(phis, j_minus_m))
    if not np.isfinite(phases).all():
        raise FloatingPointError("coherent-state phases overflowed; phi out of supported range")
    block = np.exp(ln_mag) * phases
    block[at_north] = 0.0
    block[at_north, -1] = 1.0
    block[at_south] = 0.0
    block[at_south, 0] = 1.0
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    return block
