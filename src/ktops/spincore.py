"""Spin-j combinatorics, the pi/2 Wigner rotation matrix, and SU(2) coherent states.

Everything downstream (propagators, Husimi moments, occupancy measures) consumes
these primitives.  All factorials and binomials are handled in log space so that
j = 80 scale quantities like C(160, 80) or (4j+1)! never overflow a double.
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


class LogFactorialTable:
    """values[n] = ln(n!), built by cumulative summation of ln(i)."""

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.values = np.zeros(n_max + 1)
        if n_max >= 1:
            self.values[1:] = np.cumsum(np.log(np.arange(1, n_max + 1, dtype=float)))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def log_factorial(self, n: int) -> float:
        if n < 0 or n > self.n_max:
            raise ValueError(f"n = {n} outside table range [0, {self.n_max}]")
        return float(self.values[n])

    def log_binomial(self, n: int, k: int) -> float:
        if k < 0 or n < 0 or k > n:
            raise ValueError(f"invalid binomial arguments n = {n}, k = {k}")
        if n > self.n_max:
            raise ValueError(f"n = {n} outside table range [0, {self.n_max}]")
        # symmetric evaluation order, so (n, k) and (n, n-k) give identical floats
        lo, hi = min(k, n - k), max(k, n - k)
        return float(self.values[n] - self.values[lo] - self.values[hi])


_TABLE = LogFactorialTable(512)


def _table_covering(n: int) -> LogFactorialTable:
    global _TABLE
    if n > _TABLE.n_max:
        _TABLE = LogFactorialTable(max(n, 2 * _TABLE.n_max))
    return _TABLE


def log_factorial(n: int) -> float:
    """ln(n!) for nonnegative integer n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _table_covering(n).log_factorial(n)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); raises on k > n or negative input."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"invalid binomial arguments n = {n}, k = {k}")
    return _table_covering(n).log_binomial(n, k)


@dataclass(frozen=True)
class WignerHalfPiMatrix:
    """Real orthogonal matrix with entries[s + j, m + j] = d^(j)_{s m}(pi/2)."""

    spin: SpinQuantum
    entries: np.ndarray


def wigner_d_half_pi(spin: SpinQuantum) -> WignerHalfPiMatrix:
    """Wigner rotation matrix at beta = pi/2 via the three-term recursion.

    For each row s the inner alternating binomial sum V_m obeys

        (j - m + 1) V_{m-1} - 2 s V_m + (j + m + 1) V_{m+1} = 0

    seeded by V_{-j} = 1, V_{-j+1} = 2s.  The prefactor
    (-1)^(s-m) 2^(-j) sqrt(C(2j, j-s) / C(2j, j+m)) is assembled in log space
    with the sign tracked separately.

    The forward sweep is only accurate on the m <= 0 half: for large |s| the
    true solution becomes recessive late in the sweep and roundoff gets
    amplified by the dominant mode.  The m > 0 half is filled from the exact
    symmetry d_{s m} = (-1)^(s-m) d_{-s,-m}, which reads back into the stable
    half of the sweep.

    The sweep overflows from j = 510 on; non-finite entries raise
    FloatingPointError.
    """
    tj = spin.two_j
    n = spin.dim
    j = spin.j
    m = spin.m_values()
    s_col = m.reshape(-1, 1)

    ln_c = np.array([log_binomial(tj, idx) for idx in range(n)])  # ln C(2j, j+m)
    # C(2j, j-s) = C(2j, j+s) by symmetry, so the same table serves rows
    ln_pref = -j * math.log(2.0) + 0.5 * (ln_c.reshape(-1, 1) - ln_c.reshape(1, -1))
    idx = np.arange(n)
    sign = np.where(((idx.reshape(-1, 1) - idx.reshape(1, -1)) % 2) == 0, 1.0, -1.0)

    v = np.empty((n, n))
    v[:, 0] = 1.0
    if n > 1:
        v[:, 1] = 2.0 * m
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        for c in range(1, n - 1):
            mc = m[c]
            v[:, c + 1] = (2.0 * s_col[:, 0] * v[:, c] - (j - mc + 1.0) * v[:, c - 1]) / (
                j + mc + 1.0
            )
        d = sign * np.exp(ln_pref) * v

    half = (n + 1) // 2  # first column with m > 0
    d[:, half:] = (sign * d[::-1, ::-1])[:, half:]
    if not np.isfinite(d).all():
        raise FloatingPointError("wigner_d_half_pi overflowed; spin out of supported range")

    return WignerHalfPiMatrix(spin=spin, entries=d)


def coherent_amplitudes(spin: SpinQuantum, theta0: float, phi0: float) -> np.ndarray:
    """Amplitudes <j, m | theta0, phi0> of the directed angular momentum state.

    Component at m is (1 + |g|^2)^(-j) g^(j-m) sqrt(C(2j, j+m)) with
    g = exp(i phi0) tan(theta0 / 2), evaluated in log space.  The poles are
    handled exactly: theta0 = 0 puts all weight on m = +j, theta0 = pi on m = -j.
    """
    if not 0.0 <= theta0 <= math.pi:
        raise ValueError(f"theta0 must lie in [0, pi], got {theta0}")
    n = spin.dim
    vec = np.zeros(n, dtype=complex)
    if theta0 == 0.0:
        vec[-1] = 1.0
        return vec
    if theta0 == math.pi:
        vec[0] = 1.0
        return vec
    return coherent_amplitude_block(spin, np.array([theta0]), np.array([phi0]))[0]


def coherent_amplitude_block(
    spin: SpinQuantum, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Coherent amplitude vectors for many (theta, phi) pairs, shape (len, N).

    Rows come out unit norm.  Angles whose half-tangent degenerates to 0 or
    infinity in floats are snapped to the corresponding pole basis vector.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    n = spin.dim
    j = spin.j
    m = spin.m_values()
    ln_c = np.array([log_binomial(spin.two_j, idx) for idx in range(n)])

    t = np.tan(0.5 * thetas)
    at_north = t == 0.0  # theta rounded down to the pole
    at_south = ~np.isfinite(t)
    safe_t = np.where(at_north | at_south, 1.0, t)
    ln_t = np.log(safe_t)
    j_minus_m = j - m  # descending from 2j to 0
    ln_mag = (
        -j * np.log1p(safe_t * safe_t).reshape(-1, 1)
        + np.outer(ln_t, j_minus_m)
        + 0.5 * ln_c.reshape(1, -1)
    )
    block = np.exp(ln_mag) * np.exp(1j * np.outer(phis, j_minus_m))
    block[at_north] = 0.0
    block[at_north, -1] = 1.0
    block[at_south] = 0.0
    block[at_south, 0] = 1.0
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    return block
