"""Husimi fields on the sphere, analytic second moments of pure states and
reduced density matrices, effective phase-space occupancy, and a quadrature
oracle for the analytic sums.

The analytic second moment rests on the four-index weight

    F(2j; i, k, l, m) = (2j+1)/(4j+1)! sqrt(C(2j,j-i) C(2j,j-k) C(2j,j-l)
                        C(2j,j-m)) (2j-i-l)! (2j+i+l)!

contracted under the selection rule i + l = k + m.  Fixing the diagonal sum
s = i + l makes the constrained sum a correlation of binomial-weighted
amplitudes, evaluated here entirely in log space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .entangle import ReducedDensityMatrix
from .spincore import SpinQuantum, coherent_amplitude_block, log_binomial, log_factorial

_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class SphericalGrid:
    """Midpoint (theta, phi) lattice with per-node Haar weights.

    Weights are (2j+1)/(4pi) sin(theta) dtheta dphi, so the weighted sum of
    ones is the number of Planck cells N up to O(dtheta^2) quadrature error.
    Midpoints never touch the poles, so coherent amplitudes need no special
    casing during field evaluation.
    """

    spin: SpinQuantum
    n_theta: int
    n_phi: int
    thetas: np.ndarray
    phis: np.ndarray
    weights: np.ndarray  # shape (n_theta, n_phi)

    @classmethod
    def build(cls, spin: SpinQuantum, n_theta: int, n_phi: int) -> "SphericalGrid":
        if n_theta < 1 or n_phi < 1:
            raise ValueError("grid sizes must be positive")
        d_theta = math.pi / n_theta
        d_phi = 2.0 * math.pi / n_phi
        thetas = (np.arange(n_theta) + 0.5) * d_theta
        phis = -math.pi + (np.arange(n_phi) + 0.5) * d_phi
        w_theta = spin.dim / (4.0 * math.pi) * np.sin(thetas) * d_theta * d_phi
        weights = np.repeat(w_theta.reshape(-1, 1), n_phi, axis=1)
        return cls(spin, n_theta, n_phi, thetas, phis, weights)


@dataclass(frozen=True)
class HusimiField:
    """<z|rho|z> sampled on a spherical grid; clip_magnitude audits how much
    negative roundoff was clipped away (zero for exact arithmetic)."""

    grid: SphericalGrid
    values: np.ndarray
    clip_magnitude: float


class FWeightTable:
    """Log-space pieces of F(2j; i, k, l, m), stored as O(N) arrays.

    half_ln_binom[m + j] = ln C(2j, j+m) / 2 and ln_s_weight[s + 2j] =
    ln[(2j+1) (2j-s)! (2j+s)! / (4j+1)!]; an F value is the exp of four
    half-binomial terms plus one s-weight term.
    """

    def __init__(self, spin: SpinQuantum):
        self.spin = spin
        tj = spin.two_j
        n = spin.dim
        self.half_ln_binom = 0.5 * np.array([log_binomial(tj, idx) for idx in range(n)])
        ln_pref = math.log(n) - log_factorial(2 * tj + 1)
        s_idx = np.arange(2 * tj + 1)  # s + 2j
        self.ln_s_weight = ln_pref + np.array(
            [log_factorial(2 * tj - s) + log_factorial(s) for s in s_idx]
        )

    def value(self, i: float, k: float, l: float, m: float) -> float:
        tj = self.spin.two_j
        j = self.spin.j
        idx = []
        for q in (i, k, l, m):
            two_q = round(2.0 * q)
            if abs(two_q - 2.0 * q) > 1e-9 or abs(two_q) > tj or (two_q - tj) % 2 != 0:
                raise ValueError(f"magnetic index {q} invalid for j = {j}")
            idx.append((two_q + tj) // 2)
        s_idx = idx[0] + idx[2]  # (i + l) + 2j
        # pairwise grouping keeps the (i,k) <-> (l,m) exchange exact in floats
        ln_f = (
            (self.half_ln_binom[idx[0]] + self.half_ln_binom[idx[1]])
            + (self.half_ln_binom[idx[2]] + self.half_ln_binom[idx[3]])
        ) + self.ln_s_weight[s_idx]
        return float(math.exp(ln_f))


_F_TABLES: dict = {}


def _f_table(spin: SpinQuantum) -> FWeightTable:
    tab = _F_TABLES.get(spin.two_j)
    if tab is None:
        tab = FWeightTable(spin)
        _F_TABLES[spin.two_j] = tab
    return tab


def f_weight(spin: SpinQuantum, i: float, k: float, l: float, m: float) -> float:
    """F(2j; i, k, l, m); the selection rule i + l = k + m is the caller's."""
    return _f_table(spin).value(i, k, l, m)


def _spin_for_dim(n: int) -> SpinQuantum:
    if n < 1:
        raise ValueError("empty state vector")
    return SpinQuantum(n - 1)


def m2_pure(vector: np.ndarray) -> float:
    """Analytic second moment of the Husimi function of a pure state.

    The selection rule collapses the four-fold sum to
    sum_s W(s) |A(s)|^2 with A(s) = sum_i c_i c_{s-i} sqrt(C(2j,j-i)
    C(2j,j-s+i)), i.e. a plain self-convolution of binomial-weighted
    amplitudes.
    """
    v = np.asarray(vector, dtype=complex)
    spin = _spin_for_dim(len(v))
    tab = _f_table(spin)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        u = v * np.exp(tab.half_ln_binom)
        a = np.convolve(u, u)  # a[s + 2j] = sum_i u_i u_{s-i}
        m2 = float(np.exp(tab.ln_s_weight) @ (a.real**2 + a.imag**2))
    if not math.isfinite(m2):
        raise FloatingPointError("m2_pure overflowed; spin out of supported range")
    return m2


def m2_rdm(rdm: Union[ReducedDensityMatrix, np.ndarray]) -> float:
    """Analytic second moment of the Husimi function of a density matrix.

    Per diagonal sum s this is a two-dimensional correlation
    T(s) = sum_{i,k} B_{ik} B_{s-i,s-k} of B = rho * sqrt(C C'); the imaginary
    residue of the analytically real total is asserted small, then dropped.
    The entries of B grow like C(2j, j), so at large j the products overflow;
    a non-finite total raises FloatingPointError.
    """
    entries = rdm.entries if isinstance(rdm, ReducedDensityMatrix) else np.asarray(rdm)
    n = entries.shape[0]
    spin = _spin_for_dim(n)
    tab = _f_table(spin)
    half = np.exp(tab.half_ln_binom)
    w = np.exp(tab.ln_s_weight)
    total = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        b = entries * np.outer(half, half)
        for a in range(2 * n - 1):
            lo = max(0, a - (n - 1))
            hi = min(n - 1, a)
            sub = b[lo : hi + 1, lo : hi + 1]
            mirrored = b[a - hi : a - lo + 1, a - hi : a - lo + 1][::-1, ::-1]
            total += w[a] * (sub * mirrored).sum()
    if not cmath.isfinite(total):
        raise FloatingPointError("m2_rdm overflowed; spin out of supported range")
    if abs(total.imag) > _IMAG_TOL:
        raise FloatingPointError(f"imaginary residue {total.imag} exceeds tolerance")
    return float(total.real)


def delta_n_eff(m2: float, n: int) -> float:
    """Fraction of the N Planck cells occupied: 1 / (N M2)."""
    if m2 <= 0.0:
        raise ValueError(f"m2 must be positive, got {m2}")
    return 1.0 / (n * m2)


def gamma_factor(s_v: float, delta_n_eff_value: float, n: int) -> float:
    """exp(S_V) over the effective Hilbert-space dimension N' = N delta_n_eff."""
    if delta_n_eff_value <= 0.0:
        raise ValueError(f"delta_n_eff must be positive, got {delta_n_eff_value}")
    return math.exp(s_v) / (n * delta_n_eff_value)


def husimi_field(
    op: Union[ReducedDensityMatrix, np.ndarray], grid: SphericalGrid, chunk: int = 4096
) -> HusimiField:
    """<z|rho|z> over the grid; a 1-d amplitude vector is treated as rank one."""
    if isinstance(op, ReducedDensityMatrix):
        mat = op.entries
        vec = None
    else:
        arr = np.asarray(op)
        if arr.ndim == 1:
            vec = arr.astype(complex)
            mat = None
        else:
            mat = arr
            vec = None
    n_nodes = grid.n_theta * grid.n_phi
    th = np.repeat(grid.thetas, grid.n_phi)
    ph = np.tile(grid.phis, grid.n_theta)
    values = np.empty(n_nodes)
    for start in range(0, n_nodes, chunk):
        stop = min(start + chunk, n_nodes)
        block = coherent_amplitude_block(grid.spin, th[start:stop], ph[start:stop])
        if vec is not None:
            amp = block.conj() @ vec
            values[start:stop] = amp.real**2 + amp.imag**2
        else:
            t = block.conj() @ mat
            values[start:stop] = np.einsum("ni,ni->n", t, block).real
    clip = float(max(0.0, -values.min()))
    return HusimiField(
        grid=grid, values=np.maximum(values, 0.0).reshape(grid.n_theta, grid.n_phi),
        clip_magnitude=clip,
    )


def m2_quadrature(field: HusimiField) -> float:
    """Grid estimate of the Husimi second moment; the oracle for the analytic
    sums in m2_pure / m2_rdm."""
    return float((field.grid.weights * field.values**2).sum())
