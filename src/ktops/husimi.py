"""Husimi fields on the sphere, analytic second moments of pure states and
reduced density matrices, and effective phase-space occupancy.

A coherent state at (theta, phi) has amplitudes r_m(theta) e^{i phi (j-m)}
with r real, so on the product grid the Husimi function is a Fourier sum in
phi: Q(theta, phi) = sum_d c_d(theta) e^{-i d phi}, where
c_d(theta) = sum_m r_m r_{m+d} rho[m, m+d] weights the d-th diagonal of rho.

The analytic second moment rests on the four-index weight

    F(2j; i, k, l, m) = (2j+1)/(4j+1)! sqrt(C(2j,j-i) C(2j,j-k) C(2j,j-l)
                        C(2j,j-m)) (2j-i-l)! (2j+i+l)!

contracted under the selection rule i + l = k + m (Gnutzmann & Zyczkowski,
J. Phys. A 34, 10123 (2001)).  Fixing the diagonal sum s = i + l makes the
constrained sum a correlation of binomial-weighted amplitudes, with the
weights rounded from exact integer binomials.  For a density matrix these
amplitudes form a Hermitian matrix, whose real part is symmetric and whose
imaginary part is antisymmetric; the correlation is then real term by term
and is taken as two real ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .entangle import ReducedDensityMatrix, rdm_entries
from .spincore import SpinQuantum, coherent_amplitude_block


@dataclass(frozen=True)
class SphericalGrid:
    """Midpoint (theta, phi) lattice.  Midpoints never touch the poles, so
    coherent amplitudes need no special casing during field evaluation."""

    spin: SpinQuantum
    thetas: np.ndarray
    phis: np.ndarray

    @classmethod
    def build(cls, spin: SpinQuantum, n_theta: int, n_phi: int) -> "SphericalGrid":
        if n_theta < 1 or n_phi < 1:
            raise ValueError("grid sizes must be positive")
        thetas = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
        phis = -math.pi + (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
        return cls(spin, thetas, phis)


@dataclass(frozen=True)
class HusimiField:
    """<z|rho|z> sampled on a spherical grid; clip_magnitude audits how much
    negative roundoff was clipped away (zero for exact arithmetic)."""

    values: np.ndarray
    clip_magnitude: float


def _binomials(m: int) -> list:
    """C(m, 0), ..., C(m, m) as exact integers, by C(m, i+1) = C(m, i) (m-i)/(i+1)."""
    row = [1]
    for i in range(m):
        row.append(row[-1] * (m - i) // (i + 1))
    return row


@functools.lru_cache(maxsize=None)
def _m2_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt C(2j, j+m), w_s) for N = 2j + 1 = n, both read-only.

    sqrt_binom[m + j] = sqrt C(2j, j+m) and w[s + 2j] =
    (2j+1) (2j-s)! (2j+s)! / (4j+1)! = (2j+1) / ((4j+1) C(4j, 2j+s)), each
    correctly rounded from exact integers before the square root, so
    F(2j; i, k, l, m) = sqrt_binom[i] sqrt_binom[k] sqrt_binom[l]
    sqrt_binom[m] w[i + l] (indices shifted by j and 2j).  A binomial past
    the float range (from 2j ~ 1030) raises FloatingPointError.
    """
    if n < 1:
        raise ValueError("empty state vector")
    tj = n - 1
    try:
        binom = np.array(_binomials(tj), dtype=float)
    except OverflowError as exc:
        raise FloatingPointError("M2 weights overflowed; spin out of supported range") from exc
    w = np.array([n / ((2 * tj + 1) * c) for c in _binomials(2 * tj)])
    weights = (np.sqrt(binom), w)
    for arr in weights:
        arr.flags.writeable = False
    return weights


def m2_pure(vector: np.ndarray) -> float:
    """Analytic second moment of the Husimi function of a pure state.

    The selection rule collapses the four-fold sum to
    sum_s W(s) |A(s)|^2 with A(s) = sum_i c_i c_{s-i} sqrt(C(2j,j-i)
    C(2j,j-s+i)), i.e. a plain self-convolution of binomial-weighted
    amplitudes.
    """
    v = np.asarray(vector, dtype=complex)
    sqrt_binom, w = _m2_weights(len(v))
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        u = v * sqrt_binom
        a = np.convolve(u, u)  # a[s + 2j] = sum_i u_i u_{s-i}
        m2 = float(w @ (a.real**2 + a.imag**2))
    if not math.isfinite(m2):
        raise FloatingPointError("m2_pure overflowed; spin out of supported range")
    return m2


def _skew(x: np.ndarray) -> np.ndarray:
    """skew(x)[i, t] = x[i, i + t - (n-1)], zero outside x; shape n x (2n-1).

    Row i holds x[i] from column n-1-i on, so x is written through one
    strided view of the C-contiguous result."""
    n = x.shape[0]
    out = np.zeros((n, 2 * n - 1), dtype=x.dtype)
    item = out.itemsize
    as_strided(out[0, n - 1 :], shape=(n, n), strides=((2 * n - 2) * item, item))[...] = x
    return out


def m2_rdm(rdm: Union[ReducedDensityMatrix, np.ndarray]) -> float:
    """Analytic second moment of the Husimi function of a density matrix.

    Per diagonal sum a this is a two-dimensional correlation
    T(a) = sum_{i,k} B_{ik} B_{a-i,a-k} of B = rho * sqrt(C C').  With
    X = Re B and Y = Im B, Re T(a) = corr(X)(a) - corr(Y)(a), and Im T(a)
    vanishes term by term for Hermitian B (X symmetric, Y antisymmetric), so
    only the two real correlations are formed.  With F = X flipped on both
    axes, corr(X)(a) = sum_i G[i, i+s] at s = n-1-a, where
    G = skew(X) skew(F)^T is one real matrix product, and likewise for Y;
    the diagonal sums of G are the column sums of skew(G).  The entries of B
    grow like C(2j, j), so at large j the products overflow; a non-finite
    total raises FloatingPointError.
    """
    entries = rdm_entries(rdm)
    sqrt_binom, w = _m2_weights(entries.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        b = entries * np.outer(sqrt_binom, sqrt_binom)
        x, y = b.real, b.imag
        g = _skew(x) @ _skew(x[::-1, ::-1]).T - _skew(y) @ _skew(y[::-1, ::-1]).T
        t = _skew(g).sum(axis=0)[::-1]  # t[a] = Re T(a)
        total = float(w @ t)
    if not math.isfinite(total):
        raise FloatingPointError("m2_rdm overflowed; spin out of supported range")
    return total


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
    rdm: Union[ReducedDensityMatrix, np.ndarray], grid: SphericalGrid
) -> HusimiField:
    """<z|rho|z> over the grid as a Fourier sum in phi (see the module
    docstring)."""
    rho = rdm_entries(rdm)
    n = grid.spin.dim
    r = coherent_amplitude_block(grid.spin, grid.thetas, np.zeros_like(grid.thetas)).real
    d = np.arange(1 - n, n)
    c = np.empty((len(grid.thetas), len(d)), dtype=complex)
    for col, dk in enumerate(d):
        lo, hi = max(0, -dk), min(n, n - dk)
        c[:, col] = (r[:, lo:hi] * r[:, lo + dk : hi + dk]) @ np.diagonal(rho, dk)
    values = (c @ np.exp(-1j * np.outer(d, grid.phis))).real
    clip = float(max(0.0, -values.min()))
    return HusimiField(values=np.maximum(values, 0.0), clip_magnitude=clip)
