"""Reference computations made apart from the ktops package.

Nothing here imports ktops.  The spin operators come from the ladder
operators, the rotation d(pi/2) from scipy's matrix exponential, coherent
states from the closed binomial form with scipy's log-gamma, the second
Husimi moment from a quadrature that is exact at its polynomial degree, and
the RMT linear-entropy law from its unfolded phase sums.  Basis order is
ascending m, index m + j, as in the program's output convention.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln


def m_values(j: int) -> np.ndarray:
    return np.arange(-j, j + 1, dtype=float)


def jy_matrix(j: int) -> np.ndarray:
    """J_y = (J+ - J-) / 2i, with J+|m> = sqrt(j(j+1) - m(m+1)) |m+1>."""
    m = m_values(j)[:-1]
    j_plus = np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), -1)
    return (j_plus - j_plus.T) / 2j


def propagator(j: int, k: float) -> np.ndarray:
    """U = diag(exp(-i k m^2 / 2j)) exp(-i pi/2 J_y)."""
    m = m_values(j)
    kick = np.exp(-1j * k * m * m / (2 * j))
    return kick[:, None] * expm(-0.5j * math.pi * jy_matrix(j))


def coupling(j: int, eps: float) -> np.ndarray:
    """Diagonal coupling phases exp(-i eps m1 m2 / j) as an N x N table."""
    m = m_values(j)
    return np.exp(-1j * eps * np.outer(m, m) / j)


def rotated_top(j: int, theta: float, phi: float) -> np.ndarray:
    """exp(-i phi J_z) exp(-i theta J_y) |j, j>."""
    top = np.zeros(2 * j + 1, dtype=complex)
    top[-1] = 1.0
    return np.exp(-1j * phi * m_values(j)) * (expm(-1j * theta * jy_matrix(j)) @ top)


def coherent_block(j: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows <m|theta, phi> = sqrt(C(2j, j+m)) cos^(j+m)(theta/2)
    sin^(j-m)(theta/2) exp(-i m phi), for paired arrays of angles."""
    m = m_values(j)
    ln_binom = gammaln(2 * j + 1) - gammaln(j + m + 1) - gammaln(j - m + 1)
    th = np.asarray(thetas, dtype=float)[:, None]
    ln_mag = 0.5 * ln_binom + (j + m) * np.log(np.cos(th / 2)) + (j - m) * np.log(np.sin(th / 2))
    return np.exp(ln_mag - 1j * np.outer(phis, m))


def evolve(j, k1, k2, eps, psi0, steps):
    """Yield (n, psi) for n = 1..steps of psi' = C * (U1 psi U2^T).

    psi0 may carry leading batch axes; every trajectory shares the tables."""
    u1, u2t, c = propagator(j, k1), propagator(j, k2).T, coupling(j, eps)
    psi = psi0
    for n in range(1, steps + 1):
        psi = (u1 @ psi @ u2t) * c
        yield n, psi


def reduced(psi: np.ndarray) -> np.ndarray:
    """rho_1 = Tr_2 |psi><psi| for amplitudes psi[m1, m2] (batched)."""
    return psi @ np.swapaxes(psi.conj(), -1, -2)


def linear_entropy(psi: np.ndarray) -> np.ndarray:
    """S_R = 1 - Tr rho_1^2, from the Frobenius norm (batched)."""
    rho = reduced(psi)
    return 1.0 - (np.abs(rho) ** 2).sum(axis=(-1, -2))


def von_neumann(psi: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(reduced(psi))
    lam = lam[lam > 0.0]
    return float(-(lam * np.log(lam)).sum())


def husimi(rho: np.ndarray, j: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Q(theta, phi) = <z|rho|z> on the outer grid thetas x phis."""
    out = np.empty((len(thetas), len(phis)))
    for row, th in enumerate(thetas):
        z = coherent_block(j, np.full(len(phis), th), phis)
        out[row] = ((z.conj() @ rho) * z).sum(axis=1).real
    return out


def husimi_m2(rho: np.ndarray, j: int) -> float:
    """M2 = N/(4 pi) * integral of Q^2 over the sphere.

    Averaged over phi, Q^2 is a polynomial of degree 4j in cos(theta), and
    its Fourier modes in phi reach |4j|; Gauss-Legendre with 2j + 1 nodes in
    cos(theta) and 4j + 1 uniform nodes in phi integrate it exactly.
    """
    n = 2 * j + 1
    x, wx = np.polynomial.legendre.leggauss(2 * j + 1)
    n_phi = 4 * j + 1
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    q = husimi(rho, j, np.arccos(x), phis)
    return float(n / (4.0 * math.pi) * (2.0 * math.pi / n_phi) * (wx @ (q * q).sum(axis=1)))


def sr_law(j: int, eps: float, steps: int) -> np.ndarray:
    """S_R(n) = 1 - p^(4(n-1)) * bracket for n = 1..steps, with
    p = N^-2 sum_{m1,m2} exp(-i eps m1 m2 / j) and
    bracket = N^-4 sum_{m2,n2} |sum_m exp(-i eps m (m2 - n2) / j)|^2."""
    m = m_values(j)
    n = len(m)
    p = np.exp(-1j * eps * np.outer(m, m) / j).sum().real / n**2
    diff = m[:, None] - m[None, :]
    inner = np.zeros((n, n), dtype=complex)
    for mm in m:
        inner += np.exp(-1j * eps * mm * diff / j)
    bracket = (np.abs(inner) ** 2).sum() / n**4
    steps_arr = np.arange(1, steps + 1)
    return 1.0 - p ** (4 * (steps_arr - 1)) * bracket
