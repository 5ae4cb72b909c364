"""Floquet propagators of single and coupled kicked tops, and step-by-step
pure-state evolution.

A joint pure state is the N x N array psi[m1 + j, m2 + j] = <m1, m2 | psi>
and a propagator the N x N array U.  One period acts as
|psi'> = C * (U1 @ psi @ U2^T), where U_i has matrix elements
exp(-i k s^2 / 2j) d_{s m}(pi/2) and C is the diagonal coupling phase
exp(-i eps s1 s2 / j).  The N^2 x N^2 joint operator is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .spincore import SpinQuantum, coherent_amplitudes, wigner_d_half_pi

_NORM_TOL = 1e-8  # |norm - 1| allowed for every state trajectory yields


@dataclass(frozen=True)
class TopParams:
    """Single-top parameters; the precession angle is fixed at pi/2."""

    spin: SpinQuantum
    k: float


def build_single_propagator(params: TopParams) -> np.ndarray:
    """U[s, m] = exp(-i k s^2 / 2j) d_{s m}(pi/2); columns index the source basis."""
    spin = params.spin
    m = spin.m_values()
    # torsion phase exp(-i k m^2 / 2j); the j = 0 top has no torsion axis
    if spin.two_j > 0:
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
            kick = np.exp(-1j * params.k * m * m / spin.two_j)
        if not np.isfinite(kick).all():
            raise FloatingPointError("kick phases overflowed; k out of supported range")
    else:
        kick = np.ones(1, dtype=complex)
    return kick.reshape(-1, 1) * wigner_d_half_pi(spin)


def coupling_phase_matrix(spin: SpinQuantum, epsilon: float) -> np.ndarray:
    """Diagonal coupling phases exp(-i eps s1 s2 / j) as an N x N table."""
    if spin.two_j == 0:
        return np.ones((1, 1), dtype=complex)
    m = spin.m_values()
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        phases = np.exp(-2j * epsilon / spin.two_j * np.outer(m, m))
    if not np.isfinite(phases).all():
        raise FloatingPointError("coupling phases overflowed; eps out of supported range")
    return phases


def initial_product_state(
    spin: SpinQuantum, theta1: float, phi1: float, theta2: float, phi2: float
) -> np.ndarray:
    """Product of directed angular momentum states on the two tops."""
    c1 = coherent_amplitudes(spin, theta1, phi1)
    c2 = coherent_amplitudes(spin, theta2, phi2)
    return np.outer(c1, c2)


def coupled_step(
    psi: np.ndarray, u1: np.ndarray, u2: np.ndarray, coupling: np.ndarray
) -> np.ndarray:
    """One Floquet period: independent top propagators, then the coupling
    phases of coupling_phase_matrix."""
    out = u1 @ psi @ u2.T
    out *= coupling
    return out


def trajectory(
    psi0: np.ndarray, u1: np.ndarray, u2: np.ndarray, coupling: np.ndarray, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, state after n coupled periods) for n = 0..n_steps.  A state
    whose norm is off 1 by more than 1e-8 raises ValueError, psi0 included."""
    psi = psi0
    for n in range(n_steps + 1):
        if n > 0:
            psi = coupled_step(psi, u1, u2, coupling)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} too far from 1 at step {n}")
        yield n, psi


def single_top_evolve(
    vector: np.ndarray, u: np.ndarray, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, U^n vector) for n = 0..n_steps, the vector basis-ordered."""
    v = np.asarray(vector, dtype=complex)
    yield 0, v
    for n in range(1, n_steps + 1):
        v = u @ v
        yield n, v
