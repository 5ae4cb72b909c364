"""Floquet propagators of single and coupled kicked tops, and step-by-step
pure-state evolution.

A joint pure state is the N x N array psi[m1 + j, m2 + j] = <m1, m2 | psi>.
A top's propagator U = diag(kick) d is kept as its two factors: the kick
phases exp(-i k s^2 / 2j) and the real matrix d = d(pi/2).  One coupled
period C * (U1 @ psi @ U2^T), with C the diagonal coupling phase
exp(-i eps s1 s2 / j), is then phases * (d @ psi @ d^T), where
phases = C * outer(kick1, kick2) holds every phase of the period.  Both
products with d are real matrix products on the real and imaginary parts of
psi, half the flops of complex ones; the N^2 x N^2 joint operator is never
formed.
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


def _kick_phases(spin: SpinQuantum, k: float) -> np.ndarray:
    """The torsion phases exp(-i k m^2 / 2j); the j = 0 top has no torsion axis."""
    if spin.two_j == 0:
        return np.ones(1, dtype=complex)
    m = spin.m_values()
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        kick = np.exp(-1j * k * m * m / spin.two_j)
    if not np.isfinite(kick).all():
        raise FloatingPointError("kick phases overflowed; k out of supported range")
    return kick


def build_single_propagator(params: TopParams) -> tuple[np.ndarray, np.ndarray]:
    """(kick, d) of U = diag(kick) d, that is U[s, m] = exp(-i k s^2 / 2j)
    d_{s m}(pi/2): the complex kick phases and the real d(pi/2)."""
    return _kick_phases(params.spin, params.k), wigner_d_half_pi(params.spin)


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


def coupled_propagator(
    spin: SpinQuantum, k1: float, k2: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """(d, phases) of one coupled period, for coupled_step and trajectory:
    the real d(pi/2) and phases = C * outer(kick1, kick2)."""
    kick1, d = build_single_propagator(TopParams(spin, k1))
    return d, coupling_phase_matrix(spin, epsilon) * np.outer(kick1, _kick_phases(spin, k2))


def initial_product_state(
    spin: SpinQuantum, theta1: float, phi1: float, theta2: float, phi2: float
) -> np.ndarray:
    """Product of directed angular momentum states on the two tops."""
    c1 = coherent_amplitudes(spin, theta1, phi1)
    c2 = coherent_amplitudes(spin, theta2, phi2)
    return np.outer(c1, c2)


def coupled_step(psi: np.ndarray, d: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """One Floquet period, phases * (d @ psi @ d^T).  d @ psi is one real
    product on the float view of psi, whose rows interleave real and
    imaginary parts; d^T then acts on the real and imaginary parts apart."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    left = (d @ psi.view(float)).view(complex)
    out = np.empty_like(left)
    out.real = left.real @ d.T
    out.imag = left.imag @ d.T
    out *= phases
    return out


def trajectory(
    psi0: np.ndarray, d: np.ndarray, phases: np.ndarray, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, state after n coupled periods) for n = 0..n_steps.  A state
    whose norm is off 1 by more than 1e-8 raises ValueError, psi0 included."""
    psi = psi0
    for n in range(n_steps + 1):
        if n > 0:
            psi = coupled_step(psi, d, phases)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} too far from 1 at step {n}")
        yield n, psi


def single_top_evolve(
    vector: np.ndarray, kick: np.ndarray, d: np.ndarray, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, U^n vector) for n = 0..n_steps, the vector basis-ordered and
    U = diag(kick) d as build_single_propagator returns it."""
    v = np.asarray(vector, dtype=complex)
    yield 0, v
    for n in range(1, n_steps + 1):
        v = kick * (d @ v.real + 1j * (d @ v.imag))
        yield n, v
