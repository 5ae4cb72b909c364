"""Floquet propagators of single and coupled kicked tops, and step-by-step
pure-state evolution.

One period acts as |psi'> = C * (U1 @ psi @ U2^T), where U_i has matrix
elements exp(-i k s^2 / 2j) d_{s m}(pi/2) and C is the diagonal coupling
phase exp(-i eps s1 s2 / j).  The N^2 x N^2 joint operator is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .spincore import SpinQuantum, coherent_amplitudes, wigner_d_half_pi


@dataclass(frozen=True)
class TopParams:
    """Single-top parameters; the precession angle is fixed at pi/2."""

    spin: SpinQuantum
    k: float


@dataclass(frozen=True)
class CoupledParams:
    top1: TopParams
    top2: TopParams
    epsilon: float

    def __post_init__(self):
        if self.top1.spin != self.top2.spin:
            raise ValueError("both tops must carry the same spin")

    @property
    def spin(self) -> SpinQuantum:
        return self.top1.spin


@dataclass(frozen=True)
class SinglePropagator:
    """U[s, m] = exp(-i k s^2 / 2j) d_{s m}(pi/2); columns index the source basis."""

    spin: SpinQuantum
    matrix: np.ndarray


@dataclass(frozen=True)
class PureState:
    """Joint pure state; amplitudes[m1 + j, m2 + j] = <m1, m2 | psi>."""

    spin: SpinQuantum
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.spin.dim
        if self.amplitudes.shape != (n, n):
            raise ValueError(f"amplitude tensor must be {n}x{n}")
        nrm = np.linalg.norm(self.amplitudes)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"state norm {nrm!r} too far from 1")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_single_propagator(params: TopParams) -> SinglePropagator:
    spin = params.spin
    m = spin.m_values()
    # torsion phase exp(-i k m^2 / 2j); the j = 0 top has no torsion axis
    if spin.two_j > 0:
        kick = np.exp(-1j * params.k * m * m / spin.two_j)
    else:
        kick = np.ones(1, dtype=complex)
    return SinglePropagator(
        spin=spin, matrix=kick.reshape(-1, 1) * wigner_d_half_pi(spin).entries
    )


def coupling_phase_matrix(spin: SpinQuantum, epsilon: float) -> np.ndarray:
    """Diagonal coupling phases exp(-i eps s1 s2 / j) as an N x N table."""
    if spin.two_j == 0:
        return np.ones((1, 1), dtype=complex)
    m = spin.m_values()
    return np.exp(-2j * epsilon / spin.two_j * np.outer(m, m))


def initial_product_state(
    spin: SpinQuantum, theta1: float, phi1: float, theta2: float, phi2: float
) -> PureState:
    """Product of directed angular momentum states on the two tops."""
    c1 = coherent_amplitudes(spin, theta1, phi1)
    c2 = coherent_amplitudes(spin, theta2, phi2)
    return PureState(spin=spin, amplitudes=np.outer(c1, c2))


def coupled_step(
    state: PureState,
    prop1: SinglePropagator,
    prop2: SinglePropagator,
    coupling: np.ndarray,
) -> PureState:
    """One Floquet period: independent top propagators, then the coupling
    phases of coupling_phase_matrix."""
    if prop1.spin != state.spin or prop2.spin != state.spin:
        raise ValueError("propagator/state spin mismatch")
    psi = prop1.matrix @ state.amplitudes @ prop2.matrix.T
    psi *= coupling
    return PureState(spin=state.spin, amplitudes=psi)


def trajectory(
    state0: PureState,
    u1: SinglePropagator,
    u2: SinglePropagator,
    coupling: np.ndarray,
    n_steps: int,
) -> Iterator[tuple[int, PureState]]:
    """Yield (n, state after n coupled periods) for n = 0..n_steps."""
    state = state0
    yield 0, state
    for n in range(1, n_steps + 1):
        state = coupled_step(state, u1, u2, coupling)
        yield n, state


def evolve(state0: PureState, params: CoupledParams, n_steps: int) -> PureState:
    """The state after n_steps coupled periods; propagators and coupling
    phases are built once."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    u1 = build_single_propagator(params.top1)
    u2 = build_single_propagator(params.top2)
    coupling = coupling_phase_matrix(params.spin, params.epsilon)
    for _, state in trajectory(state0, u1, u2, coupling, n_steps):
        pass
    return state


def single_top_evolve(
    vector: np.ndarray, prop: SinglePropagator, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, U^n vector) for n = 0..n_steps, the vector basis-ordered."""
    v = np.asarray(vector, dtype=complex)
    yield 0, v
    for n in range(1, n_steps + 1):
        v = prop.matrix @ v
        yield n, v
