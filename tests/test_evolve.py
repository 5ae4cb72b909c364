import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktops.entangle import entropies, reduce, schmidt
from ktops.evolve import (
    TopParams,
    build_single_propagator,
    coupled_step,
    coupling_phase_matrix,
    initial_product_state,
    single_top_evolve,
    trajectory,
)
from ktops.spincore import SpinQuantum, wigner_d_half_pi


def random_state(spin, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = spin.dim
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a / np.linalg.norm(a)


def final_state(state0, u1, u2, coupling, n_steps):
    for _, psi in trajectory(state0, u1, u2, coupling, n_steps):
        pass
    return psi


class TestSinglePropagator:
    def test_entries_reconstruct(self):
        # U[s, m] = exp(-i k s^2 / 2j) d_{s m}, rebuilt elementwise
        spin = SpinQuantum(160)
        prop = build_single_propagator(TopParams(spin, 6.0))
        d = wigner_d_half_pi(spin)
        m = spin.m_values()
        ref = np.exp(-1j * 6.0 * m * m / 160).reshape(-1, 1) * d
        np.testing.assert_allclose(prop, ref, atol=1e-15)

    @pytest.mark.parametrize("two_j", [1, 5, 160])
    def test_unitary(self, two_j):
        spin = SpinQuantum(two_j)
        u = build_single_propagator(TopParams(spin, 6.0))
        assert np.abs(u @ u.conj().T - np.eye(spin.dim)).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([2, 9, 40]), st.floats(-10.0, 10.0))
    def test_norm_preserved(self, two_j, k):
        spin = SpinQuantum(two_j)
        u = build_single_propagator(TopParams(spin, k))
        rng = np.random.default_rng(11)
        v = rng.normal(size=spin.dim) + 1j * rng.normal(size=spin.dim)
        assert abs(np.linalg.norm(u @ v) - np.linalg.norm(v)) < 1e-13

    @pytest.mark.parametrize("two_j", [2, 4])
    def test_fourth_power_is_identity_at_zero_kick(self, two_j):
        # four pi/2 rotations compose to 2 pi; trivial phase for integer j
        spin = SpinQuantum(two_j)
        u = build_single_propagator(TopParams(spin, 0.0))
        u4 = np.linalg.matrix_power(u, 4)
        assert np.abs(u4 - np.eye(spin.dim)).max() < 1e-13


class TestInitialState:
    def test_pole_product(self):
        spin = SpinQuantum(6)
        state = initial_product_state(spin, 0.0, 0.0, 0.0, 1.0)
        expect = np.zeros((7, 7))
        expect[-1, -1] = 1.0
        np.testing.assert_array_equal(state, expect)

    def test_standard_point_rank_one(self):
        state = initial_product_state(SpinQuantum(160), 0.89, 0.63, 0.89, 0.63)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        s = np.linalg.svd(state, compute_uv=False)
        assert s[1] < 1e-14 and abs(s[0] - 1.0) < 1e-12

    def test_product_state_has_zero_entropy(self):
        state = initial_product_state(SpinQuantum(40), 1.1, -0.4, 2.0, 2.5)
        s_v, s_r = entropies(schmidt(reduce(state, 1)))
        assert s_v < 1e-12 and s_r < 1e-12


class TestCoupledStep:
    @pytest.mark.parametrize("two_j", [2, 4, 6])
    def test_matches_dense_operator(self, two_j):
        # brute-force oracle: U_eps (U1 kron U2) applied to the flattened state
        spin = SpinQuantum(two_j)
        n = spin.dim
        p1 = build_single_propagator(TopParams(spin, 1.3))
        p2 = build_single_propagator(TopParams(spin, 2.7))
        eps = 0.23
        state = initial_product_state(spin, 0.89, 0.63, 1.2, -2.0)
        out = coupled_step(state, p1, p2, coupling_phase_matrix(spin, eps))
        m = spin.m_values()
        u_eps = np.diag(np.exp(-2j * eps / two_j * np.outer(m, m).ravel()))
        dense = u_eps @ np.kron(p1, p2)
        ref = (dense @ state.ravel()).reshape(n, n)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_coupling_factorizes(self):
        spin = SpinQuantum(6)
        p1 = build_single_propagator(TopParams(spin, 1.0))
        p2 = build_single_propagator(TopParams(spin, 2.0))
        state = random_state(spin, 1)
        out = coupled_step(state, p1, p2, coupling_phase_matrix(spin, 0.0))
        ref = p1 @ state @ p2.T
        np.testing.assert_allclose(out, ref, atol=1e-15)

    def test_coupling_phase_value(self):
        # at j = 1 and eps = pi * j the (s1, s2) = (1, 1) phase is exp(-i pi)
        phases = coupling_phase_matrix(SpinQuantum(2), math.pi)
        assert phases[-1, -1] == pytest.approx(-1.0)

    def test_norm_preserved(self):
        spin = SpinQuantum(40)
        p1 = build_single_propagator(TopParams(spin, 6.0))
        p2 = build_single_propagator(TopParams(spin, 6.1))
        state = random_state(spin, 2)
        out = coupled_step(state, p1, p2, coupling_phase_matrix(spin, 0.01))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_spin_mismatch_raises(self):
        p_small = build_single_propagator(TopParams(SpinQuantum(2), 1.0))
        p_big = build_single_propagator(TopParams(SpinQuantum(4), 1.0))
        state = random_state(SpinQuantum(4), 3)
        with pytest.raises(ValueError):
            coupled_step(state, p_small, p_big, coupling_phase_matrix(SpinQuantum(4), 0.1))

    def test_time_reversal(self):
        spin = SpinQuantum(24)
        p1 = build_single_propagator(TopParams(spin, 6.0))
        p2 = build_single_propagator(TopParams(spin, 6.1))
        eps = 0.01
        state = random_state(spin, 4)
        phases = coupling_phase_matrix(spin, eps)
        fwd = coupled_step(state, p1, p2, phases)
        back = p1.conj().T @ (fwd * phases.conj()) @ p2.conj()
        assert np.abs(back - state).max() < 1e-11


class TestEvolve:
    def test_one_step_equals_coupled_step(self):
        spin = SpinQuantum(8)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        p1 = build_single_propagator(TopParams(spin, 3.0))
        coupling = coupling_phase_matrix(spin, 0.05)
        np.testing.assert_allclose(
            final_state(state, p1, p1, coupling, 1),
            coupled_step(state, p1, p1, coupling),
            atol=1e-15,
        )

    def test_trajectory_yields_each_step(self):
        spin = SpinQuantum(4)
        state = initial_product_state(spin, 1.0, 0.0, 1.0, 0.0)
        p1 = build_single_propagator(TopParams(spin, 2.0))
        coupling = coupling_phase_matrix(spin, 0.01)
        steps = list(trajectory(state, p1, p1, coupling, 17))
        assert [n for n, _ in steps] == list(range(18))
        assert steps[0][1] is state
        expect = state
        for _ in range(17):
            expect = coupled_step(expect, p1, p1, coupling)
        np.testing.assert_array_equal(steps[-1][1], expect)

    def test_rejects_unnormalized_initial_state(self):
        spin = SpinQuantum(6)
        state = 1.01 * initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        p1 = build_single_propagator(TopParams(spin, 6.0))
        steps = trajectory(state, p1, p1, coupling_phase_matrix(spin, 0.01), 5)
        with pytest.raises(ValueError, match="step 0"):
            next(steps)

    def test_rejects_non_unitary_step(self):
        spin = SpinQuantum(6)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        p1 = build_single_propagator(TopParams(spin, 6.0))
        steps = trajectory(state, 1.001 * p1, p1, coupling_phase_matrix(spin, 0.01), 5)
        assert next(steps)[0] == 0
        with pytest.raises(ValueError, match="step 1"):
            next(steps)

    def test_uncoupled_run_stays_product(self):
        spin = SpinQuantum(40)
        p1 = build_single_propagator(TopParams(spin, 6.0))
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        final = final_state(state, p1, p1, coupling_phase_matrix(spin, 0.0), 300)
        s_v, s_r = entropies(schmidt(reduce(final, 1)))
        assert s_v < 1e-10 and s_r < 1e-10

    def test_uncoupled_run_stays_product_at_full_scale(self):
        spin = SpinQuantum(160)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        p1 = build_single_propagator(TopParams(spin, 6.0))
        worst = 0.0
        for n, st in trajectory(state, p1, p1, coupling_phase_matrix(spin, 0.0), 1000):
            if n % 250 == 0:
                worst = max(worst, *entropies(schmidt(reduce(st, 1))))
        assert worst < 1e-10

    def test_single_top_evolve_matches_matrix_power(self):
        spin = SpinQuantum(10)
        prop = build_single_propagator(TopParams(spin, 6.0))
        v0 = np.zeros(spin.dim, dtype=complex)
        v0[3] = 1.0
        for n, out in single_top_evolve(v0, prop, 7):
            ref = np.linalg.matrix_power(prop, n) @ v0
            np.testing.assert_allclose(out, ref, atol=1e-13)
        assert n == 7
