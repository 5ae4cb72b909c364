import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ktops.evolve
from ktops.entangle import entropies, reduce, schmidt
from ktops.evolve import (
    TopParams,
    build_single_propagator,
    coupled_propagator,
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


def final_state(state0, d, phases, n_steps):
    for _, psi in trajectory(state0, d, phases, n_steps):
        pass
    return psi


def dense_propagator(spin, k) -> np.ndarray:
    """U = diag(kick) d as one complex matrix."""
    kick, d = build_single_propagator(TopParams(spin, k))
    return kick.reshape(-1, 1) * d


def complex_step(psi, u1, u2, coupling):
    """The step with complex propagators, C * (U1 psi U2^T): the oracle for
    the real-arithmetic coupled_step."""
    return (u1 @ psi @ u2.T) * coupling


class TestSinglePropagator:
    def test_entries_reconstruct(self):
        # U[s, m] = exp(-i k s^2 / 2j) d_{s m}, rebuilt elementwise
        spin = SpinQuantum(160)
        kick, d = build_single_propagator(TopParams(spin, 6.0))
        assert d.dtype == np.float64
        np.testing.assert_array_equal(d, wigner_d_half_pi(spin))
        m = spin.m_values()
        ref = np.exp(-1j * 6.0 * m * m / 160).reshape(-1, 1) * d
        np.testing.assert_allclose(kick.reshape(-1, 1) * d, ref, atol=1e-15)

    @pytest.mark.parametrize("two_j", [1, 5, 160])
    def test_unitary(self, two_j):
        spin = SpinQuantum(two_j)
        u = dense_propagator(spin, 6.0)
        assert np.abs(u @ u.conj().T - np.eye(spin.dim)).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([2, 9, 40]), st.floats(-10.0, 10.0))
    def test_norm_preserved(self, two_j, k):
        spin = SpinQuantum(two_j)
        rng = np.random.default_rng(11)
        v = rng.normal(size=spin.dim) + 1j * rng.normal(size=spin.dim)
        *_, (_, out) = single_top_evolve(v, *build_single_propagator(TopParams(spin, k)), 1)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-13

    @pytest.mark.parametrize("two_j", [2, 4])
    def test_fourth_power_is_identity_at_zero_kick(self, two_j):
        # four pi/2 rotations compose to 2 pi; trivial phase for integer j
        spin = SpinQuantum(two_j)
        u4 = np.linalg.matrix_power(dense_propagator(spin, 0.0), 4)
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
        s_v, s_r = entropies(schmidt(reduce(state)))
        assert s_v < 1e-12 and s_r < 1e-12


class TestCoupledStep:
    @pytest.mark.parametrize("two_j", [2, 4, 6])
    def test_matches_dense_operator(self, two_j):
        # brute-force oracle: U_eps (U1 kron U2) applied to the flattened state
        spin = SpinQuantum(two_j)
        n = spin.dim
        p1, p2 = dense_propagator(spin, 1.3), dense_propagator(spin, 2.7)
        eps = 0.23
        state = initial_product_state(spin, 0.89, 0.63, 1.2, -2.0)
        out = coupled_step(state, *coupled_propagator(spin, 1.3, 2.7, eps))
        m = spin.m_values()
        u_eps = np.diag(np.exp(-2j * eps / two_j * np.outer(m, m).ravel()))
        dense = u_eps @ np.kron(p1, p2)
        ref = (dense @ state.ravel()).reshape(n, n)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_zero_coupling_factorizes(self):
        spin = SpinQuantum(6)
        p1, p2 = dense_propagator(spin, 1.0), dense_propagator(spin, 2.0)
        state = random_state(spin, 1)
        out = coupled_step(state, *coupled_propagator(spin, 1.0, 2.0, 0.0))
        ref = p1 @ state @ p2.T
        np.testing.assert_allclose(out, ref, atol=1e-15)

    def test_phases_fold_kicks_into_coupling(self):
        spin = SpinQuantum(9)
        kick1, d = build_single_propagator(TopParams(spin, 1.3))
        kick2, _ = build_single_propagator(TopParams(spin, 2.7))
        d_out, phases = coupled_propagator(spin, 1.3, 2.7, 0.23)
        np.testing.assert_array_equal(d_out, d)
        ref = coupling_phase_matrix(spin, 0.23) * kick1.reshape(-1, 1) * kick2
        np.testing.assert_allclose(phases, ref, rtol=0, atol=1e-15)

    def test_builds_d_half_pi_once(self, monkeypatch):
        # both tops share d(pi/2); only top 1's propagator builds it
        calls = []

        def counting(spin):
            calls.append(spin)
            return wigner_d_half_pi(spin)

        monkeypatch.setattr(ktops.evolve, "wigner_d_half_pi", counting)
        coupled_propagator(SpinQuantum(9), 1.3, 2.7, 0.23)
        assert calls == [SpinQuantum(9)]

    def test_coupling_phase_value(self):
        # at j = 1 and eps = pi * j the (s1, s2) = (1, 1) phase is exp(-i pi)
        phases = coupling_phase_matrix(SpinQuantum(2), math.pi)
        assert phases[-1, -1] == pytest.approx(-1.0)

    def test_norm_preserved(self):
        spin = SpinQuantum(40)
        state = random_state(spin, 2)
        out = coupled_step(state, *coupled_propagator(spin, 6.0, 6.1, 0.01))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_spin_mismatch_raises(self):
        d_small, phases_small = coupled_propagator(SpinQuantum(2), 1.0, 1.0, 0.1)
        d_big, phases_big = coupled_propagator(SpinQuantum(4), 1.0, 1.0, 0.1)
        state = random_state(SpinQuantum(4), 3)
        with pytest.raises(ValueError):
            coupled_step(state, d_small, phases_big)
        with pytest.raises(ValueError):
            coupled_step(state, d_big, phases_small)

    def test_time_reversal(self):
        spin = SpinQuantum(24)
        state = random_state(spin, 4)
        d, phases = coupled_propagator(spin, 6.0, 6.1, 0.01)
        fwd = coupled_step(state, d, phases)
        back = d.T @ (fwd * phases.conj()) @ d
        assert np.abs(back - state).max() < 1e-11

    def test_matches_complex_step_over_1000_steps(self):
        # j = 80: the real step against C * (U1 psi U2^T) at every step, and
        # its worst norm drift no larger than the complex step's
        spin = SpinQuantum(160)
        d, phases = coupled_propagator(spin, 6.0, 6.1, 1e-2)
        u1, u2 = dense_propagator(spin, 6.0), dense_propagator(spin, 6.1)
        coupling = coupling_phase_matrix(spin, 1e-2)
        real = cplx = initial_product_state(spin, 0.89, 0.63, 1.2, -2.0)
        worst = drift_real = drift_cplx = 0.0
        for _ in range(1000):
            real = coupled_step(real, d, phases)
            cplx = complex_step(cplx, u1, u2, coupling)
            worst = max(worst, np.abs(real - cplx).max())
            drift_real = max(drift_real, abs(np.linalg.norm(real) - 1.0))
            drift_cplx = max(drift_cplx, abs(np.linalg.norm(cplx) - 1.0))
        assert worst <= 1e-13
        assert drift_real <= drift_cplx

    @pytest.mark.parametrize("two_j", [0, 1, 2, 10])
    def test_matches_complex_step_at_small_j(self, two_j):
        # the j = 0 top (N = 1) and half-integer j included
        spin = SpinQuantum(two_j)
        d, phases = coupled_propagator(spin, 6.0, 6.1, 0.3)
        u1, u2 = dense_propagator(spin, 6.0), dense_propagator(spin, 6.1)
        coupling = coupling_phase_matrix(spin, 0.3)
        real = cplx = random_state(spin, two_j)
        for _ in range(200):
            real = coupled_step(real, d, phases)
            cplx = complex_step(cplx, u1, u2, coupling)
            assert np.abs(real - cplx).max() <= 1e-13
        assert real.shape == (spin.dim, spin.dim)


class TestEvolve:
    def test_one_step_equals_coupled_step(self):
        spin = SpinQuantum(8)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        d, phases = coupled_propagator(spin, 3.0, 3.0, 0.05)
        np.testing.assert_allclose(
            final_state(state, d, phases, 1),
            coupled_step(state, d, phases),
            atol=1e-15,
        )

    def test_trajectory_yields_each_step(self):
        spin = SpinQuantum(4)
        state = initial_product_state(spin, 1.0, 0.0, 1.0, 0.0)
        d, phases = coupled_propagator(spin, 2.0, 2.0, 0.01)
        steps = list(trajectory(state, d, phases, 17))
        assert [n for n, _ in steps] == list(range(18))
        assert steps[0][1] is state
        expect = state
        for _ in range(17):
            expect = coupled_step(expect, d, phases)
        np.testing.assert_array_equal(steps[-1][1], expect)

    def test_rejects_unnormalized_initial_state(self):
        spin = SpinQuantum(6)
        state = 1.01 * initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        steps = trajectory(state, *coupled_propagator(spin, 6.0, 6.0, 0.01), 5)
        with pytest.raises(ValueError, match="step 0"):
            next(steps)

    def test_rejects_non_unitary_step(self):
        spin = SpinQuantum(6)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        d, phases = coupled_propagator(spin, 6.0, 6.0, 0.01)
        steps = trajectory(state, 1.001 * d, phases, 5)
        assert next(steps)[0] == 0
        with pytest.raises(ValueError, match="step 1"):
            next(steps)

    def test_uncoupled_run_stays_product(self):
        spin = SpinQuantum(40)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        final = final_state(state, *coupled_propagator(spin, 6.0, 6.0, 0.0), 300)
        s_v, s_r = entropies(schmidt(reduce(final)))
        assert s_v < 1e-10 and s_r < 1e-10

    def test_uncoupled_run_stays_product_at_full_scale(self):
        spin = SpinQuantum(160)
        state = initial_product_state(spin, 0.89, 0.63, 0.89, 0.63)
        worst = 0.0
        for n, st in trajectory(state, *coupled_propagator(spin, 6.0, 6.0, 0.0), 1000):
            if n % 250 == 0:
                worst = max(worst, *entropies(schmidt(reduce(st))))
        assert worst < 1e-10

    def test_single_top_evolve_matches_matrix_power(self):
        spin = SpinQuantum(10)
        prop = dense_propagator(spin, 6.0)
        v0 = np.zeros(spin.dim, dtype=complex)
        v0[3] = 1.0
        for n, out in single_top_evolve(v0, *build_single_propagator(TopParams(spin, 6.0)), 7):
            ref = np.linalg.matrix_power(prop, n) @ v0
            np.testing.assert_allclose(out, ref, atol=1e-13)
        assert n == 7
