import math

import numpy as np
import pytest

from ktops.entangle import reduce
from ktops.evolve import CoupledParams, PureState, TopParams, evolve, initial_product_state
from ktops.husimi import (
    FWeightTable,
    SphericalGrid,
    delta_n_eff,
    f_weight,
    gamma_factor,
    husimi_field,
    m2_pure,
    m2_quadrature,
    m2_rdm,
)
from ktops.spincore import SpinQuantum, coherent_amplitude_block, coherent_amplitudes


def random_vector(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestFWeight:
    def test_half_spin_value(self):
        # 2/3! * 1 * 0! * 2! = 2/3, cross-checked by the coherent-state moment
        assert f_weight(SpinQuantum(1), 0.5, 0.5, 0.5, 0.5) == pytest.approx(2 / 3, abs=1e-14)

    def test_spin_one_center(self):
        # 3/5! * sqrt(2^4) * 2! * 2! = 0.4
        assert f_weight(SpinQuantum(2), 0, 0, 0, 0) == pytest.approx(0.4, abs=1e-14)

    def test_pair_exchange_symmetry(self):
        spin = SpinQuantum(8)
        table = FWeightTable(spin)
        for args in [(1, 2, -1, 0), (4, -4, 0, 0), (3, 1, -2, 0)]:
            i, k, l, m = args
            assert table.value(i, k, l, m) == table.value(l, m, i, k)

    def test_positive_on_constrained_tuples(self):
        spin = SpinQuantum(5)
        ms = spin.m_values()
        for i in ms:
            for k in ms:
                for l in ms:
                    m = i + l - k
                    if -spin.j <= m <= spin.j:
                        assert f_weight(spin, i, k, l, m) > 0.0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            f_weight(SpinQuantum(2), 2, 0, 0, 0)
        with pytest.raises(ValueError):
            f_weight(SpinQuantum(2), 0.5, 0, 0, 0)


class TestM2Pure:
    @pytest.mark.parametrize("two_j", [1, 2, 10, 160])
    def test_coherent_state_closed_form(self, two_j):
        # integral of cos^{8j}(Theta/2) with the Haar normalization
        spin = SpinQuantum(two_j)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        assert m2_pure(v) == pytest.approx(spin.dim / (2 * two_j + 1), abs=1e-10)

    def test_center_basis_state(self):
        v = np.zeros(3, dtype=complex)
        v[1] = 1.0
        assert m2_pure(v) == pytest.approx(0.4, abs=1e-14)

    def test_gue_average(self):
        n = 161
        vals = [m2_pure(random_vector(n, seed)) for seed in range(100)]
        assert np.mean(vals) == pytest.approx(2.0 / (n + 1), rel=0.05)


class TestM2Rdm:
    @pytest.mark.parametrize("two_j", [2, 9, 160])
    def test_rank_one_consistency(self, two_j):
        v = random_vector(two_j + 1, seed=two_j)
        assert abs(m2_rdm(np.outer(v, v.conj())) - m2_pure(v)) < 1e-14

    @pytest.mark.parametrize("n", [3, 41, 161])
    def test_maximally_mixed(self, n):
        assert m2_rdm(np.eye(n, dtype=complex) / n) == pytest.approx(1.0 / n, abs=1e-12)

    def test_rmt_saturated_level(self):
        n = 161
        rng = np.random.default_rng(17)
        vals = []
        for _ in range(5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a /= np.linalg.norm(a)
            vals.append(m2_rdm(a @ a.conj().T))
        expect = (1.0 + (2 * n + 1) / (n**2 + 2)) / (n + 1)
        assert np.mean(vals) == pytest.approx(expect, rel=0.05)

    def test_accepts_wrapped_rdm(self):
        spin = SpinQuantum(8)
        v = random_vector(81, 3).reshape(9, 9)
        v /= np.linalg.norm(v)
        state = PureState(spin=spin, amplitudes=v)
        rdm = reduce(state, 1)
        assert m2_rdm(rdm) == pytest.approx(m2_rdm(rdm.entries), abs=1e-16)

    def test_overflow_raises(self):
        # at j = 280 the binomial-weighted sums of an evolved state overflow;
        # the non-finite total must raise, not come back as NaN
        spin = SpinQuantum.from_j(280)
        params = CoupledParams(TopParams(spin, 6.0), TopParams(spin, 6.0), 1e-2)
        state = evolve(initial_product_state(spin, 0.89, 0.63, 0.89, 0.63), params, 20)
        with pytest.raises(FloatingPointError, match="m2_rdm"):
            m2_rdm(reduce(state, 1))


class TestQuadratureOracle:
    def test_coherent_state_refined_grid(self):
        spin = SpinQuantum(10)  # j = 5
        grid = SphericalGrid.build(spin, 400, 800)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        q = m2_quadrature(husimi_field(v, grid))
        assert q == pytest.approx(11.0 / 21.0, abs=1e-4)

    @pytest.mark.parametrize("two_j", [4, 12, 20])
    def test_matches_analytic_for_random_states(self, two_j):
        spin = SpinQuantum(two_j)
        grid = SphericalGrid.build(spin, 400, 800)
        v = random_vector(spin.dim, seed=two_j)
        q = m2_quadrature(husimi_field(v, grid))
        assert q == pytest.approx(m2_pure(v), abs=1e-4)

    def test_matches_analytic_for_rdm(self):
        spin = SpinQuantum(10)
        grid = SphericalGrid.build(spin, 400, 800)
        a = random_vector(spin.dim**2, 5).reshape(spin.dim, spin.dim)
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        q = m2_quadrature(husimi_field(rho, grid))
        assert q == pytest.approx(m2_rdm(rho), abs=1e-4)

    def test_uniform_field(self):
        spin = SpinQuantum(12)
        grid = SphericalGrid.build(spin, 100, 200)
        n = spin.dim
        from ktops.husimi import HusimiField

        field = HusimiField(grid=grid, values=np.full((100, 200), 1.0 / n), clip_magnitude=0.0)
        assert m2_quadrature(field) == pytest.approx(1.0 / n, rel=1e-3)


class TestSphericalGrid:
    def test_weights_sum_to_dimension(self):
        spin = SpinQuantum(160)
        grid = SphericalGrid.build(spin, 200, 400)
        assert grid.weights.sum() == pytest.approx(spin.dim, rel=1e-4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SphericalGrid.build(SpinQuantum(2), 0, 10)


class TestHusimiField:
    def test_coherent_self_overlap_is_one(self):
        spin = SpinQuantum(40)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        center = coherent_amplitude_block(spin, np.array([0.89]), np.array([0.63]))[0]
        assert abs(np.vdot(center, v)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_field_peaks_at_coherent_center(self):
        spin = SpinQuantum(40)
        grid = SphericalGrid.build(spin, 100, 200)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        field = husimi_field(v, grid)
        it, ip = np.unravel_index(np.argmax(field.values), field.values.shape)
        assert abs(grid.thetas[it] - 0.89) < 0.05
        assert abs(grid.phis[ip] - 0.63) < 0.05
        assert field.values.max() > 0.99 - 0.05
        assert field.values.min() >= 0.0
        assert field.clip_magnitude < 1e-12

    def test_values_bounded_by_one(self):
        spin = SpinQuantum(20)
        grid = SphericalGrid.build(spin, 60, 120)
        v = random_vector(spin.dim, 9)
        field = husimi_field(v, grid)
        assert field.values.max() <= 1.0 + 1e-12

    def test_trace_identity_on_default_grid(self):
        spin = SpinQuantum(160)
        grid = SphericalGrid.build(spin, 200, 400)
        a = random_vector(spin.dim**2, 11).reshape(spin.dim, spin.dim)
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        field = husimi_field(rho, grid)
        assert (grid.weights * field.values).sum() == pytest.approx(1.0, abs=0.02)

    def test_trace_identity_refines_at_second_order(self):
        spin = SpinQuantum(10)
        v = coherent_amplitudes(spin, 2.0, -2.5)
        errs = []
        for n_theta in (25, 50, 100):
            grid = SphericalGrid.build(spin, n_theta, 2 * n_theta)
            field = husimi_field(v, grid)
            errs.append(abs((grid.weights * field.values).sum() - 1.0))
        # midpoint rule: observed order approaches 2 from below (1.986 here)
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order > 1.9


class TestOccupancyMeasures:
    def test_delta_n_eff_examples(self):
        assert delta_n_eff(1.0 / 161, 161) == pytest.approx(1.0, abs=1e-12)
        spin = SpinQuantum(160)
        v = coherent_amplitudes(spin, 0.89, 0.63)
        # coherent state occupies (4j+1)/(2j+1)^2, about two Planck cells' worth
        assert delta_n_eff(m2_pure(v), 161) == pytest.approx(321 / 161**2, abs=1e-10)
        with pytest.raises(ValueError):
            delta_n_eff(0.0, 161)

    def test_gamma_factor_examples(self):
        n = 161
        s_v = math.log(n) - 0.5
        assert gamma_factor(s_v, 1.0, n) == pytest.approx(math.exp(-0.5), abs=1e-12)
        with pytest.raises(ValueError):
            gamma_factor(1.0, 0.0, n)

    def test_delta_n_eff_range_for_random_rdms(self):
        n = 81
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a /= np.linalg.norm(a)
            dn = delta_n_eff(m2_rdm(a @ a.conj().T), n)
            assert 0.0 < dn <= 1.0 + 1.0 / n
