import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktops.spincore import (
    SpinQuantum,
    coherent_amplitude_block,
    coherent_amplitudes,
    ln_binomials,
    wigner_d_half_pi,
)


def wigner_entry_exact(two_j: int, s_idx: int, m_idx: int) -> float:
    """Direct evaluation of the finite alternating-binomial sum with exact
    rationals; only the final square root leaves exact arithmetic."""
    two_s = 2 * s_idx - two_j
    two_m = 2 * m_idx - two_j
    a = (two_j - two_s) // 2  # j - s
    b = (two_j + two_s) // 2  # j + s
    t = (two_s - two_m) // 2  # s - m
    big_v = 0
    for k in range(0, a + 1):
        if 0 <= k + t <= b:
            big_v += (-1) ** k * math.comb(a, k) * math.comb(b, k + t)
    ratio = Fraction(
        math.comb(two_j, a) * big_v * big_v,
        math.comb(two_j, (two_j + two_m) // 2) * 2**two_j,
    )
    sign = (-1) ** t * (1 if big_v >= 0 else -1)
    return sign * math.sqrt(float(ratio))


def rotation_matrix_via_generator(two_j: int) -> np.ndarray:
    """exp(-i (pi/2) J_y) by diagonalizing the tridiagonal J_y."""
    spin = SpinQuantum(two_j)
    n = spin.dim
    j = spin.j
    m = spin.m_values()
    jp = np.zeros((n, n))
    for i in range(n - 1):
        jp[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jy = (jp - jp.T) / 2j
    w, v = np.linalg.eigh(jy)
    u = v @ np.diag(np.exp(-1j * math.pi / 2 * w)) @ v.conj().T
    assert np.abs(u.imag).max() < 1e-12
    return u.real


class TestSpinQuantum:
    def test_dim_and_index_map(self):
        spin = SpinQuantum(160)
        assert spin.dim == 161
        assert spin.j == 80.0
        m = spin.m_values()
        assert m[0] == -80.0 and m[-1] == 80.0
        assert np.all(np.diff(m) == 1.0)

    def test_half_integer_exact(self):
        spin = SpinQuantum.from_j(0.5)
        assert spin.two_j == 1
        assert list(spin.m_values()) == [-0.5, 0.5]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SpinQuantum(-2)
        with pytest.raises(ValueError):
            SpinQuantum.from_j(0.3)


class TestLogFactorials:
    def test_table_invariants(self):
        # the running sum of ln i inside ln_binomials, seen through C(200, k)
        lc = ln_binomials(200)
        assert lc.shape == (201,) and lc[0] == 0.0
        assert np.all(np.diff(lc[:101]) > 0.0)
        exact = [math.log(math.comb(200, k)) for k in range(201)]
        np.testing.assert_allclose(lc, exact, rtol=1e-13)

    def test_small_values(self):
        assert ln_binomials(4)[2] == pytest.approx(math.log(6), abs=1e-12)
        for n in (0, 1, 7, 160):
            lc = ln_binomials(n)
            assert lc.shape == (n + 1,) and lc[0] == 0.0 and lc[n] == 0.0

    def test_c_160_80(self):
        # independent oracle: sum ln(i), i = 81..160, minus sum ln(i), i = 1..80
        oracle = sum(math.log(i) for i in range(81, 161)) - sum(
            math.log(i) for i in range(1, 81)
        )
        assert oracle == pytest.approx(108.14, abs=0.01)
        assert ln_binomials(160)[80] == pytest.approx(oracle, rel=1e-13)

    @given(st.integers(0, 300))
    def test_symmetry_exact(self, two_j):
        lc = ln_binomials(two_j)
        assert np.array_equal(lc, lc[::-1])


class TestWignerHalfPi:
    def test_half_spin_matrix(self):
        d = wigner_d_half_pi(SpinQuantum(1))
        r = 1.0 / math.sqrt(2.0)
        # presented with rows/cols ordered s, m = +1/2 then -1/2
        presented = d[::-1, ::-1]
        np.testing.assert_allclose(presented, [[r, -r], [r, r]], atol=1e-12)

    def test_orthogonality_every_j_to_100(self):
        worst = 0.0
        for two_j in range(0, 201):
            d = wigner_d_half_pi(SpinQuantum(two_j))
            n = two_j + 1
            worst = max(worst, np.abs(d @ d.T - np.eye(n)).max())
        assert worst < 1e-13

    def test_finite_and_orthogonal_at_j_500(self):
        d = wigner_d_half_pi(SpinQuantum(1000))
        assert np.isfinite(d).all()
        assert np.abs(d @ d.T - np.eye(1001)).max() < 1e-10

    def test_finite_and_orthogonal_at_j_510(self):
        # j = 510, where the three-term recursion for d overflows
        d = wigner_d_half_pi(SpinQuantum(1020))
        assert np.isfinite(d).all()
        assert np.abs(d @ d.T - np.eye(1021)).max() < 1e-12

    def test_unit_columns(self):
        d = wigner_d_half_pi(SpinQuantum(21))
        np.testing.assert_allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("two_j", [1, 2, 5, 8, 17, 30, 40, 160, 161])
    def test_matches_exact_sum(self, two_j):
        d = wigner_d_half_pi(SpinQuantum(two_j))
        n = two_j + 1
        ref = np.array(
            [[wigner_entry_exact(two_j, si, mi) for mi in range(n)] for si in range(n)]
        )
        np.testing.assert_allclose(d, ref, atol=1e-13)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 9, 24])
    def test_matches_generator_exponential(self, two_j):
        d = wigner_d_half_pi(SpinQuantum(two_j))
        np.testing.assert_allclose(d, rotation_matrix_via_generator(two_j), atol=1e-12)


class TestCoherentAmplitudes:
    def test_north_pole(self):
        for two_j in (1, 4, 160):
            v = coherent_amplitudes(SpinQuantum(two_j), 0.0, 1.234)
            expect = np.zeros(two_j + 1)
            expect[-1] = 1.0  # all weight on m = +j
            np.testing.assert_array_equal(v, expect)

    def test_south_pole(self):
        v = coherent_amplitudes(SpinQuantum(6), math.pi, -2.0)
        assert v[0] == 1.0 and np.abs(v[1:]).max() == 0.0

    def test_block_snaps_both_poles(self):
        # tan(pi/2) is 1.6e16 in floats, so theta = pi is snapped from the
        # angle; no roundoff may leak onto m = -j + 1
        for two_j in (1, 6, 160):
            block = coherent_amplitude_block(
                SpinQuantum(two_j), np.array([0.0, math.pi]), np.array([1.234, -2.0])
            )
            expect = np.zeros((2, two_j + 1))
            expect[0, -1] = expect[1, 0] = 1.0
            np.testing.assert_array_equal(block, expect)

    def test_half_spin_equator(self):
        v = coherent_amplitudes(SpinQuantum(1), math.pi / 2, 0.0)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(v, [r, r], atol=1e-12)

    def test_angle_validation(self):
        for theta in (-0.1, math.pi + 0.1, math.nan):
            with pytest.raises(ValueError, match=r"\[0, pi\]"):
                coherent_amplitudes(SpinQuantum(2), theta, 0.0)
            with pytest.raises(ValueError, match=r"\[0, pi\]"):
                coherent_amplitude_block(SpinQuantum(4), np.array([0.5, theta]), np.array([0.2, 0.2]))

    @settings(max_examples=250, deadline=None)
    @given(
        st.sampled_from([1, 2, 7, 40, 160]),
        st.floats(0.0, math.pi),
        st.floats(-math.pi, math.pi),
    )
    def test_unit_norm(self, two_j, theta, phi):
        v = coherent_amplitudes(SpinQuantum(two_j), theta, phi)
        assert abs(np.vdot(v, v).real - 1.0) < 1e-14

    def test_many_random_draws_unit_norm(self):
        rng = np.random.default_rng(7)
        spin = SpinQuantum(160)
        thetas = rng.uniform(0.0, math.pi, size=1000)
        phis = rng.uniform(-math.pi, math.pi, size=1000)
        for theta, phi in zip(thetas, phis):
            v = coherent_amplitudes(spin, theta, phi)
            assert abs(np.vdot(v, v).real - 1.0) < 1e-14
