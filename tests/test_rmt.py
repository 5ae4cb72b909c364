import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktops.rmt import EULER_GAMMA, p_epsilon_exact, predictions, sr_analytic, sr_weak_rate
from ktops.rmt import _p_closed_refined, _sici, _sr_closed_bracket, _sr_exact_bracket
from ktops.spincore import SpinQuantum

SPIN80 = SpinQuantum(160)


def p_exact_brute(spin, eps):
    """Direct double sum over all (m1, m2), no folding."""
    m = spin.m_values()
    n = spin.dim
    if spin.two_j == 0:
        return 1.0
    phases = np.exp(-2j * eps / spin.two_j * np.outer(m, m))
    return complex(phases.sum() / n**2)


def sr_bracket_brute(spin, eps):
    """Direct four-index sum over (m1, n1, m2, n2) of exp[-i eps (m1-n1)(m2-n2)/j],
    without the reduction to index differences."""
    if spin.two_j == 0:
        return 1.0
    m = spin.m_values()
    d = np.subtract.outer(m, m)  # d[m1, n1] = m1 - n1
    phases = np.exp(-1j * eps / spin.j * np.multiply.outer(d, d))
    return complex(phases.sum() / spin.dim**4)


def sr_exact_mpmath(two_j: int, eps: float, steps: int) -> list:
    """S_R(n) = 1 - p^(4(n-1)) * bracket for n = 1..steps in 40-digit
    arithmetic, for integer j: each cosine sum is grouped by |m1 m2| (for p)
    or |l l'| (for the bracket, weights (N - |l|)(N - |l'|))."""
    n = two_j + 1
    half = two_j // 2
    p_count, bracket_weight = {}, {}
    for m1 in range(-half, half + 1):
        for m2 in range(-half, half + 1):
            key = abs(m1 * m2)
            p_count[key] = p_count.get(key, 0) + 1
    for l1 in range(-two_j, two_j + 1):
        for l2 in range(-two_j, two_j + 1):
            key = abs(l1 * l2)
            bracket_weight[key] = bracket_weight.get(key, 0) + (n - abs(l1)) * (n - abs(l2))
    with mpmath.workdps(40):
        a = mpmath.mpf(eps) / half  # eps / j
        p = mpmath.fsum(c * mpmath.cos(a * q) for q, c in p_count.items()) / n**2
        bracket = mpmath.fsum(w * mpmath.cos(a * q) for q, w in bracket_weight.items()) / n**4
        return [float(1 - p ** (4 * (step - 1)) * bracket) for step in range(1, steps + 1)]


class TestPredictions:
    def test_values_at_161(self):
        p = predictions(161)
        assert p.sv_saturation == pytest.approx(4.5814, abs=1e-4)
        assert p.sr_saturation == pytest.approx(1 - 323 / 25923, abs=1e-12)
        assert p.m2_pure == pytest.approx(2 / 162, abs=1e-15)
        assert p.delta_n_eff_pure == 162 / 322
        assert p.delta_n_eff_coupled == pytest.approx(0.99384, abs=5e-5)
        # large-N check of the coupled closed form
        assert p.delta_n_eff_coupled == pytest.approx(162 / 163, abs=1e-4)

    def test_ranges(self):
        for n in (3, 10, 161, 1000):
            p = predictions(n)
            assert 0.5 < p.delta_n_eff_pure <= 1.0
            assert p.delta_n_eff_pure < p.delta_n_eff_coupled < 1.0
            if n >= 10:
                assert p.delta_n_eff_coupled > 0.9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            predictions(1)


class TestSiCi:
    def test_si_zero(self):
        assert _sici(0.0)[0] == 0.0

    def test_frozen_points(self):
        # adaptive quadrature of sin(t)/t gives Si(pi) = 1.8519370...
        assert _sici(math.pi)[0] == pytest.approx(1.8519370, abs=1e-7)
        # series gamma + ln x + sum (-1)^k x^(2k) / (2k (2k)!) at x = 1
        assert _sici(1.0)[1] == pytest.approx(0.3374039, abs=1e-7)

    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.5, 1.0, math.pi, 12.0, 250.0, 1e4])
    def test_against_mpmath(self, x):
        si, ci = _sici(x)
        assert abs(si - float(mpmath.si(x))) < 1e-10
        assert abs(ci - float(mpmath.ci(x))) < 1e-10


class TestPEpsilon:
    def test_exact_at_zero(self):
        assert p_epsilon_exact(SPIN80, 0.0) == 1.0
        assert p_epsilon_exact(SpinQuantum(5), 0.0) == 1.0  # half-integer j

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 9, 160]), st.floats(0.0, 0.5))
    def test_exact_even_and_bounded(self, two_j, eps):
        spin = SpinQuantum(two_j)
        p_plus = p_epsilon_exact(spin, eps)
        assert p_epsilon_exact(spin, -eps) == p_plus
        assert abs(p_plus) <= 1.0 + 1e-12

    @pytest.mark.parametrize("two_j", [2, 5, 31, 160])
    def test_folding_matches_brute_force(self, two_j):
        spin = SpinQuantum(two_j)
        for eps in (1e-3, 0.02, 0.4):
            brute = p_exact_brute(spin, eps)
            assert abs(brute.imag) < 1e-12
            assert p_epsilon_exact(spin, eps) == pytest.approx(brute.real, abs=1e-12)

    def test_refined_closed_form_stays_below_one(self):
        for eps in (5e-324, 1e-315, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0):
            p = _p_closed_refined(SPIN80, eps)
            assert p <= 1.0
            assert p == pytest.approx(p_epsilon_exact(SPIN80, eps), abs=2e-2)


class TestSrAnalytic:
    def test_zero_coupling(self):
        for n in (1, 5, 100):
            assert sr_analytic(n, SPIN80, 0.0, "exact-sum") == 0.0
            assert sr_analytic(n, SPIN80, 0.0, "closed-form") == 0.0

    def test_first_step_is_pure_bracket(self):
        # the p power enters with exponent 4(n-1), so n = 1 sees only the sum
        eps = 1e-2
        assert sr_analytic(1, SPIN80, eps, "exact-sum") == pytest.approx(
            1.0 - _sr_exact_bracket(SPIN80, eps), abs=1e-15
        )
        assert sr_analytic(1, SPIN80, eps, "closed-form") == pytest.approx(
            1.0 - _sr_closed_bracket(161, eps), abs=1e-15
        )

    def test_exact_bracket_at_zero_is_one(self):
        assert _sr_exact_bracket(SPIN80, 0.0) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("two_j", [0, 1, 2, 3, 5, 8])
    def test_exact_bracket_matches_brute_force(self, two_j):
        spin = SpinQuantum(two_j)
        for eps in (1e-3, 0.02, 0.4, 3.0, -0.7):
            brute = sr_bracket_brute(spin, eps)
            assert abs(brute.imag) < 1e-12
            assert _sr_exact_bracket(spin, eps) == pytest.approx(brute.real, abs=1e-12)

    def test_closed_bracket_approximates_exact(self):
        for eps in (1e-4, 1e-3, 1e-2):
            be = _sr_exact_bracket(SPIN80, eps)
            bc = _sr_closed_bracket(161, eps)
            assert bc == pytest.approx(be, abs=0.02)

    @pytest.mark.parametrize("j", [4, 80])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-100, 1e-300])
    def test_closed_bracket_against_mpmath(self, j, eps):
        # the direct formula, in enough digits to survive its cancellation
        # at small x = 2 N eps, against the series branch below x = 1
        n = 2 * j + 1
        e = mpmath.mpf(eps)
        x = 2 * n * e
        with mpmath.workdps(50 - 2 * int(mpmath.log10(x))):
            lead = 2 / mpmath.mpf(n) * (1 + mpmath.si(x) / e)
            corr = (1 - mpmath.cos(x) - mpmath.ci(x) + mpmath.log(x) + mpmath.euler) / (n * e) ** 2
            want = float(lead - corr)
        assert _sr_closed_bracket(n, eps) == pytest.approx(want, rel=1e-12)
        assert sr_analytic(1, SpinQuantum.from_j(j), eps, "closed-form") == pytest.approx(
            1.0 - want, abs=1e-12
        )

    def test_monotone_and_saturating(self):
        eps = 1e-2
        vals = [sr_analytic(n, SPIN80, eps, "exact-sum") for n in
                (1, 2, 5, 10, 50, 100, 500, 2000, 10000)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-3)

    def test_modes_agree_within_two_percent(self):
        for eps in (1e-3, 1e-2):
            worst = max(
                abs(
                    sr_analytic(n, SPIN80, eps, "exact-sum")
                    - sr_analytic(n, SPIN80, eps, "closed-form")
                )
                for n in range(1, 1001, 7)
            )
            assert worst < 0.02

    def test_weak_coupling_initial_slope(self):
        eps = 1e-4
        s = [sr_analytic(n, SPIN80, eps, "exact-sum") for n in (1, 2, 11)]
        slope = (s[2] - s[1]) / 9.0
        assert slope == pytest.approx(sr_weak_rate(SPIN80, eps), rel=0.2)

    @pytest.mark.parametrize("mode", ["exact-sum", "closed-form"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2])
    def test_array_of_steps_matches_scalar_calls(self, mode, eps):
        steps = np.arange(1, 301).reshape(20, 15)
        vals = sr_analytic(steps, SPIN80, eps, mode)
        assert isinstance(vals, np.ndarray) and vals.shape == (20, 15)
        scalar = [sr_analytic(int(n), SPIN80, eps, mode) for n in steps.ravel()]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_array_equal(vals.ravel(), scalar)

    @pytest.mark.parametrize("two_j", [20, 160])
    def test_exact_sum_against_mpmath_to_n_1000(self, two_j):
        # the power is taken from p - 1, so the error does not grow with n
        steps = np.arange(1, 1001)
        got = sr_analytic(steps, SpinQuantum(two_j), 1e-3, "exact-sum")
        want = np.array(sr_exact_mpmath(two_j, 1e-3, 1000))
        assert np.abs(got - want).max() <= 1e-15

    def test_nonpositive_p_is_raised_directly(self):
        # at j = 1/2, p = cos(eps / 2), negative at eps = 4; the even power
        # 4(n - 1) of a negative p is |p|^(4(n - 1))
        spin = SpinQuantum(1)
        steps = np.arange(1, 6)
        assert p_epsilon_exact(spin, 4.0) == pytest.approx(math.cos(2.0), abs=1e-15)
        want = 1.0 - math.cos(2.0) ** (4 * (steps - 1)) * _sr_exact_bracket(spin, 4.0)
        np.testing.assert_allclose(sr_analytic(steps, spin, 4.0), want, rtol=1e-14, atol=0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sr_analytic(0, SPIN80, 1e-2)
        with pytest.raises(ValueError):
            sr_analytic(np.array([1, 2, 0]), SPIN80, 1e-2)
        with pytest.raises(ValueError):
            sr_analytic(5, SPIN80, 1e-2, "magic")


class TestWeakRate:
    def test_values(self):
        assert sr_weak_rate(SPIN80, 0.0) == 0.0
        assert sr_weak_rate(SPIN80, 1e-4) == pytest.approx(1.4222e-5, rel=1e-4)

    def test_quadratic_scaling(self):
        assert sr_weak_rate(SPIN80, 2e-3) == pytest.approx(
            4.0 * sr_weak_rate(SPIN80, 1e-3), rel=1e-12
        )


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(0.577216, abs=1e-6)
