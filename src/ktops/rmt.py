"""Random-matrix saturation constants and the long-time linear-entropy law
for coupled strongly chaotic tops.

Two evaluation routes are exported for the linear-entropy law: the exact
O(j^2) phase sums (each 1 plus a weighted mean of cos - 1) and the large-j
closed form built from sine and cosine integrals.  The closed form carries the
large-j approximations of its derivation; both routes are kept so the
approximation error is measurable rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .spincore import SpinQuantum

EULER_GAMMA = float(np.euler_gamma)


@dataclass(frozen=True)
class RmtPrediction:
    """Closed-form saturation values for Hilbert dimension N."""

    n: int
    sv_saturation: float  # ln N - 1/2
    sr_saturation: float  # 1 - (2N+1)/(N^2+2)
    m2_pure: float  # 2/(N+1)
    delta_n_eff_pure: float  # (N+1)/(2N)
    delta_n_eff_coupled: float  # (N+1)(N^2+2)/(N(N^2+2N+3))


def predictions(n: int) -> RmtPrediction:
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return RmtPrediction(
        n=n,
        sv_saturation=math.log(n) - 0.5,
        sr_saturation=1.0 - (2.0 * n + 1.0) / (n * n + 2.0),
        m2_pure=2.0 / (n + 1.0),
        delta_n_eff_pure=(n + 1.0) / (2.0 * n),
        delta_n_eff_coupled=(n + 1.0) * (n * n + 2.0) / (n * (n * n + 2.0 * n + 3.0)),
    )


def _sici(x: float) -> tuple[float, float]:
    """(Si(x), Ci(x)) for x >= 0.  scipy.special is imported on the first call,
    so only the closed forms pay for it."""
    from scipy.special import sici

    si, ci = sici(x)
    return float(si), float(ci)


def _cos_defect(x: np.ndarray, w: np.ndarray, a: float) -> float:
    """sum_{r,s} w_r w_s (cos(a x_r x_s) - 1) / (sum_r w_r)^2, each term
    summed as -2 sin^2(a x_r x_s / 2), so a small defect keeps its digits."""
    return float(w @ (-2.0 * np.sin(0.5 * a * np.outer(x, x)) ** 2) @ w / w.sum() ** 2)


def _phase_rate(spin: SpinQuantum, epsilon: float) -> float:
    """eps / j, the phase per unit m1 m2; 0 at j = 0, where every m is 0."""
    return epsilon / spin.j if spin.two_j else 0.0


def _p_defect_exact(spin: SpinQuantum, epsilon: float) -> float:
    """p(eps) - 1 by the exact sum (see p_epsilon_exact)."""
    return _cos_defect(spin.m_values(), np.ones(spin.dim), _phase_rate(spin, epsilon))


def p_epsilon_exact(spin: SpinQuantum, epsilon: float) -> float:
    """p(eps) = N^-2 sum_{m1,m2} exp(-i eps m1 m2 / j), real and even in eps
    since the m range is symmetric."""
    return 1.0 + _p_defect_exact(spin, epsilon)


def _p_closed_refined(spin: SpinQuantum, epsilon: float) -> float:
    """Closed-form p(eps) without the final N ~ 2j simplifications:

        p = (2N - 1)/N^2 + (4j / (N^2 eps)) Si(j eps)

    This tends to exactly 1 as eps -> 0 and stays <= 1 (since Si(y)/y <= 1),
    which keeps the long-time power p^(4n-4) bounded.  It is evaluated as
    (2N - 1)/N^2 + ((N - 1)/N)^2 Si(y)/y with y = j eps, where 4j/(N^2 eps)
    would overflow for a subnormal eps.

    With N ~ 2j it becomes the headline form (2/N)[1 + Si(N eps / 2) / eps],
    which tends to 1 + 2/N rather than 1 as eps -> 0; that form is not used.
    """
    n = spin.dim
    y = spin.j * abs(epsilon)
    if y == 0.0:
        return 1.0
    return float((2.0 * n - 1.0) / (n * n) + (n - 1.0) ** 2 / (n * n) * (_sici(y)[0] / y))


def _sr_exact_bracket(spin: SpinQuantum, epsilon: float) -> float:
    """(1/N^4) sum over the four magnetic indices of exp[-i eps (m1-n1)(m2-n2)/j].

    The phase depends only on the differences l = m - n in -2j..2j, each
    taken by N - |l| index pairs, so the sum is a cosine mean over l with
    those weights (which add up to N^2).
    """
    l = np.arange(-spin.two_j, spin.two_j + 1, dtype=float)
    return 1.0 + _cos_defect(l, spin.dim - np.abs(l), _phase_rate(spin, epsilon))


# Below x = 1 the group g(x) = 1 - cos x - Ci(x) + ln x + gamma cancels
# catastrophically; its series is sum_k (-1)^(k+1) (2k+1) x^2k / (2k (2k)!),
# and these are its coefficients divided by (x/2)^2, in powers of x^2 from
# x^0.  Twelve terms reach double precision for x <= 1.
_CORR_SERIES = tuple(
    (-1) ** (k + 1) * 4 * (2 * k + 1) / (2 * k * math.factorial(2 * k)) for k in range(1, 13)
)


def _sr_closed_bracket(n: int, epsilon: float) -> float:
    """Large-j continuum limit of the bracket, from the quadrant integrals:

        (2/N)[1 + Si(2 N eps)/eps]
        - (1/(N eps))^2 [1 - cos(2 N eps) - Ci(2 N eps) + ln(2 N eps) + gamma]

    The three quadrant integrals are (M/2eps) Si(2Meps) [constant term],
    (M/4eps^2)(1 - cos 2Meps) [linear term, entering twice with weight -8N],
    and (M^2/4eps^2)(1 - cos + Ci - ln - gamma) [bilinear term]; combining the
    1 - cos pieces flips the sign of the Ci - ln - gamma group relative to
    the bilinear integral alone.  Below 2 N eps = 1 the second term is
    summed as a series (see _CORR_SERIES).
    """
    e = abs(epsilon)
    x = 2.0 * n * e
    si, ci = _sici(x)
    try:  # (n e)^2 overflows, or x overflows to inf
        lead = 2.0 / n * (1.0 + si / e)
        if x < 1.0:
            corr = 0.0
            for c in reversed(_CORR_SERIES):
                corr = corr * (x * x) + c
        else:
            corr = (1.0 - math.cos(x) - ci + math.log(x) + EULER_GAMMA) / (n * e) ** 2
    except (ArithmeticError, ValueError) as exc:
        raise FloatingPointError(
            f"closed-form bracket is out of float range at eps = {epsilon!r}"
        ) from exc
    return float(lead - corr)


def sr_analytic(
    n_step: Union[int, np.ndarray], spin: SpinQuantum, epsilon: float, mode: str = "exact-sum"
) -> Union[float, np.ndarray]:
    """Long-time linear entropy S_R(n) = 1 - p(eps)^(4(n-1)) * bracket.

    mode "exact-sum" evaluates both p and the bracket by the exact O(j^2)
    phase sums; mode "closed-form" uses the Si/Ci expressions (with the
    unsimplified p, which stays <= 1).  The symmetric magnetic spectrum makes
    p real.  The power is exp(4(n-1) log1p(p - 1)) from the defect p - 1, so
    the rounding of p is not raised to the power 4(n-1); a p <= 0, which
    has no logarithm, is raised directly.  eps = 0 gives 0 for all n.
    n_step may be an array of steps: p and the bracket do not depend on n, so
    they are evaluated once and an array of the same shape is returned; a
    scalar n_step gives a float.
    """
    steps = np.asarray(n_step)
    if (steps < 1).any():
        raise ValueError("step index must be >= 1")
    n = spin.dim
    if epsilon == 0.0:
        defect, bracket = 0.0, 1.0  # S_R = 0 at every step
    elif mode == "exact-sum":
        defect = _p_defect_exact(spin, epsilon)
        bracket = _sr_exact_bracket(spin, epsilon)
    elif mode == "closed-form":
        defect = _p_closed_refined(spin, epsilon) - 1.0
        bracket = _sr_closed_bracket(n, epsilon)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    k = 4 * (steps - 1)
    power = np.exp(k * math.log1p(defect)) if defect > -1.0 else (1.0 + defect) ** k
    out = 1.0 - power * bracket
    return float(out) if steps.ndim == 0 else out


def sr_weak_rate(spin: SpinQuantum, epsilon: float) -> float:
    """Weak-coupling entanglement production rate 2 eps^2 j^2 / 9 per step."""
    j = spin.j
    return 2.0 * epsilon * epsilon * j * j / 9.0
