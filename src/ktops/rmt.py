"""Random-matrix saturation constants and the long-time linear-entropy law
for coupled strongly chaotic tops.

Two evaluation routes are exported for the linear-entropy law: the exact
O(j^2) phase sums (folded to real cosine sums over one quadrant) and the
large-j closed form built from sine and cosine integrals.  The closed form
carries the large-j approximations of its derivation; both routes are kept so
the approximation error is measurable rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import sici

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


def si(x: float) -> float:
    """Sine integral, odd in x."""
    val = float(sici(abs(x))[0])
    return val if x >= 0 else -val


def ci(x: float) -> float:
    """Cosine integral; defined for x > 0 only."""
    if x <= 0.0:
        raise ValueError(f"ci requires x > 0, got {x}")
    return float(sici(x)[1])


def p_epsilon_exact(spin: SpinQuantum, epsilon: float) -> float:
    """p(eps) = N^-2 sum exp(-i eps m1 m2 / j), folded to a cosine quadrant sum.

    Symmetric m ranges make the sum real and even in eps; the zero row and
    column contribute (2N - 1)/N^2 for integer j and vanish for half-integer j.
    """
    tj = spin.two_j
    n = spin.dim
    if tj == 0:
        return 1.0
    a = 2.0 * epsilon / tj  # eps / j
    if tj % 2 == 0:
        m_pos = np.arange(1, tj // 2 + 1, dtype=float)
        quad = np.cos(a * np.outer(m_pos, m_pos)).sum()
        return float((2.0 * n - 1.0 + 4.0 * quad) / (n * n))
    m_pos = np.arange(tj + 1, dtype=float)[1::2] / 2.0  # 1/2, 3/2, ..., j
    quad = np.cos(a * np.outer(m_pos, m_pos)).sum()
    return float(4.0 * quad / (n * n))


def p_epsilon_closed(n: int, epsilon: float) -> float:
    """Large-j closed form p(eps) ~ (2/N)[1 + Si(N eps / 2) / eps].

    At eps -> 0+ the approximation tends to 1 + 2/N rather than 1; that bias
    is inherent to the continuum limit it came from and left uncorrected
    here.  eps = 0 itself returns the exact value 1.
    """
    if epsilon == 0.0:
        return 1.0
    e = abs(epsilon)
    return float(2.0 / n * (1.0 + si(0.5 * n * e) / e))


def _p_closed_refined(spin: SpinQuantum, epsilon: float) -> float:
    """Closed-form p(eps) without the final N ~ 2j simplifications:

        p = (2N - 1)/N^2 + (4j / (N^2 eps)) Si(j eps)

    Unlike the headline form this tends to exactly 1 as eps -> 0 and stays
    <= 1 (since Si(y)/y <= 1), which keeps the long-time power p^(4n-4)
    bounded.  It feeds sr_analytic's closed-form mode.  It is evaluated as
    (2N - 1)/N^2 + ((N - 1)/N)^2 Si(y)/y with y = j eps, where 4j/(N^2 eps)
    would overflow for a subnormal eps.
    """
    n = spin.dim
    y = spin.j * abs(epsilon)
    if y == 0.0:
        return 1.0
    return float((2.0 * n - 1.0) / (n * n) + (n - 1.0) ** 2 / (n * n) * (si(y) / y))


def _sr_exact_bracket(spin: SpinQuantum, epsilon: float) -> float:
    """(1/N^4) sum over the four magnetic indices of exp[-i eps (m1-n1)(m2-n2)/j].

    Reduces to integer index differences l = m - n with multiplicities
    (N - |l|), folded to one quadrant: the result is
    [2N^3 - N^2 + 4 sum_{l1,l2>=1} (N-l1)(N-l2) cos(eps l1 l2 / j)] / N^4.
    """
    tj = spin.two_j
    n = spin.dim
    if tj == 0:
        return 1.0
    a = 2.0 * epsilon / tj
    l = np.arange(1, tj + 1, dtype=float)
    wvec = n - l
    quad = wvec @ np.cos(a * np.outer(l, l)) @ wvec
    return float((2.0 * n**3 - n**2 + 4.0 * quad) / float(n) ** 4)


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
    try:  # (n e)^2 overflows, or x overflows to inf
        lead = 2.0 / n * (1.0 + si(x) / e)
        if x < 1.0:
            corr = 0.0
            for c in reversed(_CORR_SERIES):
                corr = corr * (x * x) + c
        else:
            corr = (1.0 - math.cos(x) - ci(x) + math.log(x) + EULER_GAMMA) / (n * e) ** 2
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
    p real, so the power needs no modulus.  eps = 0 gives 0 for all n.
    n_step may be an array of steps: p and the bracket do not depend on n, so
    they are evaluated once and an array of the same shape is returned; a
    scalar n_step gives a float.
    """
    steps = np.asarray(n_step)
    if (steps < 1).any():
        raise ValueError("step index must be >= 1")
    n = spin.dim
    if epsilon == 0.0:
        p, bracket = 1.0, 1.0  # S_R = 0 at every step
    elif mode == "exact-sum":
        p = p_epsilon_exact(spin, epsilon)
        bracket = _sr_exact_bracket(spin, epsilon)
    elif mode == "closed-form":
        p = _p_closed_refined(spin, epsilon)
        bracket = _sr_closed_bracket(n, epsilon)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = 1.0 - p ** (4 * (steps - 1)) * bracket
    return float(out) if steps.ndim == 0 else out


def sr_weak_rate(spin: SpinQuantum, epsilon: float) -> float:
    """Weak-coupling entanglement production rate 2 eps^2 j^2 / 9 per step."""
    j = spin.j
    return 2.0 * epsilon * epsilon * j * j / 9.0
