"""The weight behind the moment functional: its exact moments and a float64 quadrature.

The derived weight is (1/2pi)(1 + 1/x) sqrt(4L - (x-L-1)^2) on the interval
((sqrt L - 1)^2, (sqrt L + 1)^2). For L >= 1 it is the whole measure; for
L < 1 the weight's mass is only 2L against a_0 = L + 1, and the measure is
the weight plus an atom (1-L) delta_0. Its exact moments are a_n, so the
chain's polynomials are orthogonal under it exactly. The float64 functions
integrate after the substitution x = L + 1 + 2 sqrt(L) cos(theta), under
which moment n >= 1 integrates (x^n + x^(n-1)) sin^2(theta), a polynomial of
degree n + 2 in cos(theta). The N-node midpoint rule in theta integrates every
such polynomial of degree below 2N exactly, so N = n_max // 2 + 2 nodes make
the rule exact up to rounding; moment 0 takes its 1/x part, the one
integrand that is no polynomial, exactly.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Real

from .sequences import RationalLike, SequenceParams, as_rational


class DomainError(ValueError):
    """The weight is undefined at x = 0 (reachable only for L = 1, where it ends the support)."""


def exact_moments(L: RationalLike, n_max: int) -> list[Fraction]:
    """Moments 0 .. n_max of the measure: moment n is mu_n + mu_(n-1), where the
    weight's sin^2(theta) part gives mu_m = L sum_j C(m,2j) Cat_j (L+1)^(m-2j) L^j
    (Coker's form of the Narayana polynomials) and its 1/x part with the atom
    gives mu_(-1) = min(1, L) + (1-L)_+ = 1. For L = p/q the sum runs on the
    integers q^(m+1) mu_m = p sum_j C(m,2j) Cat_j (p+q)^(m-2j) (pq)^j.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    L = SequenceParams(as_rational(L)).L  # ValueError unless L > 0
    p, q = L.numerator, L.denominator
    paths = [1]  # Cat_j (pq)^j
    for j in range(n_max // 2):
        paths.append(paths[j] * 2 * (2 * j + 1) * p * q // (j + 2))
    scaled = [1] + [  # mu_(-1), then q^(m+1) mu_m
        p * sum(math.comb(m, 2 * j) * paths[j] * (p + q) ** (m - 2 * j) for j in range(m // 2 + 1))
        for m in range(n_max + 1)
    ]
    return [Fraction(q * scaled[n] + scaled[n + 1], q ** (n + 1)) for n in range(n_max + 1)]


def _support(L: Real) -> tuple[float, float, float]:
    """float(L) and the weight's support (lo, hi); L must be a normal positive
    float64 no larger than half the float64 maximum, so that 2L stays finite:
    OverflowError where float(L) overflows, ValueError for any other L out of range."""
    L = float(L)
    if not sys.float_info.min <= L <= sys.float_info.max / 2:  # a subnormal L keeps too few bits
        raise ValueError(f"parameter L must be a positive normal float64 at most max/2, got {L}")
    root = math.sqrt(L)
    return L, (root - 1) ** 2, (root + 1) ** 2


def weight_eval(x: float, L: Real) -> float:
    """Pointwise weight value; exactly 0 outside the open support."""
    _, lo, hi = _support(L)
    if x == 0.0 == lo:
        raise DomainError("weight undefined at x = 0")
    if not lo < x < hi:
        return 0.0
    # 4L - (x-L-1)^2 in factored form, which does not cancel to 0 near either end;
    # (1 + 1/x) root as (1 + x)(root / x), since 1/x overflows at a subnormal x
    return (1.0 + x) * (math.sqrt((x - lo) * (hi - x)) / x) / (2.0 * math.pi)


def _substituted(L: Real, nodes: int) -> tuple[list[float], list[float]]:
    """Abscissae and combined quadrature factors for integrals against the weight.

    integral f(x) w(x) dx = (2L/pi) integral_0^pi f(x(theta)) (1 + 1/x) sin^2(theta) dtheta,
    by the midpoint rule on (0, pi), an open rule, so x = 0 is never sampled.
    """
    L = _support(L)[0]
    root, scale = math.sqrt(L), 2.0 * L / nodes
    theta = [(j + 0.5) * math.pi / nodes for j in range(nodes)]
    x = [L + 1.0 + 2.0 * root * math.cos(t) for t in theta]
    return x, [scale * (1.0 + 1.0 / xj) * math.sin(t) ** 2 for xj, t in zip(x, theta)]


def moment_quadratures(L: Real, n_max: int) -> list[float]:
    """Moments 0 .. n_max of the measure in float64 from n_max // 2 + 2 nodes;
    OverflowError where one of them, or hi^n_max, leaves the float64 range."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    L, _, hi = _support(L)
    # the nodes lie below hi, so x^n on them overflows no sooner than this OverflowError
    math.pow(hi, n_max)
    x, terms = _substituted(L, n_max // 2 + 2)
    # Moment 0's 1/x part and the atom (1 - L)_+ sum to min(1, L) + (1 - L)_+ = 1
    # exactly; w x / (1 + x) is the sin^2 part alone.
    moments = [math.fsum(w * xj / (1.0 + xj) for w, xj in zip(terms, x)) + 1.0]
    for _ in range(n_max):  # terms holds w_j x_j^n; fsum raises OverflowError past the range
        terms = [w * xj for w, xj in zip(terms, x)]
        moments.append(math.fsum(terms))
    if not all(map(math.isfinite, moments)):  # a product past the range is inf, silently
        raise OverflowError(f"a moment of L = {L} up to n = {n_max} leaves the float64 range")
    return moments


def moment_quadrature(L: Real, n: int) -> float:
    """The n-th moment of the measure in float64."""
    return moment_quadratures(L, n)[-1]
