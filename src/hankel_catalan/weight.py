"""The weight behind the moment functional: its exact moments and a float64 quadrature.

The derived weight is (1/2pi)(1 + 1/x) sqrt(4L - (x-L-1)^2) on the interval
((sqrt L - 1)^2, (sqrt L + 1)^2). For L >= 1 it is the whole measure; for
L < 1 the weight's mass is only 2L against a_0 = L + 1, and the measure is
the weight plus an atom (1-L) delta_0. Its exact moments are a_n, so the
chain's polynomials are orthogonal under it exactly. The float64 functions
integrate after the substitution x = L + 1 + 2 sqrt(L) cos(theta), which
turns the integrand into a smooth (periodic) function of theta: the endpoint
square-root singularities and the x^(-1/2) endpoint behaviour at L = 1 are
absorbed exactly, so the midpoint rule converges spectrally.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Real
from typing import TYPE_CHECKING

from .sequences import RationalLike, SequenceParams, as_rational

if TYPE_CHECKING:  # numpy is imported where it is used, which keeps it out of start-up
    import numpy as np


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


def _numpy():
    """numpy, the quadrature's only dependency, or the one error that names its extra."""
    try:
        import numpy
    except ImportError:
        raise ModuleNotFoundError("quad needs numpy: pip install 'hankel-catalan[quad]'") from None
    return numpy


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


def _substituted(L: Real, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and combined quadrature factors for integrals against the measure.

    integral f(x) w(x) dx = (2L/pi) integral_0^pi f(x(theta)) (1 + 1/x) sin^2(theta) dtheta,
    and for L < 1 the atom adds the node x = 0 with factor 1 - L. The theta
    integral is the midpoint rule on (0, pi), an open rule, so x = 0 is
    never sampled.
    """
    L = _support(L)[0]
    if nodes < 16:
        raise ValueError("nodes must be at least 16")
    np = _numpy()
    step = math.pi / nodes
    theta = (np.arange(nodes) + 0.5) * step
    x = L + 1.0 + 2.0 * math.sqrt(L) * np.cos(theta)
    w = step * ((2.0 * L / math.pi) * (1.0 + 1.0 / x) * np.sin(theta) ** 2)
    if L < 1.0:
        return np.append(x, 0.0), np.append(w, 1.0 - L)
    return x, w


def moment_quadratures(L: Real, n_max: int, nodes: int) -> list[float]:
    """Approximate moments 0 .. n_max of the measure from one set of nodes;
    OverflowError where one of them, or hi^n_max, leaves the float64 range."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    L, _, hi = _support(L)
    # the nodes lie below hi, so x^n on them overflows no sooner than this OverflowError
    math.pow(hi, n_max)
    x, w = _substituted(L, nodes)
    # Moment 0's 1/x part, whose peak the rule misses near L = 1, and the atom sum to
    # min(1, L) + (1 - L)_+ = 1 exactly; w x / (1 + x) is the sin^2 part alone, and x = 0 drops out.
    try:
        with _numpy().errstate(over="raise"):  # moment n, up to (L+1) hi^n, can pass the range first
            return [float(w @ (x / (1.0 + x))) + 1.0] + [float(w @ x**n) for n in range(1, n_max + 1)]
    except FloatingPointError:
        raise OverflowError(f"a moment of L = {L} up to n = {n_max} leaves the float64 range") from None


def moment_quadrature(L: Real, n: int, nodes: int) -> float:
    """Approximate the n-th moment of the measure."""
    return moment_quadratures(L, n, nodes)[-1]
