"""Numerical validation of the weight function behind the moment functional.

The derived weight is (1/2pi)(1 + 1/x) sqrt(4L - (x-L-1)^2) on the interval
((sqrt L - 1)^2, (sqrt L + 1)^2). For L >= 1 it is the whole measure; for
L < 1 the weight's mass is only 2L against a_0 = L + 1, and the measure is
the weight plus an atom (1-L) delta_0. This module checks, in float64, that
the measure's moments really are a_n and that the final monic polynomials
are orthogonal under it. Every integral over the weight is taken after the
substitution x = L + 1 + 2 sqrt(L) cos(theta), which turns the integrand
into a smooth (periodic) function of theta: the endpoint square-root
singularities and the x^(-1/2) endpoint behaviour at L = 1 are absorbed
exactly, so the midpoint rule converges spectrally. Exactness lives
elsewhere; a mismatch here beyond tolerance signals a transcription error in
the weight, not rounding.
"""

from __future__ import annotations

import math
import sys
from numbers import Real
from typing import TYPE_CHECKING

from .opoly import chain_coeffs
from .sequences import RationalLike, as_rational

if TYPE_CHECKING:  # numpy is imported where it is used, which keeps it out of start-up
    import numpy as np


class DomainError(ValueError):
    """The weight is undefined at x = 0 (reachable only for L = 1)."""


def _numpy():
    """numpy, the quadrature's only dependency, or the one error that names its extra."""
    try:
        import numpy
    except ImportError:
        raise ModuleNotFoundError("quad needs numpy: pip install 'hankel-catalan[quad]'") from None
    return numpy


def _support(L: Real) -> tuple[float, float, float]:
    """float(L) and the weight's support (lo, hi); L must be a normal positive
    float64 no larger than half the float64 maximum, so that 2L stays finite."""
    L = float(L)  # OverflowError past the range
    if not sys.float_info.min <= L <= sys.float_info.max / 2:  # a subnormal L keeps too few bits
        raise ValueError(f"parameter L must be a positive normal float64 at most max/2, got {L}")
    root = math.sqrt(L)
    return L, (root - 1) ** 2, (root + 1) ** 2


def weight_eval(x: float, L: Real) -> float:
    """Pointwise weight value; exactly 0 outside the open support."""
    L, lo, hi = _support(L)
    if x == 0.0:
        raise DomainError("weight undefined at x = 0")
    if not lo < x < hi:
        return 0.0
    radicand = 4.0 * L - (x - L - 1.0) ** 2
    if radicand <= 0.0:
        return 0.0
    return (1.0 + 1.0 / x) * math.sqrt(radicand) / (2.0 * math.pi)


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
    """Approximate moments 0 .. n_max of the measure from one set of nodes."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    L, _, hi = _support(L)
    # the nodes lie below hi, so x^n on them overflows no sooner than this OverflowError
    math.pow(hi, n_max)
    x, w = _substituted(L, nodes)
    # Moment 0's 1/x part, whose peak the rule misses near L = 1, and the atom sum to
    # min(1, L) + (1 - L)_+ = 1 exactly; w x / (1 + x) is the sin^2 part alone, and x = 0 drops out.
    return [float(w @ (x / (1.0 + x))) + 1.0] + [float(w @ x**n) for n in range(1, n_max + 1)]


def moment_quadrature(L: Real, n: int, nodes: int) -> float:
    """Approximate the n-th moment of the measure."""
    return moment_quadratures(L, n, nodes)[-1]


def orthogonality_check(L: RationalLike, n_max: int, nodes: int) -> float:
    """Largest normalized off-diagonal inner product among Q_0 .. Q_{n_max}.

    The polynomials come from the exact chain coefficients and are evaluated
    on the nodes by their three-term recurrence in float64; monomial
    coefficients would lose digits to cancellation as n grows. Each
    pair integral is divided by the product of the quadrature norms, so the
    result is a dimensionless residual that should sit at quadrature noise.
    """
    L = as_rational(L)
    x, w = _substituted(L, nodes)
    np = _numpy()
    coeffs, _ = chain_coeffs(L, max(n_max, 1))
    values = np.empty((n_max + 1, x.size))
    values[0] = 1.0
    for k in range(n_max):
        # Q_{k+1} = (x - alpha_k) Q_k - beta_k Q_{k-1}, with Q_{-1} = 0
        prev = values[k - 1] if k else 0.0
        values[k + 1] = (x - float(coeffs.alpha[k])) * values[k] - float(coeffs.beta[k]) * prev
    gram = (values * w) @ values.T
    norms = np.sqrt(np.diag(gram))
    residual = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(residual, 0.0)
    return float(residual.max())
