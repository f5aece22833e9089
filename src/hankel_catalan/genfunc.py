"""Jacobi polynomials and the closed-form generating functions of the sequence.

Everything here is exact power-series arithmetic. The ordinary generating
function G of a_n is assembled two independent ways: from its closed
square-root form, and from the Jacobi-polynomial generating function with a
scaled argument. Both forms carry a 1/t pole that must cancel identically.
Each assembly computes t*G, whose constant term is that pole's coefficient,
and raises unless it is exactly zero; a surviving pole means a transcription
error, not a rounding problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .sequences import RationalLike, as_rational, pascal_t
from .series import TruncatedSeries


class PoleNotCancelled(ArithmeticError):
    """The generating-function pole failed to cancel exactly."""


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi parameter pair (a, b); only small nonnegative integers are used."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("Jacobi parameters must be nonnegative integers")


def jacobi_poly(n: int, p: JacobiParams, x: RationalLike) -> Fraction:
    """Exact value of the degree-n Jacobi polynomial at a rational point.

    Uses the finite sum
    P_n^{(a,b)}(x) = 2^{-n} sum_k C(n+a,k) C(n+b,n-k) (x-1)^{n-k} (x+1)^k.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    xf = as_rational(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            math.comb(n + p.a, k)
            * math.comb(n + p.b, n - k)
            * (xf - 1) ** (n - k)
            * (xf + 1) ** k
        )
    return total / 2**n


def jacobi_genfun_series(p: JacobiParams, x: RationalLike, order: int) -> TruncatedSeries:
    """Generating function sum_n P_n^{(a,b)}(x) t^n as an exact series in t.

    Assembled as 2^{a+b} / (phi * (1-t+phi)^a * (1+t+phi)^b) with
    phi = sqrt(1 - 2xt + t^2).
    """
    xf = as_rational(x)
    phi = TruncatedSeries([1, -2 * xf, 1], order).sqrt()
    denom = phi
    factor_a = TruncatedSeries([1, -1], order) + phi
    factor_b = TruncatedSeries([1, 1], order) + phi
    for _ in range(p.a):
        denom = denom * factor_a
    for _ in range(p.b):
        denom = denom * factor_b
    return denom.reciprocal() * 2 ** (p.a + p.b)


def rho_series(L: RationalLike, order: int) -> TruncatedSeries:
    """Exact square root of 1 - 2(L+1)t + (L-1)^2 t^2."""
    Lf = as_rational(L)
    return TruncatedSeries([1, -2 * (Lf + 1), (Lf - 1) ** 2], order).sqrt()


def t_sum_identities(L: RationalLike, n_max: int) -> bool:
    """Check that the four central triangle columns are Jacobi evaluations.

    With x = (L+1)/(L-1) (hence L != 1), verifies exactly for n <= n_max:
      T(2n, n; L)     = (L-1)^n     P_n^{(0,0)}(x)
      T(2n+2, n; L)   = (L-1)^n     P_n^{(2,0)}(x)
      T(2n, n-1; L)   = (L-1)^{n-1} P_{n-1}^{(2,0)}(x)   (n >= 1; zero at n=0)
      T(2n+2, n+1; L) = (L-1)^{n+1} P_{n+1}^{(0,0)}(x)
    The last two are the coefficient form of the shifted series identities.
    They are the second at n-1 and the first at n+1, and T(0, -1) = 0 is
    pascal_t's k < 0 convention, so checking the first for n <= n_max + 1
    and the second for n <= n_max covers all four.
    """
    Lf = as_rational(L)
    if Lf == 1:
        raise ValueError("the substitution x = (L+1)/(L-1) is singular at L = 1")
    x = (Lf + 1) / (Lf - 1)
    legendre = JacobiParams(0, 0)
    shifted = JacobiParams(2, 0)
    for n in range(n_max + 2):
        scale = (Lf - 1) ** n
        if pascal_t(2 * n, n, Lf) != scale * jacobi_poly(n, legendre, x):
            return False
        if n <= n_max and pascal_t(2 * n + 2, n, Lf) != scale * jacobi_poly(n, shifted, x):
            return False
    return True


def _divide_by_t(t_g: TruncatedSeries) -> TruncatedSeries:
    """G from t*G, whose constant term is the 1/t coefficient of G and must vanish."""
    pole = t_g.coefficient(0)
    if pole != 0:
        raise PoleNotCancelled(f"1/t coefficient is {pole}, expected 0")
    return t_g.shift(-1)


def big_g_series(L: RationalLike, order: int) -> TruncatedSeries:
    """Ordinary generating function of a_n from its closed square-root form.

    G = (t+1)/rho * (1/t - 4/B^2) - 1/t with B = 1 - (L-1)t + rho. Evaluates
    t*G = (t+1)/rho * (1 - 4t/B^2) - 1 through t^(order+1), asserts its
    constant term (the 1/t pole of G) vanishes exactly, and returns G, whose
    coefficient of t^n is a_n(L).
    """
    Lf = as_rational(L)
    work = order + 1
    rho = rho_series(Lf, work)
    one = TruncatedSeries([1], work)
    bracket_base = TruncatedSeries([1, -(Lf - 1)], work) + rho
    inner = one - (bracket_base * bracket_base).reciprocal().shift(1) * 4
    t_g = TruncatedSeries([1, 1], work) * rho.reciprocal() * inner - one
    return _divide_by_t(t_g)


def big_g_series_from_jacobi(L: RationalLike, order: int) -> TruncatedSeries:
    """Same generating function assembled from Jacobi generating functions.

    G = (t+1)/t * G^{(0,0)} - (t+1) * G^{(2,0)} - 1/t, both G's taken at
    x = (L+1)/(L-1) with argument scaled by (L-1). Evaluates
    t*G = (t+1) G^{(0,0)} - t(t+1) G^{(2,0)} - 1 and divides by t as
    big_g_series does. Requires L != 1.
    """
    Lf = as_rational(L)
    if Lf == 1:
        raise ValueError("the substitution x = (L+1)/(L-1) is singular at L = 1")
    work = order + 1
    x = (Lf + 1) / (Lf - 1)
    g00 = jacobi_genfun_series(JacobiParams(0, 0), x, work).scale_argument(Lf - 1)
    g20 = jacobi_genfun_series(JacobiParams(2, 0), x, work).scale_argument(Lf - 1)
    one_plus_t = TruncatedSeries([1, 1], work)
    t_g = one_plus_t * g00 - one_plus_t.shift(1) * g20 - TruncatedSeries([1], work)
    return _divide_by_t(t_g)


def f_series(L: RationalLike, order: int) -> TruncatedSeries:
    """Moment generating function sum_k a_k z^{-k-1} as a series in u = 1/z.

    The closed form -1 + 2(z+1)/(z - L + 1 + R(z)) becomes, after z = 1/u,
    -1 + 2(1+u)/(1 - (L-1)u + rho(u)); its constant term must vanish and the
    coefficient of u^{k+1} is a_k(L). (The denominator follows from
    (1 - (L-1)u + rho)^2 - 4u = 2 rho (1 - (L-1)u + rho); flipping the sign
    of the (L-1) term breaks every coefficient except at L = 1.)
    """
    Lf = as_rational(L)
    denom = TruncatedSeries([1, -(Lf - 1)], order) + rho_series(Lf, order)
    f = TruncatedSeries([1, 1], order) * denom.reciprocal() * 2 - TruncatedSeries(
        [1], order
    )
    constant = f.coefficient(0)
    if constant != 0:
        raise PoleNotCancelled(f"constant term is {constant}, expected 0")
    return f
