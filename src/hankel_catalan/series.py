"""Exact truncated power series: integer coefficients under a rational
prefactor and an integer argument scale.

The substrate for every generating-function computation in this package. A
series is stored as  sum_k c_k x^k  with  c_k = r * F_k / s^k, that is
r * F(x/s): F is a list of Python ints kept primitive (gcd 1, first nonzero
entry positive), s >= 1 is an integer argument scale and r is one rational
prefactor. Every ring operation and every inverse works on the integers of F
alone; `fractions.Fraction`s are built only where a coefficient is read. The
bits of F_k then grow linearly in k, where gcd-reduced rationals would pay a
gcd per multiply-add.

Truncation orders are tracked pessimistically, and no operation ever reports
a coefficient it cannot guarantee. Only power series are represented: a
generating function with a 1/x pole is computed as x times itself, whose
constant term is the pole.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

from .sequences import as_rational, integer_window

Scalar = Union[int, Fraction]


class ZeroLeadingCoefficient(ValueError):
    """Reciprocal requested of a series whose constant term is zero."""


class BadConstantTerm(ValueError):
    """Square root requested of a series that does not start 1 + O(x)."""


def _rescaled(F: list[int], m: int) -> list[int]:
    """F_k * m^k: the same series over an argument scale m times larger."""
    if m == 1:
        return F
    out, power = [], 1
    for f in F:
        out.append(f * power)
        power *= m
    return out


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of two integer rows."""
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)]


def _series(r: Fraction, s: int, F: list[int]) -> "TruncatedSeries":
    """The series r * F(x/s)."""
    out = object.__new__(TruncatedSeries)
    out._store(r, s, F)
    return out


class TruncatedSeries:
    """A finite window  sum_{k=0}^{order} c_k x^k  of an exact power series.

    Terms above `order` are *unknown*, not zero. Arithmetic propagates the
    window pessimistically, so every stored coefficient is exact. Instances
    are immutable; all operations return new series.
    """

    __slots__ = ("_r", "_s", "_F")

    def __init__(self, coeffs: Iterable[Scalar], order: int):
        if order < 0:
            raise ValueError(f"order {order} is negative")
        values = [as_rational(c) for c in coeffs][: order + 1]
        values.extend([Fraction(0)] * (order + 1 - len(values)))
        # c_k = F_k / (s t^k); polynomials such as 1 - 2(L+1)x + (L-1)^2 x^2
        # at L = p/q come out with t = q and s = 1.
        F, s, t = integer_window(values)
        self._store(Fraction(1, s), t, F)

    def _store(self, r: Fraction, s: int, F: list[int]) -> None:
        """Hold r * F(x/s), with F made primitive and its first nonzero entry positive."""
        g = math.gcd(*F)
        if g == 0:
            r = Fraction(0)
        else:
            if next(f for f in F if f) < 0:
                g = -g
            if g != 1:
                F = [f // g for f in F]
                r = r * g
        self._r, self._s, self._F = r, s, tuple(F)

    # -- inspection ---------------------------------------------------------

    @property
    def order(self) -> int:
        """Highest exponent whose coefficient is known exactly."""
        return len(self._F) - 1

    def coefficient(self, k: int) -> Fraction:
        """Exact coefficient of x^k; zero below x^0, error above the order."""
        if k > self.order:
            raise ValueError(f"coefficient of x^{k} unknown beyond order {self.order}")
        if k < 0:
            return Fraction(0)
        r = self._r
        return Fraction(r.numerator * self._F[k], r.denominator * self._s**k)

    def coefficients(self, lo: int, hi: int) -> list[Fraction]:
        """Coefficients of x^lo .. x^hi inclusive."""
        return [self.coefficient(k) for k in range(lo, hi + 1)]

    def _values(self) -> tuple[Fraction, ...]:
        num, den = self._r.numerator, self._r.denominator
        out = []
        for f in self._F:
            out.append(Fraction(num * f, den))
            den *= self._s
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.order, self._values()))

    def __repr__(self) -> str:
        terms = ", ".join(f"{c}*x^{i}" for i, c in enumerate(self._values()) if c)
        return f"TruncatedSeries({terms or '0'} + O(x^{self.order + 1}))"

    # -- ring operations ----------------------------------------------------

    def _common_scale(self, other: "TruncatedSeries") -> tuple[int, list[int], list[int]]:
        """Both rows over lcm(s1, s2), cut to the shorter window."""
        n = min(len(self._F), len(other._F))
        s = math.lcm(self._s, other._s)
        a = _rescaled(list(self._F[:n]), s // self._s)
        b = _rescaled(list(other._F[:n]), s // other._s)
        return s, a, b

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        s, a, b = self._common_scale(other)
        r1, r2 = self._r, other._r
        den = math.lcm(r1.denominator, r2.denominator)
        m1 = r1.numerator * (den // r1.denominator)
        m2 = r2.numerator * (den // r2.denominator)
        return _series(Fraction(1, den), s, [m1 * x + m2 * y for x, y in zip(a, b)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return _series(-self._r, self._s, list(self._F))

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return _series(self._r * other, self._s, list(self._F))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # The first unknown term of either factor bounds the product window.
        s, a, b = self._common_scale(other)
        return _series(self._r * other._r, s, _convolve(a, b, len(a)))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "TruncatedSeries":
        return self * (Fraction(1) / as_rational(scalar))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k; for k < 0 the -k dropped coefficients must be zero
        and must leave at least one known coefficient."""
        F = self._F
        if k >= 0:
            return _series(self._r * self._s**k, self._s, [0] * k + list(F))
        if -k > self.order:
            raise ValueError(f"x^{k} times a series of order {self.order} leaves no known coefficient")
        if any(F[:-k]):
            raise ValueError(f"x^{k} times the series is not a power series")
        return _series(self._r / self._s**-k, self._s, list(F[-k:]))

    def scale_argument(self, factor: Scalar) -> "TruncatedSeries":
        """Substitute x -> factor*x."""
        f = as_rational(factor)
        return _series(self._r, self._s * f.denominator, _rescaled(list(self._F), f.numerator))

    # -- inverse operations -------------------------------------------------

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse: self * result = 1 exactly up to the window.

        With c = F_0 > 0, F(x) = c * P(x/c) for the integer row
        P_k = F_k c^(k-1), P_0 = 1, whose inverse W has integer coefficients
        W_n = -sum_{i>=1} P_i W_{n-i}. So 1/(r F(x/s)) = W(x/(s c)) / (r c).
        """
        F = self._F
        c = F[0]
        if not (self._r and c):
            raise ZeroLeadingCoefficient("constant term is zero")
        P = [1] + _rescaled(list(F[1:]), c)
        W = [1]
        for n in range(1, len(F)):
            W.append(-sum(map(mul, P[1 : n + 1], W[::-1])))
        return _series(1 / (self._r * c), self._s * c, W)

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series starting 1 + O(x); result squares back exactly.

        With r * F_0 = 1, r F(x/s) = M(x/(s F_0)) for the integer row
        M_k = F_k F_0^(k-1), M_0 = 1. The root of M(4z) has integer
        coefficients G_n = (4^n M_n - sum_{0<i<n} G_i G_{n-i}) / 2, so the
        root is G(x/(4 s F_0)). Where 4^n (or else 2^n) divides every G_n,
        it is divided out and the scale shrinks by the same factor, so the
        integers carry no spare bits.
        """
        F = self._F
        c = F[0]
        if self._r * c != 1:
            raise BadConstantTerm(f"square root needs constant term 1, got {self._r * c}")
        M4 = [1, *(4 * m for m in _rescaled(list(F[1:]), 4 * c))]  # 4^k M_k
        G = [1]
        for n in range(1, len(F)):
            half, odd = divmod(M4[n] - sum(map(mul, G[1:n], G[n - 1 : 0 : -1])), 2)
            if odd:
                raise ArithmeticError(f"coefficient {n} of the root is not an integer")
            G.append(half)
        scale = 4 * self._s * c
        for m in (4, 2):
            powers = _rescaled([1] * len(G), m)
            if all(g % power == 0 for g, power in zip(G, powers)):
                G = [g // power for g, power in zip(G, powers)]
                scale //= m
                break
        return _series(Fraction(1), scale, G)
