"""Exact truncated Laurent series over rational coefficients.

The substrate for every generating-function computation in this package:
all coefficients are `fractions.Fraction`, truncation orders are tracked
pessimistically, and no operation ever reports a coefficient it cannot
guarantee. Laurent depth is capped at a single 1/x term, which is the
deepest pole that legitimately appears here (and it must always cancel).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .sequences import as_rational

Scalar = Union[int, Fraction]

#: Deepest admissible Laurent exponent.
MIN_EXPONENT = -1


class ZeroLeadingCoefficient(ValueError):
    """Reciprocal requested of a series whose lowest retained coefficient is zero."""


class BadConstantTerm(ValueError):
    """Square root requested of a series that does not start 1 + O(x)."""


class LaurentPoleError(ValueError):
    """An operation produced a pole deeper than 1/x."""


class TruncatedSeries:
    """A finite window  sum_{k=min_exp}^{order} c_k x^k  of an exact series.

    Terms above `order` are *unknown*, not zero. Arithmetic propagates the
    window pessimistically, so every stored coefficient is exact. Instances
    are immutable; all operations return new series.
    """

    __slots__ = ("_min_exp", "_coeffs", "_order")

    def __init__(self, coeffs: Iterable[Scalar], order: int, min_exp: int = 0):
        values = [as_rational(c) for c in coeffs]
        need = order - min_exp + 1
        if need < 1:
            raise ValueError(f"order {order} below minimum exponent {min_exp}")
        if len(values) < need:
            values.extend([Fraction(0)] * (need - len(values)))
        else:
            del values[need:]
        # Exact-zero leading terms carry no pole; drop them before the depth check.
        while min_exp < 0 and values and values[0] == 0:
            del values[0]
            min_exp += 1
        if min_exp < MIN_EXPONENT:
            raise LaurentPoleError(f"pole of order {-min_exp} exceeds supported depth 1")
        self._min_exp = min_exp
        self._coeffs = tuple(values)
        self._order = order

    # -- inspection ---------------------------------------------------------

    @property
    def min_exponent(self) -> int:
        return self._min_exp

    @property
    def order(self) -> int:
        """Highest exponent whose coefficient is known exactly."""
        return self._order

    def coefficient(self, k: int) -> Fraction:
        """Exact coefficient of x^k; zero below the window, error above it."""
        if k > self._order:
            raise ValueError(f"coefficient of x^{k} unknown beyond order {self._order}")
        if k < self._min_exp:
            return Fraction(0)
        return self._coeffs[k - self._min_exp]

    def coefficients(self, lo: int, hi: int) -> list[Fraction]:
        """Coefficients of x^lo .. x^hi inclusive."""
        return [self.coefficient(k) for k in range(lo, hi + 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self._min_exp == other._min_exp
            and self._order == other._order
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self._min_exp, self._order, self._coeffs))

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{c}*x^{self._min_exp + i}" for i, c in enumerate(self._coeffs) if c
        )
        return f"TruncatedSeries({terms or '0'} + O(x^{self._order + 1}))"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        min_exp = min(self._min_exp, other._min_exp)
        order = min(self._order, other._order)
        coeffs = [
            self.coefficient(k) + other.coefficient(k) for k in range(min_exp, order + 1)
        ]
        return TruncatedSeries(coeffs, order, min_exp)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs], self._order, self._min_exp)

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                [c * other for c in self._coeffs], self._order, self._min_exp
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        min_exp = self._min_exp + other._min_exp
        if min_exp < MIN_EXPONENT and self._coeffs[0] * other._coeffs[0] != 0:
            raise LaurentPoleError("product has a pole deeper than 1/x")
        # The first unknown term of either factor bounds the product window.
        order = min(self._order + other._min_exp, other._order + self._min_exp)
        out = [Fraction(0)] * (order - min_exp + 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                k = i + j
                if k >= len(out):
                    break
                out[k] += a * b
        return TruncatedSeries(out, order, min_exp)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "TruncatedSeries":
        return self * (Fraction(1) / as_rational(scalar))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k (k may be negative down to the supported depth)."""
        return TruncatedSeries(self._coeffs, self._order + k, self._min_exp + k)

    def scale_argument(self, factor: Scalar) -> "TruncatedSeries":
        """Substitute x -> factor*x."""
        f = as_rational(factor)
        coeffs = [c * f ** (self._min_exp + i) for i, c in enumerate(self._coeffs)]
        return TruncatedSeries(coeffs, self._order, self._min_exp)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above `order`."""
        if order > self._order:
            raise ValueError(f"cannot extend order {self._order} to {order}")
        return TruncatedSeries(self._coeffs, order, self._min_exp)

    def regular_part(self) -> "TruncatedSeries":
        """Drop the negative-exponent part, which must be exactly zero."""
        if self._min_exp >= 0:
            return self
        for k in range(self._min_exp, 0):
            if self.coefficient(k) != 0:
                raise ValueError(f"nonzero coefficient at x^{k}")
        return TruncatedSeries(self._coeffs[-self._min_exp :], self._order, 0)

    # -- inverse operations -------------------------------------------------

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse: self * result = 1 exactly up to the window."""
        if self._coeffs[0] == 0:
            raise ZeroLeadingCoefficient("lowest retained coefficient is zero")
        m = self._min_exp
        if -m < MIN_EXPONENT:
            raise LaurentPoleError("reciprocal would have a pole deeper than 1/x")
        u = self._coeffs  # series / x^m, known through order - m
        n_terms = len(u)
        lead = u[0]
        inv = [Fraction(1) / lead]
        for n in range(1, n_terms):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += u[i] * inv[n - i]
            inv.append(-acc / lead)
        return TruncatedSeries(inv, self._order - 2 * m, -m)

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series starting 1 + O(x); result squares back exactly."""
        if self._min_exp != 0:
            raise BadConstantTerm(f"square root needs min exponent 0, got {self._min_exp}")
        if self._coeffs[0] != 1:
            raise BadConstantTerm(f"square root needs constant term 1, got {self._coeffs[0]}")
        s = self._coeffs
        root = [Fraction(1)]
        for n in range(1, len(s)):
            acc = s[n]
            for i in range(1, n):
                acc -= root[i] * root[n - i]
            root.append(acc / 2)
        return TruncatedSeries(root, self._order, 0)


def geometric(ratio: Scalar, order: int) -> TruncatedSeries:
    """The series 1 + r*x + r^2*x^2 + ... through the given order."""
    r = as_rational(ratio)
    coeffs, c = [], Fraction(1)
    for _ in range(order + 1):
        coeffs.append(c)
        c *= r
    return TruncatedSeries(coeffs, order)
