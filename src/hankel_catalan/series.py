"""Exact truncated power series over rational coefficients.

The substrate for every generating-function computation in this package:
all coefficients are `fractions.Fraction`, truncation orders are tracked
pessimistically, and no operation ever reports a coefficient it cannot
guarantee. Only power series are represented: a generating function with a
1/x pole is computed as x times itself, whose constant term is the pole.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .sequences import as_rational

Scalar = Union[int, Fraction]


class ZeroLeadingCoefficient(ValueError):
    """Reciprocal requested of a series whose constant term is zero."""


class BadConstantTerm(ValueError):
    """Square root requested of a series that does not start 1 + O(x)."""


class TruncatedSeries:
    """A finite window  sum_{k=0}^{order} c_k x^k  of an exact power series.

    Terms above `order` are *unknown*, not zero. Arithmetic propagates the
    window pessimistically, so every stored coefficient is exact. Instances
    are immutable; all operations return new series.
    """

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: Iterable[Scalar], order: int):
        if order < 0:
            raise ValueError(f"order {order} is negative")
        values = [as_rational(c) for c in coeffs]
        need = order + 1
        if len(values) < need:
            values.extend([Fraction(0)] * (need - len(values)))
        else:
            del values[need:]
        self._coeffs = tuple(values)
        self._order = order

    # -- inspection ---------------------------------------------------------

    @property
    def order(self) -> int:
        """Highest exponent whose coefficient is known exactly."""
        return self._order

    def coefficient(self, k: int) -> Fraction:
        """Exact coefficient of x^k; zero below x^0, error above the order."""
        if k > self._order:
            raise ValueError(f"coefficient of x^{k} unknown beyond order {self._order}")
        if k < 0:
            return Fraction(0)
        return self._coeffs[k]

    def coefficients(self, lo: int, hi: int) -> list[Fraction]:
        """Coefficients of x^lo .. x^hi inclusive."""
        return [self.coefficient(k) for k in range(lo, hi + 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        terms = ", ".join(f"{c}*x^{i}" for i, c in enumerate(self._coeffs) if c)
        return f"TruncatedSeries({terms or '0'} + O(x^{self._order + 1}))"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return TruncatedSeries(
            [a + b for a, b in zip(self._coeffs, other._coeffs)], order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs], self._order)

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self._coeffs], self._order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # The first unknown term of either factor bounds the product window.
        order = min(self._order, other._order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                k = i + j
                if k > order:
                    break
                out[k] += a * b
        return TruncatedSeries(out, order)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "TruncatedSeries":
        return self * (Fraction(1) / as_rational(scalar))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k; for k < 0 the -k dropped coefficients must be zero."""
        if k >= 0:
            return TruncatedSeries([0] * k + list(self._coeffs), self._order + k)
        if any(self._coeffs[:-k]):
            raise ValueError(f"x^{k} times the series is not a power series")
        return TruncatedSeries(self._coeffs[-k:], self._order + k)

    def scale_argument(self, factor: Scalar) -> "TruncatedSeries":
        """Substitute x -> factor*x."""
        f = as_rational(factor)
        coeffs = [c * f**i for i, c in enumerate(self._coeffs)]
        return TruncatedSeries(coeffs, self._order)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above `order`."""
        if order > self._order:
            raise ValueError(f"cannot extend order {self._order} to {order}")
        return TruncatedSeries(self._coeffs, order)

    # -- inverse operations -------------------------------------------------

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse: self * result = 1 exactly up to the window."""
        u = self._coeffs
        lead = u[0]
        if lead == 0:
            raise ZeroLeadingCoefficient("constant term is zero")
        inv = [Fraction(1) / lead]
        for n in range(1, len(u)):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += u[i] * inv[n - i]
            inv.append(-acc / lead)
        return TruncatedSeries(inv, self._order)

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series starting 1 + O(x); result squares back exactly."""
        if self._coeffs[0] != 1:
            raise BadConstantTerm(f"square root needs constant term 1, got {self._coeffs[0]}")
        s = self._coeffs
        root = [Fraction(1)]
        for n in range(1, len(s)):
            acc = s[n]
            for i in range(1, n):
                acc -= root[i] * root[n - i]
            root.append(acc / 2)
        return TruncatedSeries(root, self._order)


def geometric(ratio: Scalar, order: int) -> TruncatedSeries:
    """The series 1 + r*x + r^2*x^2 + ... through the given order."""
    r = as_rational(ratio)
    coeffs, c = [], Fraction(1)
    for _ in range(order + 1):
        coeffs.append(c)
        c *= r
    return TruncatedSeries(coeffs, order)
