"""Generalized Pascal triangle, generalized Catalan numbers, and the target sequence.

The triangle entry T(n, k; L) = sum_j C(k,j)*C(n-k,j)*L^j generalizes Pascal's
triangle (L=1 collapses to binomials by Vandermonde convolution). Differences
of central columns give generalized Catalan numbers c(n; L), and the sequence
under study is a_n = c(n; L) + c(n+1; L) with a_0 = L + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence, Union

RationalLike = Union[int, str, Fraction]


class InconsistentA0(ArithmeticError):
    """c(0;L) + c(1;L) failed to equal L + 1; signals an implementation bug."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce int / 'p/q' string / Fraction to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def pascal_t(n: int, k: int, L: RationalLike) -> Fraction:
    """Entry T(n, k; L) of the generalized Pascal triangle; zero for k < 0."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if k < 0 or k > n:
        return Fraction(0)
    Lf = as_rational(L)
    total = Fraction(0)
    power = Fraction(1)
    for j in range(n - k + 1):
        total += math.comb(k, j) * math.comb(n - k, j) * power
        power *= Lf
    return total


def gen_catalan(n: int, L: RationalLike) -> Fraction:
    """Generalized Catalan number c(n; L) = T(2n, n; L) - T(2n, n-1; L).

    c(0; L) = 1 since the k = -1 entry is an empty triangle edge.
    """
    return pascal_t(2 * n, n, L) - pascal_t(2 * n, n - 1, L)


@dataclass(frozen=True)
class SequenceParams:
    """The weight parameter L; any positive rational is accepted."""

    L: Fraction

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"parameter L must be positive, got {self.L}")


@dataclass(frozen=True)
class SequenceWindow:
    """Terms a_0 .. a_n_max of the sum-of-consecutive-Catalan sequence."""

    params: SequenceParams
    terms: tuple[Fraction, ...]


#: What the determinant and moments routes read: a window or a bare list of rationals.
Window = Union[SequenceWindow, Sequence[RationalLike]]


def scaled_terms(L: RationalLike, n_max: int) -> list[int]:
    """The window as integers: q^{n+1} a_n for n = 0..n_max, where L = p/q.

    c(0;L) and c(1;L) come from the triangle; the defining a_0 = L + 1 and
    their sum must agree, or the triangle conventions are broken. Later
    c(n;L) follow the Narayana-polynomial recurrence
        (n+1) c_n = (2n-1)(L+1) c_{n-1} - (n-2)(L-1)^2 c_{n-2},
    run on the integers C_n = c_n q^n (c_n has degree n in L), and
    q^{n+1} a_n = q C_n + C_{n+1}.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    params = SequenceParams(as_rational(L))
    c0, c1 = gen_catalan(0, params.L), gen_catalan(1, params.L)
    if c0 + c1 != params.L + 1:
        raise InconsistentA0(f"c(0)+c(1) = {c0 + c1} differs from L+1 = {params.L + 1}")
    p, q = params.L.numerator, params.L.denominator
    plus, minus_sq = p + q, (p - q) ** 2
    scaled = [int(c0), int(c1 * q)]
    for n in range(2, n_max + 2):
        # exact: C_n is an integer because c_n has integer coefficients in L
        step = (2 * n - 1) * plus * scaled[n - 1] - (n - 2) * minus_sq * scaled[n - 2]
        scaled.append(step // (n + 1))
    return [scaled[n] * q + scaled[n + 1] for n in range(n_max + 1)]


def a_sequence(L: RationalLike, n_max: int) -> SequenceWindow:
    """Window a_0 .. a_n_max, with a_n = c(n;L) + c(n+1;L) and a_0 = L + 1:
    the integers of scaled_terms over q^{n+1}."""
    scaled = scaled_terms(L, n_max)
    params = SequenceParams(as_rational(L))
    q = params.L.denominator
    terms, power = [], 1
    for term in scaled:
        power *= q
        terms.append(Fraction(term, power))
    return SequenceWindow(params=params, terms=tuple(terms))


def integer_window(terms: Sequence[Fraction]) -> tuple[list[int], int, int]:
    """Any list of rationals a_l as the integers s t^l a_l: returns (ints, s, t).

    t = den(a_1) / gcd(den(a_1), den(a_0)) (1 for fewer than two terms), and
    s = lcm_l den(a_l) / gcd(den(a_l), t^l) is the least s for that t. On the
    sequence's window (L = p/q) this is s = t = q and scaled_terms. It is
    not always the smallest dilation of the list.
    """
    dens = [a.denominator for a in terms]
    t = dens[1] // math.gcd(dens[1], dens[0]) if len(dens) > 1 else 1
    powers = list(accumulate(repeat(t, len(dens) - 1), mul, initial=1))
    s = math.lcm(*(den // math.gcd(den, power) for den, power in zip(dens, powers)))
    return [a.numerator * (power * s // den) for a, den, power in zip(terms, dens, powers)], s, t


def window_terms(seq: Window) -> tuple[Fraction, ...]:
    """Accept either a SequenceWindow or a bare list of rationals."""
    if isinstance(seq, SequenceWindow):
        return seq.terms
    return tuple(as_rational(t) for t in seq)
