"""Hankel determinants and the closed-form transform of the target sequence.

Determinants by elimination come from one fraction-free (Bareiss)
elimination of any square integer matrix, here the Hankel matrix of a
window written as the integers s t^l a_l of sequences.integer_window
(s = t = q for the sequence, L = p/q). hankel_minors reads its pivots as
every leading minor h_1 .. h_N and raises on a zero pivot (it is the
elimination oracle of the `det` route); hankel_det swaps rows past a zero
pivot and reads one determinant. The `det` route itself is the Chebyshev
pass in opoly. The closed form h_n = L^{n(n-1)/2} * sigma_n / 2^{n+1} runs
entirely on rational carriers of the surd expressions, so sqrt(L^2+4) never
appears: phi_n, psihat_n and sigma_n all satisfy
x_{n+1} = 2(L+2) x_n - 4L x_{n-1}. For L = p/q the carriers scaled by powers
of q are integers with an integer recurrence (_carriers). Each route's row
is its norms nu_{n-1} = h_n/h_{n-1}, here L^{n-1} sigma_n / (2 sigma_{n-1}),
and h is their running product (_minors).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .sequences import RationalLike, Window, as_rational, integer_window, window_terms


class InsufficientTerms(ValueError):
    """The supplied sequence window is too short for the requested determinant."""


class ZeroLeadingMinor(ZeroDivisionError):
    """A leading minor vanished: the matrix is not positive definite, and
    neither elimination without row swaps nor the Chebyshev algorithm in
    opoly, whose norm U[Q_k^2] = h_{k+1}/h_k then vanishes, can go on."""


class NonIntegerResult(RuntimeWarning):
    """Integer L produced a non-integer transform value; falsifies the closed form."""


def _bareiss(rows: list[list[int]], pivoting: bool) -> list[int]:
    """Fraction-free elimination of any square integer matrix; consumes `rows`.

    Returns the pivots. Without a row swap the k-th pivot is the k x k
    leading minor. A zero pivot raises ZeroLeadingMinor; with `pivoting` it
    instead swaps in a later row, and the last pivot (signed by the swaps)
    is still the determinant, 0 where no later row has a nonzero entry.
    """
    n = len(rows)
    pivots = []
    prev, sign = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            if not pivoting:
                raise ZeroLeadingMinor(f"leading minor h_{k + 1} vanishes")
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                return pivots + [0]
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        pivots.append(sign * pivot)
        for row in rows[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
        prev = pivot
    return pivots


def _window_pivots(seq: Window, n: int, pivoting: bool) -> list[Fraction]:
    """The Bareiss pivots of the window's n x n Hankel matrix.

    The elimination runs on the integers s t^l a_l of
    sequences.integer_window, whose k x k leading minor is s^k t^{k(k-1)}
    times the window's; each pivot is divided back by that factor. After a
    row swap only the last pivot, the determinant, keeps that meaning.
    """
    terms = window_terms(seq)
    if len(terms) < 2 * n - 1:
        raise InsufficientTerms(f"need a_0..a_{2 * n - 2}, window has {len(terms)} terms")
    ints, s, t = integer_window(terms[: max(2 * n - 1, 0)])
    pivots = _bareiss([ints[i : i + n] for i in range(n)], pivoting)
    return [Fraction(pivot, s**k * t ** (k * (k - 1))) for k, pivot in enumerate(pivots, 1)]


def hankel_det(seq: Window, n: int) -> Fraction:
    """Exact n x n Hankel determinant of any window; h_0 = 1 by convention.

    The elimination swaps rows only where a leading minor vanishes.
    """
    if n < 0:
        raise ValueError("matrix dimension must be nonnegative")
    if n == 0:
        return Fraction(1)
    return _window_pivots(seq, n, pivoting=True)[-1]


def hankel_minors(seq: Window, n_max: int) -> list[Fraction]:
    """Leading minors h_1 .. h_n_max of any window's Hankel matrix in one pass.

    Bareiss elimination without row swaps has the scaled leading minors as
    its pivots: h_k q^{k^2} for the sequence's window (s = t = q, L = p/q).
    The moment matrix of a positive measure has no zero pivot; a hand-made
    window may, and raises ZeroLeadingMinor. This elimination is the oracle
    of the Chebyshev route (opoly.window_minors).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return _window_pivots(seq, n_max, pivoting=False)


# -- integer carriers of the surd closed form --------------------------------


class SurdState(NamedTuple):
    """Power sums of the characteristic roots t_{1,2} = L+2 +- sqrt(L^2+4).

    phi = t1^n + t2^n, psihat = (t1^n - t2^n)/sqrt(L^2+4), and
    sigma = L*psihat + phi. All three are rational (integers for integer L)
    and satisfy x_{n+1} = 2(L+2) x_n - 4L x_{n-1}.
    """

    phi: Fraction
    psihat: Fraction
    sigma: Fraction


def _carriers(L: Fraction, n_max: int) -> tuple[list[int], list[int]]:
    """Integer carriers P_n = q^n phi_n and Y_n = q^{n-1} psihat_n for n = 0..n_max.

    For L = p/q both obey X_{n+1} = 2(p+2q) X_n - 4pq X_{n-1}, from
    P_0 = 2, P_1 = 2(p+2q) and Y_0 = 0, Y_1 = 2; then q^n sigma_n = p Y_n + P_n.
    """
    if L <= 0:
        raise ValueError("parameter L must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p, q = L.numerator, L.denominator
    s, t = 2 * (p + 2 * q), 4 * p * q
    P, Y = [2, s], [0, 2]
    for n in range(1, n_max):
        P.append(s * P[n] - t * P[n - 1])
        Y.append(s * Y[n] - t * Y[n - 1])
    return P[: n_max + 1], Y[: n_max + 1]


def surd_states(L: RationalLike, n_max: int) -> list[SurdState]:
    """States 0..n_max of (phi, psihat, sigma), one Fraction per field from
    the integer carriers."""
    Lf = as_rational(L)
    P, Y = _carriers(Lf, n_max)
    p, q = Lf.numerator, Lf.denominator
    states = []
    low, high = 1, 1  # q^{n-1} (any value at n = 0, where Y_0 = 0) and q^n
    for phi, psi in zip(P, Y):
        states.append(SurdState(Fraction(phi, high), Fraction(psi, low), Fraction(p * psi + phi, high)))
        low, high = high, high * q
    return states


def _minors(norms: Iterable[Fraction]) -> list[Fraction]:
    """h_1, h_2, ... as the running product of the norms nu_k = h_{k+1}/h_k:
    the one read-out of every h row. Each norm has O(k) bits against h's
    O(k^2), so Fraction's crosswise gcds never pair two integers of h's size."""
    return list(accumulate(norms, mul))


def _ratio_norms(L: Fraction, sums: Sequence[int]) -> list[Fraction]:
    """The norms nu_{n-1} = p^{n-1} X_n / (2 q^n X_{n-1}), n = 1 .. len(sums) - 1,
    of h_n = L^{n(n-1)/2} X_n / (X_0 (2q)^n) for L = p/q, from X_0 .. X_N."""
    p, q = L.numerator, L.denominator
    nums = accumulate([1] + [p] * len(sums), mul)  # p^{n-1}
    dens = accumulate([2 * q] + [q] * len(sums), mul)  # 2 q^n
    return [Fraction(a * cur, b * prev) for a, b, prev, cur in zip(nums, dens, sums, sums[1:])]


def closed_norms(L: RationalLike, n_max: int) -> list[Fraction]:
    """The closed form's norms nu_0 .. nu_{n_max-1}, nu_{n-1} = h_n/h_{n-1} =
    L^{n-1} sigma_n / (2 sigma_{n-1}), from one run of the integer carriers:
    S_n = p Y_n + P_n = q^n sigma_n, with S_0 = 2."""
    Lf = as_rational(L)
    P, Y = _carriers(Lf, n_max)
    return _ratio_norms(Lf, [Lf.numerator * y + x for x, y in zip(P, Y)])


def h_closed_form(L: RationalLike, n: int) -> Fraction:
    """The paper's transform value L^{n(n-1)/2} * sigma_n / 2^{n+1}; h_0 = 1."""
    return as_rational(L) ** (n * (n - 1) // 2) * surd_states(L, n)[n].sigma / 2 ** (n + 1)


def poly_norms(L: RationalLike, n_max: int) -> list[Fraction]:
    """The norms nu_0 .. nu_{n_max-1} of the transform as explicit polynomials in L.

    Expands the surd closed form by the binomial theorem, leaving
    h_n = 2^{-n} L^{n(n-1)/2} * [ sum_i C(n,2i+1) L (L+2)^{n-2i-1} (L^2+4)^i
                                + sum_i C(n,2i)   (L+2)^{n-2i}     (L^2+4)^i ].
    For L = p/q every term of the bracket has denominator q^n, so q^n times
    the bracket is one integer sum B_n over k = 0..n of
    C(n,k) (p+2q)^{n-k} t_k, where t_{2i} = (p^2+4q^2)^i and
    t_{2i+1} = p (p^2+4q^2)^i are tabulated once for the row. With B_0 = 1,
    nu_{n-1} = p^{n-1} B_n / (2 q^n B_{n-1}).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    Lf = as_rational(L)
    if Lf <= 0:
        raise ValueError("parameter L must be positive")
    p, q = Lf.numerator, Lf.denominator
    shifted = list(accumulate([1] + [p + 2 * q] * n_max, mul))  # (p + 2q)^k = q^k (L+2)^k
    # t_k, the (L^2+4)^i and L (L^2+4)^i parts scaled by q^k
    surd = [t for r in accumulate([1] + [p * p + 4 * q * q] * (n_max // 2), mul) for t in (r, p * r)]
    brackets = [1]
    row = [1]  # C(n, 0..n)
    for n in range(1, n_max + 1):
        row = [1, *map(add, row, row[1:]), 1]
        brackets.append(sum(map(mul, map(mul, row, shifted[n::-1]), surd)))
    return _ratio_norms(Lf, brackets)


def h_polynomial_form(L: RationalLike, n: int) -> Fraction:
    """Transform value h_n as an explicit polynomial in L; h_0 = 1."""
    return _minors([Fraction(1), *poly_norms(L, n)])[-1]


def odd_fibonacci(n_max: int) -> list[int]:
    """F_3, F_5, ..., F_{2*n_max+1} by the standard integer recurrence."""
    out = []
    prev, cur = 0, 1  # F_0, F_1
    for _ in range(n_max):
        prev, cur = cur, cur + prev
        prev, cur = cur, cur + prev
        out.append(cur)
    return out


def lemma_identities(L: RationalLike, j: int, k: int) -> bool:
    """Check the four product identities linking phi and psihat exactly.

    With xi^2 = L^2 + 4 and 0 <= j <= k:
        phi_j*phi_k          = phi_{j+k} + (4L)^j phi_{k-j}
        xi^2*psihat_j*psihat_k = phi_{j+k} - (4L)^j phi_{k-j}
        phi_j*psihat_k       = psihat_{j+k} + (4L)^j psihat_{k-j}
        psihat_j*phi_k       = psihat_{j+k} - (4L)^j psihat_{k-j}
    """
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    Lf = as_rational(L)
    states = surd_states(Lf, j + k)
    xi_sq = Lf * Lf + 4
    scale = (4 * Lf) ** j
    sj, sk = states[j], states[k]
    s_sum, s_diff = states[j + k], states[k - j]
    return (
        sj.phi * sk.phi == s_sum.phi + scale * s_diff.phi
        and xi_sq * sj.psihat * sk.psihat == s_sum.phi - scale * s_diff.phi
        and sj.phi * sk.psihat == s_sum.psihat + scale * s_diff.psihat
        and sj.psihat * sk.phi == s_sum.psihat - scale * s_diff.psihat
    )
