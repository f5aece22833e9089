"""Three-term recurrence coefficients for the sequence's moment functional.

Two fully independent derivations of the monic-orthogonal-polynomial
coefficients (alpha_k, beta_k):

* the modification chain: monic Chebyshev second kind -> multiply the weight
  by a linear factor -> affine change of variable -> constant rescale ->
  divide by x (Gautschi's algorithm with an auxiliary ratio sequence r_n);
* the Chebyshev algorithm from the moments a_n, in O(n^2) integer
  operations on rows of mixed moments over one shared denominator, each new
  row cut by an exact divisor that Heine's determinant formula provides
  (the integer window's leading minor), not by a gcd over the row.

The chain enters exact rational arithmetic at the "tilde" stage, where every
coefficient is a ratio of the integer carriers psihat/sigma; the two earlier
stages involve pi and sqrt(L) and are kept in float64 purely as a
cross-check. RecurrenceCoeffs is the one coefficient record: the hat and
tilde stages, the chain's output and the moments' coefficients all come in
it. The running products of the chain's betas are the norms
h_{k+1}/h_k (chain_norms, the `product` route). The norms U[Q_k^2] of the
Chebyshev algorithm are the diagonal of the Hankel matrix's LDL^T
factorization (window_norms, the `det` route, on the integer window
q^{l+1} a_l for L = p/q); the `recurrence --method moments`
coefficients come from the same pass on the same dilated window, unscaled
afterwards (alpha_k and beta_0 by q, beta_k by q^2). stieltjes_from_moments
runs the pass on the integers s t^l a_l that sequences.integer_window makes
of any moment list, which is that window when s = t = q.

Both derivations do their per-index work on plain integers. The chain keeps
the tilde coefficients, the ratios r_n and the output coefficients as
reduced int pairs, cancelled as Fraction would cancel them (_divide_by_x);
the Chebyshev pass keeps alpha_k and beta_k as reduced int pairs. A Fraction
is built only for a coefficient returned to a library caller and for each
norm of a route's row, whose running product is h (hankel._minors), so no
gcd ever pairs two integers of h_n's O(n^2) bits. The `recurrence` command
compares and prints the pairs of chain_pairs and window_pairs directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import starmap
from typing import Iterable, Iterator, NamedTuple, Sequence

from .hankel import InsufficientTerms, ZeroLeadingMinor, _carriers, _minors, surd_states
from .sequences import RationalLike, Window, as_rational, integer_window, scaled_terms, window_terms
from .series import TruncatedSeries

#: A rational as (numerator, denominator): the kernels' currency in place of Fraction.
Pair = tuple[int, int]


class DivisionByZeroR(ZeroDivisionError):
    """An auxiliary ratio r_n hit zero; the functional lost positive-definiteness."""


def _positive(beta: Iterable) -> None:
    """Reject betas that are not all positive, given as values or as the
    numerators of pairs over positive denominators."""
    if any(b <= 0 for b in beta):
        raise ValueError("all beta must be positive for a positive-definite functional")


class _RecurrenceCoeffs(NamedTuple):
    alpha: tuple
    beta: tuple


class RecurrenceCoeffs(_RecurrenceCoeffs):
    """Monic three-term recurrence data: Q_{n+1} = (x - alpha_n) Q_n - beta_n Q_{n-1}.

    The one coefficient record, at every stage of the chain and from the
    moments: Fractions, except that hat_stage holds float64. A depth of
    n_max gives n_max of each. beta[0] is the total mass of the functional
    (= a_0 for the sequence's own; tilde_coeffs keeps it divided by pi).
    """

    __slots__ = ()

    def __new__(cls, alpha: tuple, beta: tuple):
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have equal length")
        _positive(beta)
        return super().__new__(cls, alpha, beta)


def _coeffs(alpha: Iterable[Pair], beta: Iterable[Pair]) -> RecurrenceCoeffs:
    """The RecurrenceCoeffs of alpha and beta given as int pairs."""
    return RecurrenceCoeffs(
        alpha=tuple(Fraction(*a) for a in alpha), beta=tuple(Fraction(*b) for b in beta)
    )


def lambda_closed(L: float, n: int) -> float:
    """Value of the monic Chebyshev polynomial at c = -(L+2)/(2 sqrt L).

    Closed form (-1)^n * psihat_{n+1} / (2 * 4^n * L^{n/2}); psihat is
    computed exactly and converted at the end. Defined for n >= -1.
    """
    if n < -1:
        raise ValueError("index must be at least -1")
    if n == -1:
        return 0.0
    psihat = surd_states(as_rational(L), n + 1)[n + 1].psihat
    sign = -1.0 if n % 2 else 1.0
    return sign * float(psihat) / (2.0 * 4.0**n * float(L) ** (n / 2))


def hat_stage(L: float, n_max: int) -> RecurrenceCoeffs:
    """Float64 coefficients after multiplying the Chebyshev weight by (x - c).

    beta[0] is the total mass of (x - c) sqrt(1 - x^2), namely -c*pi/2.
    Exists only as a consistency check; the exact pipeline starts at the
    tilde stage.
    """
    c = -(L + 2) / (2.0 * math.sqrt(L))
    lam = [lambda_closed(L, n) for n in range(-1, n_max + 2)]  # lam[i] = lambda_{i-1}
    alpha, beta = [], []
    for n in range(n_max):
        l_prev, l_n, l_next = lam[n], lam[n + 1], lam[n + 2]
        alpha.append(c - l_next / l_n - 0.25 * l_n / l_next)
        beta.append(0.25 * l_prev * l_next / (l_n * l_n) if n else -c * math.pi / 2.0)
    return RecurrenceCoeffs(alpha=tuple(alpha), beta=tuple(beta))


def _reduced(num: int, den: int) -> Pair:
    """num/den in lowest terms, denominator positive."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _mul(a: int, b: int, c: int, d: int) -> Pair:
    """(a/b)(c/d) of reduced pairs with b, d > 0, cancelled crosswise as
    Fraction multiplies: the product is reduced, with denominator > 0."""
    g, h = math.gcd(a, d), math.gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _add(a: int, b: int, c: int, d: int) -> Pair:
    """a/b + c/d of reduced pairs with b, d > 0, reduced as Fraction adds
    (Knuth, TAOCP vol. 2, 4.5.1): only gcd(b, d) can cancel."""
    g = math.gcd(b, d)
    s = b // g
    t = a * (d // g) + c * s
    g = math.gcd(t, g)
    return t // g, s * (d // g)


def _tilde_pairs(L: Fraction, n_max: int) -> tuple[list[Pair], list[Pair]]:
    """alpha~_0 .. alpha~_{n_max-1} and beta~_1 .. beta~_{n_max-1} as reduced
    int pairs, read off the integer carriers Y_n (see tilde_coeffs)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _, Y = _carriers(L, n_max + 1)
    p, q = L.numerator, L.denominator
    alpha, beta = [], []
    for n in range(n_max):
        y0, y1, y2 = Y[n], Y[n + 1], Y[n + 2]
        alpha.append(_reduced(y2 * y2 - 2 * q * y1 * y2 + 4 * p * q * y1 * y1, 2 * q * y1 * y2))
        if n >= 1:
            beta.append(_reduced(p * y0 * y2, q * y1 * y1))
    return alpha, beta


def tilde_coeffs(L: RationalLike, n_max: int) -> RecurrenceCoeffs:
    """Exact coefficients after mapping the support onto ((sqrt L - 1)^2, (sqrt L + 1)^2).

    alpha_n = -1 + psihat_{n+2}/(2 psihat_{n+1}) + 2L psihat_{n+1}/psihat_{n+2};
    beta_n = L psihat_n psihat_{n+2} / psihat_{n+1}^2 for n >= 1, while
    beta_0 is (L+2)/2 times pi (kept as the rational factor).
    The psihat ratios are where the sqrt(L) and sqrt(L^2+4) factors cancel,
    which is what makes this stage exactly rational. For L = p/q, with the
    integer carriers Y_n = q^{n-1} psihat_n, each coefficient is a ratio of
    integers:
    alpha_n = (Y_{n+2}^2 - 2q Y_{n+1} Y_{n+2} + 4pq Y_{n+1}^2) / (2q Y_{n+1} Y_{n+2}),
    beta_n = p Y_n Y_{n+2} / (q Y_{n+1}^2).
    """
    Lf = as_rational(L)
    alpha, beta = _tilde_pairs(Lf, n_max)
    p, q = Lf.numerator, Lf.denominator
    return _coeffs(alpha, [(p + 2 * q, 2 * q), *beta][:n_max])


def _divide_by_x(
    seed: Pair, alpha: Sequence[Pair], beta: Sequence[Pair]
) -> tuple[list[Pair], list[Pair], list[Pair]]:
    """Gautschi's division of the weight by x, on reduced int pairs
    (numerator, denominator > 0): the kernel of chain_pairs.

    seed is r_{-1}, and alpha, beta hold alpha'_n, beta'_n of the weight
    before the division. Each step forms x_n = beta'_n / r_{n-1}, then
    r_n = -(alpha'_n + x_n), beta_{n+1} = x_n r_n = beta'_n r_n / r_{n-1} and
    alpha_n = alpha'_n + r_n - r_{n-1} = -(x_n + r_{n-1}) (alpha_0 = -x_0).
    Every product and sum is cancelled as Fraction cancels it, so each pair
    stays reduced and no Fraction is built. Returns alpha_0 .. alpha_{m-1},
    beta_0 .. beta_{m-1} (beta_0 = -r_{-1}) and r_{-1} .. r_{m-1}.
    """
    u, v = seed
    if u == 0:
        raise DivisionByZeroR("r_-1 = 0")
    r, new_alpha, new_beta = [seed], [], [(-u, v)]
    for n, ((an, ad), (bn, bd)) in enumerate(zip(alpha, beta)):
        xn, xd = _mul(bn, bd, v, u) if u > 0 else _mul(bn, bd, -v, -u)
        un, vn = _add(an, ad, xn, xd)
        if un == 0:
            raise DivisionByZeroR(f"r_{n} = 0")
        un = -un
        new_alpha.append(_add(-xn, xd, -u, v) if n else (-xn, xd))
        new_beta.append(_mul(xn, xd, un, vn))
        u, v = un, vn
        r.append((u, v))
    new_beta.pop()  # beta_m is past the requested depth
    _positive(b for b, _ in new_beta)
    return new_alpha, new_beta, r


def chain_pairs(L: RationalLike, n_max: int) -> tuple[list[Pair], list[Pair], list[Pair]]:
    """The exact chain on int pairs (alpha, beta and r of _divide_by_x): tilde
    pairs from the carriers Y_n, the breve mass L(L+2) = p(p+2q)/q^2, and the
    division by x from r_{-1} = -(p+q)/q. The `recurrence` command's chain side."""
    Lf = as_rational(L)
    alpha, beta = _tilde_pairs(Lf, n_max)
    p, q = Lf.numerator, Lf.denominator
    return _divide_by_x((-(p + q), q), alpha, [(p * (p + 2 * q), q * q), *beta])


def chain_coeffs(L: RationalLike, n_max: int) -> tuple[RecurrenceCoeffs, tuple[Fraction, ...]]:
    """The exact chain end to end (tilde -> breve -> divide by x) as Fractions:
    the final coefficients and the ratios (r_{-1}, r_0, ...).

    r_{-1} = -(L+1) (minus the mass of the divided weight), then
    r_n = -(alpha'_n + beta'_n / r_{n-1}). The outputs are
    alpha_0 = alpha'_0 + r_0, alpha_k = alpha'_k + r_k - r_{k-1},
    beta_0 = -r_{-1}, beta_k = beta'_{k-1} r_{k-1} / r_{k-2}.
    """
    alpha, beta, r = chain_pairs(L, n_max)
    return _coeffs(alpha, beta), tuple(Fraction(*x) for x in r)


def chain_norms(L: RationalLike, n_max: int) -> list[Fraction]:
    """The product route: the norms beta_0 ... beta_k, k < n_max, of the
    chain's betas alone, run on int pairs from the carriers Y_n."""
    return list(starmap(Fraction, _beta_products(chain_pairs(L, n_max)[1])))


def r_closed_form(L: RationalLike, n: int) -> Fraction:
    """Explicit value of the auxiliary ratio:
    r_n = -(psihat_{n+1}/psihat_{n+2}) * (sigma_{n+2}/sigma_{n+1})."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    Lf = as_rational(L)
    states = surd_states(Lf, n + 2)
    return -(states[n + 1].psihat / states[n + 2].psihat) * (
        states[n + 2].sigma / states[n + 1].sigma
    )


def _chebyshev(moments: Sequence[int], n_max: int) -> tuple[list[Pair], list[Pair], list[Pair]]:
    """alpha_k, beta_k and the norms U[Q_k^2] for k < n_max of the functional
    U[x^l] = moments[l], l < m, on integer moments.

    The Chebyshev algorithm from the moments (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, section 2.1.7) carries
    the mixed moments sigma_{k,l} = U[Q_k x^l]:
    sigma_{-1,l} = 0, sigma_{0,l} = U[x^l] and
    sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l} - beta_k sigma_{k-1,l}
    for l = k+1 .. m-k-2. Then U[Q_k^2] = sigma_{k,k},
    alpha_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1} and
    beta_k = sigma_{k,k}/sigma_{k-1,k-1} (beta_0 = U[1]).

    Row k is kept as integers over one shared denominator:
    row[j] / den = sigma_{k,k+j}, with den = 1 for row 0. alpha_k and beta_k
    come out as reduced int pairs (numerator, denominator > 0) and the norm
    as the pair (row[0], den), not reduced; no Fraction is built. The caller
    checks m >= 2 n_max - 1; alpha_k needs U[x^{2k+1}] and is left out where
    that is missing.

    Each new row is cut by a divisor known in advance (Heine's determinant
    formula, in the spirit of Beckermann and Labahn's fraction-free
    algorithms), not by a gcd over the row. The leading minor h_{k+1} of the
    moments, the running product of their norms, makes h_{k+1} Q_{k+1} a
    polynomial with integer coefficients (Szego, Orthogonal Polynomials,
    1939, section 2.2), so h_{k+1} clears every sigma_{k+1,l}. With
    G = gcd(M, h_{k+1}), an entry x over M satisfies x (h_{k+1}/G) = (M/G) Z
    with Z an integer, and M/G is prime to h_{k+1}/G, so M/G divides x
    exactly.
    """
    m = min(len(moments), 2 * n_max)
    cur = list(moments[:m])
    # Row -1 is zero; only its entries from j = 2 on enter the recurrence, so
    # its first two carry sigma_{-1,-1} = 1 and sigma_{-1,0} = 0 for the
    # ratios, which gives beta_0 = U[1] and alpha_0 = U[x]/U[1].
    prev = [1, 0] + [0] * m
    den, prev_den, minor = 1, 1, 1
    alpha, beta, norms = [], [], []
    for k in range(n_max):
        c0, p0 = cur[0], prev[0]
        if c0 == 0:
            raise ZeroLeadingMinor(f"U[Q_{k}^2] = 0")
        norms.append((c0, den))
        c, d = _reduced(c0 * prev_den, den * p0)
        beta.append((c, d))
        if len(cur) < 2:
            break
        a, b = _reduced(cur[1] * p0 - prev[1] * c0, c0 * p0)
        alpha.append((a, b))
        if k == n_max - 1:
            break
        # h_{k+1} = h_k U[Q_k^2], an integer for integer moments
        minor, rest = divmod(minor * c0, den)
        if rest:
            raise ArithmeticError(f"leading minor {k + 1} of the integer moments is not an integer")
        # sigma_{k+1,.} over M = lcm(b den, d prev_den), for alpha_k = a/b and
        # beta_k = c/d: three integer products per entry. A factor the three
        # multipliers share leaves first, so the products run on smaller
        # integers.
        M = math.lcm(b * den, d * prev_den)
        u, v, w = M // den, a * (M // (b * den)), c * (M // (d * prev_den))
        g = math.gcd(u, v, w)
        if g != 1:
            u, v, w, M = u // g, v // g, w // g, M // g
        # the new row's denominator is G; the rest of M divides every entry
        G = math.gcd(M, minor)
        g = M // G
        row = [(u * x2 - v * x1 - w * y) // g for x1, x2, y in zip(cur[1:], cur[2:], prev[2:])]
        prev, cur, prev_den, den = cur, row, den, G
    return alpha, beta, norms


def _moment_pairs(ints: Sequence[int], s: int, t: int, n_max: int) -> tuple[list[Pair], list[Pair]]:
    """alpha_k and beta_k, k < n_max, of U as positive-checked reduced pairs,
    from the Chebyshev pass on the moments ints[l] = s t^l U[x^l] of the
    dilated functional U'[x^l] = s U[(t x)^l] (sequences.integer_window),
    unscaled: alpha_k = alpha'_k / t, beta_0 = beta'_0 / s, beta_k = beta'_k / t^2."""
    alpha, beta, _ = _chebyshev(ints, n_max)
    alpha = [_mul(a, b, 1, t) for a, b in alpha]
    beta = [_mul(c, d, 1, t * t if k else s) for k, (c, d) in enumerate(beta)]
    _positive(b for b, _ in beta)
    return alpha, beta


def window_pairs(L: RationalLike, n_max: int) -> tuple[list[Pair], list[Pair]]:
    """alpha_k and beta_k, k < n_max, of the sequence's functional as reduced
    pairs, from the Chebyshev pass on its dilated window q^{l+1} a_l,
    l < 2 n_max (see window_minors): the `recurrence` command's moments side."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    Lf = as_rational(L)
    q = Lf.denominator
    return _moment_pairs(scaled_terms(Lf, max(2 * n_max - 1, 0)), q, q, n_max)


def stieltjes_from_moments(seq: Window, n_max: int) -> RecurrenceCoeffs:
    """Recurrence coefficients straight from the moments a_0 .. a_{2 n_max - 1},
    exactly, in O(n^2) integer operations: the Chebyshev algorithm (see
    _chebyshev) on the integers s t^l a_l of sequences.integer_window, its
    coefficients unscaled afterwards (_moment_pairs).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    moments = window_terms(seq)
    if len(moments) < 2 * n_max:
        raise InsufficientTerms(f"need a_0..a_{2 * n_max - 1}, window has {len(moments)} terms")
    return _coeffs(*_moment_pairs(*integer_window(moments[: 2 * n_max]), n_max))


def window_norms(L: RationalLike, n_max: int) -> list[Fraction]:
    """The det route: the norms U[Q_k^2] = h_{k+1}/h_k, k < n_max, of the
    sequence's window, read as the integers q^{l+1} a_l (L = p/q) of
    sequences.scaled_terms: the moments of U'[x^l] = q U[(q x)^l], whose
    norm U'[Q_k^2] is q^{2k+1} U[Q_k^2]."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    Lf = as_rational(L)
    norms = _chebyshev(scaled_terms(Lf, max(2 * n_max - 2, 0)), n_max)[2]
    return [Fraction(num, den * Lf.denominator ** (2 * k + 1)) for k, (num, den) in enumerate(norms)]


def jfraction_series(coeffs: RecurrenceCoeffs, order: int) -> TruncatedSeries:
    """Expand the continued fraction a_0/(1 - alpha_0 x - beta_1 x^2/(1 - alpha_1 x - ...)).

    The coefficient of x^n is a_0 = beta_0 times the weight of the Motzkin
    paths of length n from height 0 back to 0 (Flajolet, Combinatorial
    aspects of continued fractions, 1980): an up step weighs 1, a level step
    at height k weighs alpha_k and a down step from height k weighs beta_k.
    The level weight is +alpha_k because the partial denominators are
    1 - alpha_k x; the opposite sign fails to reproduce the moments for any
    positive sequence. paths[k] is the weight of the paths of length n that
    end at height k; above min(n+1, order-n-1) a path cannot get back to 0
    in time. A depth of m coefficient pairs pins coefficients 0..2m-1, which
    must cover the requested order.
    """
    m = len(coeffs.alpha)
    if order > 2 * m - 1:
        raise InsufficientTerms(f"depth {m} pins {2 * m} coefficients, order {order} requested")
    alpha, down = coeffs.alpha, (*coeffs.beta[1:], 0)
    paths = [Fraction(1)]
    series = []
    for n in range(order + 1):
        series.append(coeffs.beta[0] * paths[0])
        ext = [0, *paths, 0, 0]  # ext[k + 1] = paths[k]
        paths = [
            ext[k] + alpha[k] * ext[k + 1] + down[k] * ext[k + 2]
            for k in range(min(n + 1, order - n - 1) + 1)
        ]
    return TruncatedSeries(series, order)


def _beta_products(beta: Iterable[Pair]) -> Iterator[Pair]:
    """The norms beta_0 ... beta_k, k = 0, 1, ..., as reduced pairs, from reduced beta pairs."""
    num, den = 1, 1
    for b, d in beta:
        num, den = _mul(num, den, b, d)
        yield num, den


def h_from_products(coeffs: RecurrenceCoeffs, n: int) -> Fraction:
    """Hankel determinant h_n = a_0^n beta_1^{n-1} ... beta_{n-1}; h_0 = 1."""
    if n < 0:
        raise ValueError("n_max must be nonnegative")
    if n > len(coeffs.beta):
        raise InsufficientTerms(f"need beta_0..beta_{n - 1}, have {len(coeffs.beta)}")
    norms = _beta_products((b.numerator, b.denominator) for b in coeffs.beta[:n])
    return _minors(starmap(Fraction, norms))[-1] if n else Fraction(1)

