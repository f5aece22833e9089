import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankel_catalan import opoly
from hankel_catalan.hankel import (
    InsufficientTerms,
    ZeroLeadingMinor,
    _minors,
    closed_norms,
    h_closed_form,
    h_polynomial_form,
    hankel_det,
    hankel_minors,
    poly_norms,
    surd_states,
)
from hankel_catalan.opoly import (
    DivisionByZeroR,
    RecurrenceCoeffs,
    chain_coeffs,
    chain_norms,
    h_from_products,
    hat_stage,
    jfraction_series,
    lambda_closed,
    r_closed_form,
    stieltjes_from_moments,
    tilde_coeffs,
    window_norms,
)
from hankel_catalan.sequences import a_sequence, gen_catalan, integer_window, scaled_terms
from hankel_catalan.weight import exact_moments, moment_quadrature


def test_lambda_initial_values():
    assert lambda_closed(4.0, -1) == 0.0
    assert lambda_closed(4.0, 0) == 1.0
    assert lambda_closed(2.0, 0) == 1.0


def test_lambda_recurrence_residual():
    L = 4.0
    c = -(L + 2) / (2 * math.sqrt(L))
    lam = [lambda_closed(L, n) for n in range(-1, 17)]
    for n in range(16):
        residual = abs(4 * lam[n + 2] - 4 * c * lam[n + 1] + lam[n])
        assert residual < 1e-10 * abs(lam[n + 1])


@pytest.mark.parametrize("L", [2.0, 4.0])
def test_lambda_matches_chebyshev_recurrence(L):
    # independent evaluation: monic second-kind recurrence at the shift point
    c = -(L + 2) / (2 * math.sqrt(L))
    prev, cur = 1.0, c  # degree 0, degree 1
    assert lambda_closed(L, 1) == pytest.approx(c, rel=1e-12)
    for n in range(2, 11):
        prev, cur = cur, c * cur - 0.25 * prev
        assert lambda_closed(L, n) == pytest.approx(cur, rel=1e-12)


def test_tilde_golden_l4():
    stage = tilde_coeffs(4, 3)
    assert stage.alpha == (Fraction(17, 3), Fraction(61, 12), Fraction(421, 84))
    assert stage.beta[0] == Fraction(3)  # i.e. 3*pi
    assert stage.beta[1] == Fraction(32, 9)
    assert stage.beta[2] == Fraction(63, 16)


@pytest.mark.parametrize("L", [2, 4])
def test_tilde_consistent_with_float_hat_stage(L):
    n_max = 10
    exact = tilde_coeffs(L, n_max)
    hat = hat_stage(float(L), n_max)
    a = 1.0 / (2.0 * math.sqrt(L))
    b = -(L + 1) / (2.0 * math.sqrt(L))
    for n in range(n_max):
        assert float(exact.alpha[n]) == pytest.approx((hat.alpha[n] - b) / a, rel=1e-10)
    for n in range(1, n_max):
        assert float(exact.beta[n]) == pytest.approx(hat.beta[n] / a**2, rel=1e-10)
    # masses scale by 1/a; the exact beta[0] is the rational factor of a multiple of pi
    assert float(exact.beta[0]) * math.pi == pytest.approx(hat.beta[0] / a, rel=1e-12)


def test_breve_rescaling():
    # The chain divides the breve weight by x. Undoing the division from its
    # output (r[i] = r_{i-1}) gives back the weight it divided: tilde's with
    # only the mass rescaled by 2L/pi, to L(L+2) = 24.
    stage = tilde_coeffs(4, 4)
    coeffs, r = chain_coeffs(4, 4)
    alpha = [a - r[k + 1] + (r[k] if k else 0) for k, a in enumerate(coeffs.alpha)]
    beta = [coeffs.beta[k] * r[k - 1] / r[k] for k in range(1, 4)]
    assert beta[0] == 24
    assert tuple(alpha) == stage.alpha
    assert beta[1:] == list(stage.beta[1:3])


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_breve_product_telescopes(L):
    tilde = tilde_coeffs(L, 12)
    breve_beta = (L * (L + 2), *tilde.beta[1:])
    psihat = [s.psihat for s in surd_states(L, 13)]
    product = Fraction(1)
    for n in range(1, 13):
        product *= breve_beta[n - 1]
        assert product == Fraction(L) ** n / 2 * psihat[n + 1] / psihat[n]


def test_gautschi_golden_l4():
    coeffs, r = chain_coeffs(4, 3)
    assert r == (
        Fraction(-5),
        Fraction(-13, 15),
        Fraction(-51, 52),
        Fraction(-356, 357),
    )
    assert coeffs.alpha == (Fraction(24, 5), Fraction(323, 65), Fraction(1104, 221))
    assert coeffs.beta == (Fraction(5), Fraction(104, 25), Fraction(680, 169))


@pytest.mark.parametrize("L", range(1, 9))
def test_first_ratio_closed_form(L):
    _, r = chain_coeffs(L, 2)
    assert r[1] == Fraction(-(L * L + 2 * L + 2), (L + 1) * (L + 2))


def test_r_closed_form_values():
    assert r_closed_form(4, 0) == Fraction(-13, 15)
    assert r_closed_form(4, 2) == Fraction(-356, 357)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_r_recursion_matches_closed_form(L):
    _, r = chain_coeffs(L, 16)
    for n in range(16):
        assert r[n + 1] == r_closed_form(L, n)
        assert r[n + 1] < 0


def monic_polynomials(coeffs, count):
    """Q_0 .. Q_count as ascending coefficient lists, from the recurrence."""
    prev, polys = [], [[Fraction(1)]]  # Q_{-1} = 0, Q_0 = 1
    for n in range(count):
        cur = polys[n]
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(cur):
            nxt[i] -= coeffs.alpha[n] * c
        for i, c in enumerate(prev):
            nxt[i] -= coeffs.beta[n] * c
        prev = cur
        polys.append(nxt)
    return polys


def test_stieltjes_golden_l4():
    coeffs = stieltjes_from_moments(a_sequence(4, 7), 4)
    assert coeffs.alpha[:3] == (Fraction(24, 5), Fraction(323, 65), Fraction(1104, 221))
    assert coeffs.beta[:3] == (Fraction(5), Fraction(104, 25), Fraction(680, 169))
    norms = []
    running = Fraction(1)
    for b in coeffs.beta:
        running *= b
        norms.append(running)
    assert norms == [5, Fraction(104, 5), Fraction(1088, 13), Fraction(5696, 17)]
    polys = monic_polynomials(coeffs, 3)
    assert polys[1] == [Fraction(-24, 5), 1]
    assert polys[2] == [Fraction(256, 13), Fraction(-127, 13), 1]
    # x^2 coefficient is -(alpha_0+alpha_1+alpha_2) = -251/17 by the trace identity
    assert polys[3] == [Fraction(-1344, 17), Fraction(1096, 17), Fraction(-251, 17), 1]


def test_stieltjes_needs_enough_moments():
    with pytest.raises(InsufficientTerms):
        stieltjes_from_moments(a_sequence(4, 4), 4)


@pytest.mark.parametrize("L", [1, 4, Fraction(5, 2)])
def test_chain_equals_moments(L):
    chain, _ = chain_coeffs(L, 8)
    moments = stieltjes_from_moments(a_sequence(L, 15), 8)
    assert chain.alpha == moments.alpha
    assert chain.beta == moments.beta


@pytest.mark.parametrize("L", [2, Fraction(5, 2), Fraction(1, 3)])
def test_chain_equals_moments_at_n_80(L):
    chain, _ = chain_coeffs(L, 80)
    moments = stieltjes_from_moments(a_sequence(L, 159), 80)
    assert chain.alpha == moments.alpha
    assert chain.beta == moments.beta


@pytest.mark.parametrize("L", [2, Fraction(5, 2), Fraction(1, 3)])
def test_moment_coefficients_make_the_polynomials_orthogonal(L):
    moments = a_sequence(L, 23).terms
    coeffs = stieltjes_from_moments(moments, 12)
    polys = monic_polynomials(coeffs, 11)

    def functional(p, q):
        return sum(c * d * moments[i + j] for i, c in enumerate(p) for j, d in enumerate(q))

    norm = Fraction(1)
    for k, q_k in enumerate(polys):
        norm *= coeffs.beta[k]
        assert functional(q_k, q_k) == norm
        assert all(functional(q_j, q_k) == 0 for q_j in polys[:k])


def test_stieltjes_zero_norm():
    with pytest.raises(ZeroLeadingMinor):
        stieltjes_from_moments([1, 0, 0, 0], 2)
    with pytest.raises(ZeroLeadingMinor):
        stieltjes_from_moments([0, 1], 1)


def test_jfraction_depth_one():
    coeffs, _ = chain_coeffs(4, 1)
    series = jfraction_series(coeffs, 1)
    window = a_sequence(4, 1)
    assert series.coefficient(0) == window.terms[0]
    assert series.coefficient(1) == window.terms[1]  # alpha_0 = a_1/a_0


def test_jfraction_reproduces_moments():
    coeffs, _ = chain_coeffs(4, 5)
    series = jfraction_series(coeffs, 8)
    assert series.coefficients(0, 8) == list(a_sequence(4, 8).terms)
    coeffs2 = stieltjes_from_moments(a_sequence(2, 11), 6)
    series2 = jfraction_series(coeffs2, 10)
    assert series2.coefficients(0, 10) == list(a_sequence(2, 10).terms)


def test_jfraction_depth_40_reproduces_the_moments():
    for L in (2, Fraction(5, 2), Fraction(37, 91)):
        coeffs, _ = chain_coeffs(L, 40)
        series = jfraction_series(coeffs, 79)
        assert series.coefficients(0, 79) == list(a_sequence(L, 79).terms), L


def test_jfraction_depth_guard():
    coeffs, _ = chain_coeffs(4, 3)
    with pytest.raises(InsufficientTerms):
        jfraction_series(coeffs, 6)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-5, max_value=5, max_denominator=9),
            st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_chebyshev_inverts_the_jfraction(pairs):
    # alpha of either sign and beta > 0 that no sequence of this package produces
    coeffs = RecurrenceCoeffs(alpha=tuple(a for a, _ in pairs), beta=tuple(b for _, b in pairs))
    m = len(pairs)
    moments = jfraction_series(coeffs, 2 * m - 1).coefficients(0, 2 * m - 1)
    assert stieltjes_from_moments(moments, m) == coeffs


_COEFFS = chain_coeffs(2, 3)[0]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: h_from_products(_COEFFS, -1), id="h_from_products"),
        pytest.param(lambda: h_closed_form(2, -1), id="h_closed_form"),
        pytest.param(lambda: h_polynomial_form(2, -1), id="h_polynomial_form"),
        pytest.param(lambda: moment_quadrature(2.0, -1), id="moment_quadrature"),
        pytest.param(lambda: exact_moments(2, -1), id="exact_moments"),
        pytest.param(lambda: stieltjes_from_moments(a_sequence(2, 5), -1), id="stieltjes_from_moments"),
        pytest.param(lambda: surd_states(2, -1), id="surd_states"),
        pytest.param(lambda: chain_norms(2, -1), id="chain_norms"),
        pytest.param(lambda: chain_coeffs(2, -1), id="chain_coeffs"),
        pytest.param(lambda: window_norms(2, -1), id="window_norms"),
        pytest.param(lambda: opoly.chain_pairs(2, -1), id="chain_pairs"),
        pytest.param(lambda: opoly.window_pairs(2, -1), id="window_pairs"),
    ],
)
def test_a_negative_size_is_rejected(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call()


@pytest.mark.parametrize("L", [1, Fraction(37, 91)])
def test_every_row_is_empty_at_size_zero(L):
    assert window_norms(L, 0) == closed_norms(L, 0) == chain_norms(L, 0) == poly_norms(L, 0) == []
    coeffs, r = chain_coeffs(L, 0)
    assert coeffs == RecurrenceCoeffs(alpha=(), beta=())
    assert r == (-(L + 1),)
    assert tilde_coeffs(L, 0).alpha == ()
    assert tilde_coeffs(L, 0) == hat_stage(float(L), 0) == RecurrenceCoeffs(alpha=(), beta=())


def test_h_from_products_values():
    coeffs, _ = chain_coeffs(4, 3)
    assert h_from_products(coeffs, 3) == 8704
    assert h_from_products(coeffs, 1) == 5
    assert h_from_products(coeffs, 0) == 1
    coeffs2, _ = chain_coeffs(2, 5)
    assert h_from_products(coeffs2, 5) == 405504


def test_closed_norms_values():
    assert closed_norms(4, 3) == [5, Fraction(104, 5), Fraction(1088, 13)]


@pytest.mark.parametrize("L", [2, 3, Fraction(5, 2)])
def test_norm_is_transform_ratio(L):
    norms = closed_norms(L, 12)
    for n in range(1, 13):
        assert norms[n - 1] == h_closed_form(L, n) / h_closed_form(L, n - 1)


def test_norms_positive():
    coeffs, _ = chain_coeffs(3, 12)
    assert all(b > 0 for b in coeffs.beta)


def fraction_chebyshev(seq, n_max):
    """The Chebyshev algorithm on Fraction rows, one Fraction per mixed moment:
    the reference for the integer-row pass in stieltjes_from_moments."""
    moments = [Fraction(a) for a in (seq.terms if hasattr(seq, "terms") else seq)]
    if len(moments) < 2 * n_max:
        raise InsufficientTerms(f"need a_0..a_{2 * n_max - 1}, window has {len(moments)} terms")
    prev, cur = [Fraction(0)] * (2 * n_max), list(moments[: 2 * n_max])
    alpha, beta, prev_ratio = [], [], Fraction(0)
    for k in range(n_max):
        norm = cur[k]
        if norm == 0:
            raise ZeroLeadingMinor(f"U[Q_{k}^2] = 0")
        ratio = cur[k + 1] / norm
        a_k, b_k = ratio - prev_ratio, moments[0] if k == 0 else norm / prev[k - 1]
        alpha.append(a_k)
        beta.append(b_k)
        for l in range(k + 1, 2 * n_max - k - 1):
            prev[l] = cur[l + 1] - a_k * cur[l] - b_k * prev[l]
        prev, cur, prev_ratio = cur, prev, ratio
    return RecurrenceCoeffs(alpha=tuple(alpha), beta=tuple(beta))


def outcome(function, *args):
    try:
        return function(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("L", [1, 2, Fraction(5, 2), Fraction(1, 3), 8, Fraction(37, 91)])
def test_integer_rows_match_the_fraction_pass(L):
    window = a_sequence(L, 79)
    for n in range(1, 41):
        assert stieltjes_from_moments(window, n) == fraction_chebyshev(window, n)
    assert stieltjes_from_moments(window, 0) == fraction_chebyshev(window, 0)


def spy_on_window(monkeypatch):
    """The (s, t) of every integer_window the moments route takes."""
    scales = []
    real = opoly.integer_window

    def spy(terms):
        ints, s, t = real(terms)
        scales.append((s, t))
        return ints, s, t

    monkeypatch.setattr(opoly, "integer_window", spy)
    return scales


@pytest.mark.parametrize("L", [Fraction(37, 91), Fraction(1, 10), Fraction(5, 2)])
def test_a_plain_list_of_sequence_terms_takes_the_dilated_window(monkeypatch, L):
    scales = spy_on_window(monkeypatch)
    q = L.denominator
    terms = list(a_sequence(L, 39).terms)
    for n in range(1, 21):
        assert stieltjes_from_moments(terms[: 2 * n], n) == fraction_chebyshev(terms, n)
    assert scales == [(q, q)] * 20


@pytest.mark.parametrize("L", [Fraction(37, 91), Fraction(5, 2)])
def test_q_times_the_terms_dilate_by_t_alone(monkeypatch, L):
    # q a_l: a_0 = p + q is an integer, q a_1 = (p + q)(p + 2q)/q is not
    scales = spy_on_window(monkeypatch)
    q = L.denominator
    terms = [q * a for a in a_sequence(L, 39).terms]
    for n in range(1, 21):
        assert stieltjes_from_moments(terms, n) == fraction_chebyshev(terms, n)
    assert terms[0].denominator == 1 and scales == [(1, q)] * 20


def test_integer_rows_match_the_fraction_pass_on_random_moments():
    # small rational moments, mostly not positive definite: zero norms,
    # negative betas and zero numerators all occur
    rng = random.Random(20061)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 5)
        moments = [
            Fraction(rng.randint(-4, 9), rng.choice((1, 1, 2, 3, 7)))
            for _ in range(2 * n + rng.randint(0, 2))
        ]
        expected = outcome(fraction_chebyshev, moments, n)
        assert outcome(stieltjes_from_moments, moments, n) == expected
        assert outcome(stieltjes_from_moments, [str(a) for a in moments], n) == expected
        # a RecurrenceCoeffs is a named tuple too, so test for it and not for tuple
        outcomes.add(RecurrenceCoeffs if isinstance(expected, RecurrenceCoeffs) else expected[0])
        # the norms' running products are the leading minors, indefinite or
        # not; the k-th norm of the integer window is s t^{2k} U[Q_k^2]
        minors = [hankel_det(moments, j) for j in range(1, n + 1)]
        scaled, s, t = integer_window(moments[: 2 * n - 1])
        if 0 in minors:
            with pytest.raises(ZeroLeadingMinor, match=rf"U\[Q_{minors.index(0)}\^2\] = 0"):
                opoly._chebyshev(scaled, n)
        else:
            norms = [
                Fraction(num, den * s * t ** (2 * k))
                for k, (num, den) in enumerate(opoly._chebyshev(scaled, n)[2])
            ]
            assert [math.prod(norms[:j]) for j in range(1, n + 1)] == minors
    assert outcomes == {RecurrenceCoeffs, ZeroLeadingMinor, ValueError}


def fraction_divide(L, alpha_in, beta_in):
    """Gautschi's division by x of the breve weight with coefficients
    alpha_in, beta_in, as a plain Fraction loop from r_{-1} = -(L+1): the
    reference for the int-pair kernel behind chain_coeffs and the product
    route."""
    n_max = len(alpha_in)
    r = [-(L + 1)]
    for n in range(n_max):
        r.append(-(alpha_in[n] + beta_in[n] / r[-1]))
    alpha = [alpha_in[0] + r[1]]
    beta = [-r[0]]
    for k in range(1, n_max):
        alpha.append(alpha_in[k] + r[k + 1] - r[k])
        beta.append(beta_in[k - 1] * r[k] / r[k - 1])
    return alpha, beta, r


def reduced(pairs):
    return all(den > 0 and math.gcd(num, den) == 1 for num, den in pairs)


RATIONAL_L = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))


@settings(max_examples=60, deadline=None)
@given(L=RATIONAL_L, n_max=st.integers(1, 40))
@example(L=Fraction(37, 91), n_max=40)
@example(L=Fraction(1), n_max=40)
def test_chain_kernel_matches_the_fraction_loop(L, n_max):
    tilde = tilde_coeffs(L, n_max)
    alpha, beta, r = fraction_divide(L, tilde.alpha, (L * (L + 2), *tilde.beta[1:]))
    coeffs, ratios = chain_coeffs(L, n_max)
    assert list(coeffs.alpha) == alpha
    assert list(coeffs.beta) == beta
    assert list(ratios) == r
    # the kernel's pairs are what it claims: lowest terms, positive denominators
    assert all(map(reduced, opoly.chain_pairs(L, n_max)))
    assert all(map(reduced, opoly._tilde_pairs(L, n_max)))


@settings(max_examples=30, deadline=None)
@given(L=RATIONAL_L, n_max=st.integers(1, 30))
@example(L=Fraction(37, 91), n_max=30)
def test_product_and_det_rows_match_the_bareiss_oracle(L, n_max):
    minors = hankel_minors(a_sequence(L, 2 * n_max - 2), n_max)
    assert _minors(chain_norms(L, n_max)) == minors
    assert _minors(window_norms(L, n_max)) == minors


@pytest.mark.parametrize("L", [1, Fraction(5, 2), Fraction(37, 91), Fraction(10**4, 9999)])
def test_scaled_terms_are_the_triangle_sums_times_powers_of_q(L):
    q = Fraction(L).denominator
    terms = scaled_terms(L, 12)
    assert all(type(term) is int for term in terms)
    assert terms == [(gen_catalan(k, L) + gen_catalan(k + 1, L)) * q ** (k + 1) for k in range(13)]


@pytest.mark.parametrize("L", [1, 2, Fraction(1, 3), Fraction(37, 91)])
def test_chebyshev_pass_pairs_are_reduced(L):
    alpha, beta, norms = opoly._chebyshev(scaled_terms(L, 39), 20)
    assert reduced(alpha) and reduced(beta)
    assert len(alpha) == len(beta) == len(norms) == 20


def test_division_by_a_zero_ratio_raises():
    # r_{-1} = -2 and r_0 = -(1 + 2 / r_{-1}) = 0
    with pytest.raises(DivisionByZeroR, match=r"r_0 = 0"):
        opoly._divide_by_x((-2, 1), [(1, 1), (1, 1)], [(2, 1), (1, 1)])
    # L = -1 gives r_{-1} = -(L+1) = 0
    with pytest.raises(DivisionByZeroR):
        opoly._divide_by_x((0, 1), [(1, 1)], [(2, 1)])


def test_a_nonpositive_beta_raises_on_every_chain_path(monkeypatch):
    # r_{-1} = -2, r_0 = -(0 + 2 / -2) = 1, so beta_1 = 2 * 1 / -2 = -1
    assert fraction_divide(Fraction(1), (0, 0), (2, 1))[1] == [2, -1]
    with pytest.raises(ValueError, match="all beta must be positive"):
        opoly._divide_by_x((-2, 1), [(0, 1), (0, 1)], [(2, 1), (1, 1)])
    # the product route reads the same kernel: L = 1 gives r_{-1} = -2 and
    # the breve mass L(L+2) = 3, so alpha~_0 = -3/2 makes beta_1 negative
    monkeypatch.setattr(opoly, "_tilde_pairs", lambda L, n_max: ([(-3, 2), (0, 1)], [(1, 1)]))
    with pytest.raises(ValueError, match="all beta must be positive"):
        chain_norms(1, 2)


def test_the_det_route_reports_a_vanishing_minor(monkeypatch):
    # h_1 = 1, h_2 = 1 * 1 - 1 * 1 = 0
    monkeypatch.setattr(opoly, "scaled_terms", lambda L, n_max: [1, 1, 1])
    with pytest.raises(ZeroLeadingMinor, match=r"U\[Q_1\^2\] = 0"):
        window_norms(1, 2)


def test_the_moments_side_rejects_a_nonpositive_beta(monkeypatch):
    # beta_1 = (a_0 a_2 - a_1^2) / a_0^2 = -1
    monkeypatch.setattr(opoly, "scaled_terms", lambda L, n_max: [1, 0, -1, 0])
    with pytest.raises(ValueError, match="all beta must be positive"):
        opoly.window_pairs(Fraction(1), 2)
