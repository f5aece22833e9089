import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankel_catalan.hankel import (
    InsufficientTerms,
    SurdState,
    ZeroLeadingMinor,
    _bareiss,
    _minors,
    closed_norms,
    h_closed_form,
    h_polynomial_form,
    hankel_det,
    hankel_minors,
    lemma_identities,
    odd_fibonacci,
    poly_norms,
    surd_states,
)
from hankel_catalan.opoly import tilde_coeffs
from hankel_catalan.sequences import a_sequence, gen_catalan
from hankel_catalan.verify import verify_row


def naive_det(rows):
    """Cofactor expansion over Fractions; the independent determinant oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_window_and_list_give_the_same_determinant():
    window = a_sequence(3, 6)
    assert hankel_det(window, 4) == hankel_det(list(window.terms), 4)


def test_small_determinants():
    assert hankel_det(a_sequence(2, 0), 1) == 3
    assert hankel_det(a_sequence(1, 4), 3) == 13  # F_7
    window = a_sequence(Fraction(7, 2), 2)
    a0, a1, a2 = window.terms
    assert hankel_det(window, 2) == a0 * a2 - a1 * a1
    assert hankel_det(a_sequence(5, 0), 0) == 1


def test_determinant_golden_l2():
    values = [hankel_det(a_sequence(2, 2 * n - 2), n) for n in range(1, 6)]
    assert values == [3, 20, 272, 7424, 405504]


@pytest.mark.parametrize("L", [2, Fraction(5, 2), Fraction(7, 3)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_determinant_matches_cofactor_oracle(L, n):
    window = a_sequence(L, 2 * n - 2)
    rows = [[window.terms[i + j] for j in range(n)] for i in range(n)]
    assert hankel_det(window, n) == naive_det(rows)


def test_zero_leading_minors_are_pivoted_past():
    # one elimination serves hankel_det too: it swaps rows only on a zero pivot
    assert hankel_det([0, 1, 0], 2) == -1
    assert hankel_det([0, 0, 1, 0, 0], 3) == -1
    assert hankel_det([1, 1, 1, 1, 1], 3) == 0
    rng = random.Random(2006)
    for _ in range(400):
        n = rng.randint(1, 5)
        terms = [Fraction(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice((1, 2, 3))) for _ in range(2 * n - 1)]
        rows = [[terms[i + j] for j in range(n)] for i in range(n)]
        assert hankel_det(terms, n) == naive_det(rows)


def test_bareiss_takes_any_square_integer_matrix():
    # not Hankel, nor symmetric: the last pivot with row swaps is the determinant
    rng = random.Random(1968)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        assert _bareiss([row[:] for row in rows], pivoting=True)[-1] == naive_det(rows)


def hankel_rows(terms, n):
    return [[terms[i + j] for j in range(n)] for i in range(n)]


def test_rational_windows_match_the_cofactor_oracle():
    # the integer window s t^l a_l of lists that no power of one q makes integral
    rng = random.Random(91)
    lists = [[91 * a for a in a_sequence(Fraction(37, 91), 8).terms]]
    for _ in range(300):
        size = rng.randint(1, 5)
        lists.append([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(2 * size - 1)])
    for terms in lists:
        n_max = (len(terms) + 1) // 2
        minors = [naive_det(hankel_rows(terms, n)) for n in range(1, n_max + 1)]
        assert [hankel_det(terms, n) for n in range(1, n_max + 1)] == minors
        if 0 in minors:
            with pytest.raises(ZeroLeadingMinor):
                hankel_minors(terms, n_max)
        else:
            assert hankel_minors(terms, n_max) == minors


def test_minors_take_a_list_in_place_of_a_window():
    window = a_sequence(Fraction(37, 91), 10)
    minors = [naive_det(hankel_rows(window.terms, n)) for n in range(1, 7)]
    assert hankel_minors(window, 6) == hankel_minors(list(window.terms), 6) == minors
    assert hankel_minors([str(a) for a in window.terms], 6) == minors


def test_a_zero_leading_minor_is_pivoted_past_by_det_and_raised_by_minors():
    terms = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 9), Fraction(5, 7), Fraction(1, 11)]
    assert naive_det(hankel_rows(terms, 2)) == 0
    assert hankel_det(terms, 3) == naive_det(hankel_rows(terms, 3)) != 0
    assert hankel_minors(terms, 1) == [Fraction(1, 2)]
    with pytest.raises(ZeroLeadingMinor, match="h_2"):
        hankel_minors(terms, 3)


def test_insufficient_terms():
    with pytest.raises(InsufficientTerms):
        hankel_det(a_sequence(2, 3), 3)


def test_surd_state_initial_values():
    for L in (1, 4, Fraction(5, 2)):
        s0, s1 = surd_states(L, 1)
        assert (s0.phi, s0.psihat, s0.sigma) == (2, 0, 2)
        assert s1.phi == 2 * (Fraction(L) + 2)
        assert s1.psihat == 2
        assert s1.sigma == 4 * Fraction(L) + 4


def test_surd_state_l4_n3():
    state = surd_states(4, 3)[3]
    assert state == SurdState(Fraction(1152), Fraction(256), Fraction(2176))


@pytest.mark.parametrize("L", [1, 2, 3, 6, Fraction(5, 2)])
def test_surd_recurrence_holds(L):
    Lf = Fraction(L)
    states = surd_states(Lf, 20)
    for n in range(1, 20):
        for name in ("phi", "psihat", "sigma"):
            prev, cur, nxt = (
                getattr(states[n - 1], name),
                getattr(states[n], name),
                getattr(states[n + 1], name),
            )
            assert nxt == 2 * (Lf + 2) * cur - 4 * Lf * prev


def test_closed_form_values():
    assert h_closed_form(2, 5) == 405504
    assert h_closed_form(4, 3) == 8704
    assert h_closed_form(3, 1) == 4
    assert h_closed_form(Fraction(5, 2), 1) == Fraction(7, 2)
    assert h_closed_form(6, 0) == 1


def test_polynomial_form_values():
    assert h_polynomial_form(2, 1) == 3
    assert h_polynomial_form(9, 0) == 1
    assert h_polynomial_form(Fraction(5, 2), 0) == 1
    assert h_polynomial_form(1, 4) == 34  # F_9


@pytest.mark.parametrize("form", [h_closed_form, h_polynomial_form])
@pytest.mark.parametrize("L", [0, -2])
def test_h_0_still_rejects_a_nonpositive_parameter(form, L):
    with pytest.raises(ValueError, match="parameter L must be positive"):
        form(L, 0)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, Fraction(5, 2), Fraction(7, 3)])
def test_closed_equals_polynomial(L):
    for n in range(16):
        assert h_closed_form(L, n) == h_polynomial_form(L, n)


@pytest.mark.parametrize("L", [1, 2, Fraction(5, 2), Fraction(1, 3), 8, Fraction(37, 91)])
def test_polynomial_row_matches_single_values_and_closed_row(L):
    row = poly_norms(L, 30)
    assert row == closed_norms(L, 30)
    assert _minors(row)[:12] == [h_polynomial_form(L, n) for n in range(1, 13)]
    assert poly_norms(L, 0) == []


@pytest.mark.parametrize("L", [1, 2, Fraction(5, 2), Fraction(1, 3), 8, Fraction(37, 91)])
def test_the_paper_formula_is_the_running_product_of_the_closed_norms(L):
    assert _minors(closed_norms(L, 60)) == [h_closed_form(L, n) for n in range(1, 61)]


def test_fibonacci_transform():
    for n in (1, 5, 20):
        assert _minors(closed_norms(1, n)) == odd_fibonacci(n)
    assert [h_closed_form(1, n) for n in range(1, 6)] == [2, 5, 13, 34, 89]
    # independent recurrence oracle
    fib = [0, 1]
    while len(fib) < 45:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        assert h_closed_form(1, n) == fib[2 * n + 1]


def test_lemma_identity_boundaries():
    states = surd_states(7, 10)
    assert lemma_identities(7, 0, 5)
    assert states[0].phi * states[5].phi == 2 * states[5].phi
    # j = k collapses the difference index to phi_0 = 2
    assert lemma_identities(5, 4, 4)
    xi_sq = 5 * 5 + 4
    s = surd_states(5, 8)
    assert xi_sq * s[4].psihat**2 == s[8].phi - (4 * 5) ** 4 * 2
    assert lemma_identities(4, 1, 2)


def test_lemma_identities_rational_parameter():
    assert lemma_identities(Fraction(5, 2), 3, 7)


def test_catalan_hankel_transform_is_all_ones():
    catalan = [gen_catalan(n, 1) for n in range(25)]
    for n in range(1, 13):
        assert hankel_det(catalan, n) == 1


def test_no_integrality_warning_for_integer_parameters():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L in range(1, 5):
            for n in range(26):
                h_closed_form(L, n)
            verify_row(L, 25)  # the integrality check runs on every route's h row


# -- the integer carrier kernel against plain Fraction arithmetic ------------

#: L = p/q with p, q <= 10^4, below and above 1
RATIONAL_L = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))


def fraction_states(L, n_max):
    """The carrier recurrence run directly in Fractions: the kernel's oracle."""
    phi, psihat = [Fraction(2), 2 * (L + 2)], [Fraction(0), Fraction(2)]
    while len(phi) <= n_max:
        phi.append(2 * (L + 2) * phi[-1] - 4 * L * phi[-2])
        psihat.append(2 * (L + 2) * psihat[-1] - 4 * L * psihat[-2])
    return [SurdState(f, g, L * g + f) for f, g in zip(phi, psihat)][: n_max + 1]


@settings(max_examples=60, deadline=None)
@given(L=RATIONAL_L, n_max=st.integers(0, 30))
@example(L=Fraction(37, 91), n_max=30)
@example(L=Fraction(1, 10**4), n_max=2)
def test_surd_states_match_the_fraction_recurrence(L, n_max):
    assert surd_states(L, n_max) == fraction_states(L, n_max)


@settings(max_examples=60, deadline=None)
@given(L=RATIONAL_L, n_max=st.integers(1, 30))
@example(L=Fraction(37, 91), n_max=30)
def test_tilde_coeffs_match_the_psihat_ratios(L, n_max):
    psihat = [state.psihat for state in fraction_states(L, n_max + 1)]
    alpha = [
        -1 + psihat[n + 2] / (2 * psihat[n + 1]) + 2 * L * psihat[n + 1] / psihat[n + 2]
        for n in range(n_max)
    ]
    beta = [(L + 2) / 2] + [
        L * psihat[n] * psihat[n + 2] / psihat[n + 1] ** 2 for n in range(1, n_max)
    ]
    stage = tilde_coeffs(L, n_max)
    assert stage.alpha == tuple(alpha)
    assert stage.beta == tuple(beta)


@settings(max_examples=60, deadline=None)
@given(L=RATIONAL_L, n_max=st.integers(0, 30))
@example(L=Fraction(37, 91), n_max=30)
@example(L=Fraction(7), n_max=30)
def test_closed_forms_match_the_polynomial_forms(L, n_max):
    assert closed_norms(L, n_max) == poly_norms(L, n_max)
