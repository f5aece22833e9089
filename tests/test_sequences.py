import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankel_catalan import sequences
from hankel_catalan.sequences import (
    InconsistentA0,
    SequenceParams,
    a_sequence,
    gen_catalan,
    integer_window,
    pascal_t,
    scaled_terms,
    window_terms,
)


def test_central_binomial_difference_is_catalan():
    # C(2n,n) - C(2n,n-1) = C(2n,n)/(n+1), the classical Catalan numbers
    for n in range(1, 21):
        diff = math.comb(2 * n, n) - math.comb(2 * n, n - 1)
        assert diff == Fraction(math.comb(2 * n, n), n + 1)


def test_pascal_t_collapses_to_binomial_at_one():
    for n in range(31):
        for k in range(n + 1):
            assert pascal_t(n, k, 1) == math.comb(n, k)


@pytest.mark.parametrize("L", [1, 2, Fraction(7, 3)])
def test_pascal_t_apex(L):
    assert pascal_t(0, 0, L) == 1


def test_pascal_t_values():
    assert pascal_t(2, 1, 2) == 3
    assert pascal_t(4, 2, 2) == 13
    assert pascal_t(4, 1, 2) == 7
    assert pascal_t(6, -1, 5) == 0


def test_gen_catalan_at_one_is_classical():
    assert [gen_catalan(n, 1) for n in range(5)] == [1, 1, 2, 5, 14]


def test_gen_catalan_base_and_value():
    assert gen_catalan(0, Fraction(7, 2)) == 1
    assert gen_catalan(2, 2) == 6  # 13 - 7


def test_a_sequence_golden_windows():
    assert list(a_sequence(2, 4).terms) == [3, 8, 28, 112, 484]
    assert list(a_sequence(1, 3).terms) == [2, 3, 7, 19]


def test_a_zero_is_l_plus_one():
    assert a_sequence(Fraction(5, 2), 0).terms[0] == Fraction(7, 2)
    assert a_sequence(9, 0).terms[0] == 10


def test_l_one_closed_form():
    # a_n(1) = (2n)!(5n+4)/(n!(n+2)!)
    window = a_sequence(1, 20)
    for n, term in enumerate(window.terms):
        expected = Fraction(
            math.factorial(2 * n) * (5 * n + 4), math.factorial(n) * math.factorial(n + 2)
        )
        assert term == expected


def test_positivity_and_integrality():
    for L in range(1, 9):
        window = a_sequence(L, 40)
        assert all(term > 0 for term in window.terms)
        assert all(term.denominator == 1 for term in window.terms)


@pytest.mark.parametrize("L", [1, 2, Fraction(5, 2), Fraction(1, 3), 8, Fraction(37, 91)])
def test_recurrence_window_matches_the_triangle(L):
    expected = [gen_catalan(n, L) + gen_catalan(n + 1, L) for n in range(61)]
    assert list(a_sequence(L, 60).terms) == expected


def test_a_triangle_that_breaks_a_0_is_caught(monkeypatch):
    # c(1) shifted by 1, so c(0) + c(1) is L + 2, not a_0 = L + 1
    catalan = sequences.gen_catalan
    monkeypatch.setattr(sequences, "gen_catalan", lambda n, L: catalan(n, L) + (n == 1))
    with pytest.raises(InconsistentA0):
        scaled_terms(2, 3)


def test_rational_parameter_window():
    window = a_sequence(Fraction(5, 2), 5)
    assert all(term > 0 for term in window.terms)
    assert any(term.denominator > 1 for term in window.terms)


def test_params_validation():
    with pytest.raises(ValueError):
        SequenceParams(Fraction(-1))
    with pytest.raises(ValueError):
        a_sequence(0, 3)


def test_window_terms_accepts_plain_lists():
    assert window_terms([1, 2, Fraction(1, 3)]) == (1, 2, Fraction(1, 3))
    assert window_terms(a_sequence(2, 2)) == (3, 8, 28)


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=400)


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.one_of(st.just(Fraction(0)), RATIONALS), max_size=12))
@example(terms=[])
@example(terms=[Fraction(0), Fraction(0)])
@example(terms=[Fraction(3, 2), Fraction(1, 9), Fraction(1)])  # t = 9, s = 2
@example(terms=[Fraction(-1, 4), Fraction(5, 6), Fraction(-7, 27), Fraction(1, 5)])
def test_integer_window_writes_any_list_as_integers(terms):
    ints, s, t = integer_window(terms)
    assert len(ints) == len(terms)
    assert all(type(value) is int for value in ints)
    assert type(s) is int and type(t) is int and s >= 1 and t >= 1
    assert ints == [s * t**l * a for l, a in enumerate(terms)]


@settings(max_examples=60, deadline=None)
@given(
    L=st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4)),
    n_max=st.integers(1, 30),
)
@example(L=Fraction(37, 91), n_max=30)
@example(L=Fraction(1, 2), n_max=1)
def test_integer_window_of_the_sequence_is_its_scaled_terms(L, n_max):
    q = L.denominator
    assert integer_window(a_sequence(L, n_max).terms) == (scaled_terms(L, n_max), q, q)
