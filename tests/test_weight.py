import math
import sys
from fractions import Fraction

import pytest

from hankel_catalan import weight
from hankel_catalan.opoly import chain_coeffs
from hankel_catalan.sequences import a_sequence
from hankel_catalan.weight import (
    DomainError,
    exact_moments,
    moment_quadrature,
    moment_quadratures,
    weight_eval,
)


def test_support_endpoints():
    assert weight._support(4.0) == (4.0, 1.0, 9.0)
    assert weight._support(1.0) == (1.0, 0.0, 4.0)
    for L in (-2.0, 1e-320, 9e307, float("inf")):  # a subnormal L keeps too few bits to check
        with pytest.raises(ValueError):
            weight._support(L)


def test_weight_midpoint_value():
    L = 4.0
    expected = (1 + 1 / (L + 1)) * 2 * math.sqrt(L) / (2 * math.pi)
    assert weight_eval(L + 1, L) == pytest.approx(expected, rel=1e-15)


def test_weight_vanishes_outside_open_support():
    assert weight_eval(0.5, 4) == 0.0
    assert weight_eval(9.5, 4) == 0.0
    assert weight_eval(1.0, 4) == 0.0
    assert weight_eval(9.0, 4) == 0.0
    assert weight_eval(0.0, 4.0) == weight_eval(0.0, 0.25) == 0.0


def test_weight_rejects_origin():
    with pytest.raises(DomainError):
        weight_eval(0.0, 1.0)


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-300, 1e-17, 1e-12])
def test_weight_near_the_origin_at_l_one(x):
    expected = (1 + x) * math.sqrt(4 - x) / (2 * math.pi * math.sqrt(x))
    assert weight_eval(x, 1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("L", [0.25, 1.0, 2.0, 8.0])
def test_the_density_times_dx_is_the_quadrature_factor(L):
    # dx = 2 sqrt(L) sin(theta) dtheta under x = L + 1 + 2 sqrt(L) cos(theta)
    nodes = 4000
    x, w = weight._substituted(L, nodes)
    for i in range(nodes):
        theta = (i + 0.5) * math.pi / nodes
        density = weight_eval(float(x[i]), L) * 2 * math.sqrt(L) * math.sin(theta) * math.pi / nodes
        assert density == pytest.approx(w[i], rel=1e-8)


def test_a_moment_past_the_float64_range_is_an_overflow():
    # hi^1 is in range, but moment 1 is about L^2 = 1e600
    with pytest.raises(OverflowError):
        moment_quadratures(1e300, 1)


def test_total_mass():
    assert abs(moment_quadrature(4.0, 0) - 5.0) < 1e-10


#: Below 1 the measure carries the atom (1 - L) delta_0 besides the weight.
BELOW_ONE = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]


@pytest.mark.parametrize("L", [1, 2, 3, 4] + BELOW_ONE, ids=str)
def test_moments_match_sequence(L):
    window = a_sequence(L, 10)
    for n in range(11):
        exact = float(window.terms[n])
        assert abs(moment_quadrature(L, n) - exact) / exact < 1e-8


def inverse_x_part(L, nodes):
    """The rule's integral of the weight's 1/x part, the theta nodes' sum of w / (1 + x)."""
    x, w = weight._substituted(L, nodes)
    return math.fsum(wj / (1.0 + xj) for xj, wj in zip(x, w))


def test_refinement_reduces_error_until_noise():
    # the 1/x part is the one integrand that is no trigonometric polynomial in
    # theta; moment 0 takes it exactly
    exact = 1.0
    floor = 1e-13
    errors = [max(abs(inverse_x_part(2, nodes) - exact), floor) for nodes in (16, 32, 64, 4000)]
    assert errors[1] <= errors[0]
    assert errors[2] <= errors[1]
    assert errors[3] <= errors[2]


@pytest.mark.parametrize("L", BELOW_ONE[:2] + [2, 4, 8], ids=str)
def test_the_weight_integrates_1_over_x_to_min_1_L(L):
    # with the atom (1 - L)_+ this makes moment 0's 1/x part exactly 1
    assert abs(inverse_x_part(L, 4000) - min(1, L)) < 1e-12


def test_diagonal_norm_quadrature():
    coeffs, _ = chain_coeffs(4, 3)
    (a0, a1), b1 = coeffs.alpha[:2], coeffs.beta[1]
    q2 = [a0 * a1 - b1, -(a0 + a1), Fraction(1)]  # (x - a1)(x - a0) - b1
    square = [Fraction(0)] * (2 * len(q2) - 1)
    for i, a in enumerate(q2):
        for j, b in enumerate(q2):
            square[i + j] += a * b
    moments = moment_quadratures(4.0, len(square) - 1)
    value = sum(float(c) * m for c, m in zip(square, moments))
    assert abs(value - 1088 / 13) / (1088 / 13) < 1e-8


#: The benchmark's quad L, then rational L on both sides of 1, two of them within 1e-4 of it.
EXACT_AT = [Fraction(t) for t in "1 2 3 5 8 4/3 3/2 7/3 1/10 1/2 37/91 9999/10000 10001/10000".split()]


@pytest.mark.parametrize("L", EXACT_AT, ids=str)
def test_the_rule_is_exact_at_n_max_over_2_plus_2_nodes(L):
    # moment n >= 1 is a polynomial of degree n + 2 in cos(theta), below 2 (n_max // 2 + 2)
    exact = exact_moments(L, 120)
    for n_max in range(121):
        for approx, moment in zip(moment_quadratures(L, n_max), exact):
            assert abs(approx - moment) <= 1e-13 * moment


@pytest.mark.parametrize("L", [3, Fraction(5, 2), Fraction(37, 91), Fraction(1, 10)], ids=str)
def test_exact_moments_are_the_sequence(monkeypatch, L):
    monkeypatch.setitem(sys.modules, "numpy", None)  # the exact moments need no numpy
    assert exact_moments(L, 200) == list(a_sequence(L, 200).terms)
