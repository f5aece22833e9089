import json
from fractions import Fraction

import pytest

from hankel_catalan import genfunc
from hankel_catalan.cli import main
from hankel_catalan.genfunc import (
    JacobiParams,
    PoleNotCancelled,
    big_g_series,
    big_g_series_from_jacobi,
    f_series,
    jacobi_genfun_series,
    jacobi_poly,
    rho_series,
    t_sum_identities,
)
from hankel_catalan.sequences import a_sequence
from hankel_catalan.series import TruncatedSeries


def test_jacobi_degree_zero_and_one():
    assert jacobi_poly(0, JacobiParams(3, 2), Fraction(7, 3)) == 1
    x = Fraction(11, 4)
    assert jacobi_poly(1, JacobiParams(0, 0), x) == x
    for a, b in [(0, 0), (2, 0), (1, 3)]:
        expected = ((a + b + 2) * x + (a - b)) / 2
        assert jacobi_poly(1, JacobiParams(a, b), x) == expected


@pytest.mark.parametrize("params", [JacobiParams(0, 0), JacobiParams(2, 0)])
@pytest.mark.parametrize("x", [Fraction(3), Fraction(5, 3), Fraction(7, 2)])
def test_genfun_coefficients_are_jacobi_values(params, x):
    series = jacobi_genfun_series(params, x, 12)
    for n in range(13):
        assert series.coefficient(n) == jacobi_poly(n, params, x)


def test_genfun_constant_term():
    assert jacobi_genfun_series(JacobiParams(0, 0), Fraction(9, 7), 5).coefficient(0) == 1


@pytest.mark.parametrize("L", [2, 3, Fraction(5, 2)])
def test_t_sum_identities(L):
    assert t_sum_identities(L, 10)


def test_t_sum_identities_reject_l_one():
    with pytest.raises(ValueError):
        t_sum_identities(1, 5)


def test_rho_series():
    assert rho_series(3, 8).coefficient(0) == 1
    assert rho_series(1, 4).coefficients(0, 4) == [1, -2, -2, -4, -10]
    rho = rho_series(5, 20)
    assert rho * rho == TruncatedSeries([1, -12, 16], 20)


@pytest.mark.parametrize(
    "L, scale", [(1, 1), (8, 1), (Fraction(1, 3), 3), (Fraction(7, 3), 3), (Fraction(37, 91), 91)]
)
def test_rho_series_keeps_the_smallest_argument_scale(L, scale):
    # c_1 = -(L+1) has denominator q, so q is the smallest scale that makes
    # every c_k q^k an integer; the root's 4^k is divided out to reach it
    rho = rho_series(L, 80)
    assert rho._s == scale
    assert rho * rho == TruncatedSeries([1, -2 * (L + 1), (L - 1) ** 2], 80)


def test_big_g_golden_l2():
    series = big_g_series(2, 4)
    assert series.coefficients(0, 4) == [3, 8, 28, 112, 484]


@pytest.mark.parametrize("L", [2, 3, 4, 5, Fraction(5, 2)])
def test_big_g_matches_sequence(L):
    series = big_g_series(L, 25)
    assert series.coefficients(0, 25) == list(a_sequence(L, 25).terms)


def gen9_assembly(order):
    # (1/t) * ((1 - sqrt(1-4t)) (1+t) / (2t) - 1)
    work = order + 2
    one = TruncatedSeries([1], work)
    s = (one - TruncatedSeries([1, -4], work).sqrt()) * TruncatedSeries([1, 1], work)
    return (s.shift(-1) / 2 - one).shift(-1)


def gen10_assembly(order):
    # -1/t + (t+1)/sqrt(t^2-6t+1) * (1/t - 4/(1 - t + sqrt(t^2-6t+1))^2), as
    # t times it divided by t; shift(-1) raises unless the 1/t pole cancels
    work = order + 2
    root = TruncatedSeries([1, -6, 1], work).sqrt()
    one = TruncatedSeries([1], work)
    bracket = one - (
        (TruncatedSeries([1, -1], work) + root) * (TruncatedSeries([1, -1], work) + root)
    ).reciprocal().shift(1) * 4
    return (TruncatedSeries([1, 1], work) * root.reciprocal() * bracket - one).shift(-1)


def test_big_g_l1_matches_direct_assembly():
    direct = gen9_assembly(20)
    series = big_g_series(1, 20)
    assert series.coefficients(0, 20) == direct.coefficients(0, 20)


def test_big_g_l2_matches_direct_assembly():
    direct = gen10_assembly(20)
    series = big_g_series(2, 20)
    assert series.coefficients(0, 20) == direct.coefficients(0, 20)


@pytest.mark.parametrize("L", [2, 3, 4, 5, Fraction(5, 2), Fraction(1, 3), Fraction(37, 91)], ids=str)
def test_both_generating_function_assemblies_agree(L):
    closed = big_g_series(L, 20)
    assert closed == big_g_series_from_jacobi(L, 20)
    assert closed.coefficients(0, 20) == list(a_sequence(L, 20).terms)


def test_both_assemblies_agree_at_high_order_for_rational_l():
    L = Fraction(37, 91)
    closed = big_g_series(L, 150)
    assert closed == big_g_series_from_jacobi(L, 150)
    assert closed.coefficients(0, 150) == list(a_sequence(L, 150).terms)


def test_a_surviving_pole_is_reported(monkeypatch, capsys):
    rho = genfunc.rho_series
    monkeypatch.setattr(genfunc, "rho_series", lambda L, order: rho(L, order) * 2)
    with pytest.raises(PoleNotCancelled):
        big_g_series(3, 10)
    with pytest.raises(PoleNotCancelled):
        f_series(3, 10)
    assert main(["series", "--L", "3", "--which", "G", "--terms", "10"]) == 2
    assert "status=mismatch" in capsys.readouterr().out
    assert main(["series", "--L", "3", "--which", "G", "--terms", "10", "--format", "json"]) == 2
    trailer = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert "1/t coefficient" in trailer["first_mismatch"]["detail"]

    jacobi = genfunc.jacobi_genfun_series
    monkeypatch.setattr(
        genfunc, "jacobi_genfun_series", lambda p, x, order: jacobi(p, x, order) * 2
    )
    with pytest.raises(PoleNotCancelled):
        big_g_series_from_jacobi(3, 10)


def test_jacobi_assembly_rejects_l_one():
    with pytest.raises(ValueError):
        big_g_series_from_jacobi(1, 10)


def test_f_series_l1_matches_direct_assembly():
    # (1/2) { z - 1 - (z+1) sqrt(1 - 4/z) } expanded in u = 1/z:
    # (1/(2u)) ((1-u) - (1+u) sqrt(1-4u))
    order = 15
    work = order + 1
    s = TruncatedSeries([1, -1], work) - TruncatedSeries([1, 1], work) * TruncatedSeries(
        [1, -4], work
    ).sqrt()
    direct = s.shift(-1) / 2
    series = f_series(1, order)
    assert series.coefficients(0, order) == direct.coefficients(0, order)


def test_f_series_coefficients_are_shifted_sequence():
    series = f_series(2, 5)
    assert series.coefficients(1, 5) == [3, 8, 28, 112, 484]
    assert series.coefficient(0) == 0


def test_f_series_is_shifted_generating_function():
    f = f_series(3, 21)
    g = big_g_series(3, 20)
    assert f.coefficients(1, 21) == g.coefficients(0, 20)
