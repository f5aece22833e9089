import math
import random
from fractions import Fraction

import pytest

from hankel_catalan.series import (
    BadConstantTerm,
    TruncatedSeries,
    ZeroLeadingCoefficient,
)


def random_series(rng, order, constant=None):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return TruncatedSeries(coeffs, order)


def test_polynomial_product():
    s = TruncatedSeries([1, 1], 4)
    assert (s * s).coefficients(0, 4) == [1, 2, 1, 0, 0]


def test_mul_identity():
    s = TruncatedSeries([3, Fraction(1, 2), -5], 6)
    one = TruncatedSeries([1], 6)
    assert s * one == s


def test_geometric_cancellation():
    # (1 - t) * (1 + t + t^2 + ...) telescopes to 1
    n = 20
    product = TruncatedSeries([1, -1], n) * TruncatedSeries([1] * (n + 1), n)
    assert product.coefficients(0, n - 1) == [1] + [0] * (n - 1)


def test_reciprocal_of_one_minus_t_is_geometric():
    n = 25
    assert TruncatedSeries([1, -1], n).reciprocal() == TruncatedSeries([1] * (n + 1), n)


def test_reciprocal_two_plus_t():
    s = TruncatedSeries([2, 1], 8)
    inv = s.reciprocal()
    assert inv.coefficients(0, 3) == [
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(1, 8),
        Fraction(-1, 16),
    ]
    product = s * inv
    assert product.coefficients(0, product.order) == [1] + [0] * product.order


def test_reciprocal_zero_leading_raises():
    with pytest.raises(ZeroLeadingCoefficient):
        TruncatedSeries([0, 1], 5).reciprocal()


def test_sqrt_of_one():
    assert TruncatedSeries([1], 10).sqrt() == TruncatedSeries([1], 10)


def binomial_half_coefficients(scale, order):
    # (1 + scale*t)^(1/2) term by term: c_n = c_{n-1} * (1/2 - (n-1))/n * scale
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * (Fraction(1, 2) - (n - 1)) / n * scale)
    return coeffs


def test_sqrt_binomial_series_oracle():
    order = 15
    root = TruncatedSeries([1, -4], order).sqrt()
    assert root.coefficients(0, order) == binomial_half_coefficients(-4, order)
    assert root.coefficients(0, 4) == [1, -2, -2, -4, -10]


def test_sqrt_requires_unit_constant():
    with pytest.raises(BadConstantTerm):
        TruncatedSeries([4, 1], 5).sqrt()


def test_sqrt_roundtrip_random():
    rng = random.Random(20240811)
    for _ in range(200):
        order = rng.randint(3, 12)
        s = random_series(rng, order, constant=1)
        root = s.sqrt()
        assert root * root == s
        assert root.coefficient(0) == 1


def test_reciprocal_roundtrip_random():
    rng = random.Random(20240812)
    one_cases = 0
    for _ in range(200):
        order = rng.randint(3, 12)
        s = random_series(rng, order)
        while s.coefficient(0) == 0:
            s = random_series(rng, order)
        product = s * s.reciprocal()
        assert product.coefficients(0, product.order) == [1] + [0] * product.order
        one_cases += 1
    assert one_cases == 200


def test_ring_axioms_random():
    rng = random.Random(20240813)
    for _ in range(200):
        order = rng.randint(2, 8)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_shift_divides_and_multiplies_by_x():
    s = TruncatedSeries([0, 2, 3], 5)
    down = s.shift(-1)  # the zero constant term leaves no pole
    assert down.coefficients(0, 1) == [2, 3]
    assert down.order == 4
    assert down.coefficient(-1) == 0
    with pytest.raises(ValueError):
        down.shift(-1)  # 2/x + 3 is not a power series
    up = s.shift(2)
    assert up.coefficient(3) == 2
    assert up.order == 7
    with pytest.raises(ValueError):
        TruncatedSeries([0, 0, 0], 2).shift(-3)  # no coefficient would be left
    assert TruncatedSeries([0, 0, 5], 2).shift(-2).coefficients(0, 0) == [5]


def test_coefficient_beyond_order_raises():
    s = TruncatedSeries([1, 1], 3)
    with pytest.raises(ValueError):
        s.coefficient(4)


def test_truncation_is_pessimistic():
    a = TruncatedSeries([1, 1], 10)
    b = TruncatedSeries([1, 2, 3], 4)
    assert (a + b).order == 4
    assert (a * b).order == 4
    with pytest.raises(ValueError):
        (a + b).coefficient(5)


def test_scale_argument():
    s = TruncatedSeries([5, 1, 1], 3)
    scaled = s.scale_argument(Fraction(2))
    assert scaled.coefficients(0, 3) == [5, 2, 4, 0]


def test_scalar_arithmetic():
    s = TruncatedSeries([1, 2], 4)
    assert (s * 3).coefficient(1) == 6
    assert (3 * s).coefficient(1) == 6
    assert (s / 2).coefficient(0) == Fraction(1, 2)
    assert (-s).coefficient(1) == -2


def test_coefficients_stay_canonical():
    rng = random.Random(20240814)
    for _ in range(50):
        s = random_series(rng, 6)
        t = random_series(rng, 6)
        while t.coefficient(0) == 0:
            t = random_series(rng, 6)
        for result in (s + t, s * t, t.reciprocal()):
            for c in result.coefficients(0, result.order):
                assert c.denominator > 0
                assert math.gcd(abs(c.numerator), c.denominator) == 1


# -- the integer kernels against the Fraction loops they replaced ------------


def oracle_mul(a, b):
    order = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            k = i + j
            if k > order:
                break
            out[k] += x * y
    return out


def oracle_reciprocal(u):
    lead = u[0]
    if lead == 0:
        raise ZeroLeadingCoefficient("constant term is zero")
    inv = [Fraction(1) / lead]
    for n in range(1, len(u)):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += u[i] * inv[n - i]
        inv.append(-acc / lead)
    return inv


def oracle_sqrt(s):
    if s[0] != 1:
        raise BadConstantTerm(f"square root needs constant term 1, got {s[0]}")
    root = [Fraction(1)]
    for n in range(1, len(s)):
        acc = s[n]
        for i in range(1, n):
            acc -= root[i] * root[n - i]
        root.append(acc / 2)
    return root


def assert_canonical(series):
    """r * F(x/s) with integer s >= 1 and F primitive, its first nonzero entry positive."""
    F = series._F
    assert all(type(f) is int for f in F)
    assert type(series._s) is int and series._s >= 1
    if any(F):
        assert math.gcd(*F) == 1
        assert next(f for f in F if f) > 0
    else:
        assert series._r == 0


def two_digit_series(rng, order, constant=None):
    """Two-digit rational coefficients, a fifth of them zero, through a random route.

    The same values reach the kernels under different integer rows and
    argument scales: built directly, with the argument scaled there and back,
    or as a sum of two parts.
    """
    coeffs = [
        Fraction(rng.randint(-99, 99), rng.randint(1, 99)) if rng.random() > 0.2 else Fraction(0)
        for _ in range(order + 1)
    ]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    series = TruncatedSeries(coeffs, order)
    route = rng.randrange(3)
    if route == 1:
        factor = Fraction(rng.randint(1, 99), rng.randint(1, 99)) * rng.choice((-1, 1))
        series = series.scale_argument(factor).scale_argument(1 / factor)
    elif route == 2:
        part = TruncatedSeries([Fraction(rng.randint(-99, 99), rng.randint(1, 99))], order)
        series = (series - part) + part
    assert series.coefficients(0, order) == coeffs
    return series, coeffs


def outcome(kernel, *args):
    try:
        return kernel(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_integer_kernels_match_the_fraction_loops():
    rng = random.Random(20261018)
    for case in range(700):
        a, a_coeffs = two_digit_series(rng, rng.randint(0, 20))
        b, b_coeffs = two_digit_series(rng, rng.randint(0, 20))
        product = a * b
        assert_canonical(product)
        assert product.coefficients(0, product.order) == oracle_mul(a_coeffs, b_coeffs)

        # constant terms of either sign, and zero one case in ten
        lead = 0 if case % 10 == 0 else None
        u, u_coeffs = two_digit_series(rng, rng.randint(0, 20), constant=lead)
        got = outcome(lambda: u.reciprocal().coefficients(0, u.order))
        assert got == outcome(oracle_reciprocal, u_coeffs)
        if got is not ZeroLeadingCoefficient:
            assert_canonical(u.reciprocal())

        # constant term 1 but one case in ten
        lead = rng.choice((-1, 2, Fraction(1, 4))) if case % 10 == 5 else 1
        v, v_coeffs = two_digit_series(rng, rng.randint(0, 20), constant=lead)
        got = outcome(lambda: v.sqrt().coefficients(0, v.order))
        assert got == outcome(oracle_sqrt, v_coeffs)
        if got is not BadConstantTerm:
            assert_canonical(v.sqrt())
        for result in (a, u, v, a + b, -a, a * Fraction(-7, 3), a.shift(2)):
            assert_canonical(result)


def test_equal_values_compare_and_hash_equal_whatever_the_row():
    rng = random.Random(20261019)
    for _ in range(100):
        order = rng.randint(0, 12)
        a, _ = two_digit_series(rng, order, constant=Fraction(rng.randint(1, 99), rng.randint(1, 99)))
        one = TruncatedSeries([1], order)
        for same, value in (
            (a * a.reciprocal(), one),
            ((a * 3) / 3, a),
            (a.scale_argument(Fraction(-5, 7)).scale_argument(Fraction(-7, 5)), a),
            (TruncatedSeries(a.coefficients(0, order), order), a),
        ):
            assert same == value
            assert hash(same) == hash(value)
    assert TruncatedSeries([1, 2], 3) != TruncatedSeries([1, 2], 4)
    assert TruncatedSeries([1, 2], 3) != TruncatedSeries([1, 3], 3)


def test_a_corrupted_row_fails_the_exact_halving():
    # Any integer row halves exactly; a non-integer one must raise, not round.
    bad = object.__new__(TruncatedSeries)
    bad._r, bad._s, bad._F = Fraction(1), 1, (1, Fraction(1, 3), 0)
    with pytest.raises(ArithmeticError, match="not an integer"):
        bad.sqrt()
