import math
import random
from fractions import Fraction

import pytest

from hankel_catalan.series import (
    BadConstantTerm,
    TruncatedSeries,
    ZeroLeadingCoefficient,
    geometric,
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
    product = TruncatedSeries([1, -1], n) * geometric(1, n)
    assert product.coefficients(0, n - 1) == [1] + [0] * (n - 1)


def test_reciprocal_of_one_minus_t_is_geometric():
    n = 25
    assert TruncatedSeries([1, -1], n).reciprocal() == geometric(1, n)


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
