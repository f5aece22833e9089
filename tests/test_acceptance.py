"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible with
`pytest -s`); the assertions carry the same conditions.
"""

import random
import time
from fractions import Fraction

from hankel_catalan.genfunc import big_g_series
from hankel_catalan.hankel import (
    h_closed_form,
    hankel_det,
    lemma_identities,
    surd_states,
)
from hankel_catalan.opoly import (
    chain_coeffs,
    h_from_products,
    jfraction_series,
    r_closed_form,
    stieltjes_from_moments,
    tilde_coeffs,
)
from hankel_catalan.sequences import a_sequence, gen_catalan
from hankel_catalan.series import TruncatedSeries
from hankel_catalan.verify import verify_grid
from hankel_catalan.weight import exact_moments, moment_quadrature


def _verdict(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_four_route_agreement_grid():
    start = time.perf_counter()
    reports = verify_grid(range(1, 9), 12)
    elapsed = time.perf_counter() - start
    complete = all(len(r.values) == 4 for r in reports)
    exact = all(len(set(r.values.values())) == 1 for r in reports)
    ok = len(reports) == 96 and complete and exact and elapsed < 30.0
    _verdict(f"1. four exact routes agree on L=1..8, n<=12 ({elapsed:.2f}s)", ok)


def test_criterion_2_paper_golden_vectors():
    ok = [hankel_det(a_sequence(2, 2 * n - 2), n) for n in range(1, 6)] == [
        3,
        20,
        272,
        7424,
        405504,
    ]

    fib = [0, 1]
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    ok = ok and all(h_closed_form(1, n) == fib[2 * n + 1] for n in range(1, 16))

    coeffs, r = chain_coeffs(4, 3)
    ok = ok and coeffs.alpha[0] == Fraction(24, 5)
    ok = ok and coeffs.beta[1] == Fraction(104, 25)
    ok = ok and coeffs.alpha[1] == Fraction(323, 65)
    ok = ok and coeffs.beta[2] == Fraction(680, 169)
    ok = ok and h_from_products(coeffs, 3) == 8704 == hankel_det(a_sequence(4, 4), 3)

    stage = tilde_coeffs(4, 2)
    ok = ok and stage.alpha[0] == Fraction(17, 3) and stage.beta[1] == Fraction(32, 9)
    ok = ok and r == (
        Fraction(-5),
        Fraction(-13, 15),
        Fraction(-51, 52),
        Fraction(-356, 357),
    )

    moments = stieltjes_from_moments(a_sequence(4, 7), 4)
    norms, running = [], Fraction(1)
    for beta in moments.beta:
        running *= beta
        norms.append(running)
    ok = ok and norms == [5, Fraction(104, 5), Fraction(1088, 13), Fraction(5696, 17)]
    _verdict("2. paper golden vectors (L=2 transform, odd Fibonacci, L=4 coefficients)", ok)


def test_criterion_3_generating_function_coefficients():
    ok = True
    for L in (2, 3, 4, 5):
        series = big_g_series(L, 25)  # raises if the 1/t pole survives
        ok = ok and series.coefficients(0, 25) == list(a_sequence(L, 25).terms)

    # L=1 closed form: (1/t)((1 - sqrt(1-4t))(1+t)/(2t) - 1)
    work = 22
    one = TruncatedSeries([1], work)
    low = (one - TruncatedSeries([1, -4], work).sqrt()) * TruncatedSeries([1, 1], work)
    direct1 = (low.shift(-1) / 2 - one).shift(-1)
    ok = ok and big_g_series(1, 20).coefficients(0, 20) == direct1.coefficients(0, 20)

    # L=2 closed form: -1/t + (t+1)/sqrt(t^2-6t+1) (1/t - 4/(1-t+sqrt(t^2-6t+1))^2),
    # as t times it divided by t; shift(-1) raises unless the 1/t pole cancels
    root = TruncatedSeries([1, -6, 1], work).sqrt()
    shifted = TruncatedSeries([1, -1], work) + root
    direct2 = (
        TruncatedSeries([1, 1], work) * root.reciprocal() * (one - (shifted * shifted).reciprocal().shift(1) * 4)
        - one
    ).shift(-1)
    ok = ok and big_g_series(2, 20).coefficients(0, 20) == direct2.coefficients(0, 20)
    _verdict("3. generating-function coefficients (pole cancels; matches a_n and both closed forms)", ok)


def test_criterion_4_chain_equals_moments_and_jfraction():
    ok = True
    for L in range(1, 7):
        chain, _ = chain_coeffs(L, 11)
        moments = stieltjes_from_moments(a_sequence(L, 21), 11)
        ok = ok and chain.alpha == moments.alpha and chain.beta == moments.beta
        expected = list(a_sequence(L, 20).terms)
        ok = ok and jfraction_series(chain, 20).coefficients(0, 20) == expected
        ok = ok and jfraction_series(moments, 20).coefficients(0, 20) == expected
    _verdict("4. chain/moments coefficient equality (k<=10) and J-fraction reconstruction", ok)


def test_criterion_5_product_identities_and_ratio_closed_form():
    ok = True
    for L in range(1, 7):
        for k in range(21):
            for j in range(k + 1):
                ok = ok and lemma_identities(L, j, k)
        _, r = chain_coeffs(L, 16)
        for n in range(16):
            ok = ok and r[n + 1] == r_closed_form(L, n)
    _verdict("5. surd product identities (j<=k<=20) and ratio closed form (n<=15)", ok)


def test_criterion_6_weight_moments_and_orthogonality():
    start = time.perf_counter()
    ok = True
    for L in (1, 2, 3, 4):
        window = a_sequence(L, 10)
        for n in range(11):
            exact = float(window.terms[n])
            ok = ok and abs(moment_quadrature(L, n, 4000) - exact) / exact < 1e-8
    for L in (1, 2, 4):
        # the measure's exact moments are a_n, so the chain's polynomials are orthogonal under it
        ok = ok and exact_moments(L, 200) == list(a_sequence(L, 200).terms)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(f"6. weight moments (rel 1e-8), exact moments = a_n up to n = 200 ({elapsed:.2f}s)", ok)


def test_criterion_7_property_suites():
    rng = random.Random(96321)
    ok = True

    def rand_series(order, constant=None):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        if constant is not None:
            coeffs[0] = Fraction(constant)
        return TruncatedSeries(coeffs, order)

    for _ in range(200):
        order = rng.randint(2, 8)
        a, b, c = rand_series(order), rand_series(order), rand_series(order)
        ok = ok and (a + b) + c == a + (b + c) and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c

    for _ in range(200):
        s = rand_series(rng.randint(3, 10), constant=1)
        root = s.sqrt()
        ok = ok and root * root == s

    for _ in range(200):
        s = rand_series(rng.randint(3, 10))
        while s.coefficient(0) == 0:
            s = rand_series(rng.randint(3, 10))
        product = s * s.reciprocal()
        ok = ok and product.coefficients(0, product.order) == [1] + [0] * product.order

    catalan = [gen_catalan(n, 1) for n in range(25)]
    ok = ok and all(hankel_det(catalan, n) == 1 for n in range(1, 13))

    for L in range(1, 9):
        states = surd_states(L, 40)
        for n in range(41):
            value = Fraction(L) ** (n * (n - 1) // 2) * states[n].sigma
            ok = ok and value.denominator == 1 and value.numerator % 2 ** (n + 1) == 0
    _verdict("7. series ring/roundtrip properties, Catalan all-ones transform, integrality", ok)
