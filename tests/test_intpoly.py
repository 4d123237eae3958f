import random
from fractions import Fraction

import pytest

from threshold_spectra import intpoly
from threshold_spectra.intpoly import (
    add,
    degree,
    derivative,
    divide_exact,
    divide_out,
    evaluate,
    format_poly,
    gcd,
    mul,
    mul_xk,
    neg,
    normalize,
    poly_pow,
    square_free_decomposition,
    sub,
    to_coeff_list,
)

CUBIC = (36, -10, -9, 1)  # x^3 - 9x^2 - 10x + 36


def random_poly(rng, max_deg=6, span=9):
    return normalize([rng.randint(-span, span)
                      for _ in range(rng.randint(0, max_deg + 1))])


class TestBasics:
    def test_add_cancels_constants(self):
        assert add((1, 1), (-1, 1)) == (0, 2)  # (x+1) + (x-1) = 2x

    def test_add_identity(self):
        assert add((3, 0, 2), ()) == (3, 0, 2)

    def test_add_full_cancellation(self):
        assert add((0, 0, 1), (0, 0, -1)) == ()

    def test_square_of_x_plus_one(self):
        assert mul((1, 1), (1, 1)) == (1, 2, 1)

    def test_mul_identity(self):
        assert mul((5, -2, 7), (1,)) == (5, -2, 7)

    def test_quartic_product(self):
        product = mul((3, 1), CUBIC)
        assert product == (108, 6, -37, -6, 1)
        assert evaluate(product, 2) == evaluate((3, 1), 2) * evaluate(CUBIC, 2)

    def test_normalize(self):
        assert normalize([1, 2, 0, 0]) == (1, 2)
        assert normalize([0, 0]) == ()

    def test_degree(self):
        assert degree(()) == -1
        assert degree((7,)) == 0
        assert degree(CUBIC) == 3


class TestEvaluate:
    def test_cubic_at_zero(self):
        assert evaluate(CUBIC, 0) == 36

    def test_cubic_at_minus_three(self):
        # direct Horner value: -24i^3 - 16i^2 - 2i at i = 1, the corrected
        # closed form asserted by acceptance criterion 8
        assert evaluate(CUBIC, -3) == -42

    def test_constant_coefficient(self):
        rng = random.Random(8)
        for _ in range(20):
            p = random_poly(rng)
            assert evaluate(p, 0) == (p[0] if p else 0)

    def test_fraction_argument(self):
        assert evaluate((1, 2), Fraction(1, 2)) == 2  # 2x + 1 at 1/2
        assert evaluate(CUBIC, Fraction(1, 3)) == Fraction(36 * 27 - 10 * 9 - 9 * 3 + 1, 27)


class TestDivision:
    def test_exact(self):
        assert divide_exact((1, 2, 1), (1, 1)) == (1, 1)

    def test_not_divisible(self):
        assert divide_exact((1, 0, 1), (1, 1)) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact((1, 1), ())

    def test_zero_dividend(self):
        assert divide_exact((), (1, 1)) == ()

    def test_roundtrip_random(self):
        rng = random.Random(4242)
        for _ in range(150):
            p = random_poly(rng)
            d = random_poly(rng)
            if not d:
                continue
            assert divide_exact(mul(p, d), d) == p

    def test_non_monic_exactness(self):
        assert divide_exact((2, 4), (1, 2)) == (2,)
        assert divide_exact((1, 3), (1, 2)) is None


class TestDivideOut:
    def test_double_dyadic_root(self):
        # (2x - 3)^2 (x + 1)
        p = mul(poly_pow((-3, 2), 2), (1, 1))
        assert divide_out(p, 3, 2) == ((1, 1), 2)

    def test_non_root_leaves_p_unchanged(self):
        p = mul(poly_pow((-3, 2), 2), (1, 1))
        assert divide_out(p, 1, 1) == (p, 0)
        assert divide_out(p, 3, 4) == (p, 0)

    def test_root_zero(self):
        # x^3 (x^2 - 2)
        p = mul_xk((-2, 0, 1), 3)
        assert divide_out(p, 0, 1) == ((-2, 0, 1), 3)
        assert divide_out((-2, 0, 1), 0, 1) == ((-2, 0, 1), 0)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            divide_out((), 1, 1)

    def test_agrees_with_repeated_division(self):
        rng = random.Random(2015465)
        for _ in range(200):
            num, den = rng.randint(-9, 9), rng.randint(1, 8)
            k = rng.randint(0, 4)
            rest = random_poly(rng, max_deg=4) or (1,)
            p = mul(poly_pow((-num, den), k), rest)
            q, times = p, 0
            while (step := divide_exact(q, (-num, den))) is not None:
                q, times = step, times + 1
            assert divide_out(p, num, den) == (q, times)
            assert times >= k


class TestRingLaws:
    def test_laws_random(self):
        rng = random.Random(777)
        for _ in range(80):
            p, q, r = (random_poly(rng, max_deg=4) for _ in range(3))
            assert add(p, q) == add(q, p)
            assert mul(p, q) == mul(q, p)
            assert add(add(p, q), r) == add(p, add(q, r))
            assert mul(mul(p, q), r) == mul(p, mul(q, r))
            assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
            assert sub(p, p) == ()
            assert add(p, neg(p)) == ()


class TestStructure:
    def test_pow(self):
        assert poly_pow((1, 1), 0) == (1,)
        assert poly_pow((1, 1), 2) == (1, 2, 1)
        assert poly_pow((0, 1), 5) == (0, 0, 0, 0, 0, 1)

    def test_pow_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            poly_pow((1, 1), -1)

    def test_mul_xk(self):
        assert mul_xk((2, 1), 3) == (0, 0, 0, 2, 1)
        assert mul_xk((), 3) == ()

    def test_derivative(self):
        assert derivative(CUBIC) == (-10, -18, 3)
        assert derivative((5,)) == ()

    def test_gcd(self):
        p = mul((1, 1), (-2, 1))
        q = mul((1, 1), (3, 1))
        assert gcd(p, q) == (1, 1)
        assert gcd(p, ()) == normalize(p)

    def test_gcd_with_zero_first(self):
        # the zero argument goes second; gcd(0, 0) is 0
        assert gcd((), (4, -2)) == (-2, 1)
        assert gcd((), ()) == ()

    def test_square_free_decomposition(self):
        p = mul(mul(poly_pow((1, 1), 3), poly_pow((0, 1), 2)), (-2, 0, 1))
        factors = dict(square_free_decomposition(p))
        assert factors == {(-2, 0, 1): 1, (0, 1): 2, (1, 1): 3}

    def test_square_free_reconstructs(self):
        rng = random.Random(31337)
        for _ in range(40):
            parts = [random_poly(rng, max_deg=2, span=4) for _ in range(3)]
            parts = [p for p in parts if degree(p) >= 1]
            if not parts:
                continue
            prod = (1,)
            for k, p in enumerate(parts):
                prod = mul(prod, poly_pow(p, k + 1))
            rebuilt = (1,)
            for f, m in square_free_decomposition(prod):
                rebuilt = mul(rebuilt, poly_pow(f, m))
            norm = intpoly.primitive_part(prod)
            if norm[-1] < 0:
                norm = neg(norm)
            assert rebuilt == norm

    def test_square_free_of_a_constant_is_empty(self):
        assert square_free_decomposition((-7,)) == []

    def test_square_free_rejects_zero(self):
        with pytest.raises(ValueError):
            square_free_decomposition(())


class TestFormatting:
    def test_human_readable(self):
        assert format_poly(CUBIC) == "x^3 - 9x^2 - 10x + 36"
        assert format_poly((0, -1)) == "-x"
        assert format_poly(()) == "0"
        assert format_poly((1, 2, 1)) == "x^2 + 2x + 1"

    def test_coeff_list(self):
        assert to_coeff_list(CUBIC) == [36, -10, -9, 1]
        assert to_coeff_list(()) == [0]
