"""Exact Laurent polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qapery.laurent import (
    LaurentPoly,
    _over_one_minus,
    _times_one_minus,
    divrem,
    exact_div,
    ext_gcd,
    q,
    q_power,
)


def P(terms):
    return LaurentPoly(terms)


def random_poly(rng, max_terms=5, exp_range=(-6, 6), allow_fractions=True):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(*exp_range)
        if allow_fractions and rng.random() < 0.3:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = rng.randint(-9, 9)
        out[e] = out.get(e, 0) + c
    return LaurentPoly(out)


def random_ordinary(rng, max_deg=8):
    return LaurentPoly({e: rng.randint(-9, 9) for e in range(rng.randint(0, max_deg) + 1)})


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (q - 1) * (q + 1) == P({0: -1, 2: 1})

    def test_square(self):
        assert (1 + q) ** 2 == P({0: 1, 1: 2, 2: 1})

    def test_exponent_shift(self):
        assert q_power(-1) * (q + 3 * q**2) == P({0: 1, 1: 3})

    def test_scale_by_rational(self):
        assert Fraction(1, 2) * P({0: 2, 3: -4}) == P({0: 1, 3: -2})

    def test_pow_zero_and_negative(self):
        assert (q + 1) ** 0 == 1
        with pytest.raises(ValueError):
            (q + 1) ** -1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 0.5})

    def test_canonical_no_zero_coefficients(self):
        f = P({0: 1, 1: -1}) + P({1: 1})
        assert list(f.terms()) == [(0, 1)] and len(f) == 1

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            LaurentPoly().degree()
        with pytest.raises(ValueError):
            LaurentPoly().min_degree()

    def test_ring_laws_random(self):
        rng = random.Random(20180319)
        for _ in range(120):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_eval_multiplicative_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b = random_poly(rng), random_poly(rng)
            x = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            assert (a * b)(x) == a(x) * b(x)


class TestShiftAndDivision:
    def test_shift_examples(self):
        g, s = P({-1: 1, 0: 3, 1: 1}).shift_to_ordinary()
        assert (g, s) == (P({0: 1, 1: 3, 2: 1}), 1)
        assert LaurentPoly().shift_to_ordinary() == (LaurentPoly(), 0)
        g, s = q_power(3).shift_to_ordinary()
        assert (g, s) == (LaurentPoly.one(), -3)

    def test_divrem_examples(self):
        quot, rem = divrem(q**2 - 1, q + 1)
        assert (quot, rem) == (q - 1, LaurentPoly())
        quot, rem = divrem(q**2 + 1, q + 1)
        assert (quot, rem) == (q - 1, P({0: 2}))
        quot, rem = divrem((q + 1) ** 3, (q + 1) ** 2)
        assert (quot, rem) == (q + 1, LaurentPoly())

    def test_divrem_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divrem(q + 1, LaurentPoly())

    def test_divrem_requires_ordinary(self):
        with pytest.raises(ValueError):
            divrem(q_power(-1), q + 1)

    def test_divrem_reconstruction_random(self):
        rng = random.Random(1234)
        checked = 0
        while checked < 80:
            f = random_ordinary(rng)
            g = random_ordinary(rng)
            if g.is_zero():
                continue
            quot, rem = divrem(f, g)
            assert quot * g + rem == f
            assert rem.is_zero() or rem.degree() < g.degree()
            checked += 1

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            exact_div(q**2 + 1, q + 1)


class TestExtGcd:
    def test_coprime_linear(self):
        d, u, v = ext_gcd(q + 1, q - 1)
        assert d == 1
        assert u == P({0: Fraction(1, 2)})
        assert v == P({0: Fraction(-1, 2)})

    def test_common_factor(self):
        d, _, _ = ext_gcd(q**2 - 1, q + 1)
        assert d == q + 1
        # g = 0: no Euclid step, and v = 0 without a division
        assert ext_gcd(2 * q + 2, LaurentPoly()) == (q + 1, Fraction(1, 2), 0)

    def test_q_integer_coprime_to_phi3(self):
        # brute-force gcd via a divrem chain, independently of ext_gcd
        a, b = q + 1, P({0: 1, 1: 1, 2: 1})
        while not b.is_zero():
            _, r = divrem(a, b)
            a, b = b, r
        assert a.degree() == 0  # gcd is constant
        d, _, _ = ext_gcd(q + 1, P({0: 1, 1: 1, 2: 1}))
        assert d == 1

    def test_bezout_random(self):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            f, g = random_ordinary(rng, 6), random_ordinary(rng, 6)
            if f.is_zero() and g.is_zero():
                continue
            d, u, v = ext_gcd(f, g)
            assert u * f + v * g == d
            if not f.is_zero():
                assert divrem(f, d)[1].is_zero()
            if not g.is_zero():
                assert divrem(g, d)[1].is_zero()
            checked += 1


class TestStructural:
    def test_substitute_power_examples(self):
        assert (1 + q).substitute_power(4) == P({0: 1, 4: 1})
        assert q_power(-1).substitute_power(3) == q_power(-3)
        f = P({0: 1, 1: 3, 2: 1})
        assert f.substitute_power(1) == f

    def test_substitute_power_composes(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_poly(rng)
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            assert f.substitute_power(a).substitute_power(b) == f.substitute_power(a * b)

    def test_substitute_power_requires_positive(self):
        with pytest.raises(ValueError):
            (1 + q).substitute_power(0)

    def test_reflect_examples(self):
        f = P({0: 1, 1: 3, 2: 1})
        assert f.reciprocal_reflect(2) == f
        assert (1 + q).reciprocal_reflect(1) == 1 + q
        assert q.reciprocal_reflect(0) == q_power(-1)

    def test_reflect_involution_random(self):
        rng = random.Random(42)
        for _ in range(40):
            f = random_poly(rng)
            d = rng.randint(-3, 5)
            assert f.reciprocal_reflect(d).reciprocal_reflect(d) == f

    def test_eval_examples(self):
        assert P({0: 1, 1: 3, 2: 1})(1) == 5
        assert (q + 1)(1) == 2
        assert P({-1: 1, 0: 3, 1: 1})(1) == 5

    def test_eval_zero_with_negative_exponent(self):
        with pytest.raises(ValueError):
            P({-1: 1})(0)
        assert (q + 1)(0) == 1


class TestRendering:
    def test_text_forms(self):
        assert P({0: 1, 1: 3, 2: 1}).to_text() == "1 + 3*q + q^2"
        assert P({-1: 1, 0: 3, 1: 1}).to_text() == "q^-1 + 3 + q"
        assert LaurentPoly().to_text() == "0"
        assert P({0: -1, 2: 1}).to_text() == "-1 + q^2"
        assert P({2: Fraction(1, 4)}).to_text() == "1/4*q^2"
        assert P({0: 1, 1: -1}).to_text() == "1 - q"

    def test_json_round_trip(self):
        f = P({-2: Fraction(3, 7), 0: 1, 5: -4})
        d = f.to_json_dict()
        assert d == {"-2": "3/7", "0": "1", "5": "-4"}
        assert LaurentPoly.from_json_dict(d) == f


def _poly(coeffs):
    return LaurentPoly(dict(enumerate(coeffs)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12), st.integers(1, 8),
       st.integers(1, 8))
def test_one_minus_steps_match_products_and_exact_division(coeffs, a, i):
    kept = list(coeffs)
    product = _times_one_minus(coeffs, a)
    assert coeffs == kept and len(product) == len(coeffs) + a
    assert _poly(product) == _poly(coeffs) * (1 - q_power(a))
    # an exact quotient by 1 - q^i of the product times 1 - q^i
    multiple = _poly(product) * (1 - q_power(i))
    g = [multiple.coefficient(e) for e in range(len(product) + i)]
    _over_one_minus(g, i)
    assert _poly(g) == exact_div(multiple, 1 - q_power(i)) == _poly(product)
    assert len(g) == len(product)
    # on a list padded by i zeros, the series quotient below q^len(coeffs)
    g = coeffs + [0] * i
    _over_one_minus(g, i)
    series = _poly(coeffs) * LaurentPoly({i * j: 1 for j in range(len(coeffs) // i + 1)})
    assert g == [series.coefficient(e) for e in range(len(coeffs))]
