"""Differential tests: the Kronecker-substitution product against schoolbook.

``schoolbook_mul`` is the term-by-term dict loop that ``LaurentPoly`` used
to multiply with.  It is kept here only as the oracle for the packed
product in ``qapery.laurent``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qapery.laurent import LaurentPoly


def schoolbook_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out = {}
    for e1, c1 in f.terms():
        for e2, c2 in g.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


def schoolbook_pow(f: LaurentPoly, e: int) -> LaurentPoly:
    out = LaurentPoly.one()
    for _ in range(e):
        out = schoolbook_mul(out, f)
    return out


def assert_same(got: LaurentPoly, want: LaurentPoly):
    assert list(got.terms()) == list(want.terms())
    for _, c in got.terms():
        assert c != 0
        # canonical form: int exactly when the denominator is 1
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    assert got.has_integer_coefficients() == want.has_integer_coefficients()
    assert got == want


BIG = 2 ** 256

big_ints = st.integers(-BIG, BIG)
small_ints = st.integers(-9, 9)
fractions = st.builds(
    Fraction, st.integers(-BIG, BIG), st.integers(1, 2 ** 64)) | st.builds(
    Fraction, small_ints, st.integers(1, 12))
coefficients = st.one_of(small_ints, big_ints, fractions)


def polys(exponents, coeffs=coefficients, max_size=12):
    return st.dictionaries(exponents, coeffs, max_size=max_size).map(LaurentPoly)


dense = polys(st.integers(-20, 20))
sparse = polys(st.integers(-5000, 5000), max_size=5)
tiny = polys(st.integers(-3, 3), max_size=1)
integer = polys(st.integers(-30, 30), coeffs=st.one_of(small_ints, big_ints))
rational = polys(st.integers(-30, 30), coeffs=fractions)
any_poly = st.one_of(dense, sparse, tiny, integer, rational)


@settings(max_examples=300, deadline=None)
@given(any_poly, any_poly)
def test_product_matches_schoolbook(f, g):
    assert_same(f * g, schoolbook_mul(f, g))
    assert_same(g * f, schoolbook_mul(f, g))


@settings(max_examples=150, deadline=None)
@given(st.one_of(dense, sparse, tiny, integer, rational), st.integers(0, 4))
def test_power_matches_schoolbook(f, e):
    assert_same(f ** e, schoolbook_pow(f, e))


@settings(max_examples=100, deadline=None)
@given(st.one_of(dense, rational, integer))
def test_square_of_shared_operand(f):
    assert_same(f * f, schoolbook_mul(f, LaurentPoly(dict(f.terms()))))


def test_zero_and_one():
    f = LaurentPoly({-4: Fraction(3, 2), 0: -7, 9: 2 ** 300})
    assert_same(f * LaurentPoly(), LaurentPoly())
    assert_same(LaurentPoly() * f, LaurentPoly())
    assert_same(f * LaurentPoly.one(), f)


def test_rational_product_with_integer_result():
    f = LaurentPoly({0: Fraction(1, 2), 3: Fraction(-1, 6)})
    g = LaurentPoly({-1: 2, 2: Fraction(2, 3)})
    got = f * g
    assert_same(got, schoolbook_mul(f, g))
    assert got.coefficient(-1) == 1 and type(got.coefficient(-1)) is int
    assert got.coefficient(5) == Fraction(-1, 9)
    assert not got.has_integer_coefficients()
    assert (LaurentPoly({0: Fraction(1, 3)}) * LaurentPoly({7: 3})).has_integer_coefficients()


def test_cancellation_to_zero():
    # (1 - q)(1 + q) leaves the middle term out entirely, not as a zero entry
    f = LaurentPoly({-2: 1, 0: -1}) * LaurentPoly({-2: 1, 0: 1})
    assert list(f.terms()) == [(-4, 1), (0, -1)]


@pytest.mark.parametrize("count, top", [(3, 7), (255, BIG - 1)])
def test_extreme_digits(count, top):
    # bits(top) + bits(top) + bits(count) is a multiple of 8 and the middle
    # coefficient count * top**2 needs all of those bits: a digit one bit
    # narrower than the bound would overflow
    f = LaurentPoly({e: -top for e in range(count)})
    g = LaurentPoly({e: top for e in range(count)})
    assert_same(f * g, schoolbook_mul(f, g))
    assert_same(f * f, schoolbook_mul(f, f))
