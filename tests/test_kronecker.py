"""Differential tests of ``LaurentPoly`` against dict references.

``schoolbook_mul`` is the term-by-term dict loop that ``LaurentPoly`` used
to multiply with.  It is kept here only as the oracle for the packed
product in ``qapery.laurent``.  ``Ref`` is a dict of nonzero Fractions, the
storage ``LaurentPoly`` used before its dense integer form; every other
operation is compared with it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qapery.cyclotomic import cyclotomic
from qapery.laurent import LaurentPoly, divrem


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


# -- the representation against a dict of Fractions ----------------------------


class Ref:
    """A Laurent polynomial as a dict of nonzero Fraction coefficients."""

    def __init__(self, terms):
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def of(cls, f: LaurentPoly) -> "Ref":
        return cls(dict(f.terms()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Ref(out)

    def __neg__(self):
        return Ref({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, s):
        return Ref({e: c * s for e, c in self.terms.items()})

    def divrem(self, g):
        """Schoolbook long division by the nonzero ordinary g."""
        dg = max(g.terms)
        lc = g.terms[dg]
        r = dict(self.terms)
        quot = {}
        while r and max(r) >= dg:
            d = max(r)
            t = r[d] / lc
            quot[d - dg] = t
            for e, c in g.terms.items():
                r[e + d - dg] = r.get(e + d - dg, 0) - t * c
            r = {e: c for e, c in r.items() if c}
        return Ref(quot), Ref(r)

    def __call__(self, x):
        return sum((c * x ** e for e, c in self.terms.items()), Fraction(0))


def assert_matches(f: LaurentPoly, ref: Ref):
    """f has ref's terms, in ascending order and canonical types, and its
    queries agree with them."""
    got = list(f.terms())
    assert got == sorted(ref.terms.items())
    for _, c in got:
        assert type(c) is (int if c.denominator == 1 else Fraction)
    assert len(f) == len(ref.terms)
    assert f.is_zero() == (not ref.terms) == (not f)
    assert f.has_integer_coefficients() == all(c.denominator == 1 for c in ref.terms.values())
    if ref.terms:
        assert (f.min_degree(), f.degree()) == (min(ref.terms), max(ref.terms))
    assert f == LaurentPoly(ref.terms) and LaurentPoly(ref.terms) == f


ordinary = polys(st.integers(0, 20), coeffs=st.one_of(small_ints, fractions), max_size=8)
nonzero_scalars = st.one_of(big_ints, fractions).filter(bool)


@settings(max_examples=200, deadline=None)
@given(any_poly, any_poly, nonzero_scalars)
def test_ring_operations_match_reference(f, g, s):
    rf, rg = Ref.of(f), Ref.of(g)
    assert_matches(f, rf)
    assert_matches(f + g, rf + rg)
    assert_matches(f - g, rf - rg)
    assert_matches(g - f, rg - rf)
    assert_matches(-f, -rf)
    assert_matches(f * s, rf.scale(Fraction(s)))
    assert_matches(s * f, rf.scale(Fraction(s)))
    assert_matches(f / s, rf.scale(1 / Fraction(s)))
    assert_matches(f * 0, Ref({}))
    assert_matches(f - f, Ref({}))
    assert_matches((f / s) * s, rf)
    assert_matches(f + g - g, rf)


@settings(max_examples=200, deadline=None)
@given(any_poly, any_poly, st.one_of(small_ints, big_ints, fractions))
def test_equality_matches_reference(f, g, s):
    rf, rg = Ref.of(f), Ref.of(g)
    assert (f == g) == (rf.terms == rg.terms)
    assert (f != g) == (rf.terms != rg.terms)
    assert (f == s) == (rf.terms == Ref({0: s}).terms)
    assert (s == f) == (f == s)
    assert f + g - g == f
    assert (f + s) - s == f


@settings(max_examples=150, deadline=None)
@given(ordinary, ordinary.filter(bool))
def test_divrem_matches_reference(f, g):
    quot, rem = divrem(f, g)
    ref_quot, ref_rem = Ref.of(f).divrem(Ref.of(g))
    assert_matches(quot, ref_quot)
    assert_matches(rem, ref_rem)


@settings(max_examples=100, deadline=None)
@given(ordinary, st.integers(1, 12), st.integers(1, 3))
def test_divrem_by_cyclotomic_power_matches_reference(f, m, k):
    P = cyclotomic(m) ** k
    quot, rem = divrem(f, P)
    ref_quot, ref_rem = Ref.of(f).divrem(Ref.of(P))
    assert_matches(quot, ref_quot)
    assert_matches(rem, ref_rem)


@settings(max_examples=200, deadline=None)
@given(any_poly, st.integers(1, 7), st.integers(-30, 30),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_structural_operations_match_reference(f, t, d, x):
    rf = Ref.of(f)
    assert_matches(f.substitute_power(t), Ref({e * t: c for e, c in rf.terms.items()}))
    assert_matches(f.reciprocal_reflect(d), Ref({d - e: c for e, c in rf.terms.items()}))
    g, shift = f.shift_to_ordinary()
    assert shift == (-min(rf.terms) if rf.terms else 0)
    assert_matches(g, Ref({e + shift: c for e, c in rf.terms.items()}))
    if x or not rf.terms or min(rf.terms) >= 0:
        assert f(x) == rf(x) and type(f(x)) is Fraction
