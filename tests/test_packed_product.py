"""The packed products: ``laurent._pack``/``_digits``, ``ResidueRing.mul``
and ``ResidueRing.sum_of_powers``, and the memo of fields.

``ResidueRing.mul`` folds the Kronecker product ``_dense_mul`` below
q^(km), and ``sum_of_powers`` packs its own squares and folds their sum
once.  Their oracle shares neither step: a schoolbook product, whose
exponents s + t are read as the ring's closed-form powers q^(s+t)
(``ResidueRing.q_power``, itself checked against the binomial series).
The operands cover every struct digit width (1, 2, 4 and 8 bytes) and
wide digits, squares, and operands of all +-(2^b - 1), which make the
digit bound tight; the sums of squares have shared bases and weights of
either sign.  The field memo is checked as well: a kernel call leaves
every lead ``cyclotomic._Field`` keeps equal to a freshly built one, and
the calls at one m share those leads without mutating them.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import qapery.laurent
from qapery.checks import check_corollary
from qapery.cyclotomic import ResidueRing, _binomial, _Field, _field, binomial_sum_residue
from qapery.laurent import LaurentPoly, _bias, _digits, _pack, _width


def schoolbook(ring, a, b):
    """a b as sum_{s,t} a_s b_t q^(s+t), each q^(s+t) the ring's q_power."""
    product = [0] * (2 * ring.size - 1)
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                product[s + t] += x * y
    out = [0] * ring.size
    for e, c in enumerate(product):
        if c:
            for i, x in enumerate(ring.q_power(e)):
                out[i] += c * x
    return out


# -- _pack and _digits -----------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16, 17])
def test_digit_widths_round_trip_their_extremes(width):
    half = 1 << (8 * width - 1)
    coeffs = [-half, half - 1, 0, -1, 1, half - 1, -half]
    packed = _pack(coeffs, width, _bias(len(coeffs), width))
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
    assert _digits(packed, len(coeffs), width, _bias(len(coeffs), width)) == coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 9, 17]).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.integers(-(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1),
                             min_size=1, max_size=40))), st.integers(0, 40))
def test_pack_and_digits_round_trip(case, extra):
    # a bias of more digits than the coefficients, as ``_dense_mul`` shares
    # the product's between its operands, packs and reads the same
    width, coeffs = case
    bias = _bias(len(coeffs) + extra, width)
    packed = _pack(coeffs, width, bias)
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
    assert _digits(packed, len(coeffs), width, bias) == coeffs


def test_widths_round_up_to_struct_sizes():
    assert [_width(bits) for bits in (1, 8, 9, 16, 17, 32, 33, 64, 65, 72, 73)] == \
        [1, 1, 2, 2, 4, 4, 8, 8, 9, 9, 10]


# -- ResidueRing.mul against the schoolbook product ------------------------------

#: coefficient bit sizes: every struct width for the product digits, then wide ones
BITS = [0, 1, 2, 5, 12, 20, 27, 40, 58, 61, 62, 63, 64, 65, 100, 300]


@st.composite
def ring_operands(draw):
    m, k = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    size = m * k

    def element(bits):
        top = (1 << bits) - 1
        kind = draw(st.sampled_from(["random", "+top", "-top", "alternating"]))
        if kind == "random":
            return draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
        if kind == "alternating":
            return [top if i % 2 else -top for i in range(size)]
        return [top if kind == "+top" else -top] * size

    a = element(draw(st.sampled_from(BITS)))
    b = a if draw(st.booleans()) else element(draw(st.sampled_from(BITS)))
    return m, k, a, b


@settings(max_examples=400, deadline=None)
@given(ring_operands())
def test_ring_product_is_the_folded_kronecker_product(case):
    m, k, a, b = case
    ring = ResidueRing(m, k)
    expected = schoolbook(ring, a, b)
    assert ring.mul(a, b) == expected
    assert ring.mul(b, a) == expected


@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("k", range(1, 5))
def test_extreme_operands_at_every_ring(m, k):
    # operands of all +-(2^b - 1), b just below and at each struct width,
    # put every product coefficient at the top of the bound; the products of
    # +-top and -+top are the negated square
    ring = ResidueRing(m, k)
    for bits in (1, 3, 7, 13, 27, 29, 59, 61, 62, 64, 120):
        top = (1 << bits) - 1
        square = schoolbook(ring, [top] * ring.size, [top] * ring.size)
        for a in ([top] * ring.size, [-top] * ring.size):
            assert ring.mul(a, a) == square
            b = [-c for c in a]
            assert ring.mul(a, b) == [-c for c in square]


# -- ResidueRing.sum_of_powers against schoolbook squares -------------------------


def schoolbook_powers(ring, terms):
    """sum w y^2 from schoolbook squares, one per distinct base."""
    squares = {}
    out = [0] * ring.size
    for w, y in terms:
        key = tuple(y)
        if key not in squares:
            squares[key] = schoolbook(ring, y, y)
        out = [c + w * x for c, x in zip(out, squares[key])]
    return out


def squares(vectors):
    return [(1, v) for v in vectors]


@st.composite
def square_sums(draw):
    """(m, k, vectors): 1 to 30 elements, each with its own coefficient size,
    so the common digit width is set by the widest, over 8 bytes from
    40 bits up."""
    m, k = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    size = m * k

    def element():
        top = (1 << draw(st.sampled_from(BITS))) - 1
        kind = draw(st.sampled_from(["random", "+top", "-top"]))
        if kind == "random":
            return draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
        return [top if kind == "+top" else -top] * size

    return m, k, [element() for _ in range(draw(st.integers(1, 30)))]


@settings(max_examples=300, deadline=None)
@given(square_sums())
def test_sum_of_squares_is_the_sum_of_folded_squares(case):
    # the sum of squares of harmonic-sp's cross route for sp2
    m, k, vectors = case
    ring = ResidueRing(m, k)
    assert ring.sum_of_powers(squares(vectors)) == schoolbook_powers(ring, squares(vectors))


@pytest.mark.parametrize("m", [1, 2, 5, 16])
@pytest.mark.parametrize("k", range(1, 5))
def test_sum_of_squares_of_extreme_elements(m, k):
    # N equal elements of all +-(2^b - 1) put the sum at N times a square's
    # bound, which the bits(N) added to the digit must hold; N = 2^j - 1 fills them
    ring = ResidueRing(m, k)
    for bits in (1, 7, 29, 61, 120):
        top = (1 << bits) - 1
        for count in (1, 2, 3, 7, 30, 31):
            for sign in (1, -1):
                vectors = [[sign * top] * ring.size] * count
                expected = schoolbook_powers(ring, squares(vectors))
                assert ring.sum_of_powers(squares(vectors)) == expected
                copies = [list(v) for v in vectors]
                assert ring.sum_of_powers(squares(copies)) == expected


@st.composite
def power_sums(draw):
    """(m, k, terms): up to 12 (w, y) terms, weights of either sign, and
    bases drawn from a pool of at most 4, so several terms share a base
    (as one list)."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    size = m * k

    def element():
        top = (1 << draw(st.sampled_from([1, 2, 5, 12, 27, 40, 61, 64, 100]))) - 1
        kind = draw(st.sampled_from(["random", "+top", "-top"]))
        if kind == "random":
            return draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
        return [top if kind == "+top" else -top] * size

    pool = [element() for _ in range(draw(st.integers(1, 4)))]
    terms = [(draw(st.integers(-(1 << 20), 1 << 20)), draw(st.sampled_from(pool)))
             for _ in range(draw(st.integers(1, 12)))]
    return m, k, terms


@settings(max_examples=300, deadline=None)
@given(power_sums())
def test_sum_of_powers_is_the_sum_of_folded_powers(case):
    m, k, terms = case
    ring = ResidueRing(m, k)
    assert ring.sum_of_powers(terms) == schoolbook_powers(ring, terms)


@pytest.mark.parametrize("m", [1, 2, 5, 16])
@pytest.mark.parametrize("k", range(1, 5))
def test_sum_of_powers_of_extreme_elements(m, k):
    # equal bases of all +-(2^b - 1) with weights of either sign, as sp3's
    # +h1^2 - sum h_i^2 has, put the sum near the bound, whether a base is
    # given as one list or as copies
    ring = ResidueRing(m, k)
    for bits in (1, 7, 29, 61, 120):
        top = (1 << bits) - 1
        for sign in (1, -1):
            y = [sign * top] * ring.size
            for count in (1, 3, 31):
                for weights in ((1,), (-1,), (1, -1), (count, -1)):
                    terms = [(w, y) for w in weights] * count
                    expected = schoolbook_powers(ring, terms)
                    assert ring.sum_of_powers(terms) == expected
                    terms = [(w, list(y)) for w in weights] * count
                    assert ring.sum_of_powers(terms) == expected


def x_series(ring, coeffs, r):
    """q^r sum_j coeffs[j] x^j, x = q^m - 1, expanded by the binomial theorem."""
    v = [0] * ring.size
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            v[r + ring.m * i] += (-1) ** (j - i) * comb(j, i) * c
    return v


#: exponents of q: negative, zero, below and above k m, and above 10^4
EXPONENTS = st.one_of(st.integers(-60, 60), st.integers(10_000, 10_100),
                      st.integers(-10_100, -10_000))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(1, 5), EXPONENTS)
def test_q_power_is_the_binomial_series(m, k, e):
    # q^(a m + r) = q^r sum_{j<k} C(a, j) x^j, x = q^m - 1
    ring = ResidueRing(m, k)
    a, r = divmod(e, m)
    assert ring.q_power(e) == x_series(ring, [_binomial(a, j) for j in range(k)], r)


# -- one field per m ------------------------------------------------------------------


def field_state(field):
    """Every lead the field keeps, as tuples."""
    return {s: (tuple(v), e) for s, (v, e) in field._leads.items()}


#: terms inside the closed forms at Phi_m^k whose leads take both closed
#: forms: complementary (C(2m, m - 1), carried to valuation k - 1) and the
#: q-integer [m - 1]_q, inverted (C(m - 1, 1)); C(4m, 2m) has residues 0 and
#: is read to L^2
KERNEL_TERMS = [lambda m, k: (1, 0, ((4 * m, 2 * m, 2),)),
                lambda m, k: (3, -2, ((3 * m + 1, m, 1), (m - 1, 1 if m > 1 else 0, -1),
                                      (2 * m, m - 1, k - 1))),
                lambda m, k: (-2, 5, ((2 * m, m, 1), (2 * m, m - 1, k - 1)))]


@pytest.mark.parametrize("m, k", [(1, 3), (3, 3), (4, 2), (6, 3)])
def test_a_kernel_call_mutates_no_cached_unit(m, k):
    # the leads, products of the units 1 - zeta^r, stay equal to freshly built ones
    field = _field(m)
    terms = [term(m, k) for term in KERNEL_TERMS]
    binomial_sum_residue(terms, [1, -1, 2][:k], m, k)
    binomial_sum_residue(terms, [], m, k)
    assert field._leads or m == 1
    fresh = _Field(m)
    for signature in field._leads:
        fresh.lead(signature)
    assert field_state(field) == field_state(fresh)
    assert field.one == fresh.one


@pytest.fixture
def fresh_fields():
    """Empty the field memo before and after a test, so that its fields start
    with no leads."""
    _field.cache_clear()
    yield
    _field.cache_clear()


def test_kernel_calls_on_one_ring_share_the_prefix_table(fresh_fields):
    # the field keeps the leads, here of the q-integers [2]_q, [8]_q and
    # [7]_q: every call at m = 9, at any k, reads the same lead objects
    field = _field(9)
    binomial_sum_residue([(1, 0, ((2, 1, 1),)), (1, 0, ((8, 1, 1),))], [], 9, 1)
    entries = dict(field._leads)
    assert len(entries) == 2
    binomial_sum_residue([(1, 0, ((8, 1, 1),)), (1, 0, ((16, 6, 1),))], [], 9, 1)
    assert len(field._leads) == 3
    # C(18, 4)_q has valuation 1, so at k = 2 it is read from its lead alone
    binomial_sum_residue([(1, 0, ((18, 4, 1),))], [], 9, 2)
    assert len(field._leads) == 4
    assert all(field._leads[s] is entry for s, entry in entries.items())


def test_a_sweep_mutates_no_prefix_entry(fresh_fields):
    field = _field(5)
    seen = {}
    for n in range(5):
        assert check_corollary(5, n).holds
        for v, _ in field._leads.values():
            seen.setdefault(id(v), (v, hash(tuple(v))))
    assert all(hash(tuple(v)) == before for v, before in seen.values())
    fresh = _Field(5)
    assert field_state(field) == {s: (tuple(fresh.lead(s)[0]), e)
                                  for s, (_, e) in field._leads.items()}


# -- LaurentPoly fast paths -------------------------------------------------------


def test_constructors_are_canonical_without_a_dict():
    assert LaurentPoly.zero() == LaurentPoly({0: 0}) == LaurentPoly() == LaurentPoly({})
    assert LaurentPoly.one() == LaurentPoly({0: 1})
    assert LaurentPoly.q_power(-7) == LaurentPoly({-7: 1})
    assert LaurentPoly.constant(0).is_zero()
    half = LaurentPoly.constant(Fraction(6, 4))
    assert list(half.terms()) == [(0, Fraction(3, 2))]
    for bad in (1.5, True, "1"):
        with pytest.raises(TypeError):
            LaurentPoly.constant(bad)


def test_product_by_one_coefficient_scales_and_shifts(monkeypatch):
    monkeypatch.setattr(qapery.laurent, "_dense_mul", lambda a, b: pytest.fail("packed a monomial"))
    f = LaurentPoly({-2: Fraction(1, 3), 0: 4, 5: -6})
    assert list((f * LaurentPoly({3: Fraction(3, 2)})).terms()) == \
        [(1, Fraction(1, 2)), (3, 6), (8, -9)]
    assert list((LaurentPoly.q_power(2) * f).terms()) == [(0, Fraction(1, 3)), (2, 4), (7, -6)]
    assert (f * LaurentPoly.one()) == f and (LaurentPoly.q_power(-1) * LaurentPoly.q_power(1)) == 1
