"""The packed products: ``laurent._pack``/``_digits``, ``ResidueRing.mul``
and ``ResidueRing.sum_of_powers``, and the memos of rings and fields.

``ResidueRing.mul`` multiplies two elements as single integers and folds
the packed product modulo (2^(wm) - 1)^k until it has k m balanced digits.
Its oracle is the product it replaced, kept here: the Kronecker product
``_dense_mul`` folded by the list fold ``_fold``.  The operands cover every
struct digit width (1, 2, 4 and 8 bytes) and wide digits, squares, and
operands of all +-(2^b - 1), which make the digit bound tight.
``sum_of_powers``, the weighted sum of squares of ``harmonic-sp``, is
checked against the sum of w ``mul``(y, y) term by term, with shared bases
and weights of either sign, and q^e in closed form against the binomial
series.  The memos are checked as well: ``harmonic-sp`` builds one ring per
modulus, a kernel call leaves every lead ``cyclotomic._Field`` keeps equal
to a freshly built one, and the calls at one m share those leads, built
from the prefix products P_rho, without mutating them.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import qapery.cyclotomic
import qapery.laurent
from qapery.checks import check_corollary, check_harmonic_sp
from qapery.cyclotomic import (ResidueRing, _binomial, _Field, _field, binomial_sum_residue,
                               residue_ring)
from qapery.laurent import LaurentPoly, _dense_mul, _digits, _fold, _pack, _width, _wrap


def oracle(ring, a, b):
    return _fold(_dense_mul(a, b), ring.m, _wrap(ring.m, ring.k))


# -- _pack and _digits -----------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16, 17])
def test_digit_widths_round_trip_their_extremes(width):
    half = 1 << (8 * width - 1)
    coeffs = [-half, half - 1, 0, -1, 1, half - 1, -half]
    packed = _pack(coeffs, width)
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
    assert _digits(packed, len(coeffs), width) == coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 9, 17]).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.integers(-(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1),
                             min_size=1, max_size=40))))
def test_pack_and_digits_round_trip(case):
    width, coeffs = case
    packed = _pack(coeffs, width)
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
    assert _digits(packed, len(coeffs), width) == coeffs


def test_widths_round_up_to_struct_sizes():
    assert [_width(bits) for bits in (1, 8, 9, 16, 17, 32, 33, 64, 65, 72, 73)] == \
        [1, 1, 2, 2, 4, 4, 8, 8, 9, 9, 10]


# -- ResidueRing.mul against the list fold --------------------------------------

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
    assert ring.mul(a, b) == oracle(ring, a, b)
    assert ring.mul(b, a) == oracle(ring, a, b)


@pytest.mark.parametrize("m", range(1, 17))
@pytest.mark.parametrize("k", range(1, 5))
def test_extreme_operands_at_every_ring(m, k):
    # operands of all +-(2^b - 1), b just below and at each struct width,
    # put every product coefficient at the top of the bound
    ring = ResidueRing(m, k)
    for bits in (1, 3, 7, 13, 27, 29, 59, 61, 62, 64, 120):
        top = (1 << bits) - 1
        for a in ([top] * ring.size, [-top] * ring.size):
            assert ring.mul(a, a) == oracle(ring, a, a)
            b = [-c for c in a]
            assert ring.mul(a, b) == oracle(ring, a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_headroom_is_read_off_the_columns_of_q_powers(m, k):
    # g is the bit length of the largest column sum of |q^e| over e < 2km - 1
    ring = ResidueRing(m, k)
    columns = [ring.q_power(e) for e in range(2 * ring.size - 1)]
    g = max(sum(abs(v[i]) for v in columns) for i in range(ring.size)).bit_length()
    assert ring._headroom == ring.size.bit_length() + g + 2


# -- ResidueRing.sum_of_powers against folded products ---------------------------


def folded_powers(ring, terms):
    """sum w y^2 from ``mul``, term by term."""
    return [sum(c) for c in zip([0] * ring.size, *(
        [w * c for c in ring.mul(y, y)] for w, y in terms))]


def folded_squares(ring, vectors):
    return [sum(c) for c in zip(*(oracle(ring, v, v) for v in vectors))]


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
    assert ring.sum_of_powers(squares(vectors)) == folded_squares(ring, vectors)


@pytest.mark.parametrize("m", [1, 2, 5, 16])
@pytest.mark.parametrize("k", range(1, 5))
def test_sum_of_squares_of_extreme_elements(m, k):
    # N equal elements of all +-(2^b - 1) put the sum at N times mul's bound,
    # which the bits(N) added to the digit must hold; N = 2^j - 1 fills them
    ring = ResidueRing(m, k)
    for bits in (1, 7, 29, 61, 120):
        top = (1 << bits) - 1
        for count in (1, 2, 3, 7, 30, 31):
            for sign in (1, -1):
                vectors = [[sign * top] * ring.size] * count
                assert ring.sum_of_powers(squares(vectors)) == folded_squares(ring, vectors)
                copies = [list(v) for v in vectors]
                assert ring.sum_of_powers(squares(copies)) == folded_squares(ring, vectors)


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
    assert ring.sum_of_powers(terms) == folded_powers(ring, terms)


@pytest.mark.parametrize("m", [1, 2, 5, 16])
@pytest.mark.parametrize("k", range(1, 5))
def test_sum_of_powers_of_extreme_elements(m, k):
    # equal bases of all +-(2^b - 1) with weights of either sign, as sp3's
    # +h1^2 - sum h_i^2 has, put the canonical sum near the bound, whether
    # a base is given as one list or as copies
    ring = ResidueRing(m, k)
    for bits in (1, 7, 29, 61, 120):
        top = (1 << bits) - 1
        for sign in (1, -1):
            y = [sign * top] * ring.size
            for count in (1, 3, 31):
                for weights in ((1,), (-1,), (1, -1), (count, -1)):
                    terms = [(w, y) for w in weights] * count
                    assert ring.sum_of_powers(terms) == folded_powers(ring, terms)
                    terms = [(w, list(y)) for w in weights] * count
                    assert ring.sum_of_powers(terms) == folded_powers(ring, terms)


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


# -- one ring per (m, k), one field per m ---------------------------------------------


def test_one_ring_per_modulus(monkeypatch):
    built = []
    original = qapery.cyclotomic.ResidueRing
    monkeypatch.setattr(qapery.cyclotomic, "ResidueRing",
                        lambda m, k: built.append((m, k)) or original(m, k))
    residue_ring.cache_clear()
    try:
        # sp1 is decided modulo Phi_n^2, sp2 and sp3 modulo Phi_n; the kernel
        # builds no ring at all
        assert check_harmonic_sp(6, "sp1").holds
        count = len(built)
        assert check_harmonic_sp(6, "sp1").holds and len(built) == count
        assert check_harmonic_sp(6, "sp2").holds and check_harmonic_sp(6, "sp3").holds
        terms = [(1, 0, ((12, 4, 1),)), (-1, 3, ((9, 2, 1), (5, 2, 1)))]
        binomial_sum_residue(terms, [1, 2, 3], 4, 3)
        assert sorted(built) == sorted(set(built)) == [(6, 1), (6, 2)]
        assert residue_ring(6, 2) is residue_ring(6, 2)
    finally:
        residue_ring.cache_clear()


def field_state(field):
    """Every lead the field keeps, as tuples."""
    return {s: (tuple(v), e) for s, (v, e) in field._leads.items()}


#: terms inside the closed forms at Phi_m^k whose leads take the closed form
#: (C(2m, m - 1), carried to valuation k - 1) and P_rho Q_beta Q_gamma,
#: inverted (C(m - 1, 1)); C(4m, 2m) has residues 0 and is read to L^2
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
    # the prefix products P_rho enter a call through the leads, which the
    # field keeps: every call at m = 9, at any k, reads the same lead objects
    field = _field(9)
    binomial_sum_residue([(1, 0, ((2, 1, 1),)), (1, 0, ((8, 4, 1),))], [], 9, 1)
    entries = dict(field._leads)
    assert len(entries) == 2
    binomial_sum_residue([(1, 0, ((8, 4, 1),)), (1, 0, ((16, 6, 1),))], [], 9, 1)
    assert len(field._leads) == 3
    # C(14, 6)_q has valuation 1, so at k = 2 it is read from its lead alone
    binomial_sum_residue([(1, 0, ((14, 6, 1),))], [], 9, 2)
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


def test_a_covered_top_makes_no_prefix_product(monkeypatch, fresh_fields):
    # once a lead is kept, no P_rho is formed for it again; the leads of
    # C(m n, k)_q take no P_rho at all
    terms = [(1, 0, ((8, 4, 1),)), (2, 1, ((12, 5, 1), (5, 2, -1)))]
    binomial_sum_residue(terms, [], 9, 1)
    products = []
    prefix = _Field.prefix

    def recording(field, rho):
        products.append(rho)
        return prefix(field, rho)

    monkeypatch.setattr(_Field, "prefix", recording)
    binomial_sum_residue(terms, [], 9, 1)
    assert check_corollary(9, 2).holds
    assert products == []
    binomial_sum_residue([(1, 0, ((7, 3, 1),))], [], 9, 1)
    assert products


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
