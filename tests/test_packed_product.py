"""The packed products: ``laurent._pack``/``_digits``, ``ResidueRing.mul``
and ``ResidueRing.sum_of_powers``.

``ResidueRing.mul`` multiplies two elements as single integers and folds
the packed product modulo (2^(wm) - 1)^k until it has k m balanced digits.
Its oracle is the product it replaced, kept here: the Kronecker product
``_dense_mul`` folded by the list fold ``_fold``.  The operands cover every
struct digit width (1, 2, 4 and 8 bytes) and wide digits, squares, and
operands of all +-(2^b - 1), which make the digit bound tight.
``sum_of_powers`` is checked against the sum of w ``mul``(q^e, y^g) term
by term, with shared bases, negative weights and exponents, and q^e in
closed form against the binomial series.  The ring memo is checked as
well: a kernel call leaves every cached unit equal to a freshly built one,
and the calls on one ring share its prefix table without mutating it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qapery.cyclotomic
import qapery.laurent
from qapery.checks import check_corollary
from qapery.cyclotomic import (Modulus, ResidueRing, _binomial, binomial_sum_residue,
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
    """sum w q^e y^g from ``mul``, ``q_power`` and ``power``, term by term."""
    return [sum(c) for c in zip([0] * ring.size, *(
        [w * c for c in ring.mul(ring.q_power(e), ring.power(y, g))] for w, e, y, g in terms))]


def folded_squares(ring, vectors):
    return [sum(c) for c in zip(*(oracle(ring, v, v) for v in vectors))]


def squares(vectors):
    return [(1, 0, v, 2) for v in vectors]


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
    # sum_of_powers at e = 0 and g = 2: the sum of squares of harmonic-sp's cross route
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
                # the same base as distinct lists is packed once per list
                copies = [list(v) for v in vectors]
                assert ring.sum_of_powers(squares(copies)) == folded_squares(ring, vectors)


#: exponents of q: negative, zero, below and above k m, and above 10^4
EXPONENTS = st.one_of(st.integers(-60, 60), st.integers(10_000, 10_100),
                      st.integers(-10_100, -10_000))


@st.composite
def power_sums(draw):
    """(m, k, terms): up to 12 (w, e, y, g) terms, g in {1, 2, 3, 6}, weights
    of either sign, and bases drawn from a pool of at most 4, so several
    terms share a base (as one list) and some share (y, g)."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    size = m * k

    def element():
        top = (1 << draw(st.sampled_from([1, 2, 5, 12, 27, 40, 61, 64, 100]))) - 1
        kind = draw(st.sampled_from(["random", "+top", "-top"]))
        if kind == "random":
            return draw(st.lists(st.integers(-top, top), min_size=size, max_size=size))
        return [top if kind == "+top" else -top] * size

    pool = [element() for _ in range(draw(st.integers(1, 4)))]
    terms = [(draw(st.integers(-(1 << 20), 1 << 20)), draw(EXPONENTS),
              draw(st.sampled_from(pool)), draw(st.sampled_from([1, 2, 3, 6])))
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
    # equal bases of all +-(2^b - 1), powers up to 6 and the q^e of largest
    # entries below 10^4 in the ring put the canonical sum near the bound
    ring = ResidueRing(m, k)
    e = max(range(0, 10_000, m), key=lambda e: max(abs(c) for c in ring.q_power(e)))
    for bits in (1, 7, 29, 61):
        top = (1 << bits) - 1
        for sign in (1, -1):
            y = [sign * top] * ring.size
            for g in (1, 2, 3, 6):
                for count in (1, 3, 31):
                    for shift in (0, e, -e - 1):
                        terms = [(sign, shift, y, g)] * count
                        assert ring.sum_of_powers(terms) == folded_powers(ring, terms)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(1, 5), EXPONENTS)
def test_q_power_is_the_binomial_series(m, k, e):
    # q^(a m + r) = q^r sum_{j<k} C(a, j) x^j, x = q^m - 1
    ring = ResidueRing(m, k)
    a, r = divmod(e, m)
    assert ring.q_power(e) == ring.from_x([_binomial(a, j) for j in range(k)], r)


# -- one ring per (m, k) ---------------------------------------------------------


def test_one_ring_per_modulus(monkeypatch):
    built = []
    original = qapery.cyclotomic.ResidueRing
    monkeypatch.setattr(qapery.cyclotomic, "ResidueRing",
                        lambda m, k: built.append((m, k)) or original(m, k))
    residue_ring.cache_clear()
    try:
        # Phi_4-valuations 0 and 2: modulo Phi_4^3 the second term is summed
        # in the ring of (4, 1); modulo Phi_4^2 it is dropped
        terms = [(1, 0, ((12, 4, 1),)), (-1, 3, ((9, 2, 1), (5, 2, 1)))]
        first = binomial_sum_residue(terms, [1, 2, 3], Modulus(4, 3))
        count = len(built)
        assert binomial_sum_residue(terms, [1, 2, 3], Modulus(4, 3)) == first
        assert len(built) == count
        binomial_sum_residue(terms, [], Modulus(4, 2))
        assert sorted(built) == sorted(set(built)) == [(4, 1), (4, 2), (4, 3)]
        assert residue_ring(4, 3) is residue_ring(4, 3)
    finally:
        residue_ring.cache_clear()


@pytest.mark.parametrize("m, k", [(1, 3), (3, 3), (4, 2), (6, 3)])
def test_a_kernel_call_mutates_no_cached_unit(m, k):
    ring = residue_ring(m, k)
    terms = [(1, 0, ((4 * m, 2 * m, 2),)), (3, -2, ((3 * m + 1, m, 1), (m + 1, 1, -1))),
             (-2, 5, ((2 * m, m, 1), (2 * m, m - 1, 1)))]
    binomial_sum_residue(terms, [1, -1, 2][:k], Modulus(m, k))
    binomial_sum_residue(terms, [], Modulus(m, k))
    assert ring._units
    fresh = ResidueRing(m, k)
    for j, unit in ring._units.items():
        assert unit == fresh.unit(j)
    assert ring.one == fresh.one == fresh.q_power(0)


@pytest.fixture
def fresh_rings():
    """Empty the ring memo before and after a test, so that its rings start
    with no prefix table."""
    residue_ring.cache_clear()
    yield
    residue_ring.cache_clear()


def test_kernel_calls_on_one_ring_share_the_prefix_table(fresh_rings):
    # every n at m = 3 reads the table of residue_ring(3, 3), which a larger
    # top extends without replacing the entries read before
    ring = residue_ring(3, 3)
    assert check_corollary(3, 2).holds
    entries = ring.prefix(0)
    assert len(entries) == 2 * 3 * 2 + 1
    assert check_corollary(3, 4).holds
    table = ring.prefix(0)
    assert len(table) == 2 * 3 * 4 + 1
    assert all(table[i] is entry for i, entry in enumerate(entries))
    assert ring.prefix(2 * 3 * 4) is table


def test_a_sweep_mutates_no_prefix_entry(fresh_rings):
    ring = residue_ring(3, 3)
    seen = {}
    for n in range(5):
        assert check_corollary(3, n).holds
        for entry in ring.prefix(0):
            seen.setdefault(id(entry), (entry, hash(tuple(entry))))
    assert all(hash(tuple(entry)) == before for entry, before in seen.values())
    fresh = ResidueRing(3, 3)
    assert ring.prefix(0) == fresh.prefix(2 * 3 * 4)


def test_a_covered_top_makes_no_prefix_product(monkeypatch, fresh_rings):
    ring = residue_ring(3, 3)
    assert check_corollary(3, 4).holds
    table = ring.prefix(0)
    products = []
    mul = ResidueRing.mul

    def recording(ring, a, b):
        products.append((a, b))
        return mul(ring, a, b)

    monkeypatch.setattr(ResidueRing, "mul", recording)
    assert check_corollary(3, 2).holds and check_corollary(3, 4).holds
    assert products
    # F(j) = F(j - 1) u_j is not formed again
    assert not [a for a, b in products
                if any(a == table[j - 1] and b == ring.unit(j) for j in range(1, len(table)))]
    assert ring.prefix(0) is table


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
