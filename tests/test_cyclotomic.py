"""Cyclotomic polynomials, congruence reduction, and modular inverses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qapery.cyclotomic import (
    Modulus,
    NotInvertibleError,
    congruent,
    cyclotomic,
    cyclotomic_at_one,
    euler_phi,
    integer_coefficient_check,
    inverse_mod,
    reduce_mod,
)
from qapery.laurent import LaurentPoly, _fold, _wrap, divrem, ext_gcd, q, q_power


def P(terms):
    return LaurentPoly(terms)


def formal_derivative(f):
    return LaurentPoly({e - 1: e * c for e, c in f.terms() if e})


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == q - 1
        assert cyclotomic(2) == q + 1
        assert cyclotomic(6) == P({0: 1, 1: -1, 2: 1})

    def test_product_formula_up_to_400(self):
        for m in [*range(1, 401), 2310, 4620, 9240]:
            product = LaurentPoly.one()
            for d in range(1, m + 1):
                if m % d == 0:
                    product = product * cyclotomic(d)
            assert product == q_power(m) - 1, m

    @pytest.mark.parametrize("m", [15015, 30030, 30011])
    def test_large_m_degree_value_at_one_and_palindromy(self, m):
        f = cyclotomic(m)
        coeffs = [f.coefficient(e) for e in range(f.degree() + 1)]
        assert f.degree() == euler_phi(m)
        assert sum(coeffs) == cyclotomic_at_one(m)
        assert coeffs == coeffs[::-1]

    def test_monic_integer_degree_phi(self):
        for m in range(1, 61):
            f = cyclotomic(m)
            assert f.degree() == euler_phi(m)
            assert f.leading_coefficient() == 1
            assert f.has_integer_coefficients()

    def test_nonzero_at_zero(self):
        # gcd(q, Phi_m) = 1 underpins the shift-based congruence test
        for m in range(1, 61):
            assert cyclotomic(m)(0) != 0

    def test_at_one_examples(self):
        assert cyclotomic_at_one(9) == 3
        assert cyclotomic_at_one(6) == 1
        assert cyclotomic_at_one(5) == 5

    def test_at_one_matches_evaluation(self):
        for m in range(2, 61):
            assert cyclotomic_at_one(m) == cyclotomic(m)(1)


class TestModulus:
    def test_degree(self):
        mod = Modulus(12, 3)
        assert mod.polynomial.degree() == 3 * euler_phi(12)
        assert mod.polynomial.leading_coefficient() == 1

    def test_str(self):
        assert str(Modulus(2, 3)) == "Phi(2)^3"

    def test_validation(self):
        with pytest.raises(ValueError):
            Modulus(0, 1)
        with pytest.raises(ValueError):
            Modulus(2, 0)


class TestReduceMod:
    def test_q_squared_minus_one(self):
        assert reduce_mod(q**2 - 1, Modulus(2, 1)).is_zero()

    def test_qm_minus_one(self):
        assert reduce_mod(q_power(5) - 1, Modulus(5, 1)).is_zero()

    def test_wolstenholme_n2_instance(self):
        # C(4,2)_q - (1 + q^4) + (1/4)(q^2 - 1)^2 vanishes mod Phi_2^3;
        # oracle: f, f', f'' all vanish at q = -1, so (q+1)^3 divides f.
        qbin42 = P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        f = qbin42 - (1 + q**4) + Fraction(1, 4) * (q**2 - 1) ** 2
        d1 = formal_derivative(f)
        d2 = formal_derivative(d1)
        assert f(-1) == 0 and d1(-1) == 0 and d2(-1) == 0
        assert reduce_mod(f, Modulus(2, 3)).is_zero()

    def test_congruent_examples(self):
        assert congruent(q, LaurentPoly.one(), Modulus(1, 1))
        assert not congruent(q, LaurentPoly.one(), Modulus(2, 1))

    def test_power_implication(self):
        # zero mod Phi_m^k implies zero mod Phi_m^j for all j <= k
        rng = random.Random(11)
        for m in (2, 3, 4, 6):
            for k in (2, 3):
                junk = LaurentPoly({e: rng.randint(-5, 5) for e in range(-2, 4)})
                if junk.is_zero():
                    junk = LaurentPoly.one()
                f = cyclotomic(m) ** k * junk
                for j in range(1, k + 1):
                    assert reduce_mod(f, Modulus(m, j)).is_zero()

    def test_equivalence_and_compatibility(self):
        rng = random.Random(17)
        mod = Modulus(4, 2)
        for _ in range(40):
            f = LaurentPoly({e: rng.randint(-4, 4) for e in range(-3, 4)})
            g = f + cyclotomic(4) ** 2 * LaurentPoly({0: rng.randint(-3, 3), 1: 1})
            h = LaurentPoly({e: rng.randint(-4, 4) for e in range(0, 3)})
            assert congruent(f, f, mod)
            assert congruent(f, g, mod) and congruent(g, f, mod)
            assert congruent(f + h, g + h, mod)
            assert congruent(f * h, g * h, mod)

    def test_remainder_degree_bound(self):
        mod = Modulus(3, 2)
        r = reduce_mod(q**9 + 3 * q**5 - 1, mod)
        assert r.degree() < mod.polynomial.degree()


class TestCanonicalResidue:
    def test_positive_exponents_are_not_shifted(self):
        # q^2 + q == -1 (mod Phi_3) and q^3 (q - 1) == 2 (mod Phi_2)
        assert reduce_mod(q**2 + q, Modulus(3, 1)) == -1
        assert reduce_mod(q**3 * (q - 1), Modulus(2, 1)) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=8),
        st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=5),
        st.sampled_from([(1, 1), (2, 3), (3, 2), (4, 1), (6, 2)]),
    )
    def test_congruent_and_invariant_under_multiples_of_the_modulus(self, f, h, mk):
        mod = Modulus(*mk)
        f, h = LaurentPoly(f), LaurentPoly(h)
        r = reduce_mod(f, mod)
        assert reduce_mod(f + h * mod.polynomial, mod) == r
        assert r.is_zero() or (r.is_ordinary() and r.degree() < mod.polynomial.degree())
        # r == f: a power of q times f - r is a multiple of the modulus
        assert divrem((f - r).shift_to_ordinary()[0], mod.polynomial)[1].is_zero()


def _plain_residue(f, P):
    """The residue of f modulo P by long division alone; a negative lowest
    exponent -s is cleared by the inverse of q^s from ``ext_gcd``."""
    if f.is_ordinary():
        return divrem(f, P)[1]
    s = -f.min_degree()
    _, u, _ = ext_gcd(divrem(q_power(s), P)[1], P)
    return divrem(u * divrem(q_power(s) * f, P)[1], P)[1]


_COEFFS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.fractions(max_denominator=30))


@st.composite
def _fold_cases(draw):
    """(f, m, k): f of degree up to 40 m with up to 40 terms, m <= 12, k <= 4."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    low = -draw(st.integers(0, 6 * m)) if draw(st.booleans()) else 0
    f = draw(st.dictionaries(st.integers(low, 40 * m), _COEFFS, max_size=40))
    return LaurentPoly(f), m, k


class TestFold:
    """``reduce_mod`` folds by (q^m - 1)^k before dividing; the residue must
    be the one long division by Phi_m^k gives."""

    @settings(max_examples=150, deadline=None)
    @given(_fold_cases())
    def test_fold_matches_plain_division(self, case):
        f, m, k = case
        mod = Modulus(m, k)
        assert reduce_mod(f, mod) == _plain_residue(f, mod.polynomial)

    def test_dense_high_degree(self):
        rng = random.Random(9)
        for m, k in ((1, 4), (5, 1), (6, 2), (12, 3), (7, 4)):
            mod = Modulus(m, k)
            f = LaurentPoly({e: rng.randint(-99, 99) for e in range(40 * m + 1)})
            assert reduce_mod(f, mod) == divrem(f, mod.polynomial)[1]


@st.composite
def _class_fold_cases(draw):
    """(v, m): m <= 30 and v of length m + 1 .. 2m (the pairwise path),
    0 .. m, or 2m + 1 .. 8m (the class sums), with wide entries."""
    m = draw(st.integers(1, 30))
    low, high = draw(st.sampled_from([(m + 1, 2 * m), (0, m), (2 * m + 1, 8 * m)]))
    v = draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=low, max_size=high))
    return v, m


class TestClassFold:
    """``laurent._fold`` at k = 1 adds a list of m to 2m entries pairwise and
    sums the classes of a longer one; both must be the per-coefficient fold."""

    @settings(max_examples=300, deadline=None)
    @given(_class_fold_cases())
    def test_fold_at_k_1_sums_each_residue_class(self, case):
        v, m = case
        want = [0] * m
        for i, c in enumerate(v):
            want[i % m] += c
        folded = list(v)
        assert _fold(folded, m, _wrap(m, 1)) == want
        assert folded == v


class TestModulusParts:
    def test_equal_moduli_share_their_parts(self):
        first, second = Modulus(6, 3), Modulus(6, 3)
        assert first.polynomial is second.polynomial
        assert first.lower is second.lower and first.wrap is second.wrap
        assert first.polynomial == cyclotomic(6) ** 3
        assert first.wrap == _wrap(6, 3)


class TestResidueExact:
    def test_congruent_to_input(self):
        rng = random.Random(23)
        for m, k in ((2, 3), (3, 1), (5, 2), (6, 1)):
            mod = Modulus(m, k)
            for _ in range(20):
                f = LaurentPoly({e: rng.randint(-5, 5) for e in range(-4, 5)})
                r = reduce_mod(f, mod)
                assert congruent(r, f, mod)
                assert r.is_zero() or (r.is_ordinary() and r.degree() < mod.polynomial.degree())

    def test_negative_power_of_q(self):
        mod = Modulus(3, 1)
        r = reduce_mod(q_power(-1), mod)
        # q * q^-1 == 1, so q * r == 1 mod Phi_3
        assert congruent(q * r, LaurentPoly.one(), mod)


class TestInverseMod:
    def test_one(self):
        assert inverse_mod(LaurentPoly.one(), Modulus(5, 2)) == 1

    def test_q_integer_two_mod_phi3(self):
        mod = Modulus(3, 1)
        h = inverse_mod(1 + q, mod)
        assert reduce_mod((1 + q) * h - 1, mod).is_zero()

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            inverse_mod(P({0: 1, 1: 1, 2: 1}), Modulus(3, 1))
        with pytest.raises(NotInvertibleError):
            inverse_mod(LaurentPoly(), Modulus(3, 1))

    def test_random_invertible_per_modulus(self):
        rng = random.Random(2018)
        for m, k in ((2, 3), (3, 2), (5, 1), (6, 2)):
            mod = Modulus(m, k)
            count = 0
            while count < 200:
                f = LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 4)})
                if f.is_zero():
                    continue
                try:
                    h = inverse_mod(f, mod)
                except NotInvertibleError:
                    continue
                assert reduce_mod(f * h - 1, mod).is_zero()
                assert h.is_zero() or h.degree() < mod.polynomial.degree()
                count += 1

    def test_inverse_of_shifted_monomial(self):
        mod = Modulus(4, 2)
        h = inverse_mod(q_power(3), mod)
        assert reduce_mod(q_power(3) * h - 1, mod).is_zero()
        h = inverse_mod(q_power(-2) * (1 + q), mod)
        assert reduce_mod(q_power(-2) * (1 + q) * h - 1, mod).is_zero()


def _euclid_inverse(f, mod):
    """The inverse of f modulo Phi_m^k by one Euclid loop against the whole
    modulus, or None when there is none."""
    r = reduce_mod(f, mod)
    if r.is_zero():
        return None
    d, u, _ = ext_gcd(r, mod.polynomial)
    if d.degree() > 0:
        return None
    return divrem(u, mod.polynomial)[1]


# Euclid over Q against Phi_11^4 (degree 40) grows its coefficients fast, so
# the reference gets small ones: 2^70 coefficients can take 10 s an example.
_SMALL_COEFFS = st.one_of(st.integers(-9, 9),
                          st.fractions(min_value=-9, max_value=9, max_denominator=9))


class TestNewtonLifting:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4),
           st.dictionaries(st.integers(-8, 40), _SMALL_COEFFS, max_size=6).map(LaurentPoly))
    def test_equals_the_full_modulus_euclid_inverse(self, m, k, f):
        mod = Modulus(m, k)
        want = _euclid_inverse(f, mod)
        if want is None:
            with pytest.raises(NotInvertibleError):
                inverse_mod(f, mod)
        else:
            assert inverse_mod(f, mod) == want

    def test_units_that_vanish_modulo_a_smaller_power(self):
        # 1 + Phi_m g is a unit; Phi_m h with h != 0 is not, at any k
        for m, k in ((3, 4), (6, 3), (10, 2)):
            mod, phi = Modulus(m, k), cyclotomic(m)
            f = 1 + phi * (q + 2)
            assert inverse_mod(f, mod) == _euclid_inverse(f, mod)
            with pytest.raises(NotInvertibleError):
                inverse_mod(phi * (q - 3), mod)


class TestIntegerCoefficients:
    def test_examples(self):
        assert integer_coefficient_check(P({0: 1, 1: 3, 2: 1}))
        assert not integer_coefficient_check(P({1: Fraction(1, 4)}))
        assert integer_coefficient_check(LaurentPoly())
