"""q-commuting variables: normal ordering and coefficient extraction."""

import itertools
import math

import pytest

from qapery.laurent import LaurentPoly, q_power
from qapery.qcombinatorics import q_binomial, qbin
from qapery.qcommute import QPolynomial, expand_linear_form_product

# factor orders for the four-variable products (0-based variable indices)
ORDER_NONSYM = lambda n: [((0, 1, 2), n[0]), ((0, 1), n[1]), ((2, 3), n[2]), ((1, 2, 3), n[3])]
ORDER_SYM = lambda n: [((0, 1), n[1]), ((0, 1, 2), n[0]), ((1, 2, 3), n[3]), ((2, 3), n[2])]


def closed_form(n, weight, last_lower):
    """Single-sum closed form with exponent weight(k) and a choice of the
    last binomial's lower index: 'n3' or 'n4-k' (equal by symmetry)."""
    n1, n2, n3, n4 = n
    total = LaurentPoly()
    for k in range(min(n1, n3) + 1):
        lower = n3 if last_lower == "n3" else n4 - k
        total = total + (
            q_power(weight(k))
            * qbin(n1, k) * qbin(n3, k)
            * qbin(n1 + n2 - k, n1) * qbin(n3 + n4 - k, lower)
        )
    return total


class TestNormalOrdering:
    def test_single_transposition(self):
        x0 = QPolynomial.variable(0, 2)
        x1 = QPolynomial.variable(1, 2)
        product = x1 * x0
        assert product.words == {(1, 1): q_power(1)}
        assert (x0 * x1).words == {(1, 1): LaurentPoly.one()}

    def test_binomial_square(self):
        p = expand_linear_form_product([((0, 1), 2)], 2)
        assert p.coefficient_of((2, 0)) == 1
        assert p.coefficient_of((1, 1)) == LaurentPoly({0: 1, 1: 1})
        assert p.coefficient_of((0, 2)) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            QPolynomial.one(2) * QPolynomial.one(3)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            expand_linear_form_product([((0, 1), 17)], 2)

    def test_coefficient_of_absent(self):
        p = expand_linear_form_product([((0, 1), 2)], 2)
        assert p.coefficient_of((3, 0)).is_zero()

    def test_associativity(self):
        a = QPolynomial.linear_form((0, 2), 3)
        b = QPolynomial.linear_form((1, 2), 3)
        c = QPolynomial.linear_form((0, 1), 3)
        assert (a * b) * c == a * (b * c)


class TestQBinomialTheorem:
    def test_expansion(self):
        # (x + y)^n = sum C(n,k)_q x^k y^(n-k) for y x = q x y
        for n in range(0, 11):
            p = expand_linear_form_product([((0, 1), n)], 2)
            for k in range(n + 1):
                assert p.coefficient_of((k, n - k)) == q_binomial(n, k), (n, k)


def commutative_coefficient(factors, arity, target):
    """Independent q=1 oracle: plain multinomial expansion over int dicts."""
    acc = {(0,) * arity: 1}
    for indices, exponent in factors:
        for _ in range(exponent):
            nxt = {}
            for exps, c in acc.items():
                for i in indices:
                    e = list(exps)
                    e[i] += 1
                    e = tuple(e)
                    nxt[e] = nxt.get(e, 0) + c
            acc = nxt
    return acc.get(target, 0)


class TestCommutativeSpecialization:
    def test_multinomial_at_q1(self):
        factors = [((0, 1, 2), 2), ((0, 1), 2), ((2, 3), 2), ((1, 2, 3), 2)]
        p = expand_linear_form_product(factors, 4)
        for exps, coeff in p.words.items():
            assert coeff(1) == commutative_coefficient(factors, 4, exps)

    def test_two_variable_counts(self):
        p = expand_linear_form_product([((0, 1), 8)], 2)
        for k in range(9):
            assert p.coefficient_of((k, 8 - k))(1) == math.comb(8, k)


class TestFourVariableClosedForms:
    def test_nonsym_order_matches_closed_form(self):
        weightof = lambda n: (lambda k: k * (n[1] + n[2] + k))
        for n in itertools.product(range(3), repeat=4):
            p = expand_linear_form_product(ORDER_NONSYM(n), 4)
            extracted = p.coefficient_of(n)
            assert extracted == closed_form(n, weightof(n), "n3"), n
            assert extracted == closed_form(n, weightof(n), "n4-k"), n

    def test_sym_order_matches_closed_form(self):
        for n in itertools.product(range(3), repeat=4):
            p = expand_linear_form_product(ORDER_SYM(n), 4)
            extracted = p.coefficient_of(n)
            assert extracted == closed_form(n, lambda k: k * k, "n3"), n
            assert extracted == closed_form(n, lambda k: k * k, "n4-k"), n

    def test_last_binomial_forms_agree(self):
        # C(n3+n4-k, n3)_q == C(n3+n4-k, n4-k)_q, so both closed forms coincide
        for n in itertools.product(range(4), repeat=4):
            w = lambda k: k * k
            assert closed_form(n, w, "n3") == closed_form(n, w, "n4-k"), n

    def test_sym_diagonal_equals_binomial_form(self):
        from qapery.sequences import apery_q_krz_binform
        for n in range(4):
            t = (n, n, n, n)
            p = expand_linear_form_product(ORDER_SYM(t), 4)
            assert p.coefficient_of(t) == apery_q_krz_binform(n)
