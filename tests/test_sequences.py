"""Sequence families, q-analogs, correction terms, and the diagonal oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qapery.laurent import LaurentPoly, q_power
from qapery.qcombinatorics import q_pochhammer, qbin
from qapery.sequences import (
    AlphaExponent,
    almkvist_zudilin,
    apery,
    apery_diagonal_oracle,
    apery_lambda_mu,
    apery_multivariate,
    apery_q_krz,
    apery_q_krz_binform,
    apery_q_lambda_mu,
    apery_q_multivariate,
    apery_q_zheng,
    az_diagonal_oracle,
    correction_R_lambda_mu,
    correction_R_multivariate,
    get_alpha,
    krz_partial_fraction_coeff,
    list_alphas,
)


class TestClassicalSequences:
    def test_apery_small(self):
        # direct-sum oracle: A(1) = 1 + 1*4, A(2) by the same sum
        assert apery(0) == 1
        assert apery(1) == 5
        assert apery(2) == 73
        direct = sum(math.comb(2, k) ** 2 * math.comb(2 + k, k) ** 2 for k in range(3))
        assert direct == 73

    def test_multivariate_examples(self):
        assert apery_multivariate((0, 0, 0, 0)) == 1
        assert apery_multivariate((2, 2, 2, 2)) == apery(2) == 73
        assert apery_multivariate((1, 0, 1, 0)) == 1

    def test_multivariate_diagonal(self):
        for n in range(6):
            assert apery_multivariate((n, n, n, n)) == apery(n)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.integers(0, 40)] * 4))
    def test_multivariate_term_ratio_matches_four_binomials(self, n):
        n1, n2, n3, n4 = n
        want = sum(math.comb(n1, k) * math.comb(n3, k)
                   * math.comb(n1 + n2 - k, n1) * math.comb(n3 + n4 - k, n3)
                   for k in range(min(n1, n3) + 1))
        assert apery_multivariate(n) == want

    def test_lambda_mu(self):
        assert apery_lambda_mu(3, 2, 2) == apery(3)
        assert apery_lambda_mu(5, 3, 0) == sum(math.comb(5, k) ** 3 for k in range(6))

    def test_almkvist_zudilin(self):
        assert almkvist_zudilin(0) == 1
        assert almkvist_zudilin(1) == -3
        assert almkvist_zudilin(3) == -27 + 24
        assert [almkvist_zudilin(n) for n in range(7)] == [1, -3, 9, -3, -279, 2997, -19431]


class TestDiagonalOracles:
    def test_apery_rf_examples(self):
        assert apery_diagonal_oracle((0, 0, 0, 0)) == 1
        assert apery_diagonal_oracle((1, 1, 1, 1)) == apery(1) == 5
        assert apery_diagonal_oracle((2, 1, 1, 2)) == apery_multivariate((2, 1, 1, 2))

    def test_apery_rf_guard(self):
        with pytest.raises(ValueError):
            apery_diagonal_oracle((5, 5, 5, 5))

    def test_matches_binomial_sum(self):
        for n in itertools.product(range(3), repeat=4):
            if sum(n) <= 8:
                assert apery_diagonal_oracle(n) == apery_multivariate(n), n

    def test_az_rf_cross_check(self):
        for n in range(4):
            assert az_diagonal_oracle(n) == almkvist_zudilin(n)


class TestQAnalogs:
    def test_binform_examples(self):
        assert apery_q_krz_binform(0) == 1
        assert apery_q_krz_binform(1) == LaurentPoly({0: 1, 1: 3, 2: 1})
        assert apery_q_krz_binform(2)(1) == 73

    def test_binform_specializes_to_apery(self):
        for n in range(9):
            assert apery_q_krz_binform(n)(1) == apery(n)

    def test_binform_self_reciprocal(self):
        for n in range(7):
            f = apery_q_krz_binform(n)
            assert f.reciprocal_reflect(2 * n * n) == f

    def test_binform_integer_coefficients(self):
        assert apery_q_krz_binform(3).has_integer_coefficients()

    def test_zheng_examples(self):
        assert apery_q_zheng(0) == 1
        assert apery_q_zheng(1) == LaurentPoly({-1: 1, 0: 3, 1: 1})
        assert apery_q_zheng(2)(1) == 73

    def test_zheng_is_shifted_binform(self):
        for n in range(9):
            assert apery_q_zheng(n) == q_power(-n * n) * apery_q_krz_binform(n)


class TestPartialFractionCoefficients:
    def test_examples(self):
        assert krz_partial_fraction_coeff(0, 0) == 1
        expected = q_power(-2) * (1 + q_power(1)) ** 2
        assert krz_partial_fraction_coeff(1, 1) == expected

    def test_squared_pochhammer_ratio(self):
        # a_q(n,k) * ((q^-1;q^-1)_k^2 (q;q)_{n-k})^2 == ((q^-1;q^-1)_{n+k})^2
        for n in range(7):
            for k in range(n + 1):
                denom = q_pochhammer(-1, k, inverted_base=True) ** 2 * q_pochhammer(1, n - k)
                lhs = krz_partial_fraction_coeff(n, k) * denom ** 2
                rhs = q_pochhammer(-1, n + k, inverted_base=True) ** 2
                assert lhs == rhs, (n, k)

    def test_reconstruction(self):
        # sum_k a_q(n,k) q^-k recovers the Laurent q-analog; shifting by
        # q^(n(2n+1)) recovers the binomial form
        for n in range(6):
            krz = apery_q_krz(n)
            total = LaurentPoly()
            for k in range(n + 1):
                total = total + krz_partial_fraction_coeff(n, k) * q_power(-k)
            assert total == krz
            assert q_power(n * (2 * n + 1)) * krz == apery_q_krz_binform(n)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            krz_partial_fraction_coeff(2, 3)


class TestAlphaRegistry:
    def test_builtins_listed(self):
        names = [a.name for a in list_alphas()]
        assert names == sorted(names)
        assert {"ksq", "kn23", "nksq", "kk2n"} <= set(names)

    def test_get_alpha(self):
        assert get_alpha("ksq") is get_alpha(get_alpha("ksq"))
        with pytest.raises(ValueError):
            get_alpha("nope")

    def test_boundary_invariant(self):
        for alpha in list_alphas():
            dims = alpha.arity or 4
            for k in range(-10, 11):
                assert alpha((0,) * dims, k) == k * k, (alpha.name, k)

    def test_homogeneity_invariant(self):
        rng = random.Random(314)
        for alpha in list_alphas():
            dims = alpha.arity or 4
            samples = [tuple(rng.randint(0, 6) for _ in range(dims)) for _ in range(40)]
            samples += list(itertools.product(range(3), repeat=dims))
            for n in samples:
                for k in range(0, 7):
                    base = alpha(n, k)
                    for m in range(1, 7):
                        assert alpha(tuple(m * x for x in n), m * k) == m * m * base

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            AlphaExponent("cubic", 1, "k^3", lambda n, k: k ** 3)
        with pytest.raises(ValueError):
            AlphaExponent("inhomogeneous", 1, "k^2+n", lambda n, k: k * k + n[0])


class TestWeightedMultivariate:
    def test_trivial(self):
        assert apery_q_multivariate((0, 0, 0, 0), "ksq") == 1
        assert apery_q_multivariate((0, 0, 0, 0), "kn23") == 1

    def test_specializes_at_q1(self):
        for n in itertools.product(range(3), repeat=4):
            for alpha in ("ksq", "kn23"):
                assert apery_q_multivariate(n, alpha)(1) == apery_multivariate(n), n

    def test_diagonal_ksq_equals_binform(self):
        # reindexing k -> n-k in the binomial form gives the k^2 weight
        for n in range(5):
            t = (n, n, n, n)
            assert apery_q_multivariate(t, "ksq") == apery_q_krz_binform(n)

    def test_diagonal_self_reciprocal(self):
        for n in range(4):
            t = (n, n, n, n)
            f = apery_q_multivariate(t, "ksq")
            assert f.reciprocal_reflect(2 * n * n) == f

    def test_off_diagonal_self_reciprocal(self):
        # degree n1 n2 + n3 n4 for the k^2 weight
        for n in ((1, 2, 1, 1), (2, 1, 1, 2), (1, 1, 2, 3)):
            f = apery_q_multivariate(n, "ksq")
            d = n[0] * n[1] + n[2] * n[3]
            assert f.reciprocal_reflect(d) == f

    def test_arity_guard(self):
        with pytest.raises(ValueError):
            apery_q_multivariate((1, 1, 1, 1), "nksq")

    def test_integer_coefficients(self):
        assert apery_q_multivariate((2, 2, 2, 2), "ksq").has_integer_coefficients()


class TestCorrections:
    def test_multivariate_examples(self):
        assert correction_R_multivariate((0, 0, 0, 0)) == 0
        assert correction_R_multivariate((1, 1, 1, 1)) == 5
        assert correction_R_multivariate((2, 2, 2, 2)) == 4 * 73

    def test_half_integer_values(self):
        n = (1, 1, 0, 0)
        assert correction_R_multivariate(n) == Fraction(1, 2) * apery_multivariate(n)

    def test_lambda_mu_apery_case(self):
        # (lambda, mu) = (2, 2): c = n^2, so R = n^2 A(n)
        for n in range(5):
            assert correction_R_lambda_mu(n, 2, 2) == n * n * apery(n)

    def test_lambda_mu_central_case(self):
        # (lambda, mu) = (2, 0): R = sum (n^2 - nk) C(n,k)^2 = (n^2/2) C(2n,n)
        for n in range(9):
            direct = sum((n * n - n * k) * math.comb(n, k) ** 2 for k in range(n + 1))
            assert correction_R_lambda_mu(n, 2, 0) == direct
            assert direct == Fraction(n * n, 2) * math.comb(2 * n, n)

    def test_zero(self):
        assert correction_R_lambda_mu(0, 3, 1) == 0


class TestLambdaMuQ:
    def test_central_binomial(self):
        # lambda=2, mu=0, alpha=k^2 collapses to the central Gaussian binomial
        for n in range(7):
            assert apery_q_lambda_mu(n, 2, 0, "ksq") == qbin(2 * n, n), n

    def test_binform_case(self):
        for n in range(5):
            assert apery_q_lambda_mu(n, 2, 2, "nksq") == apery_q_krz_binform(n)

    def test_n_zero(self):
        for lam, mu in ((2, 0), (3, 1), (4, 2)):
            assert apery_q_lambda_mu(0, lam, mu, "ksq") == 1

    def test_specializes_at_q1(self):
        for lam, mu in ((2, 1), (3, 0), (3, 2)):
            for n in range(5):
                assert apery_q_lambda_mu(n, lam, mu, "ksq")(1) == apery_lambda_mu(n, lam, mu)

    def test_validation(self):
        with pytest.raises(ValueError):
            apery_q_lambda_mu(2, 1, 0, "ksq")
        with pytest.raises(ValueError):
            apery_q_lambda_mu(2, 2, 0, "kn23")
