"""q-integers, q-binomials (three routes), Pochhammer, and the Lucas /
convolution checks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qapery import qcombinatorics
from qapery.cyclotomic import Modulus, reduce_mod
from qapery.laurent import LaurentPoly, q, q_power
from qapery.qcombinatorics import (
    binom,
    check_q_chu_vandermonde,
    check_q_lucas,
    q_binomial,
    q_factorial,
    q_integer,
    q_pochhammer,
    qbin,
    qbin_cyclotomic_support,
)
from qapery.reports import PreconditionError


def P(terms):
    return LaurentPoly(terms)


def pascal_oracle(n, k, _memo={}):
    """Independent Gaussian binomial via the recurrence
    C(n,k) = C(n-1,k-1) + q^k C(n-1,k)."""
    if k < 0 or k > n:
        return LaurentPoly()
    if k == 0 or k == n:
        return LaurentPoly.one()
    key = (n, k)
    if key not in _memo:
        _memo[key] = pascal_oracle(n - 1, k - 1) + q_power(k) * pascal_oracle(n - 1, k)
    return _memo[key]


class TestQIntegers:
    def test_q_integer(self):
        assert q_integer(0) == LaurentPoly()
        assert q_integer(1) == 1
        assert q_integer(4) == P({0: 1, 1: 1, 2: 1, 3: 1})

    def test_q_factorial(self):
        assert q_factorial(0) == 1
        assert q_factorial(2) == 1 + q
        assert q_factorial(3) == q_integer(2) * q_integer(3)
        assert q_factorial(3) == P({0: 1, 1: 2, 2: 2, 3: 1})

    def test_q_integer_product_rule(self):
        # [ab]_q = [a]_{q^b} [b]_q and [a+b]_q = [a]_q + q^a [b]_q
        for a in range(1, 13):
            for b in range(1, 13):
                assert q_integer(a * b) == q_integer(a).substitute_power(b) * q_integer(b)
                assert q_integer(a + b) == q_integer(a) + q_power(a) * q_integer(b)

    def test_q_integer_cyclotomic_factorization(self):
        for n in range(1, 31):
            product = LaurentPoly.one()
            from qapery.cyclotomic import cyclotomic
            for d in range(2, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert q_integer(n) == product


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(2, 1) == 1 + q
        assert q_binomial(4, 2) == pascal_oracle(4, 2)
        assert q_binomial(4, 2) == P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert q_binomial(5, 7) == 0
        assert q_binomial(5, -1) == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            q_binomial(4, 2, "magic")

    def test_three_methods_agree(self):
        for n in range(0, 31):
            for k in range(0, n + 1):
                a = q_binomial(n, k, "factorial")
                b = q_binomial(n, k, "pascal")
                c = q_binomial(n, k, "cyclotomic")
                assert a == b == c == qbin(n, k), (n, k)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 60), st.integers(-3, 63))
    def test_row_recurrence_matches_pascal(self, n, k):
        assert qbin(n, k) == q_binomial(n, k, "pascal")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 24), st.integers(-2, 26), st.booleans()),
                    max_size=30))
    def test_resumed_rows_match_pascal(self, requests):
        # mirrors and neighbours on one row make most misses resume from a
        # cached step; every entry must stay as first stored
        with pytest.MonkeyPatch.context() as mp:
            cache = {}
            mp.setattr(qcombinatorics, "_QBIN_CACHE", cache)
            stored = {}
            for n, k, mirror in requests:
                if mirror:
                    k = n - k
                miss = 0 <= k <= n and (n, k) not in cache
                size = len(cache)
                assert qbin(n, k) == q_binomial(n, k, "pascal"), (n, k)
                assert len(cache) == size + miss
                if miss:
                    stored[n, k] = list(cache[n, k].terms())
            assert {key: list(value.terms()) for key, value in cache.items()} == stored

    @pytest.mark.parametrize("planted", [(20, 9), (20, 11)])
    def test_a_miss_reads_its_cached_step(self, monkeypatch, planted):
        # C(21, 11)_q = C(21, 10)_q passes through C(20, 9)_q = C(20, 11)_q;
        # a wrong value planted under either key must show in the result
        monkeypatch.setattr(qcombinatorics, "_QBIN_CACHE",
                            {planted: q_binomial(20, 9, "pascal") + q_power(3)})
        assert qbin(21, 11) != q_binomial(21, 11, "pascal")
        assert qbin(21, 12) == q_binomial(21, 12, "pascal")

    def test_cyclotomic_oracle_is_not_cached(self):
        before = dict(qcombinatorics._QBIN_CACHE)
        for n, k in ((0, 0), (7, 3), (97, 40)):
            q_binomial(n, k, "cyclotomic")
        assert qcombinatorics._QBIN_CACHE == before

    def test_self_reciprocal(self):
        for n in range(0, 31):
            for k in range(0, n + 1):
                f = q_binomial(n, k)
                assert f.reciprocal_reflect(k * (n - k)) == f

    def test_specializes_to_binomial(self):
        for n in range(0, 31):
            for k in range(0, n + 1):
                assert q_binomial(n, k)(1) == math.comb(n, k)

    def test_central_binomial_identity(self):
        # sum_k q^(k^2) C(n,k)_q^2 == C(2n,n)_q
        for n in range(0, 11):
            total = LaurentPoly()
            for k in range(n + 1):
                total = total + q_power(k * k) * q_binomial(n, k) ** 2
            assert total == q_binomial(2 * n, n)


class TestSupportSets:
    def test_examples(self):
        assert qbin_cyclotomic_support(4, 2) == {3, 4}
        for n in (1, 5, 9):
            assert qbin_cyclotomic_support(n, 0) == set()
        assert 5 in qbin_cyclotomic_support(5, 2)

    def test_phi_n_divides_strict_binomials(self):
        for n in range(2, 16):
            for k in range(1, n):
                assert n in qbin_cyclotomic_support(n, k)

    def test_product_reconstructs(self):
        from qapery.cyclotomic import cyclotomic
        for n in range(0, 16):
            for k in range(0, n + 1):
                product = LaurentPoly.one()
                for d in sorted(qbin_cyclotomic_support(n, k)):
                    product = product * cyclotomic(d)
                assert product == pascal_oracle(n, k)


class TestPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(1, 0) == 1

    def test_definition(self):
        assert q_pochhammer(1, 2) == (1 - q) * (1 - q**2)

    def test_inverted_base(self):
        assert q_pochhammer(-1, 2, inverted_base=True) == (1 - q_power(-1)) * (1 - q_power(-2))

    def test_transformation_formula(self):
        # (q; q)_n == (-1)^n q^(n(n+1)/2) (q^-1; q^-1)_n
        for n in range(0, 11):
            lhs = q_pochhammer(1, n)
            rhs = (-1) ** n * q_power(n * (n + 1) // 2) * q_pochhammer(-1, n, inverted_base=True)
            assert lhs == rhs


class TestQLucas:
    def test_small_instance(self):
        # C(5,2)_q(-1) == 2 is the reduction mod Phi_2
        assert q_binomial(5, 2)(-1) == 2
        assert check_q_lucas(2, 2, 1, 1, 0).holds

    def test_trivial_instance(self):
        assert check_q_lucas(3, 1, 0, 1, 0).holds

    def test_larger_instance(self):
        report = check_q_lucas(5, 2, 4, 1, 3)
        assert report.holds
        # independent reduction of the same statement
        mod = Modulus(5, 1)
        diff = q_binomial(2 * 5 + 4, 1 * 5 + 3) - binom(2, 1) * q_binomial(4, 3)
        assert reduce_mod(diff, mod).is_zero()

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_q_lucas(2, 1, 2, 0, 0)  # b >= n
        with pytest.raises(PreconditionError):
            check_q_lucas(0, 1, 0, 1, 0)

    def test_report_fields(self):
        report = check_q_lucas(2, 2, 1, 1, 0)
        assert report.check_name == "lucas"
        assert report.modulus == "Phi(2)^1"
        assert report.residue_at_one == 0
        assert report.parameters == {"n": 2, "a": 2, "b": 1, "r": 1, "s": 0}


class TestQChuVandermonde:
    def test_hand_enumeration(self):
        # a=2, b=1, n=1: compositions (0,1) and (1,0) give q + 1
        report = check_q_chu_vandermonde(2, 1, 1)
        assert report.holds
        total = q_power(1 * 1 - 0) * q_binomial(1, 0) * q_binomial(1, 1) + q_binomial(1, 1) * q_binomial(1, 0)
        assert total == q_binomial(2, 1)

    def test_reproduces_central_binomial(self):
        assert check_q_chu_vandermonde(2, 1, 2).holds

    def test_a3(self):
        assert check_q_chu_vandermonde(3, 1, 2).holds

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_q_chu_vandermonde(2, 3, 2)  # b*n > a*n
