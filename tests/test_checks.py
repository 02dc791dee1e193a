"""Theorem checkers: spec instances, precondition handling, report contract."""

import random
from fractions import Fraction

import pytest

from qapery import checks
from qapery.checks import (
    CHECKS,
    check_classical_supercongruences,
    check_corollary,
    check_generalized_theorem,
    check_harmonic_identity_classical,
    check_harmonic_sp,
    check_ljunggren_q,
    check_main_theorem,
    check_qbin_prop,
    check_s1_s2_decomposition,
    check_wolstenholme_q,
    check_zheng_identity,
    run_named_check,
)
from qapery.cyclotomic import Modulus, congruent, integer_coefficient_check
from qapery.laurent import q_power
from qapery.qcombinatorics import binom, qbin
from qapery.reports import PreconditionError
from qapery.sequences import apery, apery_q_krz_binform


class TestLjunggren:
    def test_n2_wolstenholme_case(self):
        assert check_ljunggren_q(2, 2, 1).holds

    def test_equal_indices_trivial(self):
        for a in range(4):
            assert check_ljunggren_q(3, a, a).holds

    def test_n1_trivial(self):
        assert check_ljunggren_q(1, 4, 2).holds

    def test_b_larger_than_a(self):
        assert check_ljunggren_q(2, 1, 3).holds  # both sides vanish

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_ljunggren_q(0, 2, 1)

    def test_agrees_with_wolstenholme(self):
        # a=2, b=1 is the central-binomial case: same statement as the
        # dedicated checker, including the right-hand sides
        from qapery.qcombinatorics import q_integer
        for n in range(1, 13):
            assert check_ljunggren_q(n, 2, 1).holds
            assert check_wolstenholme_q(n).holds
            rhs_lj = qbin(2, 1).substitute_power(n * n) - Fraction(2 * (n * n - 1), 24) * (q_power(n) - 1) ** 2
            rhs_w = q_integer(2).substitute_power(n * n) - Fraction(n * n - 1, 12) * (q_power(n) - 1) ** 2
            assert rhs_lj == rhs_w


class TestWolstenholme:
    def test_instances(self):
        for n in (1, 2, 6, 9, 12):
            report = check_wolstenholme_q(n)
            assert report.holds
            assert report.modulus == "Phi(%d)^3" % n


class TestHarmonicSp:
    def test_sp1_n2(self):
        assert check_harmonic_sp(2, "sp1").holds

    def test_sp2_n3(self):
        assert check_harmonic_sp(3, "sp2").holds

    def test_sp3_empty_sum(self):
        assert check_harmonic_sp(2, "sp3").holds

    def test_composite_indices(self):
        for n in (4, 6, 9, 12):
            for which in ("sp1", "sp2", "sp3"):
                assert check_harmonic_sp(n, which).holds, (n, which)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_harmonic_sp(1, "sp1")
        with pytest.raises(PreconditionError):
            check_harmonic_sp(3, "sp9")


class TestQbinProp:
    def test_exact_small_case(self):
        assert check_qbin_prop(2, 1, 0, 1).holds

    def test_instances(self):
        assert check_qbin_prop(3, 2, 1, 1).holds
        assert check_qbin_prop(5, 1, 0, 3).holds

    def test_n_zero(self):
        assert check_qbin_prop(4, 0, 1, 2).holds

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_qbin_prop(3, 2, 1, 3)  # j == m
        with pytest.raises(PreconditionError):
            check_qbin_prop(3, 2, 1, 0)  # j == 0


class TestMainTheorem:
    def test_m1_identically_true(self):
        rng = random.Random(8)
        for _ in range(12):
            n = tuple(rng.randint(0, 4) for _ in range(4))
            for alpha in ("ksq", "kn23"):
                report = check_main_theorem(1, n, alpha)
                assert report.holds, (n, alpha)

    def test_instances(self):
        assert check_main_theorem(2, (1, 1, 1, 1), "ksq").holds
        assert check_main_theorem(3, (2, 1, 1, 2), "kn23").holds

    def test_report_parameters(self):
        report = check_main_theorem(2, (1, 0, 2, 1), "ksq")
        assert report.parameters == {"m": 2, "n1": 1, "n2": 0, "n3": 2, "n4": 1, "alpha": "ksq"}
        assert report.modulus == "Phi(2)^3"


class TestCorollary:
    def test_m1(self):
        assert check_corollary(1, 3).holds

    def test_m2_n1(self):
        assert check_corollary(2, 1).holds

    def test_m5_specializes_to_integer_congruence(self):
        assert check_corollary(5, 1).holds
        # q = 1 pathway: difference has integer coefficients and value
        # A(5) - A(1), divisible by 5^3
        m, n = 5, 1
        diff = (
            apery_q_krz_binform(m * n)
            - apery_q_krz_binform(n).substitute_power(m * m)
            + Fraction(m * m - 1, 12) * n * n * apery(n) * (q_power(m) - 1) ** 2
        )
        assert integer_coefficient_check(diff)
        assert diff(1) == apery(5) - apery(1)
        assert diff(1) % 125 == 0


class TestGeneralized:
    def test_central_reduction(self):
        assert check_generalized_theorem(2, 1, 2, 0, "ksq").holds

    def test_lambda3_mu1(self):
        assert check_generalized_theorem(2, 1, 3, 1, "ksq").holds

    def test_m1(self):
        assert check_generalized_theorem(1, 3, 4, 2, "ksq").holds

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_generalized_theorem(2, 1, 1, 0, "ksq")
        with pytest.raises(PreconditionError):
            check_generalized_theorem(2, 1, 2, -1, "ksq")


class TestS1S2:
    def test_m1_whole_sum(self):
        assert check_s1_s2_decomposition(1, (2, 1, 0, 2), "ksq").holds

    def test_instances(self):
        assert check_s1_s2_decomposition(2, (1, 1, 1, 1), "ksq").holds
        assert check_s1_s2_decomposition(3, (1, 1, 1, 1), "kn23").holds

    def test_each_summand_built_once(self, monkeypatch):
        # S1/S2 are reduced from the specs of A_q(8,8,8,8) and build none of
        # its 9 summands; the 3 specs of the base A_q(2,2,2,2) are read in
        # closed form by one _cube_rhs call, with no kernel call of their own
        from qapery import sequences

        built, reads, moduli = [], [], []
        summand, kernel = sequences._summand, checks.binomial_sum_residue
        cube_rhs = checks._cube_rhs

        def counting(*args):
            built.append(args)
            return summand(*args)

        def recording(terms, rhs, m, k):
            moduli.append((m, k))
            return kernel(terms, rhs, m, k)

        def reading(m, base, c):
            reads.append(base)
            return cube_rhs(m, base, c)

        monkeypatch.setattr(sequences, "_summand", counting)
        monkeypatch.setattr(checks, "binomial_sum_residue", recording)
        monkeypatch.setattr(checks, "_cube_rhs", reading)
        assert check_s1_s2_decomposition(4, (2, 2, 2, 2), "ksq").holds
        specs = sequences.apery_q_multivariate_terms((2, 2, 2, 2), "ksq")
        assert built == []
        assert reads == [specs]
        assert moduli == [(4, 3)] * 2


class TestIdentities:
    def test_harmonic_classical_hand_value(self):
        # n = 1: the k = 1 term is 4 * (1 + 2 H_2 - 4 H_1) = 4 * (1 + 3 - 4) = 0
        h2 = Fraction(3, 2)
        assert 1 + 2 * h2 + 2 * 0 - 4 * 1 == 0
        assert check_harmonic_identity_classical(1).holds

    def test_harmonic_classical_range(self):
        for n in (2, 5, 10):
            assert check_harmonic_identity_classical(n).holds

    def test_zheng_identity(self):
        for n in (1, 2, 4):
            report = check_zheng_identity(n)
            assert report.holds
            assert report.modulus == "identity"

    def test_zheng_perturbed_report_matches_q1_oracle(self, monkeypatch):
        # with qbin_pow + 1 the identity fails; at q = 1 each q-binomial
        # power is an ordinary one and H_q, q H_{1/q} are ordinary harmonic
        # numbers, so the residue at one is a plain Fraction sum
        qbin_pow = checks.qbin_pow
        monkeypatch.setattr(checks, "qbin_pow", lambda *args: qbin_pow(*args) + 1)
        harmonic = [Fraction(0)]
        for i in range(1, 13):
            harmonic.append(harmonic[-1] + Fraction(1, i))
        for n in range(1, 7):
            expected = sum(
                (binom(n, k) ** 2 + 1) * (binom(n + k, k) ** 2 + 1)
                * (2 * harmonic[k] - harmonic[n + k] - harmonic[n - k])
                for k in range(n + 1))
            report = check_zheng_identity(n)
            assert not report.holds
            assert report.residue_at_one == expected
            assert report.first_residue_coeff == (-4 if n == 1 else 4)


class TestClassicalSupercongruences:
    def test_apery_p5(self):
        report = check_classical_supercongruences(5, 1, "apery")
        assert report.holds
        assert (apery(5) - apery(1)) % 125 == 0

    def test_lambda_mu(self):
        assert check_classical_supercongruences(7, 1, "lambda-mu", 3, 1).holds

    def test_az_p3(self):
        report = check_classical_supercongruences(3, 1, "almkvist-zudilin")
        assert report.holds

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            check_classical_supercongruences(4, 1, "apery")  # not prime
        with pytest.raises(PreconditionError):
            check_classical_supercongruences(3, 1, "apery")  # p < 5
        with pytest.raises(PreconditionError):
            check_classical_supercongruences(2, 1, "almkvist-zudilin")
        with pytest.raises(PreconditionError):
            check_classical_supercongruences(5, 1, "lambda-mu")  # missing lambda/mu
        with pytest.raises(PreconditionError):
            check_classical_supercongruences(5, 1, "fibonacci")


class TestRegistry:
    def test_run_named_check(self):
        report = run_named_check("corollary", {"m": 2, "n": 1})
        assert report.holds

    def test_run_named_check_lambda_params(self):
        report = run_named_check(
            "generalized", {"m": 2, "n": 1, "lambda": 3, "mu": 1, "alpha": "ksq"})
        assert report.holds
        report = run_named_check(
            "classical-sc", {"p": 5, "n": 1, "family": "lambda-mu", "lambda": 2, "mu": 1})
        assert report.holds

    def test_unknown_check(self):
        with pytest.raises(KeyError):
            run_named_check("riemann", {})

    def test_registry_names(self):
        expected = {
            "ljunggren", "wolstenholme-q", "harmonic-sp", "lucas",
            "chu-vandermonde", "qbin-prop", "main", "corollary",
            "generalized", "s1s2", "harmonic-classical", "zheng-identity",
            "classical-sc",
        }
        assert set(CHECKS) == expected

    def test_report_row_shape(self):
        row = run_named_check("wolstenholme-q", {"n": 2}).to_row()
        assert set(row) == {"check", "params", "modulus", "holds", "residue_at_one", "elapsed_ms",
                            "first_residue_coeff"}
        assert row["holds"] is True
        assert row["residue_at_one"] == "0" and row["first_residue_coeff"] is None
        assert isinstance(row["elapsed_ms"], int)


class TestFailureReporting:
    def test_failing_congruence_reports_residue(self):
        # a deliberately false statement: q == 1 mod Phi_2
        from qapery.checks import _finish_poly
        from qapery.cyclotomic import reduce_mod
        from qapery.laurent import LaurentPoly, q
        import time

        residue = reduce_mod(q - 1, Modulus(2, 1))
        assert residue == LaurentPoly({0: -2})
        report = _finish_poly("demo", {"n": 1}, [residue], "Phi(2)^1", time.perf_counter())
        assert not report.holds
        assert report.residue_at_one == -2
        assert report.first_residue_coeff == -2

    def test_holding_report_zeroes_diagnostics(self):
        report = check_harmonic_identity_classical(1)
        assert report.residue_at_one == 0
        assert report.first_residue_coeff is None
