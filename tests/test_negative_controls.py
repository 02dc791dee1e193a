"""Negative controls: every congruence checker must be able to fail.

Each case runs one checker on an instance that holds, then again with one
ingredient of the stated right-hand side perturbed (a correction factor
off by one, a Lucas factor C(a,r)+1, one exponent of q shifted),
and requires the perturbed run to report a failure with a nonzero residue
coefficient.  Every registered checker has at least one case.  A checker whose report ignored its residues would pass the
first run and fail the second.
"""

import pytest

from qapery import checks, qcombinatorics
from qapery.checks import run_named_check


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _plus_one_each(fn):
    return lambda *args: (t + 1 for t in fn(*args))


def _plus_argument(fn):
    # a constant offset cancels between F(p n) and F(n); an offset of x does not
    return lambda x: fn(x) + x


def _shift_first_exponent(q_power):
    calls = []

    def shifted(e):
        calls.append(e)
        return q_power(e + 1 if len(calls) == 1 else e)

    return shifted


CASES = [
    # (check, params, module, attribute, perturbation)
    ("ljunggren", {"n": 3, "a": 4, "b": 2}, checks, "binom", _plus_one),
    ("corollary", {"m": 3, "n": 2}, checks, "correction_R_lambda_mu", _plus_one),
    ("main", {"m": 2, "n1": 1, "n2": 1, "n3": 1, "n4": 1},
     checks, "correction_R_multivariate", _plus_one),
    ("generalized", {"m": 3, "n": 2, "lambda": 3, "mu": 1},
     checks, "correction_R_lambda_mu", _plus_one),
    ("s1s2", {"m": 2, "n1": 1, "n2": 1, "n3": 1, "n4": 1},
     checks, "_multivariate_terms", _plus_one_each),
    ("lucas", {"n": 3, "a": 2, "b": 1, "r": 1, "s": 1}, qcombinatorics, "binom", _plus_one),
    ("chu-vandermonde", {"a": 3, "b": 1, "n": 2},
     qcombinatorics, "q_power", _shift_first_exponent),
    ("wolstenholme-q", {"n": 3}, checks, "comb", _plus_one),
    ("qbin-prop", {"m": 3, "n": 2, "k": 1, "j": 1}, checks, "binom", _plus_one),
    # n = 5 would hide sp2: its right side has the factor (n - 5)
    ("harmonic-sp", {"n": 7, "which": "sp1"}, checks, "q_power", _shift_first_exponent),
    ("harmonic-sp", {"n": 7, "which": "sp2"}, checks, "q_power", _shift_first_exponent),
    ("harmonic-sp", {"n": 7, "which": "sp3"}, checks, "q_power", _shift_first_exponent),
    ("zheng-identity", {"n": 3}, checks, "qbin_pow", _plus_one),
    ("harmonic-classical", {"n": 3}, checks, "binom", _plus_one),
    ("classical-sc", {"p": 5, "n": 1, "family": "apery"}, checks, "apery", _plus_argument),
]


def _case_id(case):
    name, params = case[:2]
    return "%s-%s" % (name, params["which"]) if "which" in params else name


@pytest.mark.parametrize(
    "name, params, module, attribute, perturb", CASES, ids=[_case_id(c) for c in CASES])
def test_perturbed_statement_fails(monkeypatch, name, params, module, attribute, perturb):
    assert run_named_check(name, params).holds is True
    monkeypatch.setattr(module, attribute, perturb(getattr(module, attribute)))
    report = run_named_check(name, params)
    assert report.holds is False
    assert report.first_residue_coeff is not None
    assert report.first_residue_coeff != 0


def test_every_checker_has_a_case():
    assert {case[0] for case in CASES} == set(checks.CHECKS)
