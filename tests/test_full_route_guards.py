"""Size guards of the checkers that build their statements in full:
``zheng-identity``, ``chu-vandermonde`` and ``classical-sc``, and the
``classical-sc`` families that take no lambda or mu.

Each guard is tested at the first size it refuses, with every builder made
to raise, so no oversized instance runs; the last admitted size is shown to
reach a builder.
"""

import itertools

import pytest

from qapery import checks, qcombinatorics
from qapery.checks import check_classical_supercongruences, check_zheng_identity
from qapery.cli import SweepSpec, main, run_sweep
from qapery.qcombinatorics import _composition_count, _compositions, check_q_chu_vandermonde
from qapery.reports import RING_SIZE_GUARD, PreconditionError


class Built(Exception):
    """A builder was reached: the instance got past the guard."""


def builder(*args):
    raise Built()


@pytest.fixture
def builders_raise(monkeypatch):
    for name in ("_q_integer_cofactors", "qbin_pow", "apery", "apery_lambda_mu",
                 "almkvist_zudilin", "_is_prime"):
        monkeypatch.setattr(checks, name, builder)
    for name in ("qbin", "_compositions"):
        monkeypatch.setattr(qcombinatorics, name, builder)


def zheng_degree(n):
    # prod_{i<=2n} [i]_q has degree sum (i - 1)
    return sum(i - 1 for i in range(1, 2 * n + 1))


# (checker, first refused, its size, last admitted, its size)
GUARDS = [
    (check_zheng_identity, (129,), zheng_degree(129), (128,), zheng_degree(128)),
    # the degree b n (a n - b n) of C(an, bn)_q
    (check_q_chu_vandermonde, (2, 1, 182), 182 * 182, (2, 1, 181), 181 * 181),
    # a q-binomial factors in each of the a compositions of 1 into a parts
    (check_q_chu_vandermonde, (182, 1, 1), 182 * 182, (181, 1, 1), 181 * 181),
    # p n = 32769 = 11 * 2979 = 3 * 10923
    (check_classical_supercongruences, (11, 2979, "apery"), 11 * 2979,
     (11, 2978, "apery"), 11 * 2978),
    (check_classical_supercongruences, (3, 10923, "almkvist-zudilin"), 3 * 10923,
     (3, 10922, "almkvist-zudilin"), 3 * 10922),
    (check_classical_supercongruences, (11, 2979, "lambda-mu", 2, 1), 11 * 2979,
     (11, 2978, "lambda-mu", 2, 1), 11 * 2978),
]


@pytest.mark.parametrize("check, refused, refused_size, admitted, admitted_size", GUARDS,
                         ids=["zheng", "chu-degree", "chu-factors", "classical-apery",
                              "classical-az", "classical-lambda-mu"])
def test_first_refused_size(builders_raise, check, refused, refused_size, admitted, admitted_size):
    assert admitted_size <= RING_SIZE_GUARD < refused_size
    with pytest.raises(PreconditionError, match="size guard"):
        check(*refused)
    with pytest.raises(Built):
        check(*admitted)


@pytest.mark.parametrize("argv", [
    ["zheng-identity", "--n", "400"],
    ["chu-vandermonde", "--a", "40", "--b", "20", "--n", "40"],
    ["classical-sc", "--p", "100003", "--n", "50", "--family", "apery"],
])
def test_oversized_verify_is_a_usage_error(builders_raise, capsys, argv):
    assert main(["verify"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "size guard" in err


def test_compositions_are_counted_and_listed_in_order():
    for total, parts, cap in itertools.product(range(-1, 13), range(0, 6), range(0, 5)):
        want = [c for c in itertools.product(range(cap + 1), repeat=parts) if sum(c) == total]
        assert list(_compositions(total, parts, cap)) == want
        if parts:
            assert _composition_count(total, parts, cap) == len(want)


def test_many_parts_need_no_recursion():
    assert len(list(_compositions(1, 2000, 1))) == 2000
    assert check_q_chu_vandermonde(60, 59, 1).holds


# -- classical-sc: lambda and mu belong to the lambda-mu family ------------------


@pytest.mark.parametrize("family, p", [("apery", 5), ("almkvist-zudilin", 3)])
def test_lambda_or_mu_outside_the_lambda_mu_family_is_refused(family, p):
    for lam, mu in ((3, 1), (3, None), (None, 1)):
        with pytest.raises(PreconditionError, match="takes no lambda or mu"):
            check_classical_supercongruences(p, 1, family, lam, mu)
    assert check_classical_supercongruences(p, 1, family).holds


def test_verify_with_lambda_for_apery_exits_2(capsys):
    code = main(["verify", "classical-sc", "--p", "5", "--n", "1", "--family", "apery",
                 "--lambda", "3", "--mu", "1"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "takes no lambda or mu" in err


def test_a_sweep_gives_lambda_and_mu_to_the_lambda_mu_family_only():
    spec = SweepSpec("classical-sc", ranges={"p": (5, 5, 1), "n": (1, 2, 1), "lambda": (2, 2, 1),
                                             "mu": (1, 1, 1)},
                     choices={"family": ["lambda-mu", "apery", "almkvist-zudilin"]}, jobs=1)
    doc = run_sweep(spec)
    assert doc["summary"]["skipped"] == 0 and doc["summary"]["held"] == 6
    for row in doc["results"]:
        assert ("lambda" in row["params"]) == (row["params"]["family"] == "lambda-mu")
