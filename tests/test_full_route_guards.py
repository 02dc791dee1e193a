"""The work budget: one estimate per route against ``reports.WORK_BUDGET``.

Every route is tested at the first instance of a ladder that its estimate
refuses and at the last one it admits, with every builder made to raise:
the polynomial and integer builders, the integer corrections of the
Phi_m^3 theorems, the kernel, ``ResidueRing``, ``cyclotomic`` and
``Modulus``.  So nothing oversized runs, and an admitted instance shows
that it got past the budget by reaching a builder.  Each
estimate never decreases in any one parameter, but a q-binomial's bottom
index, in which the work is symmetric (C(t, b) = C(t, t - b)).
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qapery import checks, cli, qcombinatorics
from qapery.checks import (check_classical_supercongruences, check_corollary,
                           check_generalized_theorem, check_harmonic_identity_classical,
                           check_harmonic_sp, check_ljunggren_q,
                           check_main_theorem, check_qbin_prop, check_s1_s2_decomposition,
                           check_wolstenholme_q, check_zheng_identity)
from qapery.cli import SweepSpec, main, run_sweep
from qapery.qcombinatorics import (_composition_count, _compositions, check_q_chu_vandermonde,
                                   check_q_lucas)
from qapery.reports import PreconditionError


class Built(Exception):
    """A builder was reached: the instance got past the budget."""


def builder(*args):
    raise Built()


@pytest.fixture
def builders_raise(monkeypatch):
    for name in ("_q_integer_cofactors", "qbin_pow", "apery", "apery_lambda_mu", "binom",
                 "almkvist_zudilin", "_is_prime", "correction_R_lambda_mu",
                 "correction_R_multivariate", "binomial_sum_residue", "ResidueRing", "Modulus"):
        monkeypatch.setattr(checks, name, builder)
    for name in ("qbin", "_compositions", "cyclotomic", "Modulus"):
        monkeypatch.setattr(qcombinatorics, name, builder)
    for target, (arity, _, work) in cli._COMPUTE.items():
        monkeypatch.setitem(cli._COMPUTE, target, (arity, builder, work))


def compute(target):
    """The ``compute`` target as a function, which raises its exit-2 error."""
    def run(*args):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["compute", target] + [str(a) for a in args])
        if code == 2:
            raise PreconditionError(err.getvalue())
    return run


# (ladder, route, its arguments at rung x, the first rung refused); the rung
# before it is the last admitted.
EDGES = [
    ("corollary-m16", check_corollary, lambda x: (16, x), 1404),
    ("corollary-m2", check_corollary, lambda x: (2, x), 2758),
    ("corollary-m1", check_corollary, lambda x: (1, x), 3242),
    ("corollary-m64", check_corollary, lambda x: (64, x), 805),
    ("corollary-n4", check_corollary, lambda x: (x, 4), 1076),
    ("main", check_main_theorem, lambda x: (16, (x, x, x, x)), 1103),
    ("s1s2", check_s1_s2_decomposition, lambda x: (16, (x, x, x, x)), 1103),
    ("generalized-lambda", check_generalized_theorem, lambda x: (3, 2, x, 0), 759855),
    ("generalized-mu", check_generalized_theorem, lambda x: (3, 2, 2, x), 379926),
    ("generalized-lambda-mu", check_generalized_theorem, lambda x: (3, 2, x, x), 189964),
    ("ljunggren", check_ljunggren_q, lambda x: (16, x, 1), 1710092),
    ("ljunggren-modulus", check_ljunggren_q, lambda x: (x, 0, 0), 7654),
    ("wolstenholme-q", check_wolstenholme_q, lambda x: (x,), 5399),
    ("qbin-prop", check_qbin_prop, lambda x: (x, 2, 1, 1), 8082),
    ("qbin-prop-j", check_qbin_prop, lambda x: (x, 2, 1, 2), 2742),
    ("qbin-prop-modulus", check_qbin_prop, lambda x: (x, 0, 0, 1), 8083),
    ("harmonic-sp1", check_harmonic_sp, lambda x: (x, "sp1"), 829),
    ("harmonic-sp2", check_harmonic_sp, lambda x: (x, "sp2"), 659),
    ("harmonic-sp3", check_harmonic_sp, lambda x: (x, "sp3"), 659),
    ("lucas", check_q_lucas, lambda x: (2, x, 0, 4, 1), 16467),
    ("lucas-modulus", check_q_lucas, lambda x: (x, 0, 0, 0, 0), 23095),
    ("zheng", check_zheng_identity, lambda x: (x,), 38),
    ("harmonic-classical", check_harmonic_identity_classical, lambda x: (x,), 3494),
    ("chu-degree", check_q_chu_vandermonde, lambda x: (2, 1, x), 121),
    ("chu-factors", check_q_chu_vandermonde, lambda x: (x, 1, 1), 1788),
    ("classical-apery", check_classical_supercongruences, lambda x: (11, x, "apery"), 455),
    ("classical-az", check_classical_supercongruences,
     lambda x: (3, x, "almkvist-zudilin"), 1738),
    ("classical-lambda-mu", check_classical_supercongruences,
     lambda x: (11, x, "lambda-mu", 2, 1), 457),
    ("classical-lambda", check_classical_supercongruences,
     lambda x: (5, 1, "lambda-mu", x, 1), 4488547),
    ("compute-apery", compute("apery"), lambda x: (x,), 5000),
    ("compute-apery-q", compute("apery-q"), lambda x: (x,), 64),
    ("compute-zheng", compute("zheng"), lambda x: (x,), 64),
    ("compute-az", compute("az"), lambda x: (x,), 5259),
    ("compute-qbinom", compute("qbinom"), lambda x: (2 * x, x), 417),
    ("compute-cyclotomic", compute("cyclotomic"), lambda x: (x,), 23095),
    ("compute-multivariate", compute("multivariate"), lambda x: (x, x, x, x), 4000),
]


@pytest.mark.parametrize("route, args, refused", [e[1:] for e in EDGES], ids=[e[0] for e in EDGES])
def test_first_refused_size(builders_raise, capsys, route, args, refused):
    with pytest.raises(PreconditionError, match="work budget"):
        route(*args(refused))
    with pytest.raises(Built):
        route(*args(refused - 1))


@pytest.mark.parametrize("route, args", [
    (check_zheng_identity, (128,)), (check_classical_supercongruences, (11, 2979, "apery")),
    (check_classical_supercongruences, (5, 1, "lambda-mu", 10 ** 7, 1)),
    (check_q_lucas, (30030, 0, 0, 0, 0)), (check_ljunggren_q, (30030, 0, 0)),
    (check_qbin_prop, (30030, 0, 0, 1)), (compute("apery-q"), (90,)),
    (compute("qbinom"), (1000, 500)), (compute("cyclotomic"), (30030,)),
])
def test_the_stated_slow_instances_are_refused(builders_raise, capsys, route, args):
    with pytest.raises(PreconditionError, match="work budget"):
        route(*args)


@pytest.mark.parametrize("argv", [
    ["zheng-identity", "--n", "400"],
    ["chu-vandermonde", "--a", "40", "--b", "20", "--n", "40"],
    ["classical-sc", "--p", "100003", "--n", "50", "--family", "apery"],
])
def test_oversized_verify_is_a_usage_error(builders_raise, capsys, argv):
    assert main(["verify"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "work budget" in err


# -- each estimate never decreases in any one parameter ---------------------------


class Estimated(Exception):
    pass


@pytest.fixture
def estimates(monkeypatch):
    """Make every route stop at its first estimate, and return the work."""
    def admit(work, what):
        raise Estimated(work)

    for module in (checks, qcombinatorics, cli):
        monkeypatch.setattr(module, "admit", admit)

    def work(route, args):
        with pytest.raises(Estimated) as stop:
            route(*args)
        return stop.value.args[0]
    return work


small = st.integers(1, 60)
# route -> (the route, its arguments, the positions of a q-binomial's bottom index)
ROUTES = {
    "corollary": (check_corollary, (small, small), ()),
    "generalized": (check_generalized_theorem,
                    (small, small, st.integers(2, 60), st.integers(0, 60)), ()),
    "main": (lambda m, *n: check_main_theorem(m, n), (small,) * 5, ()),
    "s1s2": (lambda m, *n: check_s1_s2_decomposition(m, n), (small,) * 5, ()),
    "ljunggren": (check_ljunggren_q, (small, small, small), (2,)),
    "wolstenholme-q": (check_wolstenholme_q, (small,), ()),
    "qbin-prop": (lambda m, n, k, j: check_qbin_prop(m + j, n, k, j), (small,) * 4, ()),
    "harmonic-sp": (lambda n, which: check_harmonic_sp(n + 1, which),
                    (small, st.sampled_from(["sp1", "sp2", "sp3"])), ()),
    "lucas": (lambda n, a, b, r, s: check_q_lucas(n + max(b, s), a, b, r, s), (small,) * 5,
              (3, 4)),
    "chu-vandermonde": (lambda a, b, n: check_q_chu_vandermonde(a + b + 1, b, n), (small,) * 3,
                        (1,)),
    "zheng-identity": (check_zheng_identity, (small,), ()),
    "harmonic-classical": (check_harmonic_identity_classical, (small,), ()),
    "classical-lambda-mu": (
        lambda p, n, lam, mu: check_classical_supercongruences(p, n, "lambda-mu", lam, mu),
        (small, small, st.integers(2, 60), st.integers(0, 60)), ()),
    "classical-apery": (lambda p, n: check_classical_supercongruences(p, n, "apery"),
                        (small, small), ()),
    "classical-az": (lambda p, n: check_classical_supercongruences(p, n, "almkvist-zudilin"),
                     (small, small), ()),
}
ROUTES.update(("compute-" + target, (compute(target), (small,) * arity,
                                     (1,) if target == "qbinom" else ()))
              for target, (arity, _, _) in cli._COMPUTE.items())


@pytest.mark.parametrize("route, strategies, bottoms", ROUTES.values(), ids=ROUTES.keys())
# the fixture only patches ``admit``, the same for every example
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_estimate_never_decreases(estimates, route, strategies, bottoms, data):
    args = [data.draw(s) for s in strategies]
    before = estimates(route, args)
    for i, value in enumerate(args):
        if i in bottoms or not isinstance(value, int):
            continue
        raised = list(args)
        raised[i] += data.draw(st.integers(1, 40))
        assert estimates(route, raised) >= before, (i, args, raised)


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
