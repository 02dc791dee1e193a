"""The residue-ring route of the Phi_m^3 checkers.

``cyclotomic.binomial_sum_residue`` reduces a sum of q-binomial products in
Z[q]/((q^m - 1)^k) without building it.  The full-polynomial route,
``checks._cube_residue`` of the built left side, is the oracle: on every
acceptance grid the two must give identical residues, for the statement as
given and with the correction factor c raised by one, which makes every
residue nonzero.  The kernel's parts are compared with ``LaurentPoly``
arithmetic under hypothesis, and the size guard is tested without running
an oversized instance.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qapery import checks
from qapery.checks import (
    RING_SIZE_GUARD,
    _cube_residue,
    _guard_base_size,
    _guard_ring_size,
    check_corollary,
    check_generalized_theorem,
    check_ljunggren_q,
    check_main_theorem,
)
from qapery.cli import SweepSpec, main, run_sweep
from qapery.cyclotomic import (
    Modulus,
    ResidueRing,
    binomial_sum_residue,
    cyclotomic,
    reduce_mod,
)
from qapery.laurent import LaurentPoly, exact_div, q_power
from qapery.qcombinatorics import qbin
from qapery.reports import PreconditionError
from qapery.sequences import (
    apery_q_krz_binform,
    apery_q_lambda_mu,
    apery_q_lambda_mu_terms,
    apery_q_multivariate,
)

# -- the two routes on the acceptance grids ------------------------------------

MAIN_TUPLES = [(m, t) for m in range(1, 5) for t in itertools.product(range(3), repeat=4)]
MAIN_TUPLES += [(m, (n, n, n, n)) for m in (5, 6) for n in range(3)]
LAMBDA_MU = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 2))

#: checker name -> (instances, run one, modulus index, built left side)
GRIDS = {
    # criterion 01
    "ljunggren": (
        [(n, a, b) for n in range(1, 13) for a in range(6) for b in range(a + 1)],
        lambda n, a, b: check_ljunggren_q(n, a, b),
        lambda n, a, b: n,
        lambda n, a, b: qbin(a * n, b * n),
    ),
    # criterion 05, the main theorem
    "main": (
        [(m, t, alpha) for m, t in MAIN_TUPLES for alpha in ("ksq", "kn23")],
        lambda m, t, alpha: check_main_theorem(m, t, alpha),
        lambda m, t, alpha: m,
        lambda m, t, alpha: apery_q_multivariate(tuple(m * x for x in t), alpha),
    ),
    # criterion 06
    "corollary": (
        [(m, n) for m in range(1, 7) for n in range(4)],
        lambda m, n: check_corollary(m, n),
        lambda m, n: m,
        lambda m, n: apery_q_krz_binform(m * n),
    ),
    # criterion 07, with the kk2n and nksq weights as well
    "generalized": (
        [(m, n, lam, mu, alpha) for lam, mu in LAMBDA_MU for m in range(1, 6)
         for n in range(4) for alpha in ("ksq", "nksq", "kk2n")],
        lambda m, n, lam, mu, alpha: check_generalized_theorem(m, n, lam, mu, alpha),
        lambda m, n, lam, mu, alpha: m,
        lambda m, n, lam, mu, alpha: apery_q_lambda_mu(m * n, lam, mu, alpha),
    ),
}


def record_kernel(monkeypatch):
    """Replace the checkers' kernel by one that records each call."""
    calls = []
    kernel = checks.binomial_sum_residue

    def recording(terms, base, c, mod):
        residue = kernel(terms, base, c, mod)
        calls.append((terms, base, c, mod, residue))
        return residue

    monkeypatch.setattr(checks, "binomial_sum_residue", recording)
    return calls


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ring_and_full_routes_give_identical_residues(monkeypatch, name):
    instances, run, modulus_index, built_lhs = GRIDS[name]
    calls = record_kernel(monkeypatch)
    raised_nonzero = 0
    for args in instances:
        assert run(*args).holds, args
        (terms, base, c, mod, residue), = calls
        calls.clear()
        m = modulus_index(*args)
        assert mod == Modulus(m, 3)
        lhs = built_lhs(*args)
        assert residue == _cube_residue(m, lhs, base, c, mod), args
        raised = binomial_sum_residue(terms, base, c + 1, mod)
        assert list(raised.terms()) == list(_cube_residue(m, lhs, base, c + 1, mod).terms()), args
        raised_nonzero += not raised.is_zero()
    assert raised_nonzero == len(instances)


# -- the kernel's parts against LaurentPoly arithmetic ---------------------------

moduli = st.tuples(st.integers(1, 12), st.integers(1, 4))
laurent = st.dictionaries(st.integers(-40, 40), st.integers(-10**6, 10**6), max_size=6).map(LaurentPoly)


@settings(max_examples=80, deadline=None)
@given(moduli, laurent, laurent)
def test_ring_product_and_round_trip(mk, f, g):
    m, k = mk
    ring, mod = ResidueRing(m, k), Modulus(m, k)
    a, b = ring.from_poly(f), ring.from_poly(g)
    assert len(a) == m * k
    assert reduce_mod(ring.to_poly(a), mod) == reduce_mod(f, mod)
    assert reduce_mod(ring.to_poly(ring.mul(a, b)), mod) == reduce_mod(f * g, mod)
    assert reduce_mod(ring.to_poly(ring.mul(a, a)), mod) == reduce_mod(f * f, mod)


@settings(max_examples=80, deadline=None)
@given(moduli, st.integers(-500, 500), st.integers(0, 5))
def test_ring_q_power_and_power(mk, e, p):
    m, k = mk
    ring, mod = ResidueRing(m, k), Modulus(m, k)
    v = ring.q_power(e)
    assert reduce_mod(ring.to_poly(v), mod) == reduce_mod(q_power(e), mod)
    assert reduce_mod(ring.to_poly(ring.power(v, p)), mod) == reduce_mod(q_power(e * p), mod)


@settings(max_examples=80, deadline=None)
@given(moduli, st.integers(1, 80))
def test_ring_unit_is_one_minus_q_power_without_phi(mk, j):
    m, k = mk
    ring, mod = ResidueRing(m, k), Modulus(m, k)
    want = 1 - q_power(j)
    if j % m == 0:
        want = exact_div(want, cyclotomic(m))
    u = ring.to_poly(ring.unit(j))
    assert reduce_mod(u, mod) == reduce_mod(want, mod)
    assert not reduce_mod(u, Modulus(m, 1)).is_zero()


def built_term(e, triples):
    poly = q_power(e)
    for t, b, p in triples:
        poly = poly * qbin(t, b) ** p
    return poly


def built_residue(terms, base, c, mod):
    lhs = sum((built_term(e, triples) for e, triples in terms), LaurentPoly.zero())
    x = q_power(mod.m) - 1
    return reduce_mod(lhs - base.substitute_power(mod.m ** 2) + c * x * x, mod)


triple = st.tuples(st.integers(0, 20), st.integers(-1, 21), st.integers(0, 3))
term = st.tuples(st.integers(-30, 30), st.lists(triple, max_size=3))
small_base = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=3).map(LaurentPoly)
correction = st.fractions(min_value=-5, max_value=5, max_denominator=24)


@settings(max_examples=60, deadline=None)
@given(moduli, st.lists(term, max_size=3), small_base, correction)
def test_binomial_sum_residue_equals_built_residue(mk, terms, base, c):
    mod = Modulus(*mk)
    assert binomial_sum_residue(terms, base, c, mod) == built_residue(terms, base, c, mod)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.data())
def test_dropping_a_term_of_valuation_k_leaves_the_residue(m, k, data):
    # C(a m, c m + r)_q with 0 < r < m has Phi_m-valuation exactly 1
    a = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, a - 1))
    r = data.draw(st.integers(1, m - 1))
    p = data.draw(st.integers(k, k + 1))
    e = data.draw(st.integers(-20, 20))
    dropped = (e, ((a * m, c * m + r, p),))
    others = data.draw(st.lists(term, max_size=2))
    base = data.draw(small_base)
    mod = Modulus(m, k)
    assert reduce_mod(built_term(*dropped), mod).is_zero()
    with_term = binomial_sum_residue(others + [dropped], base, 1, mod)
    assert with_term == binomial_sum_residue(others, base, 1, mod)
    assert with_term == built_residue(others + [dropped], base, 1, mod)


# -- reach: the left side at m*n is never built ---------------------------------

def plus_one(fn):
    return lambda *args: fn(*args) + 1


def recording(monkeypatch, name):
    calls = []
    original = getattr(checks, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(checks, name, record)
    return calls


@pytest.mark.parametrize("m, n", [(2, 3), (5, 2), (10, 8)])
def test_corollary_builds_only_the_small_side(monkeypatch, m, n):
    calls = recording(monkeypatch, "apery_q_krz_binform")
    assert check_corollary(m, n).holds
    assert calls and set(calls) == {(n,)}


def test_corollary_reach_can_fail(monkeypatch):
    # m*n = 80: the full route builds a polynomial of degree 12,800
    assert check_corollary(10, 8).holds
    monkeypatch.setattr(checks, "apery", plus_one(checks.apery))
    report = check_corollary(10, 8)
    assert report.holds is False
    assert report.first_residue_coeff not in (None, 0)


def test_main_reach_builds_only_the_small_side_and_can_fail(monkeypatch):
    n = (8, 8, 8, 8)
    calls = recording(monkeypatch, "apery_q_multivariate")
    assert check_main_theorem(5, n, "ksq").holds
    assert calls and {args[0] for args in calls} == {n}
    monkeypatch.setattr(checks, "correction_R_multivariate",
                        plus_one(checks.correction_R_multivariate))
    report = check_main_theorem(5, n, "ksq")
    assert report.holds is False
    assert report.first_residue_coeff not in (None, 0)


# -- the per-instance size guard -------------------------------------------------

OVERSIZED = [
    ("corollary", {"m": 1000, "n": 1000}),
    ("main", {"m": 1000, "n1": 1000, "n2": 1, "n3": 1, "n4": 1, "alpha": "ksq"}),
    ("generalized", {"m": 1000, "n": 1000, "lambda": 2, "mu": 1, "alpha": "ksq"}),
    ("ljunggren", {"n": 1000, "a": 1000, "b": 1}),
]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Make the kernel and every builder raise if an instance gets past the guard."""
    def unreachable(*args):
        raise AssertionError("an oversized instance got past the size guard")

    for name in ("binomial_sum_residue", "apery_q_krz_binform", "apery_q_multivariate",
                 "apery_q_multivariate_terms", "apery_q_lambda_mu", "apery_q_lambda_mu_terms",
                 "qbin"):
        monkeypatch.setattr(checks, name, unreachable)


@pytest.mark.parametrize("name, params", OVERSIZED, ids=[c[0] for c in OVERSIZED])
def test_oversized_instance_is_refused(nothing_runs, name, params):
    with pytest.raises(PreconditionError, match="size guard"):
        checks.run_named_check(name, params)


def test_oversized_verify_is_a_usage_error(nothing_runs, capsys):
    code = main(["verify", "corollary", "--m", "1000", "--n", "1000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "size guard" in err


def test_oversized_sweep_instances_are_skipped(nothing_runs):
    spec = SweepSpec("corollary", ranges={"m": (1000, 1000, 1), "n": (999, 1000, 1)}, jobs=1)
    summary = run_sweep(spec)["summary"]
    assert (summary["total"], summary["skipped"]) == (0, 2)


def test_guard_admits_the_stated_reach():
    _guard_ring_size(16, 2 * 16 * 32)         # corollary --m 16 --n 32
    _guard_ring_size(10, 10 * 40)             # main --m 10 --n1..n4 20
    with pytest.raises(PreconditionError):
        _guard_ring_size(1, RING_SIZE_GUARD + 1)


# Instances whose lhs passes the M*m guard but whose base, built in full at
# index n, would not: A_q(5000) has degree 5*10^7, and qbin(3, 1)^100000
# degree 200,000.
OVERSIZED_BASE = [
    ["corollary", "--m", "1", "--n", "5000"],
    ["generalized", "--m", "2", "--n", "3", "--lambda", "100000", "--mu", "0"],
]


@pytest.fixture
def no_base_is_built(monkeypatch):
    """Make the kernel and every base builder raise if an instance gets past the guard."""
    def unreachable(*args):
        raise AssertionError("an oversized base got past the size guard")

    for name in ("binomial_sum_residue", "apery_q_krz_binform", "apery_q_multivariate",
                 "apery_q_lambda_mu", "qbin"):
        monkeypatch.setattr(checks, name, unreachable)


@pytest.mark.parametrize("argv", OVERSIZED_BASE, ids=[a[0] for a in OVERSIZED_BASE])
def test_oversized_base_verify_is_a_usage_error(no_base_is_built, capsys, argv):
    code = main(["verify"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "base exponent span" in err


def test_oversized_base_sweep_instances_are_skipped(no_base_is_built):
    specs = [
        SweepSpec("corollary", ranges={"m": (1, 1, 1), "n": (5000, 5000, 1)}, jobs=1),
        SweepSpec("generalized", ranges={"m": (2, 2, 1), "n": (3, 3, 1),
                                         "lambda": (100000, 100000, 1), "mu": (0, 0, 1)},
                  jobs=1),
    ]
    for spec in specs:
        summary = run_sweep(spec)["summary"]
        assert (summary["total"], summary["skipped"]) == (0, 1)


def test_base_guard_admits_the_stated_reach():
    # the corollary's base A_q(n) has degree 2 n^2
    assert _guard_base_size(apery_q_lambda_mu_terms(32, 2, 2, "nksq")) == 2048  # --m 16 --n 32
    assert _guard_base_size(apery_q_lambda_mu_terms(64, 2, 2, "nksq")) == 8192  # --m 16 --n 64
    with pytest.raises(PreconditionError, match="size guard"):
        _guard_base_size([(0, ((RING_SIZE_GUARD + 2, 1, 1),))])  # degree guard + 1


@pytest.mark.parametrize("n, lam, mu, alpha", [(0, 2, 2, "nksq"), (4, 3, 1, "ksq"),
                                               (5, 2, 0, "kk2n"), (3, 4, 2, "nksq")])
def test_base_span_is_the_built_span(n, lam, mu, alpha):
    f = apery_q_lambda_mu(n, lam, mu, alpha)
    assert _guard_base_size(apery_q_lambda_mu_terms(n, lam, mu, alpha)) == f.degree() - f.min_degree()
