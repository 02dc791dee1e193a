"""The residue-ring route of ``harmonic-sp``.

``check_harmonic_sp`` computes both of its residues in Z[q]/((q^n - 1)^k)
without building D = prod [i]_q or running a Euclid loop.  The oracle is
the full-polynomial route it replaced: the cofactors D/[i]_q, multiplied
out, for the primary residue, and ``inverse_mod`` of each [i]_q for the
cross residue.  Both residues must be identical to the oracle's, for every
statement with n = 2..25, as stated and with the right side perturbed.
"""

import operator
from fractions import Fraction
from functools import reduce

import pytest

from qapery import checks
from qapery.checks import _q_integer_cofactors, check_harmonic_sp
from qapery.cli import main
from qapery.cyclotomic import Modulus, NotInvertibleError, ResidueRing, inverse_mod, reduce_mod
from qapery.laurent import LaurentPoly, q_power
from qapery.qcombinatorics import q_integer
from qapery.reports import WORK_BUDGET, PreconditionError, harmonic_work

WHICH = ("sp1", "sp2", "sp3")


def _harmonic_lhs(which, terms):
    """sum t (sp1), sum t^2 (sp2) or sum_{i<j} t_i t_j (sp3) over the terms."""
    zero = LaurentPoly.zero()
    if which == "sp1":
        return sum(terms, zero)
    p2 = sum((t * t for t in terms), zero)
    if which == "sp2":
        return p2
    p1 = sum(terms, zero)
    return Fraction(1, 2) * (p1 * p1 - p2)


def full_route(n, which):
    """The oracle's modulus, scale and left sides, the multiplied-through one
    (the cofactors of D, with D or D^2 as the scale) and the inverse one."""
    mod = Modulus(n, 2 if which == "sp1" else 1)
    product, cofactors = _q_integer_cofactors(n)
    scale = product if which == "sp1" else product ** 2
    inverses = [inverse_mod(q_integer(i), mod) for i in range(1, n)]
    return mod, scale, _harmonic_lhs(which, cofactors), _harmonic_lhs(which, inverses)


def test_cofactors_are_the_products_of_the_other_q_integers():
    # the list steps against LaurentPoly products of the [j]_q, j != i
    def product_of(polys):
        return reduce(operator.mul, polys, LaurentPoly.one())

    for n in range(1, 52, 5):
        ints = [q_integer(i) for i in range(1, n)]
        product, cofactors = _q_integer_cofactors(n)
        assert product == product_of(ints), n
        assert cofactors == [product_of(ints[:i] + ints[i + 1:]) for i in range(n - 1)], n


PERTURBATIONS = {
    "stated": lambda rhs: rhs,
    "rhs+1": lambda rhs: rhs + 1,
    "rhs*q": lambda rhs: rhs * q_power(1),
    "rhs+q^3": lambda rhs: rhs + q_power(3),
    "rhs-q^-2": lambda rhs: rhs - q_power(-2),
}


@pytest.fixture
def residues(monkeypatch):
    """Record the residues each harmonic-sp report is built from."""
    recorded = []
    finish = checks._finish_poly

    def record(name, params, found, mod, started):
        recorded.append(found)
        return finish(name, params, found, mod, started)

    monkeypatch.setattr(checks, "_finish_poly", record)
    return recorded


@pytest.mark.parametrize("which", WHICH)
def test_both_residues_equal_the_full_route(monkeypatch, residues, which):
    stated = checks._harmonic_rhs
    for n in range(2, 26):
        mod, scale, primary_lhs, cross_lhs = full_route(n, which)
        for label, perturb in PERTURBATIONS.items():
            monkeypatch.setattr(checks, "_harmonic_rhs",
                                lambda n, which, perturb=perturb: perturb(stated(n, which)))
            report = check_harmonic_sp(n, which)
            rhs = perturb(stated(n, which))
            want = [reduce_mod(primary_lhs - rhs * scale, mod), reduce_mod(cross_lhs - rhs, mod)]
            assert residues.pop() == want, (n, which, label)
            assert report.holds == (label == "stated" or not any(want)), (n, which, label)
            if label in ("stated", "rhs+1"):
                # D is a unit, so a constant offset shows in both residues
                assert all(r.is_zero() == (label == "stated") for r in want), (n, which, label)


@pytest.mark.parametrize("n", range(1, 41))
def test_closed_form_inverse_equals_inverse_mod(n):
    for k in (1, 2, 3):
        ring, mod = ResidueRing(n, k), Modulus(n, k)
        for i in range(1, 2 * n + 2):
            if i % n == 0:
                with pytest.raises(NotInvertibleError):
                    ring.q_integer_inverse(i)
                continue
            v, d = ring.q_integer_inverse(i)
            assert reduce_mod(ring.to_poly(v) / d, mod) == inverse_mod(q_integer(i), mod), (i, k)


@pytest.mark.parametrize("which", WHICH)
def test_a_wrong_inverse_fails_only_the_cross_route(monkeypatch, residues, which):
    inverse = ResidueRing.q_integer_inverse

    def plus_one(ring, i):
        v, d = inverse(ring, i)
        return [c + d * (j == 0) for j, c in enumerate(v)], d

    assert check_harmonic_sp(7, which).holds
    monkeypatch.setattr(ResidueRing, "q_integer_inverse", plus_one)
    report = check_harmonic_sp(7, which)
    primary, cross = residues.pop()
    assert primary.is_zero() and not cross.is_zero()
    assert report.holds is False and report.first_residue_coeff


@pytest.fixture
def ring_calls(monkeypatch):
    """Count the ring's multiples by [t]_q, record the weights of each sum of
    squares and the operands of each product."""
    calls = {"mul_q_integer": 0, "sum_of_powers": [], "mul": []}
    mul_q_integer, sum_of_powers, mul = (ResidueRing.mul_q_integer, ResidueRing.sum_of_powers,
                                         ResidueRing.mul)

    def counting(ring, a, t):
        calls["mul_q_integer"] += 1
        return mul_q_integer(ring, a, t)

    def recording(ring, terms):
        calls["sum_of_powers"].append([w for w, _ in terms])
        return sum_of_powers(ring, terms)

    def multiplying(ring, a, b):
        calls["mul"].append((ring, a, b))
        return mul(ring, a, b)

    monkeypatch.setattr(ResidueRing, "mul_q_integer", counting)
    monkeypatch.setattr(ResidueRing, "sum_of_powers", recording)
    monkeypatch.setattr(ResidueRing, "mul", multiplying)
    return calls


@pytest.mark.parametrize("which", WHICH)
def test_three_multiples_by_q_integers_a_step(ring_calls, which):
    # sp1: S and P at each of the 24 steps, and one Newton step for each of
    # the 24 inverses modulo Phi_25^2; sp2 and sp3: S, P and E at each step
    assert check_harmonic_sp(25, which).holds
    assert ring_calls["mul_q_integer"] == 72
    # the cross route squares the 24 inverses with one fold, sp3 with +h1^2
    # in the same call, and sp1 none
    want = {"sp1": [], "sp2": [[1] * 24], "sp3": [[1] + [-1] * 24]}
    assert ring_calls["sum_of_powers"] == want[which]


@pytest.mark.parametrize("which", WHICH)
def test_no_product_by_one(ring_calls, which):
    # the cross route's weight is one, and the right side is taken as it is
    assert check_harmonic_sp(25, which).holds
    assert ring_calls["mul"]
    assert not [a for ring, a, b in ring_calls["mul"] if a == ring.one or b == ring.one]


def test_reach_beyond_the_workload():
    for which in WHICH:
        assert check_harmonic_sp(60, which).holds


# The first n whose estimate harmonic_work(n, k) is over the work budget:
# k = 2 for sp1, 1 otherwise.
FIRST_REFUSED = {"sp1": 829, "sp2": 659, "sp3": 659}


@pytest.fixture
def nothing_runs(monkeypatch):
    def unreachable(*args):
        raise AssertionError("an instance over the work budget got past it")

    for name in ("Modulus", "ResidueRing", "_harmonic_rhs"):
        monkeypatch.setattr(checks, name, unreachable)


def test_oversized_verify_is_a_usage_error(nothing_runs, capsys):
    code = main(["verify", "harmonic-sp", "--n", "5000", "--which", "sp1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "work budget" in err
    # the refusal names the route and its estimate, 14 n^3 + 15 (2 n)^2 at n = 5000
    assert "instance too large: harmonic-sp needs an estimated 1751500000000 work" in err


@pytest.mark.parametrize("which", WHICH)
def test_guard_refuses_the_first_oversized_n(nothing_runs, which):
    n = FIRST_REFUSED[which]
    k = 2 if which == "sp1" else 1
    assert harmonic_work(n, k) > WORK_BUDGET >= harmonic_work(n - 1, k)
    with pytest.raises(PreconditionError, match="work budget"):
        check_harmonic_sp(n, which)


class Admitted(Exception):
    """The route built its modulus: the instance got past the budget."""


def test_guard_admits_the_last_n(monkeypatch):
    # the last admitted n is about 8 s of work, so it stops at its first build
    def admitted(*args):
        raise Admitted()
    monkeypatch.setattr(checks, "Modulus", admitted)
    with pytest.raises(Admitted):
        check_harmonic_sp(FIRST_REFUSED["sp1"] - 1, "sp1")
