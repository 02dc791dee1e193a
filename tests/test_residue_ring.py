"""The kernel route of the Phi_m^k q-binomial checkers.

``cyclotomic.binomial_sum_residue`` decides a weighted sum of q-binomial
products from its image at q = zeta_m e^L without building it.  The
full-polynomial route is the oracle, kept here: ``cube_residue`` of the
built left side and base for the Phi_m^3 checkers, and the built statements
of ``wolstenholme-q``, ``s1s2`` and ``qbin-prop``.  On every acceptance grid
the two must give identical residues, for the statement as given and
perturbed (the correction factor c raised by one, or a weight raised by
one), which makes every residue nonzero.  The kernel, the field's products
and leads, and the closed-form right sides ``checks._cube_rhs`` reads off a
base's specs (also against the kernel at m = 1), are compared with
``LaurentPoly`` arithmetic under hypothesis, on terms drawn inside the
kernel's closed forms (read from the lead alone, complementary or a
q-integer where both residues are nonzero, or with residues 0 to L^2) and
on sums that vanish without being a sum less itself (q-Pascal, and a
quotient by a q-binomial); a term outside them is refused by name, and no
checker passes one.  With every builder made to raise, no checker builds a
q-binomial, nor, with ``_modulus_parts`` made to raise, a ``Modulus``; and
the work budget is tested without running an oversized instance.
"""

import itertools
import re
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import qapery.cyclotomic
from qapery import checks, qcombinatorics, sequences
from qapery.checks import (
    _cube_rhs,
    check_corollary,
    check_generalized_theorem,
    check_ljunggren_q,
    check_main_theorem,
    check_qbin_prop,
    check_s1_s2_decomposition,
    check_wolstenholme_q,
)
from qapery.cli import SweepSpec, main, run_sweep
from qapery.cyclotomic import (
    Modulus,
    NotInvertibleError,
    ResidueRing,
    _binomial,
    _Field,
    _field,
    _mobius_product,
    binomial_sum_residue,
    cyclotomic,
    inverse_mod,
    reduce_mod,
)
from qapery.laurent import LaurentPoly, _power, divrem, exact_div, q_power
from qapery.qcombinatorics import binom, check_q_lucas, q_integer, qbin
from qapery.reports import WORK_BUDGET, PreconditionError, modulus_work, qbin_work
from qapery.sequences import (
    apery_q_krz_binform,
    apery_q_lambda_mu,
    apery_q_lambda_mu_terms,
    apery_q_multivariate,
    apery_q_multivariate_terms,
    list_alphas,
)


def cube_residue(m, lhs, base, c, mod):
    """The full route: the residue of lhs - base(q^(m^2)) + c (q^m - 1)^2."""
    rhs = base.substitute_power(m * m)
    if c:
        rhs = rhs - c * (q_power(m) - 1) ** 2
    return reduce_mod(lhs - rhs, mod)


def substituted_rhs(m, base, c):
    """The x-coefficients, x = q^m - 1, of base(q^(m^2)) - c x^2 modulo x^3,
    for a built base: base(q^(m^2)) = sum_e b_e (1 + x)^(m e) reads
    sum_e b_e C(m e, j) at x^j, C(a, j) a polynomial in a."""
    rhs = [sum(b * _binomial(m * e, j) for e, b in base.terms()) for j in range(3)]
    rhs[2] -= c
    return rhs


def x_poly(m, rhs):
    """sum_j rhs[j] (q^m - 1)^j."""
    x = q_power(m) - 1
    return sum((r * x ** j for j, r in enumerate(rhs)), LaurentPoly.zero())


# -- the two routes on the acceptance grids ------------------------------------

MAIN_TUPLES = [(m, t) for m in range(1, 5) for t in itertools.product(range(3), repeat=4)]
MAIN_TUPLES += [(m, (n, n, n, n)) for m in (5, 6) for n in range(3)]
LAMBDA_MU = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 2))

#: checker name -> (instances, run one, modulus index, built left side, built base)
GRIDS = {
    # criterion 01
    "ljunggren": (
        [(n, a, b) for n in range(1, 13) for a in range(6) for b in range(a + 1)],
        lambda n, a, b: check_ljunggren_q(n, a, b),
        lambda n, a, b: n,
        lambda n, a, b: qbin(a * n, b * n),
        lambda n, a, b: qbin(a, b),
    ),
    # criterion 05, the main theorem
    "main": (
        [(m, t, alpha) for m, t in MAIN_TUPLES for alpha in ("ksq", "kn23")],
        lambda m, t, alpha: check_main_theorem(m, t, alpha),
        lambda m, t, alpha: m,
        lambda m, t, alpha: apery_q_multivariate(tuple(m * x for x in t), alpha),
        lambda m, t, alpha: apery_q_multivariate(t, alpha),
    ),
    # criterion 06
    "corollary": (
        [(m, n) for m in range(1, 7) for n in range(4)],
        lambda m, n: check_corollary(m, n),
        lambda m, n: m,
        lambda m, n: apery_q_krz_binform(m * n),
        lambda m, n: apery_q_krz_binform(n),
    ),
    # criterion 07, with the kk2n and nksq weights as well
    "generalized": (
        [(m, n, lam, mu, alpha) for lam, mu in LAMBDA_MU for m in range(1, 6)
         for n in range(4) for alpha in ("ksq", "nksq", "kk2n")],
        lambda m, n, lam, mu, alpha: check_generalized_theorem(m, n, lam, mu, alpha),
        lambda m, n, lam, mu, alpha: m,
        lambda m, n, lam, mu, alpha: apery_q_lambda_mu(m * n, lam, mu, alpha),
        lambda m, n, lam, mu, alpha: apery_q_lambda_mu(n, lam, mu, alpha),
    ),
}

def record_kernel(monkeypatch):
    """Replace the checkers' kernel by one that records each call."""
    calls = []
    kernel = checks.binomial_sum_residue

    def recording(terms, rhs, m, k):
        residue = kernel(terms, rhs, m, k)
        calls.append((terms, rhs, m, k, residue))
        return residue

    monkeypatch.setattr(checks, "binomial_sum_residue", recording)
    return calls


def record_cube_rhs(monkeypatch):
    """Record the (m, base specs, c) each right side of a Phi_m^3 checker is
    read from."""
    calls = []

    def recording(m, base, c):
        calls.append((m, base, c))
        return _cube_rhs(m, base, c)

    monkeypatch.setattr(checks, "_cube_rhs", recording)
    return calls


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_ring_and_full_routes_give_identical_residues(monkeypatch, name):
    instances, run, modulus_index, built_lhs, built_base = GRIDS[name]
    calls = record_kernel(monkeypatch)
    sides = record_cube_rhs(monkeypatch)
    raised_nonzero = 0
    for args in instances:
        assert run(*args).holds, args
        # one kernel call, at the instance's own modulus: the base is read
        # in closed form, with no kernel call at m = 1
        (terms, rhs, kernel_m, k, residue), = calls
        (m, read_base, c), = sides
        calls.clear()
        sides.clear()
        assert m == modulus_index(*args)
        assert (kernel_m, k) == (m, 3)
        mod = Modulus(m, 3)
        base = built_base(*args)
        assert rhs == substituted_rhs(m, base, c), args
        lhs = built_lhs(*args)
        assert residue == cube_residue(m, lhs, base, c, mod), args
        raised_rhs = _cube_rhs(m, read_base, c + 1)
        assert raised_rhs == substituted_rhs(m, base, c + 1), args
        raised = binomial_sum_residue(terms, raised_rhs, m, 3)
        assert list(raised.terms()) == list(cube_residue(m, lhs, base, c + 1, mod).terms()), args
        raised_nonzero += not raised.is_zero()
    assert raised_nonzero == len(instances)


# -- the three checkers that left the full route --------------------------------

def wolstenholme_full(n, delta):
    """Both forms of wolstenholme-q built in full, with c (form 1) and the
    x^2 coefficient (form 2) moved by delta."""
    mod = Modulus(n, 3)
    lhs = qbin(2 * n, n)
    form2 = x_poly(n, [2, n, Fraction((n - 1) * (5 * n - 1), 12) - delta])
    return [cube_residue(n, lhs, q_integer(2), Fraction(n * n - 1, 12) + delta, mod),
            reduce_mod(lhs - form2, mod)]


def s1s2_full(m, t, alpha, delta):
    """S1 and S2 built in full from the summands, with each c raised by delta."""
    mod = Modulus(m, 3)
    terms = [built_term(1, e, triples, mod)
             for e, triples in apery_q_multivariate_terms(tuple(m * x for x in t), alpha)]
    s1 = sum(terms[::m], LaurentPoly.zero())
    s2 = sum((p for k, p in enumerate(terms) if k % m), LaurentPoly.zero())
    weights = [binom(t[0], k) * binom(t[2], k) * binom(t[0] + t[1] - k, t[0])
               * binom(t[2] + t[3] - k, t[2]) for k in range(min(t[0], t[2]) + 1)]
    half = Fraction(t[0] * t[1] + t[2] * t[3], 2)
    factor = Fraction(m * m - 1, 12)
    c1 = factor * sum((half - k * k) * w for k, w in enumerate(weights))
    c2 = factor * sum(k * k * w for k, w in enumerate(weights))
    return [cube_residue(m, s1, apery_q_multivariate(t, alpha), c1 + delta, mod),
            cube_residue(m, s2, LaurentPoly.zero(), c2 + delta, mod)]


def qbin_prop_full(m, n, k, j, delta):
    """Both routes of qbin-prop built in full, the cross one through
    ``inverse_mod``, with the weight -s C(n-1, k) of [mn]_q raised by delta."""
    mod = Modulus(m, 2)
    sign = -1 if (j - 1) % 2 else 1
    weight = -sign * binom(n - 1, k) + delta
    right = -weight * q_power((j - 1) * (2 * m - j) // 2) * q_integer(m * n)
    lhs = qbin(m * n, m * k + j)
    return [reduce_mod(q_integer(j) * lhs - right, mod),
            reduce_mod(lhs - right * inverse_mod(q_integer(j), mod), mod)]


def raise_c(terms, rhs, m, k):
    return terms, rhs[:2] + [rhs[2] - 1], m, k


def raise_weight(terms, rhs, m, k):
    # the last term is the right side's, -s q^e C(n-1, k) [mn]_q (/ [j]_q)
    w, e, triples = terms[-1]
    return terms[:-1] + [(w + 1, e, triples)], rhs, m, k


#: checker name -> (instances, run one, full route, perturbation of a kernel call)
MOVED = {
    # criterion 02
    "wolstenholme-q": (
        [(n,) for n in range(1, 21)],
        check_wolstenholme_q,
        wolstenholme_full,
        raise_c,
    ),
    # criterion 05, the S1/S2 decomposition
    "s1s2": (
        [(m, t, alpha) for m, t in MAIN_TUPLES for alpha in ("ksq", "kn23")],
        check_s1_s2_decomposition,
        s1s2_full,
        raise_c,
    ),
    # criterion 08
    "qbin-prop": (
        [(m, n, k, j) for m in range(2, 9) for j in range(1, m) for n in range(1, 5)
         for k in range(n)],
        check_qbin_prop,
        qbin_prop_full,
        raise_weight,
    ),
}


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_checkers_match_the_full_route(monkeypatch, name):
    instances, run, full_route, perturb = MOVED[name]
    calls = record_kernel(monkeypatch)
    for args in instances:
        assert run(*args).holds, args
        assert [residue for *_, residue in calls] == full_route(*args, 0), args
        raised = [binomial_sum_residue(*perturb(*call[:4])) for call in calls]
        calls.clear()
        want = full_route(*args, 1)
        assert [list(r.terms()) for r in raised] == [list(r.terms()) for r in want], args
        assert all(not r.is_zero() for r in raised), args


def unreachable(message):
    def raising(*args):
        raise AssertionError(message)
    return raising


#: (module, name) of every function that builds a q-binomial sum, or a
#: q-binomial, as a polynomial
BUILDERS = [(sequences, name) for name in ("_summand", "apery_q_krz_binform",
                                           "apery_q_lambda_mu", "apery_q_multivariate")]
BUILDERS += [(qcombinatorics, name) for name in ("qbin", "qbin_pow")]


def make_builders_raise(monkeypatch):
    for module, builder in BUILDERS:
        monkeypatch.setattr(module, builder, unreachable("%s was called" % builder))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_no_checker_builds_a_q_binomial(monkeypatch, name):
    # neither side of any instance is built, bases included: at m = 1 the
    # corollary's base and left side are both A_q(128), of degree 32,768
    make_builders_raise(monkeypatch)
    instances, run = GRIDS[name][:2]
    reach = [(1, 128), (4, 64)] if name == "corollary" else []
    for args in instances[::7] + reach:
        assert run(*args).holds, args


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_checkers_build_no_left_side(monkeypatch, name):
    # nor any right side: s1s2 reads its base A_q(n) off the specs
    make_builders_raise(monkeypatch)
    instances, run = MOVED[name][:2]
    for args in instances[::7]:
        assert run(*args).holds, args


KERNEL_DECIDED = [
    ("wolstenholme-q", {"n": 3}),
    ("s1s2", {"m": 2, "n1": 1, "n2": 1, "n3": 1, "n4": 1}),
    ("qbin-prop", {"m": 3, "n": 2, "k": 1, "j": 1}),
    ("ljunggren", {"n": 3, "a": 4, "b": 2}),
    ("corollary", {"m": 3, "n": 2}),
    ("main", {"m": 2, "n1": 1, "n2": 1, "n3": 1, "n4": 1}),
    ("generalized", {"m": 3, "n": 2, "lambda": 3, "mu": 1}),
]


@pytest.mark.parametrize("name, params", KERNEL_DECIDED, ids=[c[0] for c in KERNEL_DECIDED])
def test_the_kernel_alone_decides(monkeypatch, name, params):
    assert checks.run_named_check(name, params).holds
    monkeypatch.setattr(checks, "binomial_sum_residue", lambda *call: q_power(1))
    report = checks.run_named_check(name, params)
    assert report.holds is False and report.first_residue_coeff == 1


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
    power = _power(v, p, ring.mul, ring.one)
    assert reduce_mod(ring.to_poly(power), mod) == reduce_mod(q_power(e * p), mod)


def coordinates(f, m):
    """The coordinates of f(zeta_m) in 1, zeta, .., zeta^(phi(m)-1), padded."""
    r = reduce_mod(f, Modulus(m, 1))
    return [r.coefficient(i) for i in range(cyclotomic(m).degree())]


def test_field_products_of_one_minus_zeta_powers():
    # P_rho = prod_{r<=rho} (1 - q^r) and Q_rho = prod_{rho<r<m} (1 - q^r) at
    # q = zeta, so P_rho Q_rho = m; the lead of C(t, b)_q with b + (t - b) = m
    # modulo m in closed form equals its product form Q_beta Q_gamma, and its
    # inverse Q_0 P_beta P_gamma / m^3; the lead of a q-integer, C(rho, 1)_q
    # or C(rho, rho - 1)_q, equals [rho]_zeta, and its inverse 1/[rho]_zeta
    def prefix(rho):
        return prod((1 - q_power(r) for r in range(1, rho + 1)), start=LaurentPoly.one())

    def suffix(rho):
        return prod((1 - q_power(r) for r in range(rho + 1, m)), start=LaurentPoly.one())

    def lead_coordinates(signature):
        v, s = field.lead(signature)
        return [Fraction(c) * Fraction(m) ** s for c in field.coordinates(v)]

    for m in range(1, 13):
        field, mod = _Field(m), Modulus(m, 1)
        for rho in range(m):
            assert coordinates(prefix(rho) * suffix(rho), m) == coordinates(LaurentPoly.constant(m), m)
        for beta in range(1, m):
            gamma = m - beta
            table = suffix(beta) * suffix(gamma)
            inverse = suffix(0) * prefix(beta) * prefix(gamma)
            for p in (1, 2, -1, -2):
                want = (table if p > 0 else inverse) ** abs(p)
                assert lead_coordinates(((beta, gamma, p),)) == \
                    [c / Fraction(m) ** (3 * -p if p < 0 else 0) for c in coordinates(want, m)]
        for rho in range(2, m):
            for p in (1, 2, -1, -2):
                want = q_integer(rho) ** abs(p)
                want = coordinates(want if p > 0 else inverse_mod(want, mod), m)
                assert lead_coordinates(((1, rho - 1, p),)) == want, (m, rho, p)
                assert lead_coordinates(((rho - 1, 1, p),)) == want, (m, rho, p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 6, 30, 105, 210]).flatmap(
    lambda m: st.tuples(st.just(m), *[st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=m, max_size=m)] * 2,
                        st.integers(-3 * m, 3 * m))))
def test_field_products_and_shifts_are_ring_maps_on_any_lift(drawn):
    # evaluation at zeta is a ring map, so the field multiplies and rotates any
    # lists of m integers, not only those it built, as their polynomials do
    m, a, b, e = drawn
    field = _field(m)

    def poly(v):
        return LaurentPoly(dict(enumerate(v)))

    assert field.coordinates(field.mul(a, b)) == coordinates(poly(a) * poly(b), m)
    assert field.coordinates(field.shift(a, e)) == coordinates(q_power(e) * poly(a), m)


def test_phi_and_psi_are_built_on_first_use(monkeypatch):
    # a vanishing sum reads neither Phi_m nor Psi_m: the field reads Phi_m for
    # the coordinates of a nonzero image, and Psi_m = (q^m - 1)/Phi_m to divide
    # by Phi_m(zeta e^L), each a Moebius product, (m, False) and (m, True)
    built = []
    product = qapery.cyclotomic._mobius_product
    monkeypatch.setattr(qapery.cyclotomic, "_CYCLOTOMIC", {})
    monkeypatch.setattr(qapery.cyclotomic, "_mobius_product",
                        lambda m, inverse=False: built.append((m, inverse)) or product(m, inverse))
    _field.cache_clear()
    holding = [(1, 2, ((12, 5, 1),)), (-1, 2, ((12, 5, 1),)), (3, 0, ((6, 2, 1), (4, 1, -1)))]
    holding.append((-3, 0, ((6, 2, 1), (4, 1, -1))))
    assert binomial_sum_residue(holding, [], 6, 2).is_zero()
    assert built == []
    assert not binomial_sum_residue(holding[:1], [], 6, 2).is_zero()
    assert built == [(6, False), (6, True)]
    assert not binomial_sum_residue(holding[2:3], [1], 6, 2).is_zero()
    assert built.count((6, False)) == 1
    _field.cache_clear()


def test_psi_is_q_m_minus_one_over_phi():
    for m in range(1, 300):
        want = exact_div(q_power(m) - 1, cyclotomic(m))
        assert LaurentPoly({i: c for i, c in enumerate(_mobius_product(m, True))}) == want, m


def built_term(w, e, triples, mod):
    """w q^e prod C(t, b)_q^p built in full.  The common factors Phi_m of the
    positive and the negative powers are cancelled, and what is left of the
    negative ones is inverted by ``inverse_mod``, which raises when Phi_m
    (or a vanishing q-binomial) is left in the denominator."""
    num = den = LaurentPoly.one()
    for t, b, p in triples:
        if p > 0:
            num = num * qbin(t, b) ** p
        elif p < 0:
            den = den * qbin(t, b) ** -p
    if num.is_zero() and not den.is_zero():
        return num
    phi = cyclotomic(mod.m)
    while not den.is_zero():
        (nq, nr), (dq, dr) = divrem(num, phi), divrem(den, phi)
        if not (nr.is_zero() and dr.is_zero()):
            break
        num, den = nq, dq
    return w * q_power(e) * num * inverse_mod(den, mod)


def built_residue(terms, rhs, m, k):
    mod = Modulus(m, k)
    lhs = sum((built_term(*term, mod) for term in terms), LaurentPoly.zero())
    return reduce_mod(lhs - x_poly(m, rhs), mod)


# -- terms inside the kernel's closed forms --------------------------------------
#
# At Phi_m^k the kernel reads a term of valuation v to L^(k - 1 - v): from its
# lead alone when v = k - 1, from the closed-form series to L^2 when every
# q-binomial has residues 0 (then v = 0 and k <= 3), and not at all when v >= k.
# A divisor must leave the term an integer part of +-1, and a q-binomial whose
# residues beta and gamma are both nonzero must be complementary
# (beta + gamma = m) or a q-integer (min(beta, gamma) = 1).  So at m = 1, where
# every residue is 0, k is at most 3.

kernel_moduli = st.integers(1, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, 3 if m == 1 else 4)))


def plain_term(draw, m, vanishing=True):
    """A spec of C(a m, c m)_q to powers 0..3, residues 0 and valuation 0;
    with ``vanishing``, c may lie outside 0..a."""
    bottoms = (lambda a: st.integers(-1, a + 1)) if vanishing else (lambda a: st.integers(0, a))
    triples = draw(st.lists(st.integers(0, 3).flatmap(
        lambda a: st.tuples(st.just(a), bottoms(a), st.integers(0, 3))), max_size=3))
    return (draw(st.integers(-3, 3)), draw(st.integers(-30, 30)),
            tuple((a * m, c * m, p) for a, c, p in triples))


def closed(t, b, m):
    """Whether C(t, b)_q has a residue 0 or its lead in closed form."""
    beta, gamma = b % m, (t - b) % m
    return not (beta and gamma) or beta + gamma == m or 1 in (beta, gamma)


def carried_unit(draw, m):
    """(t, b) of C(m, beta)_q, 0 < beta < m: complementary, valuation 1,
    integer part -1."""
    return m, draw(st.integers(1, m - 1))


def unit_divisor(draw, m, top):
    """(t, b), t <= top, of a C(t, b)_q with no carry, integer part
    C(t // m, b // m) = 1 and a residue 0 or the lead of a q-integer: a
    divisor of valuation 0 inside the closed forms."""
    t = draw(st.integers(0, top))
    return t, draw(st.sampled_from([b for b in range(t + 1) if b % m + (t - b) % m < m
                                    and comb(t // m, b // m) == 1 and closed(t, b, m)]))


def small_prime(m):
    """(t, b) of a C(t, b)_q with t < m, prime to Phi_m, with a residue 0 or
    the lead of a q-integer."""
    return st.integers(0, m - 1).flatmap(lambda t: st.tuples(
        st.just(t), st.sampled_from([b for b in range(t + 1) if min(b, t - b) <= 1])))


def valued_term(draw, m, v):
    """A (w, e, triples) spec of Phi_m-valuation v (v = 0 when m = 1) with
    powers -2..3 inside the closed forms, whose divisors leave an integer
    part of +-1: prime to Phi_m, or a ``carried_unit`` to the power -1 or -2
    against a factor of that valuation."""
    def phi_once():
        # C(a m, c m + r)_q with 0 < r < m has valuation exactly 1
        a = draw(st.integers(1, 3))
        return a * m, draw(st.integers(0, a - 1)) * m + draw(st.integers(1, m - 1))

    triples, left = [], v
    while left:
        p = draw(st.integers(1, min(3, left)))
        triples.append((*phi_once(), p))
        left -= p
    if m > 1 and draw(st.booleans()):
        p = draw(st.integers(1, 2))
        triples += [(*carried_unit(draw, m), -p), (*phi_once(), p)]
    # factors prime to Phi_m: C(t, b)_q with t < m, and C(a m, c m)_q, whose
    # integer part C(a, c) keeps it from dividing
    prime = st.one_of(
        small_prime(m),
        st.integers(0, 3).flatmap(lambda a: st.tuples(st.just(a * m), st.integers(0, a).map(lambda c: c * m))))
    triples += [(t, b, draw(st.integers(-2 if t < m else 0, 3))) for t, b in draw(st.lists(prime, max_size=2))]
    if draw(st.booleans()):
        triples.append((*unit_divisor(draw, m, 2 * m - 1), -1))
    return draw(st.integers(-3, 3)), draw(st.integers(-30, 30)), tuple(triples)


@st.composite
def kernel_terms(draw, m, k):
    """Up to three specs inside the closed forms at Phi_m^k: with residues 0
    when k <= 3 (always when m = 1), or of valuation k - 1 or k."""
    def term():
        if m == 1 or k <= 3 and draw(st.booleans()):
            return plain_term(draw, m)
        return valued_term(draw, m, draw(st.integers(k - 1, k)))
    return [term() for _ in range(draw(st.integers(0, 3)))]


x_coefficients = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=24), max_size=4)


@settings(max_examples=80, deadline=None)
@given(kernel_moduli, x_coefficients, st.data())
def test_binomial_sum_residue_equals_built_residue(mk, rhs, data):
    m, k = mk
    terms = data.draw(kernel_terms(m, k))
    assert binomial_sum_residue(terms, rhs[:k], m, k) == built_residue(terms, rhs[:k], m, k)


@settings(max_examples=60, deadline=None)
@given(kernel_moduli, x_coefficients, st.data())
def test_dividing_by_q_binomials_prime_to_phi(mk, rhs, data):
    # C(t, b)_q with t < m has no factor Phi_m and integer part 1, so every
    # such quotient has a residue; its residues are not 0, so at k > 1 the
    # terms have valuation k - 1 or k (at m = 1 the divisor is 1)
    m, k = mk
    divisor = small_prime(m)
    terms = [valued_term(data.draw, m, data.draw(st.integers(k - 1, k)) if m > 1 else 0)
             for _ in range(data.draw(st.integers(0, 3)))]
    terms = [(w, e, triples + tuple((t, b, -1) for t, b in data.draw(st.lists(divisor, max_size=2))))
             for w, e, triples in terms]
    assert binomial_sum_residue(terms, rhs[:k], m, k) == built_residue(terms, rhs[:k], m, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.data())
def test_both_routes_refuse_a_term_of_negative_valuation(m, k, data):
    # 1/C(a m, c m + r)_q with 0 < r < m has Phi_m-valuation -1; with the
    # bottom index out of range the q-binomial vanishes
    a = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, a - 1))
    r = data.draw(st.integers(1, m - 1))
    refused = data.draw(st.sampled_from([
        (1, 0, ((a * m, c * m + r, -1),)),
        (2, 3, ((a * m, c * m + r, -1), (m - 1, 1, 1))),
        (-1, 0, ((a, a + 1, -1),)),
    ]))
    others = data.draw(kernel_terms(m, k))
    with pytest.raises(NotInvertibleError):
        built_residue(others + [refused], [], m, k)
    with pytest.raises(NotInvertibleError):
        binomial_sum_residue(others + [refused], [], m, k)


#: (term, m, k) outside the closed forms, each with a residue the built route finds
OUTSIDE = [
    # residues 1 and 2 and valuation 0: a series coefficient at a nonzero residue
    ((1, 0, ((3, 1, 1),)), 5, 2),
    # residues 0, but read to L^3
    ((2, 1, ((10, 5, 1),)), 5, 4),
    # 1/C(2m, m)_q: the integer part C(2, 1) = 2 divides
    ((1, 0, ((6, 3, -1),)), 3, 1),
    # residues 3 and 4, no carry: neither complementary nor a q-integer
    ((1, 0, ((7, 3, 1),)), 11, 1),
    # residues 5 and 8, carried to rho = 4: valuation 1, read from its lead at k = 2
    ((1, 0, ((13, 5, 1),)), 9, 2),
]


@pytest.mark.parametrize("term, m, k", OUTSIDE,
                         ids=["nonzero-residue", "past-L2", "divisor-2", "no-carry", "carried"])
def test_terms_outside_the_closed_forms_are_refused(term, m, k):
    assert not built_residue([term], [], m, k).is_zero()
    with pytest.raises(ValueError, match=re.escape(repr(term))) as refused:
        binomial_sum_residue([term], [], m, k)
    assert not isinstance(refused.value, NotInvertibleError)


@pytest.mark.parametrize("m", [6, 10, 12, 15])
def test_q_integer_leads_match_the_built_residue(m):
    # [rho]_q = C(rho, 1)_q = C(rho, rho - 1)_q to the power p, at every rho < m,
    # gcd(rho, m) > 1 included, times C(2m, m + 1)_q^(k - 1), complementary,
    # so that the term is read from its lead alone
    for k in (1, 2, 3):
        for rho in range(2, m):
            for b, p in itertools.product((1, rho - 1), (-2, -1, 1, 2)):
                term = (3, rho, ((rho, b, p), (2 * m, m + 1, k - 1)))
                assert binomial_sum_residue([term], [], m, k) == built_residue([term], [], m, k), \
                    (m, k, rho, b, p)


def test_a_divisor_of_integer_part_minus_one_is_a_unit():
    # C(5, 2)_q carries at m = 5, so its integer part is -1, and
    # C(5, 3)_q / C(5, 2)_q = 1
    term = (1, 0, ((5, 3, 1), (5, 2, -1)))
    assert binomial_sum_residue([term], [1], 5, 1).is_zero()
    assert binomial_sum_residue([term], [2], 5, 1) == -1 == built_residue([term], [2], 5, 1)


# bases as the Phi_m^3 checkers pass them: weight-1 specs with exponents of
# either sign and powers p >= 0, some q-binomials vanishing; and the bases of
# the lambda-mu and four-index families with every alpha they accept
spec_bases = st.lists(st.tuples(st.integers(-30, 30),
                                st.lists(st.tuples(st.integers(0, 12), st.integers(-1, 13),
                                                   st.integers(0, 5)), max_size=3).map(tuple)),
                      max_size=4)
lambda_mu_bases = st.builds(
    apery_q_lambda_mu_terms, st.integers(0, 5), st.integers(2, 5), st.integers(0, 5),
    st.sampled_from([a for a in list_alphas() if a.arity in (0, 1)]))
four_index_bases = st.builds(
    apery_q_multivariate_terms, st.tuples(*[st.integers(0, 4)] * 4),
    st.sampled_from([a for a in list_alphas() if a.arity in (0, 4)]))
bases = st.one_of(spec_bases, lambda_mu_bases, four_index_bases)
cube_c = st.fractions(min_value=-5, max_value=5, max_denominator=24)


def summed_base(specs):
    return sum((sequences._summand(e, triples) for e, triples in specs), LaurentPoly.zero())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), spec_bases, cube_c)
def test_cube_rhs_is_the_substituted_base(m, base, c):
    mod = Modulus(m, 3)
    rhs = _cube_rhs(m, base, c)
    assert len(rhs) == 3
    assert reduce_mod(x_poly(m, rhs), mod) == cube_residue(m, LaurentPoly.zero(), summed_base(base),
                                                           c, mod) * -1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), bases, cube_c)
def test_cube_rhs_moments_match_the_kernel_and_the_built_base(m, specs, c):
    # the kernel reads the base modulo (q - 1)^3, as x divides q^(m^2) - 1,
    # and so does reduce_mod of the built base
    kernel_read = binomial_sum_residue([(1, e, triples) for e, triples in specs], [], 1, 3)
    assert kernel_read == reduce_mod(summed_base(specs), Modulus(1, 3))
    rhs = _cube_rhs(m, specs, c)
    assert all(isinstance(r, (int, Fraction)) for r in rhs)
    assert rhs == substituted_rhs(m, kernel_read, c)


@pytest.mark.parametrize("specs", [[(0, ((4, 2, -1),))], [(3, ((5, 1, 2), (2, 7, -1)))]])
def test_cube_rhs_refuses_a_base_that_divides(specs):
    # not even a vanishing q-binomial to a negative power is skipped
    with pytest.raises(ValueError, match="divides by a q-binomial"):
        _cube_rhs(2, specs, 0)


def test_a_divided_q_integer_matches_inverse_mod():
    # the cross route of qbin-prop: 1/[j]_q is the spec factor (j, 1, -1);
    # C(3 m, m + 1)_q has valuation 1, so k is at most qbin-prop's 2
    for m in range(2, 9):
        for k in (1, 2):
            mod = Modulus(m, k)
            for j in range(1, m):
                want = reduce_mod(q_power(2) * qbin(3 * m, m + 1) * inverse_mod(q_integer(j), mod), mod)
                assert binomial_sum_residue([(1, 2, ((3 * m, m + 1, 1), (j, 1, -1)))], [], m, k) \
                    == want, (m, k, j)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.data())
def test_dropping_a_term_of_valuation_k_leaves_the_residue(m, k, data):
    # C(a m, c m + r)_q with 0 < r < m has Phi_m-valuation exactly 1
    a = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, a - 1))
    r = data.draw(st.integers(1, m - 1))
    p = data.draw(st.integers(k, k + 1))
    e = data.draw(st.integers(-20, 20))
    dropped = (data.draw(st.integers(-3, 3)), e, ((a * m, c * m + r, p),))
    others = data.draw(kernel_terms(m, k))
    rhs = data.draw(x_coefficients)[:k]
    assert reduce_mod(built_term(*dropped, Modulus(m, k)), Modulus(m, k)).is_zero()
    with_term = binomial_sum_residue(others + [dropped], rhs, m, k)
    assert with_term == binomial_sum_residue(others, rhs, m, k)
    assert with_term == built_residue(others + [dropped], rhs, m, k)


# -- the valuations the closed forms read: k - 1 from the lead, 0 to L^(k-1) -----


def phi_valuation(triples, m):
    """The Phi_m-valuation of prod C(t, b)_q^p, by dividing each built
    q-binomial by Phi_m while it divides."""
    phi, total = cyclotomic(m), 0
    for t, b, p in triples:
        f = qbin(t, b)
        while True:
            quotient, remainder = divrem(f, phi)
            if not remainder.is_zero():
                break
            f, total = quotient, total + p
    return total


@settings(max_examples=50, deadline=None)
@given(kernel_moduli, st.data())
def test_every_valuation_group_matches_the_built_residue(mk, data):
    # a term of valuation k - 1 (m > 1) and, for k <= 3, one with residues 0,
    # and up to three more; then the statement made to hold by its own
    # negation, and broken by raising one of the first terms' weight by one
    m, k = mk
    terms = [valued_term(data.draw, m, k - 1)] if m > 1 else []
    if k <= 3:
        terms.append(plain_term(data.draw, m, vanishing=False))
    first = len(terms)
    terms += data.draw(kernel_terms(m, k))
    rhs = data.draw(x_coefficients)[:k]
    i = data.draw(st.integers(0, first - 1))
    holding = terms + [(-w, e, triples) for w, e, triples in terms]
    w, e, triples = holding[len(terms) + i]
    broken = holding[:len(terms) + i] + [(w + 1, e, triples)] + holding[len(terms) + i + 1:]
    want_broken = built_residue(broken, [], m, k)
    assert binomial_sum_residue(terms, rhs, m, k) == built_residue(terms, rhs, m, k)
    assert binomial_sum_residue(holding, [], m, k).is_zero()
    assert binomial_sum_residue(broken, [], m, k) == want_broken
    assert not want_broken.is_zero()


def four_index_edges():
    alphas = [a.name for a in list_alphas() if a.arity in (0, 4)]
    return [(m, t, alpha) for m in (1, 3) for t in ((0, 0, 0, 0), (2, 1, 0, 1), (1, 2, 2, 1))
            for alpha in alphas]


#: every kernel checker at its edges: m = 1, n = 0, a bottom index out of
#: range, qbin-prop's k in {0, n, n + 1} with every j < m, and every alpha
EDGES = {
    "ljunggren": (check_ljunggren_q, [(1, 3, 2), (4, 0, 0), (3, 2, 3), (5, 4, 2), (2, 5, 5)]),
    "wolstenholme-q": (check_wolstenholme_q, [(1,), (2,), (5,)]),
    "corollary": (check_corollary, [(1, 0), (1, 3), (4, 0), (5, 3)]),
    "main": (check_main_theorem, four_index_edges()),
    "s1s2": (check_s1_s2_decomposition, four_index_edges()),
    "generalized": (check_generalized_theorem, [
        (m, n, lam, mu, alpha.name) for m in (1, 3) for n in (0, 2) for lam, mu in ((2, 0), (3, 1))
        for alpha in list_alphas() if alpha.arity in (0, 1)]),
    "qbin-prop": (check_qbin_prop, [(m, n, k, j) for m in (2, 4) for n in (0, 2)
                                    for k in sorted({0, n, n + 1}) for j in range(1, m)]),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_a_checker_term_is_read_in_closed_form(monkeypatch, name):
    # every term a kernel checker passes has valuation k - 1 or more, or
    # residues 0 and k <= 3, and divides only by q-binomials prime to Phi_m:
    # none reaches the refusal, and a holding statement recovers no residue
    run, instances = EDGES[name]
    calls = record_kernel(monkeypatch)
    monkeypatch.setattr(_Field, "residue", unreachable("a residue was recovered"))
    for args in instances:
        assert run(*args).holds, args
    assert calls
    for terms, _, m, k, _ in calls:
        for _, _, triples in terms:
            live = [(t, b, p) for t, b, p in triples if p]
            if any(not 0 <= b <= t for t, b, _ in live):
                continue  # a vanishing term, skipped
            plain = all(t % m == b % m == 0 for t, b, _ in live)
            assert phi_valuation(live, m) >= k - 1 or plain and k <= 3, (name, triples)
            assert all(t < m for t, _, p in live if p < 0), (name, triples)


@pytest.mark.parametrize("name", sorted(EDGES))
def test_no_kernel_checker_builds_a_modulus(monkeypatch, name):
    # neither as stated nor perturbed, where a residue is read, is Phi_m^k formed
    run, instances = EDGES[name]
    monkeypatch.setattr(qapery.cyclotomic, "_modulus_parts", unreachable("a Modulus was built"))
    for args in instances:
        assert run(*args).holds, args
    kernel = checks.binomial_sum_residue
    perturb = raise_weight if name == "qbin-prop" else raise_c
    monkeypatch.setattr(checks, "binomial_sum_residue", lambda *call: kernel(*perturb(*call)))
    for args in instances:
        # [m n]_q, the term qbin-prop's weight multiplies, is 0 at n = 0
        assert run(*args).holds is (name == "qbin-prop" and args[1] == 0), args


# -- vanishing sums that are not a sum less itself ---------------------------------


def vanishes_and_breaks(terms, m, k, broken):
    """The kernel finds the sum ``terms`` zero, as the built route does, and
    ``broken``, the statement with one term perturbed, has the built residue."""
    assert built_residue(terms, [], m, k).is_zero()
    assert binomial_sum_residue(terms, [], m, k).is_zero()
    assert binomial_sum_residue(broken, [], m, k) == built_residue(broken, [], m, k)


@settings(max_examples=80, deadline=None)
@given(kernel_moduli, st.data())
def test_q_pascal_times_a_common_product_vanishes(mk, data):
    # C(t, b) = C(t-1, b-1) + q^b C(t-1, b) = q^(t-b) C(t-1, b-1) + C(t-1, b),
    # times a common product of valuation k - 1, so that each term has
    # valuation k - 1 or k (at m = 1, every term has residues 0); at
    # t = a m and b = c m +- 1 each q-binomial has a residue 0, or its lead is
    # complementary (C(t, b)) or a q-integer
    m, k = mk
    a = data.draw(st.integers(1, max(1, 20 // m)))
    t = a * m
    b = data.draw(st.sampled_from([c * m + 1 for c in range(a)] + [c * m - 1 for c in range(1, a + 1)]))
    _, _, common = valued_term(data.draw, m, k - 1 if m > 1 else 0)
    w, e = data.draw(st.integers(-3, 3).filter(bool)), data.draw(st.integers(-30, 30))
    low, high = (b, 0) if data.draw(st.booleans()) else (0, t - b)
    terms = [(w, e, ((t, b, 1),) + common), (-w, e + high, ((t - 1, b - 1, 1),) + common),
             (-w, e + low, ((t - 1, b, 1),) + common)]
    broken = terms[:2] + [(-w, e + low + 1, ((t - 1, b, 1),) + common)]
    vanishes_and_breaks(terms, m, k, broken)


@settings(max_examples=80, deadline=None)
@given(kernel_moduli, st.data())
def test_quotient_by_a_q_binomial_vanishes(mk, data):
    # C(t, b)^p C(t, b)^-p y - y for a term y of valuation k - 1 (0 at m = 1):
    # the leads of C(t, b)_q and of its inverse multiply to 1, carried or not;
    # the divisor has integer part 1, or -1 to an even power
    m, k = mk
    if m > 1 and data.draw(st.booleans()):
        (t, b), p = carried_unit(data.draw, m), 2
    else:
        (t, b), p = unit_divisor(data.draw, m, 20), data.draw(st.integers(1, 2))
    w, e, common = valued_term(data.draw, m, k - 1 if m > 1 else 0)
    w = w or 1
    terms = [(w, e, ((t, b, p), (t, b, -p)) + common), (-w, e, common)]
    broken = [(w, e, ((t, b, p), (t, b, -p)) + common), (-w, e + 1, common)]
    vanishes_and_breaks(terms, m, k, broken)


# -- reach: instances whose left side would be large fail when perturbed -------

def plus_one(fn):
    return lambda *args: fn(*args) + 1


@pytest.mark.parametrize("m, n", [(2, 3), (5, 2), (10, 8)])
def test_corollary_builds_only_the_small_side(monkeypatch, m, n):
    # the small side A_q(n) is only read off its specs, with no kernel call
    # of its own, and nothing is built
    make_builders_raise(monkeypatch)
    calls = record_kernel(monkeypatch)
    sides = record_cube_rhs(monkeypatch)
    assert check_corollary(m, n).holds
    assert [base for _, base, _ in sides] == [apery_q_lambda_mu_terms(n, 2, 2, "nksq")]
    assert [call[2:4] for call in calls] == [(m, 3)]


#: every Phi_m^3 checker at m = 2 and at m = 1
CUBE_AT_M = [
    ("ljunggren", lambda m: check_ljunggren_q(m, 4, 2)),
    ("wolstenholme-q", lambda m: check_wolstenholme_q(m)),
    ("main", lambda m: check_main_theorem(m, (2, 1, 2, 1), "kn23")),
    ("s1s2", lambda m: check_s1_s2_decomposition(m, (2, 1, 2, 1), "ksq")),
    ("corollary", lambda m: check_corollary(m, 3)),
    ("generalized", lambda m: check_generalized_theorem(m, 3, 3, 1, "kk2n")),
]


@pytest.mark.parametrize("run", [c[1] for c in CUBE_AT_M], ids=[c[0] for c in CUBE_AT_M])
def test_a_cube_check_calls_the_kernel_at_m_1_only_when_its_m_is_1(monkeypatch, run):
    calls = record_kernel(monkeypatch)
    for m in (2, 1):
        assert run(m).holds
        assert calls and {call[2:4] for call in calls} == {(m, 3)}, m
        calls.clear()


def test_corollary_reach_can_fail(monkeypatch):
    # m*n = 80: the full route builds a polynomial of degree 12,800
    assert check_corollary(10, 8).holds
    monkeypatch.setattr(checks, "correction_R_lambda_mu", plus_one(checks.correction_R_lambda_mu))
    report = check_corollary(10, 8)
    assert report.holds is False
    assert report.first_residue_coeff not in (None, 0)


@pytest.mark.parametrize("m, n", [(16, 256), (64, 64), (2, 1024)])
def test_corollary_at_m_n_4096_and_2048_holds_and_can_fail(monkeypatch, m, n):
    # m n = 4096 and 2048: admitted by the work budget, each well under a
    # second; the full left side at (16, 256) would have degree 33,554,432
    assert check_corollary(m, n).holds
    monkeypatch.setattr(checks, "correction_R_lambda_mu", plus_one(checks.correction_R_lambda_mu))
    report = check_corollary(m, n)
    assert report.holds is False
    assert report.first_residue_coeff not in (None, 0)


def test_main_reach_can_fail(monkeypatch):
    n = (8, 8, 8, 8)
    assert check_main_theorem(5, n, "ksq").holds
    monkeypatch.setattr(checks, "correction_R_multivariate",
                        plus_one(checks.correction_R_multivariate))
    report = check_main_theorem(5, n, "ksq")
    assert report.holds is False
    assert report.first_residue_coeff not in (None, 0)


# -- the work budget -------------------------------------------------------------

OVERSIZED = [
    ("corollary", {"m": 1000, "n": 1000}),
    ("main", {"m": 1000, "n1": 1000, "n2": 1, "n3": 1, "n4": 1, "alpha": "ksq"}),
    ("generalized", {"m": 1000, "n": 1000, "lambda": 2, "mu": 1, "alpha": "ksq"}),
    ("ljunggren", {"n": 16, "a": 10 ** 7, "b": 1}),
    ("wolstenholme-q", {"n": 6000}),
    ("s1s2", {"m": 16, "n1": 2000, "n2": 2000, "n3": 2000, "n4": 2000, "alpha": "ksq"}),
    ("qbin-prop", {"m": 9000, "n": 50, "k": 25, "j": 1}),
    ("lucas", {"n": 100, "a": 50, "b": 3, "r": 25, "s": 1}),
]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Make the kernel and every builder raise if an instance gets past the budget."""
    raising = unreachable("an instance over the work budget got past it")
    for name in ("binomial_sum_residue", "apery_q_multivariate_terms", "apery_q_lambda_mu_terms",
                 "ResidueRing", "Modulus"):
        monkeypatch.setattr(checks, name, raising)
    for module, name in BUILDERS + [(qcombinatorics, "Modulus")]:
        monkeypatch.setattr(module, name, raising)


@pytest.mark.parametrize("name, params", OVERSIZED, ids=[c[0] for c in OVERSIZED])
def test_oversized_instance_is_refused(nothing_runs, name, params):
    with pytest.raises(PreconditionError, match="work budget"):
        checks.run_named_check(name, params)


def test_oversized_verify_is_a_usage_error(nothing_runs, capsys):
    code = main(["verify", "corollary", "--m", "1000", "--n", "1000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "work budget" in err


@pytest.mark.parametrize("name, params", OVERSIZED[4:], ids=[c[0] for c in OVERSIZED[4:]])
def test_oversized_verify_of_a_guarded_full_route_checker_exits_2(nothing_runs, capsys, name, params):
    argv = ["verify", name]
    for key, value in params.items():
        argv += ["--" + key, str(value)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "work budget" in err


def test_oversized_sweep_instances_are_skipped(nothing_runs):
    spec = SweepSpec("corollary", ranges={"m": (1000, 1000, 1), "n": (999, 1000, 1)}, jobs=1)
    summary = run_sweep(spec)["summary"]
    assert (summary["total"], summary["skipped"]) == (0, 2)


# (n, a, b, r, s): the first a whose estimate for C(2 a, 9)_q and Phi_2 is
# over the work budget, and the one before it, the last admitted
LUCAS_FIRST_REFUSED = (2, 16467, 0, 4, 1)
LUCAS_LAST_ADMITTED = (2, 16466, 0, 4, 1)


def lucas_work(n, a, b, r, s):
    return qbin_work(a * n + b, r * n + s) + modulus_work(n)


def test_lucas_guard_refuses_the_first_oversized_degree(nothing_runs):
    assert lucas_work(*LUCAS_LAST_ADMITTED) <= WORK_BUDGET < lucas_work(*LUCAS_FIRST_REFUSED)
    with pytest.raises(PreconditionError, match="work budget"):
        check_q_lucas(*LUCAS_FIRST_REFUSED)


def test_lucas_guard_admits_the_last_degree(monkeypatch):
    # the last admitted instance is about 8 s of work, so it stops at its first build
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted()
    monkeypatch.setattr(qcombinatorics, "Modulus", admitted)
    with pytest.raises(Admitted):
        check_q_lucas(*LUCAS_LAST_ADMITTED)


# Instances with a large base: A_q(5000) at m = 1, and a base with
# q-binomials to the power lambda = 10^7.
OVERSIZED_BASE = [
    ["corollary", "--m", "1", "--n", "5000"],
    ["generalized", "--m", "2", "--n", "3", "--lambda", "10000000", "--mu", "0"],
]


@pytest.fixture
def no_base_is_built(monkeypatch):
    """Make the kernel and every builder raise if an instance gets past the budget."""
    raising = unreachable("an oversized base got past the work budget")
    monkeypatch.setattr(checks, "binomial_sum_residue", raising)
    for module, name in BUILDERS:
        monkeypatch.setattr(module, name, raising)


@pytest.mark.parametrize("argv", OVERSIZED_BASE, ids=[a[0] for a in OVERSIZED_BASE])
def test_oversized_base_verify_is_a_usage_error(no_base_is_built, capsys, argv):
    code = main(["verify"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "work budget" in err


def test_oversized_base_sweep_instances_are_skipped(no_base_is_built):
    specs = [
        SweepSpec("corollary", ranges={"m": (1, 1, 1), "n": (5000, 5000, 1)}, jobs=1),
        SweepSpec("generalized", ranges={"m": (2, 2, 1), "n": (3, 3, 1),
                                         "lambda": (10 ** 7, 10 ** 7, 1), "mu": (0, 0, 1)},
                  jobs=1),
    ]
    for spec in specs:
        summary = run_sweep(spec)["summary"]
        assert (summary["total"], summary["skipped"]) == (0, 1)


@pytest.fixture
def reached(monkeypatch):
    """Make the kernel raise ``Reached``: an instance got past the budget."""
    class Reached(Exception):
        pass

    def raising(*args):
        raise Reached()
    monkeypatch.setattr(checks, "binomial_sum_residue", raising)
    return Reached


def test_guard_admits_the_stated_reach(reached):
    # m n = 1024 at m = 16 and 8, and the four-index sum at m = 16, n_i = 32
    for check, args in ((check_corollary, (16, 64)), (check_corollary, (8, 128)),
                        (check_main_theorem, (16, (32, 32, 32, 32))),
                        (check_generalized_theorem, (3, 2, 10 ** 4, 0))):
        with pytest.raises(reached):
            check(*args)


def test_base_guard_admits_the_stated_reach(reached):
    # the base-span guard refused these, whose left sides are decided in seconds
    for m, n in ((2, 256), (1, 512)):
        with pytest.raises(reached):
            check_corollary(m, n)
