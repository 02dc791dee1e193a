"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every statement is exact (polynomial or integer identity/congruence), so
tolerances are exact equality throughout.  Run with `pytest -s` to see the
per-criterion lines.
"""

import itertools
import math
import time
from fractions import Fraction

from qapery.checks import (
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
)
from qapery.cli import SweepSpec, run_sweep
from qapery.cyclotomic import (
    Modulus,
    congruent,
    cyclotomic,
    cyclotomic_at_one,
    integer_coefficient_check,
    reduce_mod,
)
from qapery.laurent import LaurentPoly, divrem, ext_gcd, q_power
from qapery.qcombinatorics import (
    check_q_lucas,
    q_binomial,
    q_pochhammer,
    qbin,
    qbin_cyclotomic_support,
)
from qapery.qcommute import expand_linear_form_product
from qapery.sequences import (
    almkvist_zudilin,
    apery,
    apery_diagonal_oracle,
    apery_lambda_mu,
    apery_multivariate,
    apery_q_krz,
    apery_q_krz_binform,
    az_diagonal_oracle,
    krz_partial_fraction_coeff,
)


def report(criterion, ok, detail=""):
    print("acceptance %-38s %s%s" % (criterion, "PASS" if ok else "FAIL",
                                     " (%s)" % detail if detail else ""))
    assert ok, criterion


def test_criterion_01_ljunggren_sweep():
    started = time.perf_counter()
    bad = [
        (n, a, b)
        for n in range(1, 13)
        for a in range(0, 6)
        for b in range(0, a + 1)
        if not check_ljunggren_q(n, a, b).holds
    ]
    elapsed = time.perf_counter() - started
    report("01 q-Ljunggren n<=12 a<=5 b<=a", not bad and elapsed < 120.0,
           "%.1fs single-threaded" % elapsed)


def test_criterion_02_wolstenholme():
    bad = [n for n in range(1, 21) if not check_wolstenholme_q(n).holds]
    report("02 q-Wolstenholme n 1..20", not bad)


def test_criterion_03_harmonic_congruences():
    bad = [
        (n, which)
        for n in range(2, 26)
        for which in ("sp1", "sp2", "sp3")
        if not check_harmonic_sp(n, which).holds
    ]
    report("03 harmonic sp1/sp2/sp3 n 2..25", not bad)


def test_criterion_04_q_lucas_grid():
    bad = [
        (n, a, b, r, s)
        for n in range(2, 11)
        for a in range(0, 5)
        for r in range(0, 5)
        for b in range(0, n)
        for s in range(0, n)
        if not check_q_lucas(n, a, b, r, s).holds
    ]
    report("04 q-Lucas grid n 2..10", not bad)


def test_criterion_05_main_theorem():
    tuples = list(itertools.product(range(3), repeat=4))
    grid = [(m, t) for m in range(1, 5) for t in tuples]
    grid += [(m, (n, n, n, n)) for m in (5, 6) for n in range(3)]
    bad = [
        (m, t, alpha, which)
        for m, t in grid
        for alpha in ("ksq", "kn23")
        for which, checker in (("main", check_main_theorem),
                               ("s1s2", check_s1_s2_decomposition))
        if not checker(m, t, alpha).holds
    ]
    report("05 main theorem + S1/S2 decomposition", not bad)


def test_criterion_06_corollary_and_q1_specialization():
    bad = [
        (m, n) for m in range(1, 7) for n in range(0, 4)
        if not check_corollary(m, n).holds
    ]
    integer_bad = [
        (p, n)
        for p in (5, 7, 11)
        for n in range(1, 5)
        if (apery(p * n) - apery(n)) % p ** 3 != 0
        or not check_classical_supercongruences(p, n, "apery").holds
    ]
    # Gauss pathway: for prime m coprime to 6 the difference polynomial has
    # integer coefficients and its value at q = 1 is A(mn) - A(n)
    gauss_bad = []
    for m in (5, 7):
        for n in range(1, 4):
            diff = (
                apery_q_krz_binform(m * n)
                - apery_q_krz_binform(n).substitute_power(m * m)
                + Fraction(m * m - 1, 12) * n * n * apery(n) * (q_power(m) - 1) ** 2
            )
            if not integer_coefficient_check(diff):
                gauss_bad.append((m, n, "coefficients"))
            if diff(1) != apery(m * n) - apery(n) or diff(1) % m ** 3 != 0:
                gauss_bad.append((m, n, "value"))
    report("06 corollary + q=1 supercongruence", not (bad or integer_bad or gauss_bad))


def test_criterion_07_generalized_theorem():
    pairs = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 2))
    bad = [
        (lam, mu, m, n)
        for lam, mu in pairs
        for m in range(1, 6)
        for n in range(0, 4)
        if not check_generalized_theorem(m, n, lam, mu, "ksq").holds
    ]
    # central q-binomial specialization, verified from primitives
    central_bad = []
    for m in range(1, 7):
        for n in range(1, 4):
            lhs = qbin(2 * m * n, m * n)
            rhs = qbin(2 * n, n).substitute_power(m * m) - (
                Fraction(m * m - 1, 12) * Fraction(n * n, 2) * math.comb(2 * n, n)
            ) * (q_power(m) - 1) ** 2
            if not congruent(lhs, rhs, Modulus(m, 3)):
                central_bad.append((m, n))
    report("07 generalized theorem + central case", not (bad or central_bad))


def test_criterion_08_qbin_prop():
    bad = [
        (m, j, n, k)
        for m in range(2, 9)
        for j in range(1, m)
        for n in range(1, 5)
        for k in range(0, n)
        if not check_qbin_prop(m, n, k, j).holds
    ]
    report("08 residue-class binomial prop grid", not bad)


def test_criterion_09_krz_chain():
    ratio_bad = []
    for n in range(0, 7):
        for k in range(0, n + 1):
            denom = q_pochhammer(-1, k, inverted_base=True) ** 2 * q_pochhammer(1, n - k)
            lhs = krz_partial_fraction_coeff(n, k) * denom ** 2
            rhs = q_pochhammer(-1, n + k, inverted_base=True) ** 2
            if lhs != rhs:
                ratio_bad.append((n, k))
    recon_bad = [
        n for n in range(0, 7)
        if q_power(n * (2 * n + 1)) * apery_q_krz(n) != apery_q_krz_binform(n)
    ]
    transform_bad = [
        n for n in range(0, 11)
        if q_pochhammer(1, n)
        != (-1) ** n * q_power(n * (n + 1) // 2) * q_pochhammer(-1, n, inverted_base=True)
    ]
    report("09 partial-fraction chain", not (ratio_bad or recon_bad or transform_bad))


def test_criterion_10_identities():
    bad = [n for n in range(1, 16) if not check_harmonic_identity_classical(n).holds]
    bad += [("q", n) for n in range(1, 7) if not check_zheng_identity(n).holds]
    report("10 harmonic + q-harmonic identities", not bad)


def test_criterion_11_oracle_equivalences():
    diag_bad = [
        n
        for n in itertools.product(range(11), repeat=4)
        if sum(n) <= 10 and apery_diagonal_oracle(n) != apery_multivariate(n)
    ]

    nonsym_order = lambda n: [((0, 1, 2), n[0]), ((0, 1), n[1]), ((2, 3), n[2]), ((1, 2, 3), n[3])]
    sym_order = lambda n: [((0, 1), n[1]), ((0, 1, 2), n[0]), ((1, 2, 3), n[3]), ((2, 3), n[2])]

    def closed(n, weight):
        total = LaurentPoly()
        for k in range(min(n[0], n[2]) + 1):
            total = total + (
                q_power(weight(k)) * qbin(n[0], k) * qbin(n[2], k)
                * qbin(n[0] + n[1] - k, n[0]) * qbin(n[2] + n[3] - k, n[2])
            )
        return total

    extract_bad = []
    for n in itertools.product(range(4), repeat=4):
        got = expand_linear_form_product(nonsym_order(n), 4).coefficient_of(n)
        if got != closed(n, lambda k: k * (n[1] + n[2] + k)):
            extract_bad.append(("nonsym", n))
        got = expand_linear_form_product(sym_order(n), 4).coefficient_of(n)
        if got != closed(n, lambda k: k * k):
            extract_bad.append(("sym", n))

    method_bad = [
        (n, k)
        for n in range(0, 31)
        for k in range(0, n + 1)
        if not (
            q_binomial(n, k, "factorial")
            == q_binomial(n, k, "pascal")
            == q_binomial(n, k, "cyclotomic")
            == qbin(n, k)
        )
    ]

    support_bad = []
    for n in range(0, 31):
        for k in range(0, n + 1):
            product = LaurentPoly.one()
            for d in sorted(qbin_cyclotomic_support(n, k)):
                product = product * cyclotomic(d)
            if product != q_binomial(n, k, "pascal"):
                support_bad.append((n, k))

    report("11 oracle equivalences",
           not (diag_bad or extract_bad or method_bad or support_bad))


def test_criterion_12_classical_integer_checks():
    lm_bad = [
        (lam, mu, p, n)
        for lam, mu in ((2, 1), (3, 0), (3, 1))
        for p in (5, 7)
        for n in range(1, 4)
        if not check_classical_supercongruences(p, n, "lambda-mu", lam, mu).holds
        or (apery_lambda_mu(p * n, lam, mu) - apery_lambda_mu(n, lam, mu)) % p ** 3 != 0
    ]
    az_bad = [
        (p, m)
        for p in (3, 5, 7)
        for m in range(1, 4)
        if not check_classical_supercongruences(p, m, "almkvist-zudilin").holds
        or (almkvist_zudilin(p * m) - almkvist_zudilin(m)) % p ** 3 != 0
    ]
    az_diag_bad = [n for n in range(0, 4) if az_diagonal_oracle(n) != almkvist_zudilin(n)]
    report("12 classical integer supercongruences", not (lm_bad or az_bad or az_diag_bad))


def test_criterion_13_property_suites():
    import random

    rng = random.Random(1729)
    ok = True

    # ring laws on random Laurent triples
    def rand_poly():
        return LaurentPoly({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(4)})

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ok &= (a + b) + c == a + (b + c)
        ok &= a * (b + c) == a * b + a * c
        ok &= a * b == b * a

    # q-binomial self-reciprocity
    for n in range(0, 16):
        for k in range(0, n + 1):
            f = qbin(n, k)
            ok &= f.reciprocal_reflect(k * (n - k)) == f

    # cyclotomic product formula and Phi_m(1) table
    for m in range(1, 61):
        product = LaurentPoly.one()
        for d in range(1, m + 1):
            if m % d == 0:
                product = product * cyclotomic(d)
        ok &= product == q_power(m) - 1
        if m >= 2:
            ok &= cyclotomic_at_one(m) == cyclotomic(m)(1)

    # Bezout identity on random ordinary pairs
    checked = 0
    while checked < 40:
        f = LaurentPoly({e: rng.randint(-9, 9) for e in range(rng.randint(1, 7))})
        g = LaurentPoly({e: rng.randint(-9, 9) for e in range(rng.randint(1, 7))})
        if f.is_zero() and g.is_zero():
            continue
        d, u, v = ext_gcd(f, g)
        ok &= u * f + v * g == d
        checked += 1

    # parallel sweep equals serial sweep
    base = dict(check_name="corollary", ranges={"m": (1, 4, 1), "n": (0, 2, 1)})
    serial = run_sweep(SweepSpec(jobs=1, **base))
    parallel = run_sweep(SweepSpec(jobs=3, **base))
    strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]
    ok &= strip(serial["results"]) == strip(parallel["results"])
    ok &= serial["summary"]["failed"] == 0

    report("13 module property suites", ok)
