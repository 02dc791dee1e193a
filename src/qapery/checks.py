"""Named checkers for every congruence and identity handled by the package.

Each checker recomputes both sides of one parameterized statement from the
arithmetic primitives (never reusing another checker's intermediates),
reduces the difference modulo the stated power of a cyclotomic polynomial
(or tests exact vanishing, for identities), and returns a CongruenceReport.
Congruences involving 1/[j]_q are verified twice: a multiplied-through
polynomial form is the primary route and a modular-inverse form is the
cross-check, since invertibility of [j]_q modulo Phi_m is itself part of
the claim.  ``zheng-identity`` is an exact identity in 1/[j]_q, with no
modulus to invert in, so it has one route: multiplied through by
prod [j]_q, it must vanish as a polynomial.

Every q-binomial congruence but ``lucas`` states its lhs as weighted
summand specs, (w, e, ((top, bottom, power), ...)) for w q^e times a product
of q-binomial powers, and its right side as coefficients of x = q^m - 1.
``cyclotomic.binomial_sum_residue(terms, rhs, m, k)`` decides the
difference without building it or Phi_m^k, from its image at
q = zeta_m e^L, where by q-Lucas each q-binomial is a classical binomial in
m-th of its indices times an element of Q(zeta_m) that depends on its
residues alone.  Every term these checkers pass is read from that lead
alone, or, when its q-binomials have residues 0, from their closed-form
series to L^2; a nonzero difference yields the canonical residue, the one
the full-polynomial route (kept in the tests as the oracle) gives.  The
q-Ljunggren, corollary, main and generalized theorems read
lhs == base(q^(m^2)) - c x^2 (mod Phi_m^3) and share ``_cube_congruence``.
As x divides q^(m^2) - 1, the right side needs only the base's value at
q = 1 and its first two moments, which ``_cube_rhs`` reads off the base's
specs in closed form.

``harmonic-sp`` decides both of its routes in ``ResidueRing(n, k)``,
Z[q]/((q^n - 1)^k), with no product of the [i]_q and no Euclid loop: the
primary route steps the last three elementary symmetric functions of the
[i]_q and reads the squared sums off them by Newton's identity, and the
cross route sums the squares of the inverses with one fold.  Each call
builds its own ring, in O(k n), and keeps nothing between calls.

Every checker first passes the estimated work of its route, the modulus
and any powers lambda and mu included, to ``reports.admit``, which refuses
an instance over the work budget before anything is built.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, lcm, prod

from .cyclotomic import Modulus, ResidueRing, _factorize, binomial_sum_residue, reduce_mod
from .laurent import LaurentPoly, _make, _over_one_minus, _times_one_minus, q_power
from .qcombinatorics import (
    binom,
    check_q_chu_vandermonde,
    check_q_lucas,
    q_integer,
    qbin_pow,
)
from .reports import (CongruenceReport, PreconditionError, _finish_poly, admit,
                      almkvist_zudilin_work, binomial_sum_work, finish_report, harmonic_work,
                      kernel_work, power_product_work)
from .sequences import (
    _multivariate_terms,
    almkvist_zudilin,
    apery,
    apery_lambda_mu,
    apery_q_lambda_mu_terms,
    apery_q_multivariate_terms,
    correction_R_lambda_mu,
    correction_R_multivariate,
    get_alpha,
)


def _cube_rhs(m, base, c):
    """The x-coefficients, x = q^m - 1, of base(q^(m^2)) - c x^2 modulo x^3,
    for a base of (e, ((t, b, p), ...)) summand specs, each of weight 1.

    base(q^(m^2)) = sum_e b_e (1 + x)^(m e) needs only V = sum b_e and the
    first two moments, sum e b_e and sum e^2 b_e.  C(t, b)_q has V = C(t, b),
    mean b (t - b)/2 and variance b (t - b)(t + 1)/12 (Mann and Whitney,
    1947), and a product adds its factors' means and variances; so with T1
    the sum of V times twice the mean and T2 that of V (12 variance + 3
    (twice the mean)^2), the coefficients are V, m T1/2 and
    m^2 T2/24 - m T1/4 (less c).  A summand with a vanishing q-binomial is
    skipped, as in the kernel; one that divides by a q-binomial is refused.
    """
    total = t1 = t2 = 0
    for e, triples in base:
        if any(p < 0 for *_, p in triples):
            raise ValueError("a base summand divides by a q-binomial")
        if any(p and not 0 <= b <= t for t, b, p in triples):
            continue
        value = prod(comb(t, b) ** p for t, b, p in triples if p)
        mean2 = 2 * e + sum(p * b * (t - b) for t, b, p in triples)
        var12 = sum(p * b * (t - b) * (t + 1) for t, b, p in triples)
        total += value
        t1 += value * mean2
        t2 += value * (var12 + 3 * mean2 * mean2)
    return [total, Fraction(m * t1, 2), Fraction(m * m * t2, 24) - Fraction(m * t1, 4) - c]


def _cube_work(m, low, top, depth):
    """The kernel's work on a base of low + 1 summands, each a product of
    q-binomials with top indices up to ``top`` and ``depth`` factors, powers
    counted: the m low + 1 terms of the left side, and the base's own low + 1
    read in closed form, each with an integer lead of about depth top bits."""
    return kernel_work(m, 3, (m + 1) * low + 2, depth * top)


def _cube_congruence(name, params, m, terms, base, c, started):
    """Report on sum(terms) == base(q^(m^2)) - c (q^m - 1)^2 (mod Phi_m^3).

    The terms and the base are (e, ((top, bottom, power), ...)) summand
    specs, each of weight 1, and neither is built; the residue is the
    canonical one, equal to reducing the built difference.
    """
    terms = [(1, e, triples) for e, triples in terms]
    residue = binomial_sum_residue(terms, _cube_rhs(m, base, c), m, 3)
    return _finish_poly(name, params, [residue], "Phi(%d)^3" % m, started)


def check_ljunggren_q(n: int, a: int, b: int) -> CongruenceReport:
    """Cube-modulus binomial congruence

        C(a*n, b*n)_q == C(a, b)_{q^(n^2)}
                         - (a-b) b C(a,b) (n^2-1)/24 (q^n - 1)^2   (mod Phi_n^3).
    """
    started = time.perf_counter()
    params = {"n": n, "a": a, "b": b}
    if n < 1 or a < 0 or b < 0:
        raise PreconditionError("requires n >= 1 and a, b >= 0")
    admit(_cube_work(n, 0, a, 2), "ljunggren")
    base = [(0, ((a, b, 1),))]
    c = Fraction((a - b) * b * binom(a, b) * (n * n - 1), 24)
    return _cube_congruence("ljunggren", params, n, [(0, ((a * n, b * n, 1),))], base, c, started)


def check_wolstenholme_q(n: int) -> CongruenceReport:
    """Central binomial congruence modulo Phi_n^3, in both stated forms:

        C(2n, n)_q == [2]_{q^(n^2)} - (n^2-1)/12 (q^n - 1)^2
        C(2n, n)_q == 2 + n (q^n - 1) + (n-1)(5n-1)/12 (q^n - 1)^2

    The two right-hand sides are then congruent to each other as well, so
    that equivalence needs no residue of its own.  Each form is one residue
    of the spec C(2n, n)_q against its x-coefficients, x = q^n - 1.
    """
    started = time.perf_counter()
    params = {"n": n}
    if n < 1:
        raise PreconditionError("requires n >= 1")
    admit(2 * _cube_work(n, 0, 2, 2), "wolstenholme-q")
    lhs = [(1, 0, ((2 * n, n, 1),))]
    forms = [_cube_rhs(n, [(0, ((2, 1, 1),))], Fraction(n * n - 1, 12)),
             [2, n, Fraction((n - 1) * (5 * n - 1), 12)]]
    residues = [binomial_sum_residue(lhs, rhs, n, 3) for rhs in forms]
    return _finish_poly("wolstenholme-q", params, residues, "Phi(%d)^3" % n, started)


def _q_integer_cofactors(n):
    """The product D of the [i]_q = (1 - q^i)/(1 - q) for 0 < i < n, and the
    cofactors D/[i]_q = D (1 - q)/(1 - q^i), each by two list steps."""
    product = [1]
    for i in range(1, n):
        product = _over_one_minus(_times_one_minus(product, i), 1)
    cofactors = [_make(0, _over_one_minus(_times_one_minus(product, 1), i)) for i in range(1, n)]
    return _make(0, product), cofactors


def _harmonic_rhs(n, which):
    """The right side of harmonic-sp's statement ``which``."""
    qm1 = q_power(1) - 1
    if which == "sp1":
        return -Fraction(n - 1, 2) * qm1 + Fraction(n * n - 1, 24) * qm1 ** 2 * q_integer(n)
    if which == "sp2":
        return -Fraction((n - 1) * (n - 5), 12) * qm1 ** 2
    return Fraction((n - 1) * (n - 2), 6) * qm1 ** 2


def _harmonic_residue(ring, mod, num, scale, w, rhs):
    """The residue of (lhs - rhs) w from the ring element num with
    num / scale = w lhs; rhs is an integer element and its denominator.
    A weight of ``ring.one`` takes no product."""
    rhs, rhs_den = rhs
    if w is not ring.one:
        rhs = ring.mul(rhs, w)
    diff = [rhs_den * a - scale * b for a, b in zip(num, rhs)]
    return reduce_mod(ring.to_poly(diff), mod) / (scale * rhs_den)


def check_harmonic_sp(n: int, which: str) -> CongruenceReport:
    """Harmonic-sum congruences over 0 < i < n (and 0 < i < j < n):

        sp1:  sum 1/[i]_q   == -(n-1)/2 (q-1) + (n^2-1)/24 (q-1)^2 [n]_q  (mod Phi_n^2)
        sp2:  sum 1/[i]_q^2 == -(n-1)(n-5)/12 (q-1)^2                     (mod Phi_n)
        sp3:  sum_{i<j} 1/([i]_q [j]_q) == (n-1)(n-2)/6 (q-1)^2           (mod Phi_n)

    Both routes run in ``ResidueRing(n, k)``, on lists of k n integers, and
    neither builds D = prod [i]_q.  The primary route is multiplied through.
    It keeps the last three elementary symmetric functions of
    [1]_q, ..., [t]_q: P_t = P_(t-1) [t]_q, S_t = S_(t-1) [t]_q + P_(t-1)
    and, for sp2 and sp3, E_t = E_(t-1) [t]_q + S_(t-1), each step a ring
    multiply by [t]_q with no product.  At t = n - 1 they are D,
    S = D sum 1/[i]_q and E = D sum_{i<j} 1/([i]_q [j]_q), so by Newton's
    identity D^2 sum 1/[i]_q^2 = S^2 - 2 P E and
    D^2 sum_{i<j} 1/([i]_q [j]_q) = P E.  The cross-check uses the explicit
    inverses h_i of ``ResidueRing.q_integer_inverse``, since invertibility
    of [i]_q modulo Phi_n is itself part of the claim, and sums their
    squares with one fold (``ResidueRing.sum_of_powers``);
    for sp3, +(sum h_i)^2 joins the -h_i^2 in the same sum.  The cross
    route's weight is one, so its right side takes no product.  Each residue is
    reduced once, over one common denominator, so it is the canonical one.
    The work, n^3 list steps and products, is admitted first.
    """
    started = time.perf_counter()
    params = {"n": n, "which": which}
    if which not in ("sp1", "sp2", "sp3"):
        raise PreconditionError("which must be one of sp1, sp2, sp3")
    if n < 2:
        raise PreconditionError("requires n >= 2")
    k = 2 if which == "sp1" else 1
    admit(harmonic_work(n, k), "harmonic-sp")
    mod = Modulus(n, k)
    ring = ResidueRing(n, k)
    rhs = _harmonic_rhs(n, which)
    rhs_den = lcm(*(Fraction(c).denominator for _, c in rhs.terms()))
    rhs = ring.from_poly(rhs * rhs_den), rhs_den

    squares = which != "sp1"
    p = ring.one
    s = e = [0] * ring.size
    for t in range(1, n):
        if squares:
            e = [a + b for a, b in zip(ring.mul_q_integer(e, t), s)]
        s = [a + b for a, b in zip(ring.mul_q_integer(s, t), p)]
        p = ring.mul_q_integer(p, t)
    num, w = s, p
    if squares:
        pe = ring.mul(p, e)
        num = pe if which == "sp3" else [a - 2 * b for a, b in zip(ring.mul(s, s), pe)]
        w = ring.mul(p, p)
    primary = _harmonic_residue(ring, mod, num, 1, w, rhs)

    inverses = [ring.q_integer_inverse(i) for i in range(1, n)]
    den = lcm(*(d for _, d in inverses))
    hs = [[c * (den // d) for c in v] for v, d in inverses]
    h1 = [sum(c) for c in zip(*hs)]
    if which == "sp1":
        num, scale = h1, den
    elif which == "sp2":
        num, scale = ring.sum_of_powers([(1, h) for h in hs]), den * den
    else:
        num = ring.sum_of_powers([(1, h1)] + [(-1, h) for h in hs])
        scale = 2 * den * den
    cross = _harmonic_residue(ring, mod, num, scale, ring.one, rhs)
    return _finish_poly("harmonic-sp", params, [primary, cross], str(mod), started)


def check_qbin_prop(m: int, n: int, k: int, j: int) -> CongruenceReport:
    """Residue-class binomial congruence modulo Phi_m^2 (0 < j < m):

        C(m*n, m*k + j)_q == (-1)^(j-1) q^((j-1)(2m-j)/2) [mn]_q / [j]_q * C(n-1, k).

    Both routes are spec sums, with [i]_q = C(i, 1)_q: the primary form
    clears the denominator, the cross-check divides by [j]_q through the spec
    factor (j, 1, -1), which is invertible since j < m.  The kernel reads the
    lead of [j]_q and of its inverse in closed form, as it does that of
    C(mn, mk + j)_q, whose residues are complementary.
    """
    started = time.perf_counter()
    params = {"m": m, "n": n, "k": k, "j": j}
    if not (0 < j < m):
        raise PreconditionError("requires 0 < j < m")
    if n < 0 or k < 0:
        raise PreconditionError("requires n, k >= 0")
    admit(2 * kernel_work(m, 2, 2, 2 * n + 64), "qbin-prop")
    # the right side's weight -(-1)^(j-1) C(n-1, k) and exponent, an integer
    weight, e = (-1) ** j * binom(n - 1, k), (j - 1) * (2 * m - j) // 2
    lhs = (m * n, m * k + j, 1)
    primary = binomial_sum_residue(
        [(1, 0, ((j, 1, 1), lhs)), (weight, e, ((m * n, 1, 1),))], [], m, 2)
    cross = binomial_sum_residue(
        [(1, 0, (lhs,)), (weight, e, ((m * n, 1, 1), (j, 1, -1)))], [], m, 2)
    return _finish_poly("qbin-prop", params, [primary, cross], "Phi(%d)^2" % m, started)


def check_main_theorem(m: int, n, alpha="ksq") -> CongruenceReport:
    """Four-index supercongruence modulo Phi_m^3:

        A_q(m*n) == A_{q^(m^2)}(n) - (m^2-1)/12 (q^m - 1)^2 R(n)

    with A_q the alpha-weighted q-sum and R(n) = (n1 n2 + n3 n4)/2 * A(n).
    """
    started = time.perf_counter()
    n = tuple(n)
    alpha = get_alpha(alpha)
    params = {"m": m, "n1": n[0], "n2": n[1], "n3": n[2], "n4": n[3], "alpha": alpha.name}
    if m < 1 or any(ni < 0 for ni in n):
        raise PreconditionError("requires m >= 1 and nonnegative indices")
    admit(_cube_work(m, min(n[0], n[2]), max(n[0] + n[1], n[2] + n[3]), 6), "main")
    base = apery_q_multivariate_terms(n, alpha)
    terms = apery_q_multivariate_terms(tuple(m * ni for ni in n), alpha)
    c = Fraction(m * m - 1, 12) * correction_R_multivariate(n)
    return _cube_congruence("main", params, m, terms, base, c, started)


def _lambda_mu_congruence(name, params, m, n, lam, mu, alpha, started):
    """Report as ``name`` on the (lambda, mu)-family statement modulo Phi_m^3,
    A_q(m*n) == A_{q^(m^2)}(n) - (m^2-1)/12 (q^m - 1)^2 R^(lambda,mu)(n)."""
    if m < 1 or n < 0:
        raise PreconditionError("requires m >= 1 and n >= 0")
    if lam < 2 or mu < 0:
        raise PreconditionError("requires lambda >= 2 and mu >= 0")
    # C(n, k)^lambda C(n + k, k)^mu has at most (lambda + mu) top bits
    admit(_cube_work(m, n, (2 if mu else 1) * n, lam + mu), name)
    base = apery_q_lambda_mu_terms(n, lam, mu, alpha)
    terms = apery_q_lambda_mu_terms(m * n, lam, mu, alpha)
    c = Fraction(m * m - 1, 12) * correction_R_lambda_mu(n, lam, mu)
    return _cube_congruence(name, params, m, terms, base, c, started)


def check_corollary(m: int, n: int) -> CongruenceReport:
    """Single-index specialization of the main congruence, modulo Phi_m^3:

        A_q(m*n) == A_{q^(m^2)}(n) - (m^2-1)/12 (q^m - 1)^2 n^2 A(n)

    with A_q(n) the binomial-form q-analog: the generalized statement at
    (lambda, mu) = (2, 2) with the weight (n - k)^2, where R(n) = n^2 A(n).
    """
    started = time.perf_counter()
    return _lambda_mu_congruence("corollary", {"m": m, "n": n}, m, n, 2, 2, "nksq", started)


def check_generalized_theorem(m: int, n: int, lam: int, mu: int, alpha="ksq") -> CongruenceReport:
    """(lambda, mu)-family supercongruence modulo Phi_m^3:

        A_q(m*n) == A_{q^(m^2)}(n) - (m^2-1)/12 (q^m - 1)^2 R^(lambda,mu)(n).
    """
    started = time.perf_counter()
    alpha = get_alpha(alpha)
    params = {"m": m, "n": n, "lambda": lam, "mu": mu, "alpha": alpha.name}
    return _lambda_mu_congruence("generalized", params, m, n, lam, mu, alpha, started)


def check_s1_s2_decomposition(m: int, n, alpha="ksq") -> CongruenceReport:
    """Proof-level decomposition of the four-index congruence.

    Splits A_q(m*n) into the k == 0 (mod m) part S1 and the rest S2 and
    verifies, modulo Phi_m^3: S1 matches the substituted sum with
    correction sum_k ((n1 n2 + n3 n4)/2 - k^2) C(n; k); and S2 collapses to
    -(m^2-1)/12 (q^m - 1)^2 sum_k k^2 C(n; k).  S1 and S2 partition one list
    of the summand specs of A_q(m*n), so the split is exact by construction
    and needs no residue of its own; the parts are reduced by
    ``binomial_sum_residue`` and the base read by ``_cube_rhs``, none built.
    """
    started = time.perf_counter()
    n = tuple(n)
    alpha = get_alpha(alpha)
    params = {"m": m, "n1": n[0], "n2": n[1], "n3": n[2], "n4": n[3], "alpha": alpha.name}
    if m < 1 or any(ni < 0 for ni in n):
        raise PreconditionError("requires m >= 1 and nonnegative indices")
    admit(_cube_work(m, min(n[0], n[2]), max(n[0] + n[1], n[2] + n[3]), 6), "s1s2")
    base = apery_q_multivariate_terms(n, alpha)
    terms = [(1, e, triples) for e, triples
             in apery_q_multivariate_terms(tuple(m * ni for ni in n), alpha)]

    c_weights = list(_multivariate_terms(n))
    half = Fraction(n[0] * n[1] + n[2] * n[3], 2)
    r1 = sum((half - k * k) * c for k, c in enumerate(c_weights))
    k2sum = sum(k * k * c for k, c in enumerate(c_weights))

    factor = Fraction(m * m - 1, 12)
    s1_rhs = _cube_rhs(m, base, factor * r1)
    residues = [binomial_sum_residue(terms[::m], s1_rhs, m, 3),
                binomial_sum_residue([t for k, t in enumerate(terms) if k % m],
                                     [0, 0, -factor * k2sum], m, 3)]
    return _finish_poly("s1s2", params, residues, "Phi(%d)^3" % m, started)


def check_harmonic_identity_classical(n: int) -> CongruenceReport:
    """Exact rational identity

        sum_{k=1}^n C(n,k)^2 C(n+k,k)^2 (1 + 2k H_{n+k} + 2k H_{n-k} - 4k H_k) = 0.

    A term costs about three of A(n)'s (n = 1000 took 0.18 s, 2000 1.2 s).
    """
    started = time.perf_counter()
    params = {"n": n}
    if n < 1:
        raise PreconditionError("requires n >= 1")
    admit(3 * binomial_sum_work(n + 1, 2 * n), "harmonic-classical")
    harmonic = [Fraction(0)]
    for i in range(1, 2 * n + 1):
        harmonic.append(harmonic[-1] + Fraction(1, i))
    total = Fraction(0)
    for k in range(1, n + 1):
        weight = 1 + 2 * k * harmonic[n + k] + 2 * k * harmonic[n - k] - 4 * k * harmonic[k]
        total += binom(n, k) ** 2 * binom(n + k, k) ** 2 * weight
    holds = total == 0
    return finish_report(
        "harmonic-classical", params, "identity", holds, started,
        residue_at_one=total,
        first_residue_coeff=total,
    )


def check_zheng_identity(n: int) -> CongruenceReport:
    """Exact vanishing of the q-harmonic combination

        sum_k q^(k(k-2n)) C(n,k)_q^2 C(n+k,k)_q^2
              (2 H_q(k) - H_q(n+k) - q H_{1/q}(n-k)) = 0,

    where H_q(j) = sum_{i<=j} 1/[i]_q and q H_{1/q}(j) = sum_{i<=j} q^i/[i]_q.
    Verified multiplied through by L = prod_{i<=2n} [i]_q: with the
    cofactors C_i = L/[i]_q, L H_q(j) is the prefix sum S_j of the C_i and
    L q H_{1/q}(j) the prefix sum T_j of the q^i C_i.  Since L(0) = 1, the
    lowest coefficient of the total is that of the rational function, and
    its value at q = 1 is the total's divided by L(1) = (2n)!.  L has degree
    n (2n - 1) and coefficients of about 2n bits(2n) bits, so the work of
    the products grows as n^(11/2); it is admitted first.
    """
    started = time.perf_counter()
    params = {"n": n}
    if n < 1:
        raise PreconditionError("requires n >= 1")
    admit(power_product_work(n), "zheng-identity")
    product, cofactors = _q_integer_cofactors(2 * n + 1)
    s = [LaurentPoly.zero()]
    t = [LaurentPoly.zero()]
    for i, c in enumerate(cofactors, 1):
        s.append(s[-1] + c)
        t.append(t[-1] + q_power(i) * c)
    total = LaurentPoly.zero()
    for k in range(n + 1):
        poly = q_power(k * (k - 2 * n)) * qbin_pow(n, k, 2) * qbin_pow(n + k, k, 2)
        total = total + poly * (2 * s[k] - s[n + k] - t[n - k])
    holds = total.is_zero()
    return finish_report(
        "zheng-identity", params, "identity", holds, started,
        residue_at_one=total(1) / product(1),
        first_residue_coeff=None if holds else Fraction(total.coefficient(total.min_degree())),
    )


def _is_prime(p: int) -> bool:
    return _factorize(p) == {p: 1}


def check_classical_supercongruences(p: int, n: int, family: str,
                                     lam: int = None, mu: int = None) -> CongruenceReport:
    """Integer supercongruences F(p*n) == F(n) (mod p^3) for the families

        apery (p >= 5), lambda-mu (p >= 5, given lambda >= 2 and mu >= 0),
        and almkvist-zudilin (p >= 3).

    Only lambda-mu takes lambda and mu.  The work of the two integer sums,
    lambda and mu included, is admitted before p is tested for primality.
    """
    started = time.perf_counter()
    params = {"p": p, "n": n, "family": family}
    if family not in ("apery", "lambda-mu", "almkvist-zudilin"):
        raise PreconditionError("unknown family %r" % (family,))
    if family != "lambda-mu" and (lam is not None or mu is not None):
        raise PreconditionError("the %s family takes no lambda or mu" % family)
    if n < 1:
        raise PreconditionError("requires n >= 1")
    sizes = (max(p * n, 0), n)
    if family == "almkvist-zudilin":
        work = sum(almkvist_zudilin_work(i) for i in sizes)
    else:
        # A(N) sums C(N, k)^2 C(N + k, k)^2, a power of about 6 N bits
        powers = 6 if family == "apery" else max(lam or 0, 0) + 2 * max(mu or 0, 0)
        work = sum(binomial_sum_work(i + 1, 2 * i, powers * i) for i in sizes)
    admit(work, "classical-sc")
    if not _is_prime(p):
        raise PreconditionError("p must be prime")
    if family == "apery":
        if p < 5:
            raise PreconditionError("apery family requires p >= 5")
        big, small = apery(p * n), apery(n)
    elif family == "lambda-mu":
        if lam is None or mu is None:
            raise PreconditionError("lambda-mu family requires lambda and mu")
        if lam < 2 or mu < 0:
            raise PreconditionError("requires lambda >= 2 and mu >= 0")
        if p < 5:
            raise PreconditionError("lambda-mu family requires p >= 5")
        params.update({"lambda": lam, "mu": mu})
        big, small = apery_lambda_mu(p * n, lam, mu), apery_lambda_mu(n, lam, mu)
    else:
        if p < 3:
            raise PreconditionError("almkvist-zudilin family requires p >= 3")
        big, small = almkvist_zudilin(p * n), almkvist_zudilin(n)
    residue = (big - small) % p ** 3
    holds = residue == 0
    return finish_report(
        "classical-sc", params, "%d^3" % p, holds, started,
        residue_at_one=Fraction(residue),
        first_residue_coeff=Fraction(residue),
    )


# ---------------------------------------------------------------------------
# registry for the CLI and sweeps
# ---------------------------------------------------------------------------

class CheckSpec:
    """CLI-facing description of one checker: flat integer/choice params."""

    __slots__ = ("name", "fn", "int_params", "choice_params", "optional_int_params",
                 "optional_for", "alpha_arity", "summary")

    def __init__(self, name, fn, int_params, choice_params=None,
                 optional_int_params=(), optional_for=None, alpha_arity=None, summary=""):
        self.name = name
        self.fn = fn
        self.int_params = tuple(int_params)
        self.choice_params = dict(choice_params or {})
        self.optional_int_params = tuple(optional_int_params)
        self.optional_for = optional_for
        self.alpha_arity = alpha_arity
        self.summary = summary

    def sweep_instance(self, params: dict) -> dict:
        """The parameters a sweep runs for one grid point.  With
        ``optional_for`` = (choice, value), only an instance with that choice
        gets the optional int parameters: a sweep crosses them with every
        choice, while ``verify`` passes them as given."""
        if self.optional_for is None:
            return params
        choice, value = self.optional_for
        if params.get(choice) == value:
            return params
        return {k: v for k, v in params.items() if k not in self.optional_int_params}


def _main_adapter(m, n1, n2, n3, n4, alpha="ksq"):
    return check_main_theorem(m, (n1, n2, n3, n4), alpha)


def _s1s2_adapter(m, n1, n2, n3, n4, alpha="ksq"):
    return check_s1_s2_decomposition(m, (n1, n2, n3, n4), alpha)


def _generalized_adapter(m, n, alpha="ksq", **kw):
    return check_generalized_theorem(m, n, kw["lambda"], kw["mu"], alpha)


def _classical_adapter(p, n, family, **kw):
    return check_classical_supercongruences(p, n, family, kw.get("lambda"), kw.get("mu"))


CHECKS = {}


def _register(spec: CheckSpec):
    CHECKS[spec.name] = spec
    return spec


_register(CheckSpec(
    "ljunggren", check_ljunggren_q, ("n", "a", "b"),
    summary="C(an,bn)_q vs C(a,b)_{q^(n^2)} with quadratic correction, mod Phi(n)^3"))
_register(CheckSpec(
    "wolstenholme-q", check_wolstenholme_q, ("n",),
    summary="central binomial C(2n,n)_q congruence, both forms, mod Phi(n)^3"))
_register(CheckSpec(
    "harmonic-sp", check_harmonic_sp, ("n",),
    choice_params={"which": ["sp1", "sp2", "sp3"]},
    summary="q-harmonic sum congruences mod Phi(n)^2 / Phi(n)"))
_register(CheckSpec(
    "lucas", check_q_lucas, ("n", "a", "b", "r", "s"),
    summary="C(an+b, rn+s)_q vs C(a,r) C(b,s)_q mod Phi(n)"))
_register(CheckSpec(
    "chu-vandermonde", check_q_chu_vandermonde, ("a", "b", "n"),
    summary="convolution expansion of C(an,bn)_q as an exact identity"))
_register(CheckSpec(
    "qbin-prop", check_qbin_prop, ("m", "n", "k", "j"),
    summary="C(mn, mk+j)_q residue-class congruence mod Phi(m)^2"))
_register(CheckSpec(
    "main", _main_adapter, ("m", "n1", "n2", "n3", "n4"),
    choice_params={"alpha": None}, alpha_arity=4,
    summary="four-index weighted q-sum supercongruence mod Phi(m)^3"))
_register(CheckSpec(
    "corollary", check_corollary, ("m", "n"),
    summary="single-index q-Apery supercongruence mod Phi(m)^3"))
_register(CheckSpec(
    "generalized", _generalized_adapter, ("m", "n", "lambda", "mu"),
    choice_params={"alpha": None}, alpha_arity=1,
    summary="(lambda,mu)-family supercongruence mod Phi(m)^3"))
_register(CheckSpec(
    "s1s2", _s1s2_adapter, ("m", "n1", "n2", "n3", "n4"),
    choice_params={"alpha": None}, alpha_arity=4,
    summary="proof decomposition: exact split plus S1/S2 congruences"))
_register(CheckSpec(
    "harmonic-classical", check_harmonic_identity_classical, ("n",),
    summary="classical harmonic-sum identity summing to exactly zero"))
_register(CheckSpec(
    "zheng-identity", check_zheng_identity, ("n",),
    summary="q-harmonic identity vanishing as a rational function"))
_register(CheckSpec(
    "classical-sc", _classical_adapter, ("p", "n"),
    choice_params={"family": ["apery", "lambda-mu", "almkvist-zudilin"]},
    optional_int_params=("lambda", "mu"), optional_for=("family", "lambda-mu"),
    summary="integer supercongruences F(pn) == F(n) mod p^3"))


def run_named_check(name: str, params: dict) -> CongruenceReport:
    """Run one registered check on a flat parameter dict."""
    spec = CHECKS.get(name)
    if spec is None:
        raise KeyError("unknown check %r (known: %s)" % (name, ", ".join(sorted(CHECKS))))
    return spec.fn(**params)
