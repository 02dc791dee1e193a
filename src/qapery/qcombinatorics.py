"""q-integers, q-factorials, q-binomials, q-Pochhammer symbols, and the
q-Lucas and convolution checks.

The production Gaussian binomial ``qbin`` is built by the row recurrence
C(n, k)_q = prod_{i<=k} (1 - q^(n-k+i)) / (1 - q^i) on one list of ints
(Andrews, *The Theory of Partitions*, ch. 3), with k replaced by
min(k, n - k): a multiply by 1 - q^a is one shift-subtract, an exact
division by 1 - q^i one running sum over each residue class mod i, so no
polynomial product is formed.  After i factors the list is C(n - k + i, i)_q,
so a miss resumes from the largest i whose binomial is already cached, under
(n - k + i, i) or its mirror (n - k + i, n - k), and runs only the remaining
factors.  It is memoized in ``_QBIN_CACHE``, one entry per requested (n, k);
the steps it passes are not stored.  ``q_binomial`` keeps three independent
routes as its oracles, tested to agree with it and with each other: the
factorial quotient definition, the Pascal-type recurrence, and the
square-free product of cyclotomic polynomials Phi_d over d with
floor(n/d) - floor(k/d) - floor((n-k)/d) = 1, which is not memoized.

No quotient of polynomials is represented, so q-harmonic sums
H_q(n) = sum 1/[k]_q are not built here: ``zheng-identity`` multiplies
through by prod [k]_q (``checks._q_integer_cofactors``), and
``harmonic-sp`` works in ``cyclotomic.ResidueRing``.
"""

from __future__ import annotations

import math
import time

from .cyclotomic import Modulus, cyclotomic, reduce_mod
from .laurent import (LaurentPoly, _integers, _make, _over_one_minus, _times_one_minus,
                      exact_div, q_power)
from .reports import (CongruenceReport, PreconditionError, _finish_poly, admit, chu_work,
                      modulus_work, qbin_work)


def binom(n: int, k: int) -> int:
    """Ordinary binomial with zero-extension outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def q_integer(n: int) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise ValueError("q_integer requires n >= 0")
    return LaurentPoly({e: 1 for e in range(n)})


_QFACT = [LaurentPoly.one()]


def q_factorial(n: int) -> LaurentPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q; [0]_q! = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    while len(_QFACT) <= n:
        m = len(_QFACT)
        _QFACT.append(_QFACT[m - 1] * q_integer(m))
    return _QFACT[n]


def qbin_cyclotomic_support(n: int, k: int) -> set:
    """The d in [2, n] whose Phi_d divides the Gaussian binomial (n, k)."""
    if not (0 <= k <= n):
        raise ValueError("qbin_cyclotomic_support requires 0 <= k <= n")
    return {
        d for d in range(2, n + 1)
        if n // d - k // d - (n - k) // d == 1
    }


_QBIN_CACHE = {}
_PASCAL_CACHE = {}


def _qbin_row(n: int, k: int) -> LaurentPoly:
    """C(n, k)_q for 0 <= k <= n by the row recurrence on a list of ints,
    resumed from its latest step in ``_QBIN_CACHE``."""
    k = min(k, n - k)
    d = n - k
    # after step i the list is C(d + i, i)_q, cached as it is or as its mirror
    start, g = 0, [1]
    for i in range(k, 0, -1):
        cached = _QBIN_CACHE.get((d + i, i)) or _QBIN_CACHE.get((d + i, d))
        if cached is not None:
            start, g = i, _integers(cached)
            break
    for i in range(start + 1, k + 1):
        g = _times_one_minus(g, d + i)
        _over_one_minus(g, i)
    return _make(0, g)


def _qbin_cyclotomic(n: int, k: int) -> LaurentPoly:
    product = LaurentPoly.one()
    for d in sorted(qbin_cyclotomic_support(n, k)):
        product = product * cyclotomic(d)
    return product


def _qbin_pascal(n: int, k: int) -> LaurentPoly:
    if k == 0 or k == n:
        return LaurentPoly.one()
    key = (n, k)
    cached = _PASCAL_CACHE.get(key)
    if cached is None:
        cached = _qbin_pascal(n - 1, k - 1) + q_power(k) * _qbin_pascal(n - 1, k)
        _PASCAL_CACHE[key] = cached
    return cached


def q_binomial(n: int, k: int, method: str = "cyclotomic") -> LaurentPoly:
    """The Gaussian binomial coefficient; 0 outside 0 <= k <= n.

    A self-reciprocal polynomial of degree k(n-k) with integer
    coefficients.  All methods return identical polynomials; "cyclotomic"
    is the default.  They are the oracles of the production ``qbin``, and
    the cyclotomic product is not memoized.
    """
    if n < 0:
        raise ValueError("q_binomial requires n >= 0")
    if k < 0 or k > n:
        return LaurentPoly.zero()
    if method == "cyclotomic":
        return _qbin_cyclotomic(n, k)
    if method == "pascal":
        return _qbin_pascal(n, k)
    if method == "factorial":
        return exact_div(q_factorial(n), q_factorial(k) * q_factorial(n - k))
    raise ValueError("unknown q-binomial method %r" % (method,))


def qbin(n: int, k: int) -> LaurentPoly:
    """Cached Gaussian binomial, built by the row recurrence; 0 outside
    0 <= k <= n.

    A miss adds exactly one cache entry, under (n, k) as requested.  Its
    recurrence starts from the latest of its own steps C(n - k + i, i)_q,
    k <= n - k, that is cached under either of its two keys, so a cached
    neighbour on the same row saves the factors up to it."""
    if k < 0 or k > n or n < 0:
        return LaurentPoly.zero()
    key = (n, k)
    cached = _QBIN_CACHE.get(key)
    if cached is None:
        cached = _QBIN_CACHE[key] = _qbin_row(n, k)
    return cached


_QBIN_POW_CACHE = {}


def qbin_pow(n: int, k: int, e: int) -> LaurentPoly:
    """Cached e-th power of the Gaussian binomial (n, k); the first power
    is ``qbin`` itself."""
    if e == 0:
        return LaurentPoly.one()
    if e == 1:
        return qbin(n, k)
    if k < 0 or k > n or n < 0:
        return LaurentPoly.zero()
    key = (n, k, e)
    cached = _QBIN_POW_CACHE.get(key)
    if cached is None:
        cached = qbin(n, k) ** e
        _QBIN_POW_CACHE[key] = cached
    return cached


def q_pochhammer(a_exponent: int, n: int, inverted_base: bool = False) -> LaurentPoly:
    """(q^a; q)_n, or (q^a; q^-1)_n when inverted_base is set.

    The product (1 - q^a)(1 - q^(a+s)) ... (1 - q^(a+(n-1)s)) with step
    s = 1 (s = -1 inverted); the empty product for n = 0 is 1.
    """
    if n < 0:
        raise ValueError("q_pochhammer requires n >= 0")
    step = -1 if inverted_base else 1
    out = LaurentPoly.one()
    for i in range(n):
        out = out * (1 - q_power(a_exponent + step * i))
    return out


def check_q_lucas(n: int, a: int, b: int, r: int, s: int) -> CongruenceReport:
    """Lucas-type congruence for Gaussian binomials modulo Phi_n(q):

        C(a*n + b, r*n + s)_q == C(a, r) * C(b, s)_q   (mod Phi_n)

    for nonnegative a, b, r, s with b, s < n.  The left side is built in full,
    once the work of its row recurrence and of Phi_n is admitted.
    """
    started = time.perf_counter()
    params = {"n": n, "a": a, "b": b, "r": r, "s": s}
    if n < 1:
        raise PreconditionError("q-Lucas requires n >= 1")
    if min(a, b, r, s) < 0 or b >= n or s >= n:
        raise PreconditionError("q-Lucas requires 0 <= b, s < n and a, r >= 0")
    admit(qbin_work(a * n + b, r * n + s) + modulus_work(n), "lucas")
    mod = Modulus(n, 1)
    lhs = qbin(a * n + b, r * n + s)
    rhs = binom(a, r) * qbin(b, s)
    return _finish_poly("lucas", params, [reduce_mod(lhs - rhs, mod)], str(mod), started)


def _compositions(total: int, parts: int, cap: int):
    """All tuples of `parts` entries in [0, cap] summing to `total`, in
    lexicographic order.  Each next tuple raises the last entry that can grow
    while a later one shrinks and refills the later ones smallest first, so
    no recursion depth limits `parts`."""
    if not 0 <= total <= parts * cap:
        return
    comp = [0] * parts
    i, rest = -1, total
    while True:
        for j in range(parts - 1, i, -1):
            comp[j] = min(cap, rest)
            rest -= comp[j]
        yield tuple(comp)
        for i in range(parts - 2, -1, -1):
            rest += comp[i + 1]
            if comp[i] < cap and rest:
                break
        else:
            return
        comp[i] += 1
        rest -= 1


def _composition_count(total: int, parts: int, cap: int) -> int:
    """How many tuples ``_compositions`` yields, by inclusion-exclusion over
    the entries above cap (parts >= 1)."""
    # c -> cap - c maps the compositions of total onto those of parts cap - total
    total = min(total, parts * cap - total)
    return sum((-1) ** j * math.comb(parts, j)
               * math.comb(total - j * (cap + 1) + parts - 1, parts - 1)
               for j in range(total // (cap + 1) + 1))


def check_q_chu_vandermonde(a: int, b: int, n: int) -> CongruenceReport:
    """Convolution expansion of C(a*n, b*n)_q as an exact identity:

        C(a*n, b*n)_q == sum over c_1 + ... + c_a = b*n of
            q^(n * sum (i-1) c_i - sum_{i<j} c_i c_j) * prod C(n, c_i)_q

    The work is admitted first: the left side's row recurrence, and a
    product for each of the a q-binomial factors of every composition, whose
    cost grows with the degree b n (a n - b n) and with n.
    """
    started = time.perf_counter()
    params = {"a": a, "b": b, "n": n}
    if a < 2 or b < 0 or n < 1:
        raise PreconditionError("convolution check requires a >= 2, b >= 0, n >= 1")
    if b * n > a * n:
        raise PreconditionError("convolution check requires b*n <= a*n")
    work = qbin_work(a * n, b * n)  # admitted first, as it bounds the count's steps
    admit(work, "chu-vandermonde")
    admit(work + chu_work(a, b, n, _composition_count(b * n, a, n)), "chu-vandermonde")
    total = LaurentPoly.zero()
    for comp in _compositions(b * n, a, n):
        # sum_{i<j} c_i c_j = ((sum c_i)^2 - sum c_i^2) / 2
        e = n * sum(i * c for i, c in enumerate(comp))
        e -= (b * n * b * n - sum(c * c for c in comp)) // 2
        term = q_power(e)
        for c in comp:
            term = term * qbin(n, c)
        total = total + term
    diff = qbin(a * n, b * n) - total
    return _finish_poly("chu-vandermonde", params, [diff], "identity", started)
