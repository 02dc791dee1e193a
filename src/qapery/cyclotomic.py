"""Cyclotomic polynomials and congruence arithmetic modulo their powers.

Phi_m(q) is computed by exact division, Phi_m = (q^m - 1) / prod Phi_d over
proper divisors d, and memoized.  A Laurent polynomial f has one canonical
residue modulo Phi_m(q)^k: the unique ordinary r == f with deg r below the
modulus degree.  It exists because gcd(q, Phi_m) = 1 for every m, so q is
invertible modulo Phi_m^k; congruence is the vanishing of that residue.
"""

from __future__ import annotations

from math import comb

from .laurent import LaurentPoly, divrem, exact_div, ext_gcd, q_power


class NotInvertibleError(ValueError):
    """Raised when an element shares a factor with the modulus."""


def _factorize(m: int) -> dict:
    """Prime factorization by trial division (desk scale)."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(m: int) -> int:
    """Euler's totient."""
    if m < 1:
        raise ValueError("euler_phi requires a positive integer")
    n = m
    for p in _factorize(m):
        n = n // p * (p - 1)
    return n


def _divisors(m: int) -> list:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


class CyclotomicCache:
    """Memo table of cyclotomic polynomials, filled on demand.

    Concurrent reads are safe; fills are idempotent (recomputation yields
    the identical polynomial), so no locking is required under CPython.
    """

    def __init__(self):
        self.table = {1: LaurentPoly({0: -1, 1: 1})}

    def get(self, m: int) -> LaurentPoly:
        if m < 1:
            raise ValueError("cyclotomic index must be a positive integer")
        cached = self.table.get(m)
        if cached is not None:
            return cached
        numerator = q_power(m) - 1
        product = LaurentPoly.one()
        for d in _divisors(m):
            if d < m:
                product = product * self.get(d)
        result = exact_div(numerator, product)
        self.table[m] = result
        return result


_DEFAULT_CACHE = CyclotomicCache()


def cyclotomic(m: int, cache: CyclotomicCache = None) -> LaurentPoly:
    """The m-th cyclotomic polynomial Phi_m(q)."""
    return (cache or _DEFAULT_CACHE).get(m)


def cyclotomic_at_one(m: int) -> int:
    """Phi_m(1): p when m is a power of the prime p, otherwise 1 (m >= 2)."""
    if m < 2:
        raise ValueError("cyclotomic_at_one requires m >= 2")
    factors = _factorize(m)
    if len(factors) == 1:
        return next(iter(factors))
    return 1


class Modulus:
    """A modulus Phi_m(q)^k for congruences in Q[q^{+-1}]."""

    __slots__ = ("m", "k", "polynomial")

    def __init__(self, m: int, k: int = 1, cache: CyclotomicCache = None):
        if m < 1 or k < 1:
            raise ValueError("Modulus requires positive m and k")
        self.m = m
        self.k = k
        self.polynomial = cyclotomic(m, cache) ** k

    def __eq__(self, other):
        return isinstance(other, Modulus) and (self.m, self.k) == (other.m, other.k)

    def __hash__(self):
        return hash((self.m, self.k))

    def __str__(self):
        return "Phi(%d)^%d" % (self.m, self.k)

    __repr__ = __str__


def reduce_mod(f: LaurentPoly, mod: Modulus) -> LaurentPoly:
    """The canonical residue of f modulo Phi_m^k.

    This is the unique ordinary r with r == f (mod Phi_m^k) and deg r below
    the modulus degree, so it is zero exactly when f == 0 (mod Phi_m^k) and
    does not depend on how f is written.  Negative exponents are cleared by
    reducing q^(m a) f, with m a >= -min_degree(f), and multiplying by the
    inverse of q^(m a).  Writing q^m = 1 + x, Phi_m^k divides x^k, so that
    inverse is the truncated binomial series sum_{j<k} C(-a, j) x^j.
    """
    P = mod.polynomial
    if f.is_ordinary():
        return divrem(f, P)[1]
    a = -(f.min_degree() // mod.m)
    x = q_power(mod.m) - 1
    u = sum((comb(a + j - 1, j) * (-x) ** j for j in range(mod.k)), LaurentPoly.zero())
    r = divrem(q_power(mod.m * a) * f, P)[1]
    return divrem(u * r, P)[1]


def congruent(f: LaurentPoly, g: LaurentPoly, mod: Modulus) -> bool:
    """True iff f == g (mod Phi_m^k) in Q[q^{+-1}]."""
    return reduce_mod(f - g, mod).is_zero()


residue_exact = reduce_mod


def inverse_mod(f: LaurentPoly, mod: Modulus) -> LaurentPoly:
    """Inverse of f modulo Phi_m(q)^k, reduced below the modulus degree.

    Raises NotInvertibleError when f shares a factor with Phi_m.
    """
    r = reduce_mod(f, mod)
    if r.is_zero():
        raise NotInvertibleError("zero is not invertible modulo %s" % mod)
    d, u, _ = ext_gcd(r, mod.polynomial)
    if d.degree() > 0:
        raise NotInvertibleError("element shares a factor with %s" % mod)
    _, h = divrem(u, mod.polynomial)
    return h


def integer_coefficient_check(f: LaurentPoly) -> bool:
    """True iff every coefficient of f is an integer.

    By Gauss' lemma, an integer-coefficient congruence modulo a monic
    integer polynomial specializes at q = 1 to an ordinary integer
    congruence.
    """
    return f.has_integer_coefficients()
