"""Cyclotomic polynomials and congruence arithmetic modulo their powers.

Phi_m(q) is the Moebius product prod_{d | m} (1 - q^d)^mu(m/d), taken as a
power series cut at its degree phi(m), with one pass per square-free
divisor, and memoized in one module dict; Psi_m = (q^m - 1) / Phi_m is the
same product with mu negated.  A pass is one of the two list steps,
``laurent._times_one_minus`` and ``laurent._over_one_minus``, so no
polynomial product or division is formed.  A Laurent polynomial f has one
canonical residue modulo Phi_m(q)^k: the unique ordinary r == f with deg r
below k phi(m), as q is invertible modulo Phi_m^k; congruence is its
vanishing.  ``reduce_mod`` folds f's numerator below q^(km) by
(q^m - 1)^k = 0 (``laurent._fold``) and takes the remainder of the folded
integers by the monic Phi_m^k, whose terms ``Modulus`` keeps, building no
quotient.  ``inverse_mod`` runs its Euclid loop against Phi_m alone and
lifts the inverse to Phi_m^k by Newton steps.

``binomial_sum_residue`` finds the residue of a weighted sum of products of
q-binomial powers, less a polynomial in q^m - 1, without building the sum:
from its image at q = zeta e^L in K[L]/(L^k), K = Q(zeta_m), which vanishes
exactly when Phi_m^k divides the sum.  By the q-Lucas theorem a q-binomial
there is L^d times an integer, a binomial in m-th of its indices, times an
element of K that depends only on its residues modulo m, times a series
that is rational through L^2 when the residues are 0.  A term is read from
its lead alone, or, when its residues are all 0, from that closed-form
series; so every term is summed as integers, in classes of its K part, any
other term is refused, and the canonical residue is read off the image's
Phi_m-adic digits only when it is nonzero.
``harmonic-sp`` is decided in ``ResidueRing(n, k)``, Z[q]/((q^n - 1)^k),
which multiplies by [t]_q without a product, inverts [i]_q in closed form
and sums the squares of many elements with one fold; its product, like the
field's, is the Kronecker product ``laurent._dense_mul`` folded by
``laurent._fold``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from .laurent import (LaurentPoly, _bias, _dense_mul, _digits, _divide, _euclid, _fold,
                      _from_values, _integers, _lower_terms, _make, _over_one_minus, _pack, _power,
                      _residue, _times_one_minus, _width, _wrap, q_power)


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


def _mobius_product(m: int, inverse: bool = False) -> list:
    """The coefficients of Phi_m, or of Psi_m = (q^m - 1) / Phi_m when
    ``inverse`` is set, from q^0 up to the degree, top.

    Phi_m = prod_{d | m} (1 - q^d)^mu(m/d) for m > 1 (Arnold and Monagan,
    "Calculating cyclotomic polynomials", Math. Comp. 2011), and Phi_1 = q - 1
    is the negated product.  So Psi_m = -(1 - q^m) / Phi_m, of degree below
    m, is minus the product with every mu negated, whose factor
    (1 - q^m)^-1 is 1 below q^m; Psi_1 = 1.  The product is a power series
    cut at q^top, one pass per square-free m / d with d <= top: a multiply
    by 1 - q^d is ``laurent._times_one_minus`` cut back to top + 1 entries,
    a division ``laurent._over_one_minus`` on the list padded by d zeros.
    """
    top = m - euler_phi(m) if inverse else euler_phi(m)
    g = [1 if (m == 1) == inverse else -1] + [0] * top
    # (d, e) for every d | m with m / d square-free, e = mu(m/d), negated for Psi_m
    mobius = [(m, -1 if inverse else 1)]
    for p in _factorize(m):
        mobius += [(d // p, -e) for d, e in mobius]
    for d, e in mobius:
        if d <= top and e > 0:
            g = _times_one_minus(g, d)[:top + 1]
        elif d <= top:
            g += [0] * d
            _over_one_minus(g, d)
    return g


_CYCLOTOMIC = {}


def cyclotomic(m: int) -> LaurentPoly:
    """The m-th cyclotomic polynomial Phi_m(q), memoized in ``_CYCLOTOMIC``;
    a fill is idempotent, so concurrent calls need no lock."""
    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    return _CYCLOTOMIC.get(m) or _CYCLOTOMIC.setdefault(m, _make(0, _mobius_product(m)))


def cyclotomic_at_one(m: int) -> int:
    """Phi_m(1): p when m is a power of the prime p, otherwise 1 (m >= 2)."""
    if m < 2:
        raise ValueError("cyclotomic_at_one requires m >= 2")
    factors = _factorize(m)
    if len(factors) == 1:
        return next(iter(factors))
    return 1


@lru_cache(maxsize=64)
def _modulus_parts(m: int, k: int) -> tuple:
    """Phi_m^k, its nonzero terms below the leading one and the wrap of
    (q^m - 1)^k, built once per (m, k); the least recently used of more
    than 64 is dropped.  The lists are shared and never mutated."""
    polynomial = cyclotomic(m) ** k
    return polynomial, _lower_terms(polynomial), _wrap(m, k)


class Modulus:
    """A modulus Phi_m(q)^k for congruences in Q[q^{+-1}].

    Besides the polynomial it keeps what ``reduce_mod`` divides by: the
    (exponent, coefficient) pairs of the nonzero terms of Phi_m^k below its
    leading term, and the wrap of (q^m - 1)^k that folds first.  All three
    come from ``_modulus_parts``, so equal moduli share them."""

    __slots__ = ("m", "k", "polynomial", "lower", "wrap")

    def __init__(self, m: int, k: int = 1):
        if m < 1 or k < 1:
            raise ValueError("Modulus requires positive m and k")
        self.m = m
        self.k = k
        self.polynomial, self.lower, self.wrap = _modulus_parts(m, k)

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
    does not depend on how f is written.  Phi_m^k divides (q^m - 1)^k, so
    f's numerator is first folded below degree k m by the sparse relation
    (q^m - 1)^k = 0 (``laurent._fold``, the reduction
    ``ResidueRing.mul_q_integer`` also runs), and only the folded integers
    are divided by the monic integer Phi_m^k, through the nonzero terms the
    modulus keeps.  No quotient is built, and f's denominator is applied
    once, to the remainder (``laurent._residue``).  Negative exponents are
    cleared by multiplying f by q^(m a), with m a >= -min_degree(f), and by
    the inverse of q^(m a), which ``ResidueRing.q_power`` gives modulo
    (q^m - 1)^k as the truncated binomial series sum_{j<k} C(-a, j) x^j,
    x = q^m - 1.
    """
    m, k = mod.m, mod.k
    if not f.is_ordinary():
        a = -(f.min_degree() // m)
        ring = ResidueRing(m, k)
        f = ring.to_poly(ring.q_power(-m * a)) * (q_power(m * a) * f)
    return _residue(f, m, mod.wrap, mod.lower, mod.polynomial.degree())


def congruent(f: LaurentPoly, g: LaurentPoly, mod: Modulus) -> bool:
    """True iff f == g (mod Phi_m^k) in Q[q^{+-1}]."""
    return reduce_mod(f - g, mod).is_zero()


def inverse_mod(f: LaurentPoly, mod: Modulus) -> LaurentPoly:
    """Inverse of f modulo Phi_m(q)^k, reduced below the modulus degree.

    The Euclid loop runs only against Phi_m; Newton steps h <- h (2 - f h)
    then double the exponent of Phi_m until it reaches k (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, ch. 9).  If f h == 1 - e with
    Phi_m^j | e, the step leaves 1 - e^2.  The inverse is unique, so this is
    the residue of the Euclid inverse modulo Phi_m^k itself.  Raises
    NotInvertibleError when f shares a factor with Phi_m.
    """
    d, h = _euclid(reduce_mod(f, Modulus(mod.m, 1)), cyclotomic(mod.m))
    if d.degree() > 0:
        raise NotInvertibleError("element shares a factor with %s" % mod)
    exponent = 1
    while exponent < mod.k:
        exponent = min(2 * exponent, mod.k)
        lift = Modulus(mod.m, exponent)
        h = reduce_mod(h * (2 - reduce_mod(f, lift) * h), lift)
    return reduce_mod(h, mod)


def _binomial(a: int, j: int) -> int:
    """C(a, j) = a (a-1) ... (a-j+1) / j! for any integer a."""
    return comb(a, j) if a >= 0 else (-1) ** j * comb(j - a - 1, j)


class ResidueRing:
    """Z[q]/((q^m - 1)^k) on lists of k*m integers, the coefficients of
    q^0 .. q^(km-1), the canonical representatives; Phi_m^k divides
    (q^m - 1)^k, so ``reduce_mod(to_poly(v), Modulus(m, k))`` is the residue
    of whatever v stands for.  ``mul`` is the Kronecker product
    ``laurent._dense_mul`` folded by the sparse relation (q^m - 1)^k = 0
    (``laurent._fold``), as ``_Field.mul`` is, and ``sum_of_powers`` adds
    many packed squares as integers and folds once.  With x = q^m - 1,
    q^(am+r) = q^r (1 + x)^a = q^r sum_{j<k} C(a, j) x^j, for negative a as
    well, in closed form (``q_power``); a multiple by [t]_q takes no product
    (``mul_q_integer``), and the inverse of [i]_q has a closed form modulo
    Phi_m that Newton steps lift (``q_integer_inverse``).  A ring costs
    O(k m) to build and keeps nothing else.  Elements are lists that no
    method mutates, so they may be shared.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k, self.size = m, k, m * k
        self._wrap = _wrap(m, k)
        self.one = self.q_power(0)

    def mul(self, a: list, b: list) -> list:
        """The product of two elements, folded below q^(km)."""
        return _fold(_dense_mul(a, b), self.m, self._wrap)

    def sum_of_powers(self, terms) -> list:
        """sum w y^2 over the pairs (w, y) of ``terms``, integers w and
        elements y, with one fold: the sums of squares of ``harmonic-sp``'s
        cross route.

        Every base is packed at one width for the call and squared as an
        integer, left unfolded.  A coefficient of an unfolded square is a
        sum of at most k m products below 2^(2 bits), bits that of the
        widest base, so the coefficients of the weighted sum fit in
        2 bits + bits(km) + bits(sum |w|) bits and a sign bit; the sum is
        read back as 2km - 1 digits and folded once.
        """
        bits = max((max(map(abs, y)).bit_length() for _, y in terms), default=0)
        width = _width(2 * bits + self.size.bit_length()
                       + sum(abs(w) for w, _ in terms).bit_length() + 1)
        count = 2 * self.size - 1
        bias = _bias(count, width)
        total = 0
        for w, y in terms:
            packed = _pack(y, width, bias)
            total += w * packed * packed
        return _fold(_digits(total, count, width, bias), self.m, self._wrap)

    def mul_q_integer(self, a: list, t: int) -> list:
        """a [t]_q for t >= 1, with no product: a shift-subtract gives
        a (1 - q^t), a running sum divides it exactly by 1 - q (the sum of
        all its coefficients is zero, so the top entry is dropped), and the
        result is folded."""
        g = _times_one_minus(a, t)
        _over_one_minus(g, 1)
        return _fold(g, self.m, self._wrap)

    def q_integer_inverse(self, i: int):
        """(v, d) with v / d == 1/[i]_q modulo Phi_m^k, for m not dividing i.

        At a root w of Phi_m, z = w^i is a root of unity of order
        n = m / gcd(i, m) > 1, and (1 - z) sum_{t<n} t z^t = -n, so
        1/[i]_q == (q - 1)/n sum_{t<n} t q^(i t)  (mod Phi_m).
        Newton steps h <- h (2 - [i]_q h) then double the exponent of Phi_m
        until it reaches k, squaring the denominator each time.
        """
        if i % self.m == 0:
            raise NotInvertibleError("[%d]_q shares a factor with Phi(%d)" % (i, self.m))
        den = self.m // gcd(i, self.m)
        s = [0] * self.m
        for t in range(den):
            s[i * t % self.m] += t
        # (q - 1) s modulo q^m - 1, which Phi_m divides
        v = [s[j - 1] - s[j] for j in range(self.m)] + [0] * (self.size - self.m)
        exponent = 1
        while exponent < self.k:
            w = [-c for c in self.mul_q_integer(v, i)]
            w[0] += 2 * den
            v, den, exponent = self.mul(v, w), den * den, 2 * exponent
        return v, den

    def _q_power_entries(self, e: int) -> list:
        """The (index, coefficient) pairs of the at most k nonzero entries
        of q^e, e = a m + r with 0 <= r < m.

        q^e = q^r sum_{j<k} C(a, j) x^j, and x^j = sum_i C(j, i) (-1)^(j-i) q^(m i),
        so the entry at r + m i is C(a, i) sum_{t<k-i} C(a - i, t) (-1)^t
        = C(a, i) (-1)^(k-1-i) C(a - i - 1, k - 1 - i), by
        C(a, j) C(j, i) = C(a, i) C(a - i, j - i) and the alternating partial
        sum of a binomial row; for negative a as well.
        """
        a, r = divmod(e, self.m)
        k = self.k
        entries = [(r + self.m * i, (-1) ** (k - 1 - i) * _binomial(a, i)
                    * _binomial(a - i - 1, k - 1 - i)) for i in range(k)]
        return [(i, c) for i, c in entries if c]

    def q_power(self, e: int) -> list:
        """q^e for any integer e, from ``_q_power_entries``."""
        v = [0] * self.size
        for i, c in self._q_power_entries(e):
            v[i] = c
        return v

    def from_poly(self, f: LaurentPoly) -> list:
        """The element of a Laurent polynomial with integer coefficients."""
        v = [0] * self.size
        for e, c in f.terms():
            for i, x in self._q_power_entries(e):
                v[i] += c * x
        return v

    def to_poly(self, v: list) -> LaurentPoly:
        """The polynomial sum_i v[i] q^i, which may share v's list."""
        return _make(0, v)


# -- the Phi_m^k kernel: the image at q = zeta e^L ------------------------------------


def _add(a: list, b: list, c=1) -> list:
    """a + c b, where a may be None for zero."""
    return [c * y for y in b] if a is None else [x + c * y for x, y in zip(a, b)]


class _Field:
    """K = Q(zeta), zeta a primitive m-th root of unity, as ``binomial_sum_residue``
    reads it.

    An element a is kept as the list v of m numbers with
    sum_j v[j] q^j == rad E a~ (mod q^m - 1) for a lift a~ of a to Z[q]:
    rad is the product of the primes p | m, and E, the idempotent of
    Q[q]/(q^m - 1) that is 1 modulo Phi_m and 0 modulo every other Phi_d,
    d | m, has rad E = prod_p (p - sum_{i<p} q^(i m/p)) in Z[q] (``project``).
    So v is zero exactly when a is, and it carries none of the other Phi_d,
    which the lifts' products would.  A product is one Kronecker product
    (``laurent._dense_mul``) folded modulo q^m - 1 and divided by rad
    (E^2 = E), zeta^e a is a rotation, and nothing is divided by Phi_m
    until ``coordinates`` reads a in the basis 1, zeta, .., zeta^(phi(m)-1).

    ``_field(m)`` memoizes one field per m, which keeps the leads of the
    q-binomials (``lead``) that the calls read, up to 2^18 numbers in all.
    Elements are lists that no method mutates, so they may be shared, and a
    fill is idempotent, so concurrent calls need no lock.
    """

    def __init__(self, m: int):
        self.m, self._primes, self._wrap = m, list(_factorize(m)), _wrap(m, 1)
        self._rad = prod(self._primes)
        self.one = self.project([1] + [0] * (m - 1))
        self._leads = {}

    def project(self, u: list) -> list:
        """rad E u for a list u of m numbers: a factor p - sum_{i<p} q^(i m/p)
        takes p u less the sums of u over the classes modulo m/p."""
        for p in self._primes:
            h = self.m // p
            u = [p * x - s for x, s in zip(u, [sum(u[c::h]) for c in range(h)] * p)]
        return u

    def mul(self, a: list, b: list) -> list:
        """The product of two elements given by integer lists."""
        return [x // self._rad for x in _fold(_dense_mul(a, b), self.m, self._wrap)]

    def rmul(self, a: list, b: list) -> list:
        """The product of two elements given by lists of rationals."""
        da, db = lcm(*[c.denominator for c in a]), lcm(*[c.denominator for c in b])
        c = _dense_mul([c.numerator * (da // c.denominator) for c in a],
                       [c.numerator * (db // c.denominator) for c in b])
        return [Fraction(x, da * db * self._rad) for x in _fold(c, self.m, self._wrap)]

    def shift(self, a: list, e: int) -> list:
        """zeta^e a."""
        e %= self.m
        return a[-e:] + a[:-e] if e else a

    def coordinates(self, a: list) -> list:
        """The coordinates of a in the basis 1, zeta, .., zeta^(phi(m)-1): the
        remainder of rad a~ by the monic Phi_m, over rad."""
        phi = cyclotomic(self.m)
        v = _divide(list(a), _lower_terms(phi), phi.degree())
        return [Fraction(c, self._rad) for c in v + [0] * (phi.degree() - len(v))]

    def weighted(self, j: int) -> list:
        """sum_{s<m} s zeta^(js), which is -m/(1 - zeta^j) for every m-th root
        of unity zeta^j != 1."""
        v = [0] * self.m
        for s in range(1, self.m):
            v[j * s % self.m] += s
        return self.project(v)

    def prefix(self, rho: int) -> list:
        """P_rho, by rho shift-subtracts: P_r = P_(r-1) - zeta^r P_(r-1)."""
        v = self.one
        for r in range(1, rho + 1):
            v = [a - b for a, b in zip(v, self.shift(v, r))]
        return v

    def suffix(self, rho: int) -> list:
        """Q_rho = prod_{rho<r<m} (1 - zeta^r) = (-1)^n zeta^(-n(n+1)/2) P_n,
        n = m - 1 - rho, as 1 - zeta^(m-s) = -zeta^(-s) (1 - zeta^s); P_rho Q_rho = m."""
        n = self.m - 1 - rho
        v = self.shift(self.prefix(n), -(n * (n + 1) // 2))
        return [-c for c in v] if n % 2 else v

    def lead(self, signature: tuple):
        """(v, s): m^s v is the product of the K parts, to the powers p, of
        the leads of C(t, b)_q for the (beta, gamma, p) of ``signature``,
        b = beta and t - b = gamma modulo m, both nonzero.

        With rho = beta + gamma modulo m and the carry d, the K part
        m^(2d) P_rho / (P_beta P_gamma) (see ``binomial_sum_residue``) is
        m^(2d - 2) P_rho Q_beta Q_gamma, and its inverse
        m^(-1 - 2d) Q_rho P_beta P_gamma.  When d = 0, m^2 divides
        P_rho Q_beta Q_gamma, the value at zeta of the integer polynomial
        C(rho, beta)_q.  When beta + gamma = m, as for C(m n, k)_q,
        Q_gamma = (-1)^(beta-1) zeta^(-beta(beta-1)/2) P_(beta-1) and
        P_(beta-1) Q_beta = m/(1 - zeta^beta) (``weighted``) give both in
        closed form.
        """
        found = self._leads.get(signature)
        if found is None:
            v, s = None, 0
            for beta, gamma, p in signature:
                rho, carry = beta + gamma, beta + gamma >= self.m
                rho -= self.m if carry else 0
                if carry and not rho:
                    turn, sign = beta * (beta - 1) // 2, (-1) ** beta
                    if p > 0:
                        f = self.shift([sign * c for c in self.weighted(beta)], -turn)
                    else:
                        f = [b - a for a, b in zip(self.one, self.shift(self.one, beta))]
                        f, s = self.shift([sign * c for c in f], turn), s + p
                elif p > 0:
                    f = self.mul(self.mul(self.prefix(rho), self.suffix(beta)), self.suffix(gamma))
                    if not carry:
                        f = [c // (self.m * self.m) for c in f]
                else:
                    f = self.mul(self.mul(self.suffix(rho), self.prefix(beta)), self.prefix(gamma))
                    s -= (3 if carry else 1) * -p
                f = _power(f, abs(p), self.mul, None)
                v = f if v is None else self.mul(v, f)
            found = v or self.one, s
            if len(self._leads) * self.m < 1 << 18:
                self._leads[signature] = found
        return found

    def series_div(self, a: list, f: list, inverse: list) -> list:
        """The series g with f g = a, to the length of a, for ``inverse`` the
        inverse of f's constant term."""
        g = []
        for l, c in enumerate(a):
            for i in range(1, l + 1):
                c = _add(c, self.rmul(f[i], g[l - i]), -1)
            g.append(self.rmul(c, inverse))
        return g

    def residue(self, image: list) -> LaurentPoly:
        """The canonical residue modulo Phi_m^k, k = len(image), of the f
        with f(zeta e^L) == sum_i image[i] L^i (mod L^k).

        It is sum_{i<k} a_i Phi_m^i with deg a_i < phi(m), read off by its
        Phi_m-adic digits: the coordinates of image[0] are a_0's
        coefficients; then a_0(zeta e^L), whose L^l coefficient is
        sum_c c^l a_0c zeta^c / l!, is subtracted, and the rest divided by
        Phi_m(zeta e^L) = L psi(L).  The series psi has
        psi_0 = zeta Phi_m'(zeta), and m zeta^(m-1) = Phi_m'(zeta) Psi_m(zeta)
        gives 1/psi_0 = Psi_m(zeta) / m, so no inverse is taken."""
        m, phi = self.m, cyclotomic(self.m)

        def lifted(values):  # the element of sum_c values[c] q^c
            return self.project(_fold(values, m, self._wrap))

        psi = [lifted([Fraction(x * c ** j, factorial(j)) for c, x in enumerate(_integers(phi))])
               for j in range(1, len(image))]
        inverse = lifted([Fraction(c, m) for c in _mobius_product(m, True)])
        digits = []
        while True:
            a = self.coordinates(image[0])
            digits.append(a)
            if len(image) == 1:
                break
            rest = [_add(g, lifted([Fraction(c ** l, factorial(l)) * x for c, x in enumerate(a)]), -1)
                    for l, g in enumerate(image[1:], 1)]
            image = self.series_div(rest, psi, inverse)
        residue = LaurentPoly.zero()
        for a in reversed(digits):
            residue = residue * phi + _from_values(0, a, 1)
        return residue


@lru_cache(maxsize=16)
def _field(m: int) -> _Field:
    """The one ``_Field(m)`` of a process, whose leads every call at m
    shares; the least recently used of more than 16 is dropped."""
    return _Field(m)


def binomial_sum_residue(terms, rhs, m: int, k: int) -> LaurentPoly:
    """The canonical residue modulo Phi_m^k of

        sum over terms of w q^e prod C(t, b)_q^p  -  sum_j rhs[j] x^j,

    x = q^m - 1, each term a (w, e, ((t, b, p), ...)) spec with integers w
    and p (p = -1 divides by a q-binomial), rhs at most k rationals.  The
    sum is not built: its image at q = zeta e^L in K[L]/(L^k), K = Q(zeta_m)
    (``_Field``), vanishes exactly when (q - zeta)^k, and so each conjugate
    and Phi_m^k, divides it.

    1 - q^j there is -j L E(jL), E(x) = (e^x - 1)/x, when m | j, and
    (1 - zeta^j) times a unit series otherwise.  So with t = m T + rho,
    b = m B + beta, t - b = m C + gamma and the carry d = [beta + gamma >= m],
    C(t, b)_q is L^d times the lead
    (-1)^d C(T, B) (C + 1)^d m^(2d) P_rho / (P_beta P_gamma),
    P_r = prod_{0<s<=r} (1 - zeta^s), which is C(T, B) C(rho, beta)_zeta
    when d = 0 (q-Lucas), times a unit series.  A term is then
    w zeta^e (lead) L^v (series), v = sum p d its Phi_m-valuation; a term
    with v >= k is dropped, one with v < 0, or with a vanishing q-binomial
    to a negative power, raises NotInvertibleError, and one with another
    vanishing q-binomial is skipped.  Only k - v series coefficients are read.

    The K part of the lead depends on (beta, gamma) alone (``_Field.lead``,
    1 when either is 0), so the integer parts are summed in classes of that
    signature and of e modulo m, each multiplied out once.  When
    beta = gamma = 0 the series is exp(A_1 L + A_2 L^2 + ..) with
    A_1 = m^2 B C / 2 and A_2 = m^2 B C (m^2 T + 1) / 24, the sums over j of
    the logarithms of E(jL) and of (1 - zeta^j e^(jL))/(1 - zeta^j), as
    sum_{0<r<m} 1/(1 - zeta^r) = (m - 1)/2 and
    sum_{0<r<m} 1/(1 - zeta^r)^2 = -(m - 1)(m - 5)/12 (at m = 1, the
    Mann-Whitney cumulants of C(T, B)_q); such terms are summed with their
    exponentials over the denominators i! 24^i of L^i.  Every other term
    raises a ValueError that names it: one that needs a series coefficient
    and has a nonzero residue, one that needs more than L^2, and one that
    divides by q-binomials whose integer parts multiply to other than +-1.
    The right side is rational: x = e^(mL) - 1.  Only a nonzero image is turned
    into the residue (``_Field.residue``).
    """
    field, d = _field(m), 24
    # the L^i coefficient of a class is its sum over i! d^i: a term's L^j is read
    # over j! d^j and weighed by weight[i][j] = i!/j! d^(i-j), i = j + valuation
    weight = [[factorial(i) // factorial(j) * d ** (i - j) for j in range(i + 1)] for i in range(k)]
    # the classes are summed times the lcm of the denominators of rhs
    scale = lcm(*[Fraction(r).denominator for r in rhs])
    classes = {}
    for w, e, triples in terms:
        valuation, num, den, signature, plain, vanishes = 0, w, 1, [], True, False
        for t, b, p in triples:
            if not p:
                continue
            if not 0 <= b <= t:
                if p < 0:
                    raise NotInvertibleError("a vanishing q-binomial to a negative power")
                vanishes = True
                continue
            big_b, beta = divmod(b, m)
            big_c, gamma = divmod(t - b, m)
            factor = comb(t // m, big_b)
            if beta + gamma >= m:
                factor *= -1 - big_c
                valuation += p
            if p > 0:
                num *= factor ** p
            else:
                den *= factor ** -p
            if beta and gamma:
                signature.append((beta, gamma, p))
            plain = plain and not (beta or gamma)
        if vanishes:
            continue
        if valuation < 0:
            raise NotInvertibleError("Phi(%d) divides the denominator of a term" % m)
        order = k - 1 - valuation
        if order < 0:
            continue
        if abs(den) != 1 or order and not (plain and order <= 2):
            raise ValueError("the term %r is outside the kernel's closed forms at Phi(%d)^%d"
                             % ((w, e, triples), m, k))
        series = [1]
        if order:
            a1 = a2 = 0
            for t, b, p in triples:
                big_t, big_b = t // m, b // m
                a1 += p * big_b * (big_t - big_b)
                a2 += p * big_b * (big_t - big_b) * (m * m * big_t + 1)
            # A_1 = a1 m^2 / 2 + e and A_2 = a2 m^2 / 24, over d
            a1, a2 = 12 * m * m * a1 + d * e, m * m * a2
            series = [1, a1, a1 * a1 + 2 * a2 * d]
        lead = num * den * scale
        members = classes.setdefault(tuple(signature), {})
        sums = members.get(e % m)
        if sums is None:
            sums = members[e % m] = [0] * k
        for j in range(order + 1):
            i = valuation + j
            sums[i] += lead * series[j] * weight[i][j]
    if any(rhs):
        # -sum_j rhs[j] x^j, x = e^(mL) - 1; i! times the L^i coefficient of x is m^i, so
        # that of x^j is power[i] below, an integer, and the sum needs no Fraction
        sums = classes.setdefault((), {}).setdefault(0, [0] * k)
        power = [1] + [0] * (k - 1)
        for r in rhs:
            for i in range(k):
                sums[i] -= int(r * scale) * power[i] * d ** i
            power = [sum(comb(i, j) * power[j] * m ** (i - j) for j in range(i)) for i in range(k)]
    totals = {}
    for signature, members in classes.items():
        # sum_r sums[i] zeta^r times the class's K part m^s v, kept by s
        v, s = field.lead(signature)
        total = totals.setdefault(s, [None] * k)
        for i in range(k):
            u = [0] * m
            for r, sums in members.items():
                u[r] += sums[i]
            if any(u):
                y = field.project(u)
                total[i] = _add(total[i], field.mul(y, v) if signature else y)
    low, combined = min(totals, default=0), [None] * k
    for s, total in totals.items():
        for i, y in enumerate(total):
            if y:
                combined[i] = _add(combined[i], y, m ** (s - low))
    if not any(v and any(v) for v in combined):
        return LaurentPoly.zero()
    return field.residue([_add(None, v, Fraction(m) ** low / (weight[i][0] * scale)) if v
                          else [0] * m for i, v in enumerate(combined)])


def integer_coefficient_check(f: LaurentPoly) -> bool:
    """True iff every coefficient of f is an integer.

    By Gauss' lemma, an integer-coefficient congruence modulo a monic
    integer polynomial specializes at q = 1 to an ordinary integer
    congruence.
    """
    return f.has_integer_coefficients()
