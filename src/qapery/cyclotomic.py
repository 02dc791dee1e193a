"""Cyclotomic polynomials and congruence arithmetic modulo their powers.

Phi_m(q) is the Moebius product prod_{d | m} (1 - q^d)^mu(m/d), taken as a
power series cut at its degree phi(m), with one pass per square-free
divisor, and memoized in one module dict; Psi_m = (q^m - 1) / Phi_m is the
same product with mu negated.  A pass is one of the two list steps,
``laurent._times_one_minus`` and ``laurent._over_one_minus``, which the
q-binomial row recurrence and ``ResidueRing.mul_q_integer`` also run, so no
polynomial product or division is formed.  A Laurent polynomial f
has one canonical residue modulo Phi_m(q)^k: the unique ordinary r == f with
deg r below the modulus degree.  It exists because gcd(q, Phi_m) = 1 for
every m, so q is invertible modulo Phi_m^k; congruence is the vanishing of
that residue.  Since Phi_m^k divides (q^m - 1)^k, ``reduce_mod`` first folds
f's numerator below degree k*m by the sparse relation (q^m - 1)^k = 0 and
then takes the remainder of the folded integers by the monic integer
Phi_m^k, whose nonzero terms ``Modulus`` keeps, building no quotient; f's
denominator is applied once at the end.  The fold is one helper,
``laurent._fold``, which ``ResidueRing.mul_q_integer`` runs as well, and the
division loop is ``laurent._divide``, which ``divrem`` shares.

``binomial_sum_residue`` finds the residue of a weighted sum of products of
q-binomial powers, less a polynomial in q^m - 1, without building the sum.
It works in ``ResidueRing(m, k)``, integer polynomials modulo (q^m - 1)^k,
a multiple of Phi_m^k, whose elements are k*m integers; the ring folds a
product as one packed integer, modulo (2^(wm) - 1)^k, and
``residue_ring`` keeps one ring per (m, k), with its table of prefix
products, shared by every call on the ring.  A term divisible by Phi_m^v
matters only modulo Phi_m^(k - v), so the terms of each valuation v >= 1
are summed in the smaller ring of (m, k - v), and their sum is lifted by
Phi_m^v once.  Each valuation group, the right side joining the group of
valuation 0, is one ``ResidueRing.sum_of_powers``: the weighted sum of
q^e times a power of each term's base, with one fold.  The kernel forms
its common denominator, and takes an inverse, only for a nonzero residue.
The same ring multiplies by a q-integer [t]_q without a product, inverts
[i]_q in closed form and sums the squares of many elements with one fold,
which is how ``harmonic-sp`` is decided.  ``Modulus`` takes Phi_m^k and
its division data from one memo per (m, k).
``inverse_mod`` runs its Euclid loop against Phi_m alone and lifts the
inverse to Phi_m^k by Newton steps.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import comb, gcd, lcm

from .laurent import (LaurentPoly, _bias, _digits, _euclid, _fold, _lower_terms, _make,
                      _over_one_minus, _pack, _power, _residue, _times_one_minus, _width, _wrap,
                      q_power)


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
        ring = residue_ring(m, k)
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
    q^0 .. q^(km-1).

    Phi_m^k divides (q^m - 1)^k, so ``reduce_mod(to_poly(v), Modulus(m, k))``
    is the residue of whatever v stands for.  Every element is the canonical
    representative, the one of degree below k m; ``mul`` finds the product's
    as one integer (see there), reduced by the sparse relation
    (q^m - 1)^k = 0, which for k = 3 reads q^(3m) = 3 q^(2m) - 3 q^m + 1.
    ``sum_of_powers`` adds the packed sum of w q^e y^g over many terms as
    integers and reduces it once, and both read their digits through one
    fold, ``_fold_packed``.  Powers of q need no products: with
    x = q^m - 1, x^k = 0, so q^(am+r) = q^r (1 + x)^a = q^r sum_{j<k} C(a, j) x^j,
    for negative a as well, which has at most k nonzero entries in closed
    form (``q_power``).  Nor does a multiple by [t]_q (``mul_q_integer``),
    which ``laurent._fold`` reduces, and the inverse of [i]_q has a closed
    form modulo Phi_m that Newton steps lift (``q_integer_inverse``).

    ``residue_ring(m, k)`` memoizes one ring per (m, k), and the ring keeps
    what does not depend on a call: the units u_j, their prefix products
    F(i) = u_1 ... u_i (``prefix``), Phi_m and Psi_m, built on first use,
    and the headroom of ``mul``'s digits.  Elements are lists that no
    method mutates, so they may be shared.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k, self.size = m, k, m * k
        self._wrap = _wrap(m, k)
        self.one = self.q_power(0)
        self._units, self._layouts, self._prefix = {}, {}, [self.one]
        # q^(a m + r) has the entries of q^(a m), moved up by r; below q^(2km - 1),
        # r = 0 takes every a up to 2k - 1 (2k - 2 when m = 1), so its columns sum largest
        powers = [self.q_power(a * m) for a in range(2 * k - (1 if m > 1 else 2) + 1)]
        g = max(sum(abs(v[m * i]) for v in powers) for i in range(k)).bit_length()
        self._headroom = self.size.bit_length() + g + 2

    @cached_property
    def phi(self) -> list:
        return self.from_poly(cyclotomic(self.m))

    @cached_property
    def _psi(self) -> list:
        # Psi_m = (q^m - 1) / Phi_m, the product of Phi_d over d | m, d < m
        return self.from_poly(_make(0, _mobius_product(self.m, inverse=True)))

    def mul(self, a: list, b: list) -> list:
        """The product of two elements, as one integer product.

        With Q = 2^w, a(Q) b(Q) = c(Q) for the product c of degree below
        2km - 1.  Let r be the canonical product, c folded below q^(km).
        Each coefficient r_i = sum_{s,t} a_s b_t c(q^(s+t))_i, where
        c(q^e) is the element of q^e; an exponent s + t is hit at most km
        times, so |r_i| < 2^(bits(max|a|) + bits(max|b|) + bits(km) + g) with
        g = bits(max_i sum_{e<2km-1} |c(q^e)_i|), a constant of the ring.
        Two more bits make |r_i| < Q/4.  ``_fold_packed`` reads r off c(Q).
        """
        width, bias = self._digit_layout(max(map(abs, a)).bit_length()
                                         + max(map(abs, b)).bit_length())
        packed_a = _pack(a, width, bias)
        return self._fold_packed(packed_a * (packed_a if a is b else _pack(b, width, bias)),
                                 width)

    def sum_of_powers(self, terms) -> list:
        """sum w q^e y^g over the (w, e, y, g) of ``terms``, integers w and
        e, elements y and g >= 1, with one fold.

        Every base is packed once, at one width for the call, and powered
        as an integer: y^2 is one square, left unfolded, and a higher power
        runs ``_power`` with ``_fold_int`` after each product, whose result
        is again a packed canonical element.  q^e is then applied as at
        most k shifted small multiples of the packed power, one for each of
        its entries c (``_q_power_entries``), and the weights multiply; a
        base with one g is powered once for all of its terms, and each
        power is dropped once its terms are added.  The integers are summed
        and ``_fold_packed`` reads the digits once.

        The width compounds ``mul``'s bound.  With b = bits(max|y|) and h
        the ring's headroom (two spare bits included), canonical y^j for
        j <= g has coefficients of at most g b + (g - 1)(h - 2) bits, so
        its folds are exact at g b + (g - 1) h bits, and q^e y^g adds
        bits(max|c|) + h - 2 more.  Weighted and summed, the canonical sum
        stays below Q/4 with bits(sum |w|) added to the largest term's
        bound: g b + (g - 1) h, plus bits(max|c|) + h when e != 0.  At
        g = 1 a term takes one h all the same, for its two spare bits and
        Q > 8 k m.  With e = 0 and g = 2 this is ``mul``'s width plus
        bits(sum |w|).
        """
        headroom = self._headroom
        bases, bits = {}, {}
        top = weight = 0
        for w, e, y, g in terms:
            key = id(y), g
            base = bases.get(key)
            if base is None:
                # the bases are held here, so their ids stay theirs for the call
                base = bases[key] = (y, {})
            b = bits.get(key[0])
            if b is None:
                b = bits[key[0]] = max(map(abs, y)).bit_length()
            b = g * b + (g - 1 or 1) * headroom
            entries = self._q_power_entries(e) if e else ((0, 1),)
            if e:
                b += max(abs(c) for _, c in entries).bit_length() + headroom
            top, weight = max(top, b), weight + abs(w)
            shifts = base[1]
            for i, c in entries:
                shifts[i] = shifts.get(i, 0) + w * c
        # _digit_layout adds the one headroom back
        width, bias = self._digit_layout(top + weight.bit_length() - headroom)
        digit, total = 8 * width, 0
        for (_, g), (y, shifts) in bases.items():
            packed = _pack(y, width, bias)
            if g == 2:
                packed *= packed
            elif g > 2:
                packed = _power(packed, g, lambda a, b: self._fold_int(a * b, width), None)
            for i, c in shifts.items():
                shifted = packed << digit * i if i else packed
                total += shifted if c == 1 else c * shifted
        return self._fold_packed(total, width)

    def _digit_layout(self, bits: int):
        """(width, bias) of digits for canonical coefficients of ``bits``
        bits before the ring's headroom, building the fold's layout at that
        width on first use."""
        width = _width(bits + self._headroom)
        layout = self._layouts.get(width)
        if layout is None:
            layout = self._layouts.setdefault(width, self._layout(width))
        return width, layout[0]

    def _fold_packed(self, u: int, width: int) -> list:
        """The element whose digits at ``width`` bytes are u = c(Q),
        Q = 2^(8 width), for an integer polynomial c congruent modulo
        (q^m - 1)^k to an r whose coefficients are below Q/4.

        u plus the bias H = sum_{i<km} (Q/2) Q^i is folded: U = hi Q^(km) + lo
        becomes hi W + lo, W = sum_j w_j Q^(m j) the image of q^(km) modulo
        (q^m - 1)^k, which is U - hi R with R = (Q^m - 1)^k = Q^(km) - W, the
        image of (q^m - 1)^k under q -> Q.  So every round is exact modulo R,
        and it never overshoots: from above hi >= 1 and U - hi R >= lo >= 0,
        from below hi <= -1 and U - hi R < lo.  The rounds stop at
        0 <= U < Q^(km), where U - H is an integer V with km balanced digits
        |v_i| <= Q/2, congruent to r(Q) modulo R.  Then
        |V - r(Q)| < (3Q/4)(Q^(km) - 1)/(Q - 1), which is below R since
        Q > 8 k m, so V = r(Q) and its digits are r.  Nothing here bounds
        c's degree or coefficients, only r's: ``sum_of_powers`` passes sums
        of unfolded squares and their shifts, of degree up to 3 k m - 3, and
        its width bounds the canonical sum r.  ``_fold_int`` runs the rounds
        and returns V.
        """
        return _digits(self._fold_int(u, width), self.size, width, self._layouts[width][0])

    def _fold_int(self, u: int, width: int) -> int:
        """V = r(Q), the packed canonical element of ``_fold_packed``'s u."""
        bias, shift, mask, wrap = self._layouts[width]
        u += bias
        hi = u >> shift
        while hi:
            u &= mask
            for offset, weight in wrap:
                u += weight * (hi << offset)
            hi = u >> shift
        return u - bias

    def _layout(self, width: int):
        """(bias, shift, mask, wrap) of ``_fold_packed`` at ``width`` bytes a
        digit: the bias of k m digits, the bits of k m digits and their
        mask, and the wrap with its offsets in bits."""
        shift = 8 * width * self.size
        wrap = [(8 * width * offset, weight) for offset, weight in self._wrap]
        return _bias(self.size, width), shift, (1 << shift) - 1, wrap

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

    def power(self, a: list, e: int) -> list:
        """a^e for e >= 0."""
        return _power(a, e, self.mul, self.one)

    def from_x(self, coeffs, r: int = 0) -> list:
        """q^r sum_j coeffs[j] x^j, for 0 <= r < m and at most k coefficients."""
        v = [0] * self.size
        for j, c in enumerate(coeffs):
            if c:
                for i in range(j + 1):
                    v[r + self.m * i] += (-1) ** (j - i) * comb(j, i) * c
        return v

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

    def prefix(self, top: int) -> list:
        """The table [F(0), F(1), ...] of the prefixes F(i) = u_1 ... u_i,
        at least up to F(top), kept in the ring and extended on demand.

        The table is a list no method mutates: an extension builds a longer
        copy, which then replaces it (concurrent fills are idempotent, so
        need no lock), and the entries a call has read stay the same
        objects for every later call.
        """
        table = self._prefix
        if len(table) <= top:
            table = list(table)
            for j in range(len(table), top + 1):
                table.append(self.mul(table[-1], self.unit(j)))
            self._prefix = table
        return table

    def unit(self, j: int) -> list:
        """u_j, the part of 1 - q^j (j >= 1) prime to Phi_m, memoized in
        the ring (a fill is idempotent, so concurrent calls need no lock).

        That is 1 - q^j itself when m does not divide j.  For j = a m,
        1 - q^j = -Phi_m Psi_m [a]_{q^m}, so u_j = -Psi_m [a]_{q^m} with
        [a]_{q^m} = ((1 + x)^a - 1) / x = sum_{i<k} C(a, i+1) x^i.
        """
        v = self._units.get(j)
        if v is not None:
            return v
        a, r = divmod(j, self.m)
        if r:
            v = [-c for c in self.q_power(j)]
            v[0] += 1
        else:
            series = self.from_x([comb(a, i + 1) for i in range(self.k)])
            v = [-c for c in self.mul(self._psi, series)]
        return self._units.setdefault(j, v)


@lru_cache(maxsize=64)
def residue_ring(m: int, k: int) -> ResidueRing:
    """The one ``ResidueRing(m, k)`` of a process, so that its units,
    Phi_m, Psi_m and digit headroom are built once per ring, not once per
    call; the least recently used of more than 64 rings is dropped."""
    return ResidueRing(m, k)


def binomial_sum_residue(terms, rhs, mod: Modulus) -> LaurentPoly:
    """The canonical residue modulo Phi_m^k of

        sum over terms of w q^e prod C(t, b)_q^p  -  sum_j rhs[j] x^j,

    x = q^m - 1, each term a (w, e, ((t, b, p), ...)) spec with integers w
    and p (p = -1 divides by a q-binomial), rhs at most k rationals.  It is
    computed in ``ResidueRing(m, k)`` without building the sum, and equals
    ``reduce_mod`` of the built difference.

    Since C(t, b)_q = (q;q)_t / ((q;q)_b (q;q)_(t-b)), a term is
    q^e prod_i (q;q)_i^(n_i), with equal factorials cancelled.  Writing
    1 - q^j = Phi_m^[m|j] u_j, (q;q)_i = Phi_m^(floor(i/m)) F(i) with
    F(i) = u_1 ... u_i, so a term of valuation sum n_i floor(i/m) >= k is
    0 modulo Phi_m^k and is dropped; one of negative valuation, or with a
    vanishing q-binomial to a negative power, raises NotInvertibleError.
    With B the largest denominator index and d the most denominator
    factorials of a term, every term times D = F(B)^d is q^e Phi_m^valuation
    times a product of prefixes F(i) and suffixes G(i) = F(B)/F(i); a term
    with fewer denominator factorials takes G(0) = F(B) for each one
    missing.

    The prefixes come from the ring's table (``ResidueRing.prefix``),
    which every call on the ring shares; the suffixes depend on B and are
    built per call.  A term's base is the product of its prefixes and
    suffixes to the powers n_i / g, with g the gcd of its counts, and the
    term is w q^e base^g.  The terms of valuation v are summed in
    ``residue_ring(m, k - v)``: the prefixes and suffixes they use are
    folded there once, and their sum, padded to k m entries, is multiplied
    once by Phi_m^v in the full ring.  That is exact because
    Phi_m^v (a + (q^m - 1)^(k-v) b) == Phi_m^v a (mod Phi_m^k).  Terms of
    valuation 0 are summed in the full ring, and the units and the tables
    never leave it.  The right side joins them as terms: rhs[j] x^j D is
    sum_i rhs[j] C(j, i) (-1)^(j-i) q^(m i) G(0)^d, so each group is one
    ``ResidueRing.sum_of_powers``, which powers a shared base once, as
    G(0)^d for the right side and for a term that is D alone.  Every weight
    is scaled by the lcm of the denominators of rhs, so the whole
    difference is scaled by that and by D.  D is formed only for a nonzero
    scaled residue, which is multiplied by the inverse of the scale; since
    the residue is unique, the result does not depend on D.
    """
    m, k = mod.m, mod.k
    ring = residue_ring(m, k)
    specs = []
    for w, e, triples in terms:
        if any(p < 0 and not 0 <= b <= t for t, b, p in triples):
            raise NotInvertibleError("a vanishing q-binomial to a negative power")
        if any(p and not 0 <= b <= t for t, b, p in triples):
            continue
        counts = Counter()
        for t, b, p in triples:
            counts[t] += p
            counts[b] -= p
            counts[t - b] -= p
        valuation = sum(n * (i // m) for i, n in counts.items())
        if valuation < 0:
            raise NotInvertibleError("Phi(%d) divides the denominator of a term" % m)
        if valuation < k:
            # (q;q)_0 = 1, so index 0 is left out
            specs.append((w, e, valuation, {i: n for i, n in counts.items() if n and i}))

    def denominators(counts):
        return sum(-n for n in counts.values() if n < 0)

    top = max((i for *_, counts in specs for i, n in counts.items() if n > 0), default=0)
    bottom = max((i for *_, counts in specs for i, n in counts.items() if n < 0), default=0)
    prefix = ring.prefix(top)
    suffix = [ring.one] * (bottom + 1)
    for j in range(bottom, 0, -1):
        suffix[j - 1] = ring.mul(suffix[j], ring.unit(j))
    depth = max((denominators(counts) for *_, counts in specs), default=0)
    scale = lcm(*(Fraction(r).denominator for r in rhs))
    groups = {0: []}
    for w, e, valuation, counts in specs:
        counts[0] = denominators(counts) - depth
        groups.setdefault(valuation, []).append((scale * w, e, counts))

    total = [0] * ring.size
    for valuation, group in groups.items():
        sub, tops, bottoms = ring, prefix, suffix
        if valuation:
            sub = residue_ring(m, k - valuation)
            used = {(i, n > 0) for _, _, counts in group for i, n in counts.items() if n}
            # _fold reuses its list, and the table entries are shared
            tops = {i: _fold(list(prefix[i]), m, sub._wrap) for i, top in used if top}
            bottoms = {i: _fold(list(suffix[i]), m, sub._wrap) for i, top in used if not top}
        powers = []
        for w, e, counts in group:
            g = gcd(*counts.values()) or 1
            factors = [sub.power(tops[i] if n > 0 else bottoms[i], abs(n) // g)
                       for i, n in counts.items() if n]
            powers.append((w, e, reduce(sub.mul, factors) if factors else sub.one, g))
        if not valuation:
            # -scale sum_j rhs[j] x^j D = sum_i w_i q^(m i) D, D = G(0)^depth
            # (G(0) is one when depth is 0)
            right = ring.from_x([-int(scale * r) for r in rhs])
            powers += [(w, e, suffix[0], depth or 1) for e, w in enumerate(right) if w]
        if not powers:
            continue
        part = sub.sum_of_powers(powers)
        if valuation:
            part = ring.mul(part + [0] * (ring.size - sub.size), ring.power(ring.phi, valuation))
        total = [s + t for s, t in zip(total, part)]

    residue = reduce_mod(ring.to_poly(total), mod)
    if residue.is_zero():
        return residue
    scaling = ring.power(suffix[0], depth)
    return reduce_mod(residue * inverse_mod(ring.to_poly(scaling), mod) / scale, mod)


def integer_coefficient_check(f: LaurentPoly) -> bool:
    """True iff every coefficient of f is an integer.

    By Gauss' lemma, an integer-coefficient congruence modulo a monic
    integer polynomial specializes at q = 1 to an ordinary integer
    congruence.
    """
    return f.has_integer_coefficients()
