"""Exact Laurent polynomial arithmetic over the rationals, in one dense form.

A Laurent polynomial in q is stored as ``q^low * sum_i coeffs[i] q^i / den``:
an exponent offset, a list of Python ints and one common denominator.  The
form is canonical: zero is (0, [], 1); otherwise the first and last
coefficients are nonzero, den >= 1 and gcd(den, *coeffs) == 1.  So equal
polynomials have equal fields, and the coefficients are integers exactly
when den == 1.  Values are immutable and safe to share between threads.

    >>> f = (1 + q) ** 2
    >>> print(f)
    1 + 2*q + q^2
    >>> print(q_power(-1) * (q + 3 * q**2))
    1 + 3*q

Coefficients are checked once, where ``LaurentPoly(terms)`` takes a dict of
int or Fraction values (floats and bools are rejected); every other result
is built from ints by one normaliser, ``_make``.  Storage grows with the
exponent span, not the number of nonzero terms, as a product's cost does.

Two polynomials are multiplied by Kronecker substitution (Schoenhage 1982;
Harvey, arXiv:0712.4046) in ``_dense_mul``, the one product: the
residue ring and the field of ``cyclotomic`` fold its result, and only
``cyclotomic.ResidueRing.sum_of_powers`` packs its own squares, through
the same pair, ``_pack`` and ``_digits``.  Each coefficient list is packed
into a single Python int, one digit of ``w`` bits per exponent, with
``w >= bits(max|a|) + bits(max|b|) + bits(min(len(a), len(b))) + 1``; every
coefficient of the product then fits a digit with its sign.  One bigint
multiply (Karatsuba inside CPython) forms the packed product, which is read
back as balanced digits; the denominators multiply.  Every digit is laid
out in two's complement: one of at most 8 bytes is widened to 1, 2, 4 or 8
bytes and moves through one ``struct.pack``/``struct.unpack``, a wider one
through signed ``int.to_bytes``/``int.from_bytes`` one coefficient at a
time.  XORing the top bit of every digit (the bias) turns those into
c + 2^(w-1), which a plain ``int.from_bytes`` reads with no carries, and
subtracting the bias leaves sum c_i 2^(w i).  A product by a
one-coefficient polynomial scales and shifts; ``_power`` is the one
squaring loop, for polynomials and field elements alike.  A
coefficient list is multiplied by 1 - q^a and divided by 1 - q^i without a
product by ``_times_one_minus`` and ``_over_one_minus``, the steps of the
q-binomial row recurrence, of Phi_m and Psi_m and of
``cyclotomic.ResidueRing.mul_q_integer``.

All arithmetic is exact.  Division lives in ``divrem``/``exact_div`` and
requires ordinary polynomials (no negative exponents); use
``shift_to_ordinary`` first for general Laurent operands.  ``_divide`` is
the one division loop, and division by a monic divisor stays in integers.
``_residue``, the remainder ``cyclotomic.reduce_mod`` takes, runs the same
loop on the folded numerator with no quotient.  There is no
rational-function type: a quotient is multiplied through by its
denominator, or inverted modulo Phi_m^k by ``cyclotomic.inverse_mod``,
which runs ``_euclid``, the one Euclid loop, against Phi_m and lifts by
Newton steps; the loop tracks only the cofactor an inverse needs, and
``ext_gcd`` adds the other by one exact division.
"""

from __future__ import annotations

import operator
import struct
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm


def _clean_coeff(c):
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


def _value(c: int, den: int):
    """The coefficient c / den: an int when it is whole, else a Fraction."""
    if den == 1:
        return c
    v = Fraction(c, den)
    return v.numerator if v.denominator == 1 else v


class LaurentPoly:
    """Exact Laurent polynomial in one variable q, q^low * sum coeffs[i] q^i / den."""

    __slots__ = ("_low", "_coeffs", "_den")

    def __init__(self, terms=None):
        if not terms:
            self._low, self._coeffs, self._den = 0, [], 1
            return
        clean = {e: _clean_coeff(c) for e, c in terms.items()}
        low = min(clean)
        values = [0] * (max(clean) - low + 1)
        for e, c in clean.items():
            values[e - low] = c
        poly = _from_values(low, values, 1)
        self._low, self._coeffs, self._den = poly._low, poly._coeffs, poly._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _make(0, [])

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _make(0, [1])

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        c = _clean_coeff(c)
        return _make(0, [c.numerator], c.denominator)

    @classmethod
    def q_power(cls, e: int) -> "LaurentPoly":
        return _make(e, [1])

    @classmethod
    def from_json_dict(cls, d: dict) -> "LaurentPoly":
        """Inverse of ``to_json_dict``: exponent strings to coefficient strings."""
        return cls({int(e): Fraction(c) for e, c in d.items()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Largest exponent.  Undefined (raises) for the zero polynomial."""
        if not self._coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return self._low + len(self._coeffs) - 1

    def min_degree(self) -> int:
        """Smallest exponent.  Undefined (raises) for the zero polynomial."""
        if not self._coeffs:
            raise ValueError("min_degree of the zero polynomial is undefined")
        return self._low

    def is_ordinary(self) -> bool:
        """True if no negative exponents occur (zero counts as ordinary)."""
        return self._low >= 0

    def coefficient(self, e: int):
        """Coefficient of q^e (0 if absent)."""
        i = e - self._low
        if 0 <= i < len(self._coeffs):
            return _value(self._coeffs[i], self._den)
        return 0

    def leading_coefficient(self):
        return self.coefficient(self.degree())

    def terms(self):
        """Iterate (exponent, coefficient) pairs in ascending exponent order."""
        den = self._den
        for e, c in enumerate(self._coeffs, self._low):
            if c:
                yield e, _value(c, den)

    def __len__(self):
        return len(self._coeffs) - self._coeffs.count(0)

    def __bool__(self):
        return bool(self._coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return other if other is NotImplemented else _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return other if other is NotImplemented else _combine(self, other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        return other if other is NotImplemented else _combine(other, self, -1)

    def __neg__(self):
        return _make(self._low, [-c for c in self._coeffs], self._den)

    def __mul__(self, other):
        """Product with a scalar or another Laurent polynomial.

        Two polynomials go through the Kronecker product ``_dense_mul`` of
        their coefficient lists, unless one of them has a single coefficient,
        which scales the other's and shifts its exponents; a scalar scales
        the numerators and the denominator.  The digit width is safe because
        a product coefficient is a sum of at most ``min(len(a), len(b))``
        terms, each below ``2**bits(max|a|) * 2**bits(max|b|)``, so it fits
        in their bits plus ``bits(min(len(a), len(b)))`` and a sign bit.
        """
        if isinstance(other, LaurentPoly):
            a, b = self._coeffs, other._coeffs
            if not a or not b:
                return LaurentPoly()
            if len(a) == 1:
                a, b = b, a
            if len(b) == 1:
                c = b[0]
                coeffs = a if c == 1 else [c * x for x in a]
            else:
                coeffs = _dense_mul(a, b)
            return _make(self._low + other._low, coeffs, self._den * other._den)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            num = other.numerator
            return _make(self._low, [c * num for c in self._coeffs], self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar only; polynomial division is divrem."""
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power requires a nonnegative integer exponent")
        return _power(self, n, operator.mul, one)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._low, self._den, self._coeffs) == (other._low, other._den, other._coeffs)

    __hash__ = None

    # -- structural operations ---------------------------------------------

    def shift_to_ordinary(self):
        """Return (g, s) with g = q^s * f ordinary and g(0) != 0 when f != 0.

        For f = 0 returns (0, 0).  Note s can be negative (f = q^3 gives
        (1, -3)); multiplying by a power of q never changes divisibility by
        a cyclotomic polynomial since gcd(q, Phi_m) = 1.
        """
        if not self._low:
            return self, 0
        return _make(0, self._coeffs, self._den), -self._low

    def substitute_power(self, t: int) -> "LaurentPoly":
        """Substitute q -> q^t for a positive integer t."""
        if not isinstance(t, int) or t < 1:
            raise ValueError("substitution power must be a positive integer")
        if t == 1 or not self._coeffs:
            return self
        coeffs = [0] * ((len(self._coeffs) - 1) * t + 1)
        coeffs[::t] = self._coeffs
        return _make(self._low * t, coeffs, self._den)

    def reciprocal_reflect(self, d: int) -> "LaurentPoly":
        """Return q^d * f(1/q).  A self-reciprocal f of degree d is fixed."""
        if not self._coeffs:
            return self
        return _make(d - self.degree(), self._coeffs[::-1], self._den)

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point.

        x = 0 is rejected when negative exponents are present.
        """
        x = Fraction(x)
        if x == 0 and self._low < 0:
            raise ValueError("cannot evaluate at 0: negative exponents present")
        total = Fraction(0)
        for c in reversed(self._coeffs):
            total = total * x + c
        return total * x ** self._low / self._den

    def has_integer_coefficients(self) -> bool:
        return self._den == 1

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, terms in ascending exponent order."""
        pieces = []
        for e, c in self.terms():
            negative = c < 0
            mag = str(-c if negative else c)
            if e == 0:
                body = mag
            else:
                var = "q" if e == 1 else "q^%d" % e
                body = var if mag == "1" else "%s*%s" % (mag, var)
            if not pieces:
                pieces.append("-" + body if negative else body)
            else:
                pieces.append((" - " if negative else " + ") + body)
        return "".join(pieces) or "0"

    def to_json_dict(self) -> dict:
        """JSON form: exponent strings mapped to coefficient strings."""
        return {str(e): str(c) for e, c in self.terms()}

    __str__ = __repr__ = to_text


def _make(low: int, coeffs: list, den: int = 1) -> LaurentPoly:
    """The canonical q^low * sum_i coeffs[i] q^i / den, for int coeffs and
    den >= 1.  coeffs is never mutated, so values may share a list."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    start = 0
    while start < end and not coeffs[start]:
        start += 1
    if start or end < len(coeffs):
        coeffs = coeffs[start:end]
    if not coeffs:
        low, den = 0, 1
    elif den != 1:
        g = gcd(den, *coeffs)
        if g != 1:
            den //= g
            coeffs = [c // g for c in coeffs]
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._low, poly._coeffs, poly._den = low + start, coeffs, den
    return poly


def _from_values(low: int, values: list, den: int) -> LaurentPoly:
    """q^low * sum_i values[i] q^i / den for int or Fraction values."""
    scale = lcm(*[v.denominator for v in values])
    return _make(low, [v.numerator * (scale // v.denominator) for v in values], den * scale)


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return _make(0, [x.numerator], x.denominator)
    return NotImplemented


def _combine(a: LaurentPoly, b: LaurentPoly, sign: int) -> LaurentPoly:
    """a + sign * b, aligned at the lower exponent over the lcm of the denominators."""
    if not b._coeffs:
        return a
    if not a._coeffs:
        return b if sign == 1 else -b
    den = lcm(a._den, b._den)
    scale_a, scale_b = den // a._den, sign * (den // b._den)
    low = min(a._low, b._low)
    out = [0] * (max(a._low + len(a._coeffs), b._low + len(b._coeffs)) - low)
    i, j = a._low - low, b._low - low
    out[i:i + len(a._coeffs)] = a._coeffs if scale_a == 1 else [scale_a * c for c in a._coeffs]
    out[j:j + len(b._coeffs)] = [x + scale_b * c
                                 for x, c in zip(out[j:j + len(b._coeffs)], b._coeffs)]
    return _make(low, out, den)


#: struct formats of the signed digits of 1, 2, 4 and 8 bytes
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _width(bits: int) -> int:
    """Bytes per digit for signed digits of ``bits`` bits (bits >= 1): the
    struct sizes 1, 2, 4 or 8 up to 8 bytes, whole bytes above."""
    width = (bits + 7) >> 3
    return width if width > 8 else 1 << (width - 1).bit_length()


def _bias(count: int, width: int) -> int:
    """Half a digit, 2**(8*width - 1), in each of ``count`` digits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs: list, width: int, bias: int) -> int:
    """The integer sum of coeffs[i] * 2**(8*width*i), each |coeffs[i]| below
    half a digit; ``bias`` is ``_bias(n, width)`` for any n >= len(coeffs),
    whose digits above the coefficients' add half and take it off again."""
    count = len(coeffs)
    fmt = _FORMATS.get(width)
    if fmt:
        data = struct.pack("<%d%s" % (count, fmt), *coeffs)
    else:
        data = b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])
    # two's-complement digits with their top bits flipped are c + half,
    # so the bytes read as sum (c_i + half) 2**(8 width i), less the bias
    return (int.from_bytes(data, "little") ^ bias) - bias


def _digits(packed: int, count: int, width: int, bias: int) -> list:
    """The ``count`` balanced digits of ``width`` bytes of ``packed``, lowest
    first; ``packed`` + ``_bias(count, width)`` must lie in
    [0, 2**(8*width*count)), and ``bias`` is ``_bias(n, width)`` for any
    n >= count."""
    # adding half a digit to every digit makes each one nonnegative, so the
    # sum has no carries; flipping the top bits again gives two's complement
    # and clears the bias's digits above count
    data = ((packed + bias) ^ bias).to_bytes(count * width, "little")
    fmt = _FORMATS.get(width)
    if fmt:
        return list(struct.unpack("<%d%s" % (count, fmt), data))
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, len(data), width)]


def _power(a, e: int, mul, one):
    """a^e for e >= 0 by repeated squaring with the product ``mul``, and
    ``one`` when e = 0; the first factor is taken as it is, not multiplied
    by ``one``."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return one if result is None else result


def _dense_mul(a: list, b: list) -> list:
    """The product of two nonempty dense integer coefficient lists, by
    Kronecker substitution; ``a is b`` packs once and squares.  The two packs
    and the unpack share the product's bias."""
    count = len(a) + len(b) - 1
    width = _width(max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                   + min(len(a), len(b)).bit_length() + 1)
    bias = _bias(count, width)
    packed_a = _pack(a, width, bias)
    packed_b = packed_a if a is b else _pack(b, width, bias)
    return _digits(packed_a * packed_b, count, width, bias)


def _times_one_minus(g: list, a: int) -> list:
    """g (1 - q^a) for a >= 1, by one shift-subtract, as a new list a
    entries longer."""
    h = g + [0] * a
    h[a:] = map(operator.sub, h[a:], g)
    return h


def _over_one_minus(g: list, i: int) -> list:
    """g / (1 - q^i) for i >= 1, in place: the running sum h[j] = g[j] + h[j - i]
    over each residue class mod i, less its top i entries.  Those are zero
    when the division is exact; when g was padded by i zeros, what is left
    is the power series quotient of the unpadded g, cut at its length.
    Returns g."""
    if i == 1:
        g[:] = accumulate(g)
    else:
        for r in range(i):
            g[r::i] = accumulate(g[r::i])
    del g[-i:]
    return g


def _wrap(m: int, k: int) -> list:
    """The (offset, weight) pairs of q^(k m) = sum w q^offset modulo
    (q^m - 1)^k, that is q^(k m) = -sum_{j<k} C(k, j) (-1)^(k-j) q^(m j)."""
    return [(m * j, (-1) ** (k - j + 1) * comb(k, j)) for j in range(k)]


def _fold(v: list, m: int, wrap: list) -> list:
    """The coefficients from q^0 of v modulo (q^m - 1)^k, below q^(k m),
    with ``wrap = _wrap(m, k)``.

    For k = 1 that is q^m = 1, the sum of each residue class mod m.  A list
    of m to 2m entries, such as ``mul_q_integer``'s multiple by [t]_q for
    t <= m + 1, adds its overhang above q^m onto its first entries pair by
    pair; a longer one, such as a q-binomial that ``_residue`` reduces,
    sums each class by a slice.  Otherwise each coefficient from
    the top down is moved onto lower powers by ``wrap``, and v is reused.
    ``_residue`` folds here before it divides, and
    ``cyclotomic.ResidueRing.mul_q_integer`` reduces its multiples here.
    """
    if len(wrap) == 1:
        if m <= len(v) <= 2 * m:
            out = list(map(operator.add, v, v[m:]))
            out += v[len(out):m]
            return out
        return [sum(v[r::m]) for r in range(m)]
    size = len(wrap) * m
    for i in range(len(v) - 1, size - 1, -1):
        c = v[i]
        if c:
            low = i - size
            for offset, w in wrap:
                v[low + offset] += w * c
    del v[size:]
    return v


def _integers(f: LaurentPoly) -> list:
    """The coefficients of q^0 .. q^deg of an ordinary f with integer
    coefficients, possibly f's own list, which must not be mutated."""
    return [0] * f._low + f._coeffs if f._low else f._coeffs


def _lower_terms(g: LaurentPoly) -> list:
    """The (exponent, coefficient) pairs of the nonzero numerator terms of
    the ordinary g below its leading term."""
    return [(e, c) for e, c in enumerate(g._coeffs[:-1], g._low) if c]


def _divide(r: list, lower: list, degree: int, lead=1, quot: list = None) -> list:
    """Divide r, the coefficients from q^0, in place by the divisor
    lead q^degree + sum c q^e over the pairs (e, c) of ``lower``, and return
    r cut to the remainder below q^degree; quotient coefficients go to
    ``quot`` when it is given.  A lead of 1 keeps ints in ints."""
    for shift in range(len(r) - 1 - degree, -1, -1):
        c = r[shift + degree]
        if not c:
            continue
        t = c if lead == 1 else Fraction(c) / lead
        if quot is not None:
            quot[shift] = t
        for e, ce in lower:
            r[e + shift] -= t * ce
    del r[degree:]
    return r


def _residue(f: LaurentPoly, m: int, wrap: list, lower: list, degree: int) -> LaurentPoly:
    """The remainder of an ordinary f by a monic integer divisor
    q^degree + sum c q^e, (e, c) in ``lower``, of (q^m - 1)^k, with
    ``wrap = _wrap(m, k)``.  f's numerator is folded below q^(k m) by
    ``_fold`` and divided in ints, with no quotient; f's denominator is
    applied once, at the end."""
    r = [0] * f._low + f._coeffs
    if len(r) > len(wrap) * m:
        r = _fold(r, m, wrap)
    return _make(0, _divide(r, lower, degree), f._den)


#: The generator q and the constant 1, for building expressions.
q = LaurentPoly.q_power(1)
one = LaurentPoly.one()


def q_power(e: int) -> LaurentPoly:
    """The monomial q^e (e may be negative)."""
    return LaurentPoly.q_power(e)


def divrem(f: LaurentPoly, g: LaurentPoly):
    """Exact division with remainder of ordinary polynomials over Q.

    Returns (quotient, remainder) with f = quotient*g + remainder and
    deg(remainder) < deg(g).  Both operands must be ordinary (no negative
    exponents); g must be nonzero.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if not f.is_ordinary() or not g.is_ordinary():
        raise ValueError("divrem requires ordinary polynomials; shift first")
    if f.is_zero():
        return LaurentPoly(), LaurentPoly()
    dg = g.degree()
    # with f = F/f_den and g = G/g_den, F*g_den divided by G gives the quotient
    # times f_den and the remainder times f_den*g_den; a monic G stays in ints
    r = [0] * f._low + [c * g._den for c in f._coeffs]
    quot = [0] * (len(r) - dg)
    r = _divide(r, _lower_terms(g), dg, g._coeffs[-1], quot)
    return _from_values(0, quot, f._den), _from_values(0, r, f._den * g._den)


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Division known to be exact; raises if a remainder appears."""
    quot, rem = divrem(f, g)
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return quot


def _euclid(f: LaurentPoly, g: LaurentPoly):
    """(d, u) with d = gcd(f, g) monic and d == u*f (mod g): the Euclid loop
    on ordinary polynomials, tracking only the cofactor of f."""
    if f.is_zero() and g.is_zero():
        raise ValueError("ext_gcd(0, 0) is undefined")
    r0, r1 = f, g
    u0, u1 = LaurentPoly.one(), LaurentPoly()
    while not r1.is_zero():
        quot, r2 = divrem(r0, r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - quot * u1
    scale = Fraction(1) / Fraction(r0.leading_coefficient())
    return r0 * scale, u0 * scale


def ext_gcd(f: LaurentPoly, g: LaurentPoly):
    """Extended Euclid on ordinary polynomials: d = u*f + v*g, d monic.

    ``_euclid`` finds d and u; v is (d - u*f) / g, one exact division."""
    d, u = _euclid(f, g)
    v = exact_div(d - u * f, g) if g else LaurentPoly()
    return d, u, v
