"""Exact sparse Laurent polynomial arithmetic over the rationals.

A Laurent polynomial in q is stored as a dictionary mapping exponents
(possibly negative integers) to nonzero coefficients.  Coefficients are
Python ints or fractions.Fraction instances; a Fraction with denominator 1
is normalized to an int so that integer-only computations stay on the fast
integer path.  The zero polynomial has an empty dictionary.  Values are
immutable after construction and safe to share between threads.

    >>> f = (1 + q) ** 2
    >>> print(f)
    1 + 2*q + q^2
    >>> print(q_power(-1) * (q + 3 * q**2))
    1 + 3*q

Two polynomials are multiplied by Kronecker substitution (Schoenhage 1982;
Harvey, arXiv:0712.4046).  Each operand is scaled by the lcm of its
coefficient denominators, laid out densely from its lowest exponent and
packed into a single Python int, one digit of ``w`` bits per exponent, with
``w = bits(max|a|) + bits(max|b|) + bits(min(len(a), len(b))) + 1``; every
coefficient of the product then fits a digit with its sign.  One bigint
multiply (Karatsuba inside CPython) forms the packed product, which is read
back as balanced digits and divided by the product of the two scales.  The
cost grows with the exponent span of the operands, not with their number of
terms: a sparse operand costs as much as a dense one of the same span.

All arithmetic is exact; floats are rejected.  Division lives in
``divrem``/``exact_div`` and requires ordinary polynomials (no negative
exponents); use ``shift_to_ordinary`` first for general Laurent operands.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Coefficient = Union[int, Fraction]


def _clean_coeff(c):
    if isinstance(c, bool) or isinstance(c, float):
        raise TypeError("coefficients must be int or Fraction, got %r" % (c,))
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


class LaurentPoly:
    """Sparse exact Laurent polynomial in one variable q."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _clean_coeff(c)
                if c:
                    clean[e] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int) -> "LaurentPoly":
        return cls({e: 1})

    @classmethod
    def from_json_dict(cls, d: dict) -> "LaurentPoly":
        """Inverse of ``to_json_dict``: exponent strings to coefficient strings."""
        return cls({int(e): Fraction(c) for e, c in d.items()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent.  Undefined (raises) for the zero polynomial."""
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._terms)

    def min_degree(self) -> int:
        """Smallest exponent.  Undefined (raises) for the zero polynomial."""
        if not self._terms:
            raise ValueError("min_degree of the zero polynomial is undefined")
        return min(self._terms)

    def is_ordinary(self) -> bool:
        """True if no negative exponents occur (zero counts as ordinary)."""
        return not self._terms or min(self._terms) >= 0

    def coefficient(self, e: int):
        """Coefficient of q^e (0 if absent)."""
        return self._terms.get(e, 0)

    def leading_coefficient(self):
        return self._terms[self.degree()]

    def terms(self):
        """Iterate (exponent, coefficient) pairs in ascending exponent order."""
        for e in sorted(self._terms):
            yield e, self._terms[e]

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        """Product with a scalar or another Laurent polynomial.

        Two polynomials go through one Kronecker-substitution product (see
        the module docstring).  The digit width is safe because a product
        coefficient is a sum of at most ``min(len(a), len(b))`` terms, each
        below ``2**bits(max|a|) * 2**bits(max|b|)`` in size, so it fits in
        ``bits(max|a|) + bits(max|b|) + bits(min(len(a), len(b)))`` bits
        plus a sign bit.  Cost grows with the exponent span, not the term
        count.
        """
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                return LaurentPoly()
            return LaurentPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _kronecker_mul(self._terms, other._terms)

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
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return LaurentPoly.one() if result is None else result

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._terms == ({0: _clean_coeff(other)} if other else {})
        return NotImplemented

    __hash__ = None

    # -- structural operations ---------------------------------------------

    def shift_to_ordinary(self):
        """Return (g, s) with g = q^s * f ordinary and g(0) != 0 when f != 0.

        For f = 0 returns (0, 0).  Note s can be negative (f = q^3 gives
        (1, -3)); multiplying by a power of q never changes divisibility by
        a cyclotomic polynomial since gcd(q, Phi_m) = 1.
        """
        if not self._terms:
            return self, 0
        s = -min(self._terms)
        if s == 0:
            return self, 0
        return LaurentPoly({e + s: c for e, c in self._terms.items()}), s

    def substitute_power(self, t: int) -> "LaurentPoly":
        """Substitute q -> q^t for a positive integer t."""
        if not isinstance(t, int) or t < 1:
            raise ValueError("substitution power must be a positive integer")
        if t == 1:
            return self
        return LaurentPoly({e * t: c for e, c in self._terms.items()})

    def reciprocal_reflect(self, d: int) -> "LaurentPoly":
        """Return q^d * f(1/q).  A self-reciprocal f of degree d is fixed."""
        return LaurentPoly({d - e: c for e, c in self._terms.items()})

    def __call__(self, x) -> Fraction:
        """Exact evaluation at a rational point.

        x = 0 is rejected when negative exponents are present.
        """
        x = Fraction(x)
        if x == 0 and self._terms and min(self._terms) < 0:
            raise ValueError("cannot evaluate at 0: negative exponents present")
        if x == 1:
            return Fraction(sum(self._terms.values()))
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * x ** e
        return total

    def has_integer_coefficients(self) -> bool:
        return all(isinstance(c, int) for c in self._terms.values())

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, terms in ascending exponent order."""
        if not self._terms:
            return "0"
        pieces = []
        for e in sorted(self._terms):
            c = self._terms[e]
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
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        """JSON form: exponent strings mapped to coefficient strings."""
        return {str(e): str(self._terms[e]) for e in sorted(self._terms)}

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return self.to_text()


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return LaurentPoly({0: x}) if x else LaurentPoly()
    return NotImplemented


def _from_clean(terms: dict) -> LaurentPoly:
    """Wrap a dict of nonzero int/Fraction coefficients without re-checking."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._terms = terms
    return poly


def _integer_scale(terms: dict):
    """Return (s, {e: s*c}) with s the lcm of the coefficient denominators."""
    values = terms.values()
    if set(map(type, values)) == {int}:
        return 1, terms
    scale = math.lcm(*[c.denominator for c in values])
    return scale, {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}


def _pack(items, low: int, length: int, width: int) -> int:
    """The integer sum of c * 2**(8*width*(e - low)) over the (e, c) items."""
    zero = bytes(width)
    pos = [zero] * length
    neg = [zero] * length
    for e, c in items:
        if c > 0:
            pos[e - low] = c.to_bytes(width, "little")
        else:
            neg[e - low] = (-c).to_bytes(width, "little")
    return (int.from_bytes(b"".join(pos), "little")
            - int.from_bytes(b"".join(neg), "little"))


def _digits(packed: int, count: int, width: int) -> list:
    """The ``count`` balanced digits of ``width`` bytes of ``packed``, lowest first."""
    # adding half a digit to every digit makes each one nonnegative, so the
    # coefficients read back without carries or a sign
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    data = (packed + bias).to_bytes(count * width, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + width], "little") - half
            for i in range(0, count * width, width)]


def _dense_mul(a: list, b: list) -> list:
    """The product of two dense integer coefficient lists, by the same
    Kronecker substitution as ``LaurentPoly.__mul__``."""
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) >> 3
    packed_a = _pack(enumerate(a), 0, len(a), width)
    packed_b = packed_a if a is b else _pack(enumerate(b), 0, len(b), width)
    return _digits(packed_a * packed_b, len(a) + len(b) - 1, width)


def _kronecker_mul(a: dict, b: dict) -> LaurentPoly:
    """The product of two coefficient dicts by Kronecker substitution."""
    if not a or not b:
        return LaurentPoly()
    square = a is b
    scale_a, a = _integer_scale(a)
    scale_b, b = (scale_a, a) if square else _integer_scale(b)
    low_a, low_b = min(a), min(b)
    len_a = max(a) - low_a + 1
    len_b = max(b) - low_b + 1
    bits = (max(map(abs, a.values())).bit_length()
            + max(map(abs, b.values())).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) >> 3
    packed_a = _pack(a.items(), low_a, len_a, width)
    packed_b = packed_a if square else _pack(b.items(), low_b, len_b, width)
    coeffs = _digits(packed_a * packed_b, len_a + len_b - 1, width)
    out = {e: c for e, c in enumerate(coeffs, low_a + low_b) if c}
    scale = scale_a * scale_b
    if scale != 1:
        for e, c in out.items():
            c = Fraction(c, scale)
            out[e] = c.numerator if c.denominator == 1 else c
    return _from_clean(out)


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
    df = f.degree()
    if df < dg:
        return LaurentPoly(), f
    lc = g.leading_coefficient()
    rest = [(e, c) for e, c in g._terms.items() if e != dg]
    r = dict(f._terms)
    quot = {}
    for d in range(df, dg - 1, -1):
        c = r.get(d)
        if not c:
            continue
        t = c if lc == 1 else Fraction(c) / Fraction(lc)
        quot[d - dg] = t
        del r[d]
        shift = d - dg
        for e, ce in rest:
            pos = e + shift
            r[pos] = r.get(pos, 0) - t * ce
    return LaurentPoly(quot), LaurentPoly(r)


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Division known to be exact; raises if a remainder appears."""
    quot, rem = divrem(f, g)
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return quot


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Monic gcd of ordinary polynomials (not both zero)."""
    a, b = f, g
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        _, r = divrem(a, b)
        if not r.is_zero():
            # renormalize to monic each step to keep coefficients small
            r = r * (Fraction(1) / Fraction(r.leading_coefficient()))
        a, b = b, r
    return a * (Fraction(1) / Fraction(a.leading_coefficient()))


def ext_gcd(f: LaurentPoly, g: LaurentPoly):
    """Extended Euclid on ordinary polynomials: d = u*f + v*g, d monic."""
    if f.is_zero() and g.is_zero():
        raise ValueError("ext_gcd(0, 0) is undefined")
    r0, r1 = f, g
    u0, u1 = LaurentPoly.one(), LaurentPoly()
    v0, v1 = LaurentPoly(), LaurentPoly.one()
    while not r1.is_zero():
        quot, r2 = divrem(r0, r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    scale = Fraction(1) / Fraction(r0.leading_coefficient())
    return r0 * scale, u0 * scale, v0 * scale


class RationalFunctionQ:
    """Quotient of two Laurent polynomials in q, kept in reduced form.

    After normalization the (shifted) numerator and denominator share no
    polynomial factor and the denominator's lowest-exponent coefficient is 1,
    so equal rational functions have equal representations.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=None):
        num = _coerce(numerator)
        den = LaurentPoly.one() if denominator is None else _coerce(denominator)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("expected LaurentPoly or rational scalar")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.numerator = LaurentPoly()
            self.denominator = LaurentPoly.one()
            return
        n0, s1 = num.shift_to_ordinary()
        d0, s2 = den.shift_to_ordinary()
        g = poly_gcd(n0, d0)
        if g.degree() > 0:
            n0 = exact_div(n0, g)
            d0 = exact_div(d0, g)
        # num/den = q^(s2-s1) * n0/d0
        net = s2 - s1
        if net:
            n0 = LaurentPoly({e + net: c for e, c in n0._terms.items()})
        c = d0.coefficient(d0.min_degree())
        if c != 1:
            inv = Fraction(1) / Fraction(c)
            n0 = n0 * inv
            d0 = d0 * inv
        self.numerator = n0
        self.denominator = d0

    @classmethod
    def zero(cls):
        return cls(LaurentPoly())

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __add__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __rsub__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = RationalFunctionQ.__new__(RationalFunctionQ)
        out.numerator = -self.numerator
        out.denominator = self.denominator
        return out

    def __mul__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunctionQ(
            self.numerator * other.denominator,
            self.denominator * other.numerator,
        )

    def __rtruediv__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    __hash__ = None

    def __str__(self):
        if self.denominator == LaurentPoly.one():
            return self.numerator.to_text()
        return "(%s) / (%s)" % (self.numerator.to_text(), self.denominator.to_text())

    __repr__ = __str__


def _coerce_ratfun(x):
    if isinstance(x, RationalFunctionQ):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFunctionQ(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return RationalFunctionQ(_coerce(x))
    return NotImplemented
