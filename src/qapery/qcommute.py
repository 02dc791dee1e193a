"""Normal-ordered arithmetic for q-commuting variables.

Variables x_0, ..., x_{v-1} satisfy x_j x_i = q x_i x_j for i < j.  Every
element is kept normal-ordered: a sum of words coeff * x_0^e0 ... with the
coefficient a Laurent polynomial in q.  Multiplying two ordered words
x^a * x^b therefore picks up one factor of q per inversion, i.e.
q^(sum over i < j of a_j * b_i).

Coefficient extraction from products of linear forms in these variables is
an independent oracle for binomial-sum closed forms: at q = 1 it reduces to
plain multinomial expansion.
"""

from __future__ import annotations

from .laurent import LaurentPoly

#: Expansions beyond this total degree are refused (desk-scale guard).
TOTAL_DEGREE_GUARD = 16


class QPolynomial:
    """A normal-ordered element of the q-commuting polynomial algebra."""

    __slots__ = ("arity", "words")

    def __init__(self, arity: int, words=None):
        if arity < 1:
            raise ValueError("arity must be a positive integer")
        self.arity = arity
        clean = {}
        if words:
            for exps, coeff in words.items():
                exps = tuple(exps)
                if len(exps) != arity or any(e < 0 for e in exps):
                    raise ValueError("bad exponent vector %r" % (exps,))
                if not isinstance(coeff, LaurentPoly):
                    coeff = LaurentPoly.constant(coeff)
                if not coeff.is_zero():
                    clean[exps] = clean.get(exps, LaurentPoly.zero()) + coeff
        self.words = {e: c for e, c in clean.items() if not c.is_zero()}

    @classmethod
    def one(cls, arity: int) -> "QPolynomial":
        return cls(arity, {(0,) * arity: LaurentPoly.one()})

    @classmethod
    def variable(cls, index: int, arity: int) -> "QPolynomial":
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: LaurentPoly.one()})

    @classmethod
    def linear_form(cls, indices, arity: int) -> "QPolynomial":
        """Sum of the variables with the given indices."""
        out = cls(arity)
        words = {}
        for i in indices:
            if not 0 <= i < arity:
                raise ValueError("variable index out of range")
            exps = tuple(1 if j == i else 0 for j in range(arity))
            words[exps] = LaurentPoly.one()
        out.words = words
        return out

    def __add__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
        out = dict(self.words)
        for exps, coeff in other.words.items():
            prev = out.get(exps)
            out[exps] = coeff if prev is None else prev + coeff
        result = QPolynomial(self.arity)
        result.words = {e: c for e, c in out.items() if not c.is_zero()}
        return result

    def __mul__(self, other):
        """Normal-ordered product (bilinear over LaurentPoly coefficients)."""
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
        v = self.arity
        out = {}
        for ea, ca in self.words.items():
            # suffix[i] = number of left-word variables with index > i
            suffix = [0] * v
            acc = 0
            for i in range(v - 1, -1, -1):
                suffix[i] = acc
                acc += ea[i]
            for eb, cb in other.words.items():
                twist = sum(suffix[i] * eb[i] for i in range(v) if eb[i])
                exps = tuple(ea[i] + eb[i] for i in range(v))
                coeff = ca * cb
                if twist:
                    coeff = coeff * LaurentPoly.q_power(twist)
                prev = out.get(exps)
                out[exps] = coeff if prev is None else prev + coeff
        result = QPolynomial(v)
        result.words = {e: c for e, c in out.items() if not c.is_zero()}
        return result

    def coefficient_of(self, exponents) -> LaurentPoly:
        """Laurent-polynomial coefficient of the given monomial (0 if absent)."""
        exps = tuple(exponents)
        if len(exps) != self.arity:
            raise ValueError("exponent vector has wrong arity")
        return self.words.get(exps, LaurentPoly.zero())

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.arity == other.arity and self.words == other.words

    __hash__ = None

    def __repr__(self):
        if not self.words:
            return "0"
        parts = []
        for exps in sorted(self.words):
            mono = "*".join(
                "x%d^%d" % (i, e) if e > 1 else "x%d" % i
                for i, e in enumerate(exps) if e
            ) or "1"
            parts.append("(%s)*%s" % (self.words[exps], mono))
        return " + ".join(parts)


def expand_linear_form_product(factors, arity: int) -> QPolynomial:
    """Expand prod (sum of chosen variables)^exponent in the given order.

    `factors` is an ordered list of (variable indices, exponent) pairs.
    Expansion is a left-to-right fold, one linear form at a time, so the
    only algebra used is the two-variable commutation rule; this keeps the
    expansion independent of any closed-form binomial identity.
    """
    total = sum(e for _, e in factors)
    if total > TOTAL_DEGREE_GUARD:
        raise ValueError(
            "expansion of total degree %d exceeds the guard (%d)"
            % (total, TOTAL_DEGREE_GUARD)
        )
    acc = QPolynomial.one(arity)
    for indices, exponent in factors:
        if exponent < 0:
            raise ValueError("factor exponents must be nonnegative")
        form = QPolynomial.linear_form(indices, arity)
        for _ in range(exponent):
            acc = acc * form
    return acc
