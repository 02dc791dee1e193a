"""Result records shared by all theorem checkers, and the one admission policy.

Every checker and ``compute`` target estimates, from its parameters alone, the
work of its route in integer units and calls ``admit`` before it builds any
polynomial, ring, modulus or memo entry.  ``admit`` refuses an estimate over
``WORK_BUDGET`` with a PreconditionError: exit 2 from ``verify`` and
``compute``, a skipped instance in a sweep.  The constants were fitted to CPU
times of fresh processes (2 cores, Python 3.11.7), where a unit is about 1 ns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

#: The work budget of one instance, about 8 s of CPU time.
WORK_BUDGET = 8 * 10 ** 9
# Units per step, each fitted to the CPU times in its comment.
PRODUCT = 2  # per b^1.5 bits(b) / 1024 of a b-bit product (the chu and classical-sc rows)
TERM, LEAD = 10 ** 4, 2000  # a kernel term; a lead class per m digits: corollary (1581, 4) 14 s
TERM_PRODUCTS, TABLE = 10, 40  # corollary (1, 3072) 5.3 s, (2, 3072) 7.1 s; qbin-prop m = 3000 1.5 s
MODULUS = 15  # per (k m)^2, at the worst m: a remainder by Phi_15015 4.6 s, by Phi_9240 0.25 s
QBIN, QBIN_BITS = 36, 400  # per row step, again per QBIN_BITS bits: qbin(600, 300) 2.1 s
CHU = 2000  # per factor of a composition: chu-vandermonde (1148, 1, 1) 2.7 s
HARMONIC = 14  # per n^3, twice for sp2 and sp3: harmonic-sp n = 512 2.2 s, 4.3 s (sp2)
ZHENG, POLY_SEQUENCE = 18, 1  # per n^5.5: zheng-identity n = 25 0.83 s, apery-q n = 60 5.0 s
BINOMIAL_SUM = 1  # per 64 N^2 of a term of two binomials to N: apery(3000) 1.6 s
AZ = 1  # per (N bits(N))^2 / 1024 of a term of Z(N): almkvist-zudilin(3000) 1.0 s


class PreconditionError(ValueError):
    """A checker was invoked on a parameter tuple outside its domain.

    Sweeps treat this as a skipped instance rather than a failure.
    """


def admit(work: int, what: str):
    """Refuse, before any work, an instance whose estimated work is over budget."""
    if work > WORK_BUDGET:
        raise PreconditionError("instance too large: %s needs an estimated %d work units, "
                                "over the work budget of %d" % (what, work, WORK_BUDGET))


def _product_work(bits: int) -> int:
    return PRODUCT * bits * isqrt(bits) * bits.bit_length() >> 10


def modulus_work(m: int, k: int = 1) -> int:
    """Phi_m^k and a remainder by it: (k m)^2 bounds the division of k m folded
    integers by the nonzero terms of Phi_m^k, dearest for m with many odd
    primes, such as 15015; Phi_m itself is built in about linear time."""
    return MODULUS * (k * m) ** 2


def kernel_work(m: int, k: int, terms: int, bits: int, table: bool = False) -> int:
    """``binomial_sum_residue`` at Phi_m^k on ``terms`` terms whose integer
    leads have up to ``bits`` bits: a few products of such integers a term;
    at most min(m, terms) lead classes, each a few products of m digits of
    up to ``bits`` bits at each power of L below k; and with ``table``, a
    lead read off P_rho, up to m shift-subtracts of m numbers of up to m/4
    bits each.  The kernel builds no Phi_m^k; ``modulus_work(m, k)`` bounds
    ``_Field.residue``, which takes k remainders by Phi_m of a failing
    instance's image."""
    work = terms * (TERM + TERM_PRODUCTS * _product_work(bits))
    work += LEAD * k * m * min(m, terms) * (256 + bits) >> 8
    if table:
        work += TABLE * m * m * (m + 256) >> 8
    return work + modulus_work(m, k)


def harmonic_work(n: int, k: int) -> int:
    """harmonic-sp modulo Phi_n^k: n^3 list steps, and squares for k = 1."""
    return HARMONIC * n ** 3 * (3 - k) + modulus_work(n, k)


def power_product_work(n: int, sequence: bool = False) -> int:
    """The polynomial products of zheng-identity, or of the sequence A_q(n)."""
    return (POLY_SEQUENCE if sequence else ZHENG) * n ** 5 * isqrt(n)


def chu_work(a: int, b: int, n: int, compositions: int) -> int:
    """The a factors of each composition of chu-vandermonde, each a product of
    about d n / 2 bits for the degree d = b n (a n - b n): (2, 1, 80) took
    0.41 s and (2, 1, 166) 33 s."""
    return a * compositions * (CHU + _product_work(b * n * (a * n - b * n) * n // 2))


def qbin_work(n: int, k: int) -> int:
    """C(n, k)_q by min(k, n - k) row steps over up to its degree coefficients."""
    low = max(min(k, n - k), 0)
    return QBIN * low * low * (n - low) * (QBIN_BITS + n) // QBIN_BITS


def almkvist_zudilin_work(n: int) -> int:
    return AZ * (n // 3 + 1) * (n * n.bit_length()) ** 2 >> 10


def binomial_sum_work(terms: int, top: int, bits: int = 0) -> int:
    """``terms`` products of two binomials with tops up to ``top``, raised to
    powers of up to ``bits`` bits, each a quarter of a product (classical-sc
    (5, 1) with lambda = 10^6 and 3 10^6 took 0.64 s and 3.9 s)."""
    return terms * ((BINOMIAL_SUM * top * top >> 6) + (_product_work(bits) >> 2))


@dataclass
class CongruenceReport:
    """Outcome of one verified congruence or identity instance."""

    check_name: str
    parameters: dict
    modulus: str
    holds: bool
    residue_at_one: Fraction = Fraction(0)
    elapsed: float = 0.0
    first_residue_coeff: Optional[Fraction] = None

    def to_row(self) -> dict:
        """Flat JSON-ready record (elapsed in integer milliseconds); the first
        nonzero coefficient of a failing residue is a string, null when the
        statement holds."""
        return {
            "check": self.check_name,
            "params": dict(self.parameters),
            "modulus": self.modulus,
            "holds": self.holds,
            "residue_at_one": str(self.residue_at_one),
            "elapsed_ms": int(round(self.elapsed * 1000)),
            "first_residue_coeff": None if self.holds else str(self.first_residue_coeff),
        }


def finish_report(check_name, parameters, modulus, holds, started,
                  residue_at_one=Fraction(0), first_residue_coeff=None) -> CongruenceReport:
    return CongruenceReport(
        check_name=check_name,
        parameters=parameters,
        modulus=modulus,
        holds=holds,
        residue_at_one=residue_at_one if not holds else Fraction(0),
        elapsed=time.perf_counter() - started,
        first_residue_coeff=first_residue_coeff if not holds else None,
    )


def _finish_poly(name, params, residues, modulus, started):
    """Report builder for a conjunction of polynomial congruences.

    `residues` are the reduced differences, which all vanish when the
    statement holds; `modulus` is the text the report prints, such as
    "Phi(5)^3" or "identity".  A failing report carries the first nonzero
    residue's value at q = 1 and its lowest coefficient.
    """
    bad = next((r for r in residues if not r.is_zero()), None)
    holds = bad is None
    return finish_report(
        name, params, modulus, holds, started,
        residue_at_one=Fraction(0) if holds else bad(1),
        first_residue_coeff=None if holds else Fraction(bad.coefficient(bad.min_degree())),
    )
