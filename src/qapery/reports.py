"""Result records shared by all theorem checkers."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


#: The one size guard of the checkers (``_guard_size``).
RING_SIZE_GUARD = 1 << 15


class PreconditionError(ValueError):
    """A checker was invoked on a parameter tuple outside its domain.

    Sweeps treat this as a skipped instance rather than a failure.
    """


def _guard_size(size, what):
    """Refuse an instance, before any work, whose size (``what % size``
    describes it) exceeds ``RING_SIZE_GUARD``."""
    if size > RING_SIZE_GUARD:
        raise PreconditionError("instance too large: %s exceeds the size guard %d"
                                % (what % size, RING_SIZE_GUARD))


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
        """Flat JSON-ready record (elapsed in integer milliseconds)."""
        return {
            "check": self.check_name,
            "params": dict(self.parameters),
            "modulus": self.modulus,
            "holds": self.holds,
            "residue_at_one": str(self.residue_at_one),
            "elapsed_ms": int(round(self.elapsed * 1000)),
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


def _finish_poly(name, params, residues, mod, started):
    """Report builder for a conjunction of polynomial congruences.

    `residues` are the reduced differences, which all vanish when the
    statement holds; `mod` is the Modulus (or "identity").  A failing
    report carries the first nonzero residue's value at q = 1 and its
    lowest coefficient.
    """
    bad = next((r for r in residues if not r.is_zero()), None)
    holds = bad is None
    return finish_report(
        name, params, str(mod), holds, started,
        residue_at_one=Fraction(0) if holds else bad(1),
        first_residue_coeff=None if holds else Fraction(bad.coefficient(bad.min_degree())),
    )
