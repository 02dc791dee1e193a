"""The benchmark's workloads: theorem instances, negative controls, known answers.

Instance lists come from ``qapery.cli.SweepSpec(...).instances()``, so each
workload runs exactly the instances of the named CLI sweep.  Negative
controls are mutated statements that must report FAIL through the public
``congruent``; known answers are facts fixed independently of the code under
test.  Controls and known answers run outside the timed region.

Each control or known answer is a ``(label, fn, args)`` triple; ``fn(*args)``
returns True when the statement holds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qapery import (
    LaurentPoly,
    Modulus,
    apery_q_krz_binform,
    binom,
    congruent,
    inverse_mod,
    q_integer,
    q_power,
    qbin,
)
from qapery.cli import SweepSpec

#: The Apery numbers A(0..8), OEIS A005259.
A005259 = (1, 5, 73, 1445, 33001, 819005, 21460825, 584307365, 16367912425)

#: The theorem's modulus exponent k (modulus Phi_n^k) for each harmonic sum.
HARMONIC_K = {"sp1": 2, "sp2": 1, "sp3": 1}


def _sweep(check, ranges, choices=None):
    spec = SweepSpec(
        check,
        ranges={p: (lo, hi, 1) for p, (lo, hi) in ranges.items()},
        choices=choices or {},
    )
    return [(check, params) for params in spec.instances()]


def _lucas_grid():
    """The criterion-04 grid: n 2..10, a,r 0..4, b,s 0..n-1 (no skips)."""
    out = []
    for n in range(2, 11):
        out += _sweep("lucas", {"n": (n, n), "a": (0, 4), "r": (0, 4),
                                "b": (0, n - 1), "s": (0, n - 1)})
    return out


# -- corollary-sweep ---------------------------------------------------------

def _corollary_without_correction(m, n):
    return congruent(
        apery_q_krz_binform(m * n),
        apery_q_krz_binform(n).substitute_power(m * m),
        Modulus(m, 3),
    )


def _krz_binform_known(n):
    """A_q(n)(1) = A005259(n), degree 2n^2, self-reciprocal."""
    poly = apery_q_krz_binform(n)
    d = 2 * n * n
    return (poly(1) == A005259[n] and poly.degree() == d
            and poly.min_degree() == 0 and poly.reciprocal_reflect(d) == poly)


def corollary_controls():
    for m in range(2, 9):
        for n in range(1, 5):
            if m * n <= 24:
                yield ("corollary m=%d n=%d without correction" % (m, n),
                       _corollary_without_correction, (m, n))


def corollary_known():
    for n in range(len(A005259)):
        yield "apery_q_krz_binform(%d) vs A005259" % n, _krz_binform_known, (n,)


# -- lucas-grid --------------------------------------------------------------

def _lucas_factor_plus_one(n, a, b, r, s):
    return congruent(qbin(a * n + b, r * n + s), (binom(a, r) + 1) * qbin(b, s), Modulus(n, 1))


def _qbin_at_one(n, k):
    return qbin(n, k)(1) == math.comb(n, k)


def lucas_controls():
    # Phi_n does not divide C(b,s)_q for s <= b < n, so raising the integer
    # factor by one breaks every instance.  (Raising k breaks only some.)
    for _, p in _lucas_grid():
        if p["s"] <= p["b"]:
            args = (p["n"], p["a"], p["b"], p["r"], p["s"])
            yield "lucas %r with C(a,r)+1" % (args,), _lucas_factor_plus_one, args


def lucas_known():
    pairs = set()
    for _, p in _lucas_grid():
        n, a, b, r, s = p["n"], p["a"], p["b"], p["r"], p["s"]
        pairs.add((a * n + b, r * n + s))
        pairs.add((b, s))
    for pair in sorted(pairs):
        yield "qbin%r(1) vs math.comb" % (pair,), _qbin_at_one, pair


# -- harmonic-sp -------------------------------------------------------------

def _harmonic_inverse_route(n, which, k):
    """The harmonic-sp statement through modular inverses, modulo Phi_n^k."""
    mod = Modulus(n, k)
    qm1 = q_power(1) - 1
    if which == "sp1":
        rhs = -Fraction(n - 1, 2) * qm1 + Fraction(n * n - 1, 24) * qm1 ** 2 * q_integer(n)
    elif which == "sp2":
        rhs = -Fraction((n - 1) * (n - 5), 12) * qm1 ** 2
    else:
        rhs = Fraction((n - 1) * (n - 2), 6) * qm1 ** 2
    inverses = [inverse_mod(q_integer(i), mod) for i in range(1, n)]
    h1 = sum(inverses, LaurentPoly.zero())
    h2 = sum((h * h for h in inverses), LaurentPoly.zero())
    lhs = {"sp1": h1, "sp2": h2, "sp3": Fraction(1, 2) * (h1 * h1 - h2)}[which]
    return congruent(lhs, rhs, mod)


def harmonic_controls():
    # At n = 2, sp3 still holds modulo Phi_2^2, so controls start at n = 3.
    for n in range(3, 26):
        for which, k in HARMONIC_K.items():
            yield ("harmonic-sp n=%d %s modulo Phi_n^%d" % (n, which, k + 1),
                   _harmonic_inverse_route, (n, which, k + 1))


def harmonic_known():
    # The restated inverse route holds at the theorem's k, so each control
    # above fails only through its raised exponent.
    for n in range(2, 26):
        for which, k in HARMONIC_K.items():
            yield ("harmonic-sp n=%d %s restated" % (n, which),
                   _harmonic_inverse_route, (n, which, k))


#: name -> (theorem instances, negative controls, known answers)
WORKLOADS = {
    "corollary-sweep": (
        lambda: _sweep("corollary", {"m": (1, 8), "n": (0, 4)}),
        corollary_controls,
        corollary_known,
    ),
    "lucas-grid": (_lucas_grid, lucas_controls, lucas_known),
    "harmonic-sp": (
        lambda: _sweep("harmonic-sp", {"n": (2, 25)}, {"which": ["sp1", "sp2", "sp3"]}),
        harmonic_controls,
        harmonic_known,
    ),
}
