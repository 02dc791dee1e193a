"""Apery-type sequences and their polynomial q-analogs.

Covers the classical numbers A(n) = sum C(n,k)^2 C(n+k,k)^2, the
four-index numbers A(n1,n2,n3,n4), a truncated-power-series oracle that
reads them off as Taylor coefficients of the rational function
1/((1-x1-x2)(1-x3-x4) - x1x2x3x4), the q-analogs (binomial-sum form,
Laurent form with weight k(k-2n), partial-fraction coefficients a_q(n,k)),
weighted multivariate and (lambda, mu)-generalized q-sums, their rational
correction terms, and the Almkvist-Zudilin numbers.

The binomial and Laurent q-forms are the (lambda, mu) = (2, 2) members of
the generalized family, with weights (n-k)^2 and k(k-2n); both are computed
by ``apery_q_lambda_mu``.  The partial-fraction route ``apery_q_krz`` is
built independently and serves as their cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .laurent import LaurentPoly, q_power
from .qcombinatorics import qbin_pow

#: Truncated series expansions beyond this total degree are refused.
DIAGONAL_DEGREE_GUARD = 16


# ---------------------------------------------------------------------------
# exponent-weight registry
# ---------------------------------------------------------------------------

def _homogeneity_samples(dims):
    base = (0, 1, 2, 6)
    return list(itertools.product(base, repeat=dims))


@dataclass(frozen=True)
class AlphaExponent:
    """An integer exponent weight alpha(n, k) for weighted q-binomial sums.

    Must scale quadratically, alpha(m*n, m*k) = m^2 * alpha(n, k), and
    reduce to k^2 at n = 0.  `arity` is the length of the index tuple the
    evaluator expects; arity 0 means the weight ignores n entirely and may
    be used at any arity.  Both invariants are sample-checked on
    construction.
    """

    name: str
    arity: int
    formula: str
    fn: Callable = field(compare=False)

    def __post_init__(self):
        dims = self.arity or 4
        zero = (0,) * dims
        for k in range(-10, 11):
            if self.fn(zero, k) != k * k:
                raise ValueError(
                    "alpha %r violates alpha(0, k) = k^2 at k=%d" % (self.name, k)
                )
        for n in _homogeneity_samples(dims):
            scaled = [tuple(m * ni for ni in n) for m in range(1, 7)]
            for k in range(0, 7):
                base = self.fn(n, k)
                for m, mn in enumerate(scaled, 1):
                    if self.fn(mn, m * k) != m * m * base:
                        raise ValueError(
                            "alpha %r violates quadratic homogeneity at n=%r, k=%d, m=%d"
                            % (self.name, n, k, m)
                        )

    def __call__(self, n, k: int) -> int:
        return self.fn(tuple(n), k)


_ALPHAS = {}


def register_alpha(alpha: AlphaExponent) -> AlphaExponent:
    _ALPHAS[alpha.name] = alpha
    return alpha


def get_alpha(alpha) -> AlphaExponent:
    """Resolve a registered name (or pass an AlphaExponent through)."""
    if isinstance(alpha, AlphaExponent):
        return alpha
    try:
        return _ALPHAS[alpha]
    except KeyError:
        raise ValueError(
            "unknown alpha %r (known: %s)" % (alpha, ", ".join(sorted(_ALPHAS)))
        ) from None


def list_alphas():
    return [_ALPHAS[name] for name in sorted(_ALPHAS)]


ALPHA_KSQ = register_alpha(AlphaExponent("ksq", 0, "k^2", lambda n, k: k * k))
ALPHA_KN23 = register_alpha(AlphaExponent(
    "kn23", 4, "k*(n2+n3+k)", lambda n, k: k * (n[1] + n[2] + k)))
ALPHA_NKSQ = register_alpha(AlphaExponent(
    "nksq", 1, "(n-k)^2", lambda n, k: (n[0] - k) ** 2))
ALPHA_KK2N = register_alpha(AlphaExponent(
    "kk2n", 1, "k*(k-2*n)", lambda n, k: k * (k - 2 * n[0])))


# ---------------------------------------------------------------------------
# classical integer sequences
# ---------------------------------------------------------------------------

def apery(n: int) -> int:
    """A(n) = sum over k of C(n,k)^2 C(n+k,k)^2, the (2, 2) member of
    ``apery_lambda_mu``."""
    if n < 0:
        raise ValueError("apery requires n >= 0")
    return apery_lambda_mu(n, 2, 2)


def _check_tuple4(n):
    n = tuple(n)
    if len(n) != 4 or any(ni < 0 for ni in n):
        raise ValueError("expected a 4-tuple of nonnegative integers, got %r" % (n,))
    return n


def _multivariate_terms(n):
    """The nonzero terms t_k = C(n1,k) C(n3,k) C(n1+n2-k,n1) C(n3+n4-k,n3),
    k = 0, 1, ..., of A(n1,n2,n3,n4), each from the one before by
    t_(k+1) = t_k (n1-k)(n3-k)(n2-k)(n4-k) / ((k+1)^2 (n1+n2-k)(n3+n4-k)),
    an exact division, up to the first zero numerator."""
    n1, n2, n3, n4 = n
    t = math.comb(n1 + n2, n1) * math.comb(n3 + n4, n3)
    # the numerator first vanishes at k = min(n)
    for k in range(min(n)):
        yield t
        t = t * math.prod(ni - k for ni in n) // ((k + 1) ** 2 * (n1 + n2 - k) * (n3 + n4 - k))
    yield t


def apery_multivariate(n) -> int:
    """A(n1,n2,n3,n4) = sum_k C(n1,k) C(n3,k) C(n1+n2-k,n1) C(n3+n4-k,n3)."""
    return sum(_multivariate_terms(_check_tuple4(n)))


def apery_lambda_mu(n: int, lam: int, mu: int) -> int:
    """Generalized sum A^(lambda,mu)(n) = sum_k C(n,k)^lambda C(n+k,k)^mu."""
    if n < 0:
        raise ValueError("apery_lambda_mu requires n >= 0")
    return sum(
        math.comb(n, k) ** lam * math.comb(n + k, k) ** mu for k in range(n + 1)
    )


def almkvist_zudilin(n: int) -> int:
    """Z(n) = sum over 0 <= k <= n/3 of (-3)^(n-3k) (n+k)! / ((n-3k)! k!^4)."""
    if n < 0:
        raise ValueError("almkvist_zudilin requires n >= 0")
    total = 0
    for k in range(n // 3 + 1):
        num = math.factorial(n + k)
        den = math.factorial(n - 3 * k) * math.factorial(k) ** 4
        quotient, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("non-integral term in Z(%d) at k=%d" % (n, k))
        total += (-3) ** (n - 3 * k) * quotient
    return total


# ---------------------------------------------------------------------------
# truncated 4-variable series oracle
# ---------------------------------------------------------------------------

def _trunc_mul(a: dict, b: dict, bound: int) -> dict:
    out = {}
    get = out.get
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > bound:
                continue
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _trunc_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _geometric_series(u: dict, bound: int) -> dict:
    """Series of 1/(1 - u) up to total degree `bound`, for u with no
    constant term: the truncated sum of the powers u^j."""
    total = {(0, 0, 0, 0): 1}
    power = {(0, 0, 0, 0): 1}
    for _ in range(bound):
        power = _trunc_mul(power, u, bound)
        if not power:
            break
        total = _trunc_add(total, power)
    return total


@lru_cache(maxsize=None)
def _apery_rf_coefficients(bound: int) -> dict:
    """Taylor coefficients, up to total degree `bound`, of the rational
    function 1/((1-x1-x2)(1-x3-x4) - x1x2x3x4), via nested geometric series:
    sum over j >= 0 of (x1x2x3x4)^j ((1-x1-x2)(1-x3-x4))^-(j+1).
    """
    dinv = _trunc_mul(
        _geometric_series({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, bound),
        _geometric_series({(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}, bound),
        bound,
    )
    p_dinv = _trunc_mul({(1, 1, 1, 1): 1}, dinv, bound)
    acc = dinv
    total = dict(acc)
    j = 1
    while 4 * j <= bound:
        acc = _trunc_mul(acc, p_dinv, bound)
        if not acc:
            break
        total = _trunc_add(total, acc)
        j += 1
    return total


def apery_diagonal_oracle(n) -> int:
    """Coefficient of x^n in the four-variable rational function above.

    Independent of the binomial-sum route; must agree with
    ``apery_multivariate``.  Guarded at total degree 16.
    """
    n = _check_tuple4(n)
    bound = sum(n)
    if bound > DIAGONAL_DEGREE_GUARD:
        raise ValueError(
            "total degree %d exceeds the diagonal oracle guard (%d)"
            % (bound, DIAGONAL_DEGREE_GUARD)
        )
    return _apery_rf_coefficients(bound).get(n, 0)


@lru_cache(maxsize=None)
def _az_rf_coefficients(bound: int) -> dict:
    """Coefficients of 1/(1 - (x1+x2+x3+x4) + 27 x1x2x3x4), same expander."""
    u = {
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1,
        (1, 1, 1, 1): -27,
    }
    return _geometric_series(u, bound)


def az_diagonal_oracle(n: int) -> int:
    """Diagonal Taylor coefficient matching the Almkvist-Zudilin numbers."""
    if n < 0:
        raise ValueError("az_diagonal_oracle requires n >= 0")
    bound = 4 * n
    if bound > DIAGONAL_DEGREE_GUARD:
        raise ValueError(
            "total degree %d exceeds the diagonal oracle guard (%d)"
            % (bound, DIAGONAL_DEGREE_GUARD)
        )
    return _az_rf_coefficients(bound).get((n, n, n, n), 0)


# ---------------------------------------------------------------------------
# q-analogs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def apery_q_krz_binform(n: int) -> LaurentPoly:
    """The ordinary polynomial sum_k q^((n-k)^2) C(n,k)_q^2 C(n+k,k)_q^2.

    Self-reciprocal of degree 2n^2; equals 5 at q = 1 for n = 1.  The one
    memoized builder: the checkers read their bases off summand specs, and
    the benchmark reads this ``lru_cache``'s ``cache_info()``.
    """
    if n < 0:
        raise ValueError("apery_q_krz_binform requires n >= 0")
    return apery_q_lambda_mu(n, 2, 2, ALPHA_NKSQ)


def apery_q_zheng(n: int) -> LaurentPoly:
    """The Laurent polynomial sum_k q^(k(k-2n)) C(n,k)_q^2 C(n+k,k)_q^2.

    Equals q^(-n^2) times the binomial form above.
    """
    if n < 0:
        raise ValueError("apery_q_zheng requires n >= 0")
    return apery_q_lambda_mu(n, 2, 2, ALPHA_KK2N)


def krz_partial_fraction_coeff(n: int, k: int) -> LaurentPoly:
    """a_q(n, k) = q^(2k(k+1) - (n+k)(n+k+1)) C(n,k)_q^2 C(n+k,k)_q^2.

    Equals the square of the Pochhammer ratio
    (q^-1; q^-1)_{n+k} / ((q^-1; q^-1)_k^2 (q; q)_{n-k}).
    """
    if not 0 <= k <= n:
        raise ValueError("krz_partial_fraction_coeff requires 0 <= k <= n")
    e = 2 * k * (k + 1) - (n + k) * (n + k + 1)
    return q_power(e) * qbin_pow(n, k, 2) * qbin_pow(n + k, k, 2)


def apery_q_krz(n: int) -> LaurentPoly:
    """A_q^KRZ(n) = sum_k a_q(n, k) / q^k (a Laurent polynomial)."""
    if n < 0:
        raise ValueError("apery_q_krz requires n >= 0")
    total = LaurentPoly.zero()
    for k in range(n + 1):
        total = total + krz_partial_fraction_coeff(n, k) * q_power(-k)
    return total


def _summand(e: int, triples) -> LaurentPoly:
    """q^e prod C(t, b)_q^p over the (t, b, p) triples: one summand spec,
    built as a polynomial."""
    poly = q_power(e)
    for t, b, p in triples:
        poly = poly * qbin_pow(t, b, p)
    return poly


def apery_q_multivariate_terms(n, alpha="ksq") -> list:
    """The summands of ``apery_q_multivariate(n, alpha)`` as
    (exponent, ((top, bottom, power), ...)) specs, one per k."""
    n = _check_tuple4(n)
    alpha = get_alpha(alpha)
    if alpha.arity not in (0, 4):
        raise ValueError("alpha %r does not accept 4-index tuples" % (alpha.name,))
    n1, n2, n3, n4 = n
    return [(alpha(n, k), ((n1, k, 1), (n3, k, 1), (n1 + n2 - k, n1, 1), (n3 + n4 - k, n3, 1)))
            for k in range(min(n1, n3) + 1)]


def apery_q_multivariate(n, alpha="ksq") -> LaurentPoly:
    """Weighted four-index q-sum

        sum_k q^alpha(n, k) C(n1,k)_q C(n3,k)_q C(n1+n2-k,n1)_q C(n3+n4-k,n3)_q

    with the sum finite by zero-extension of the q-binomials.  At q = 1 this
    is ``apery_multivariate`` for every admissible alpha.
    """
    return sum((_summand(e, triples) for e, triples in apery_q_multivariate_terms(n, alpha)),
               LaurentPoly.zero())


def correction_R_multivariate(n, alpha=None) -> Fraction:
    """R(n) = (n1*n2 + n3*n4)/2 * A(n); independent of the weight alpha."""
    n = _check_tuple4(n)
    n1, n2, n3, n4 = n
    return Fraction(n1 * n2 + n3 * n4, 2) * apery_multivariate(n)


def apery_q_lambda_mu_terms(n: int, lam: int, mu: int, alpha="ksq") -> list:
    """The summands of ``apery_q_lambda_mu(n, lam, mu, alpha)`` as
    (exponent, ((top, bottom, power), ...)) specs, one per k."""
    if n < 0:
        raise ValueError("apery_q_lambda_mu requires n >= 0")
    if lam < 2 or mu < 0:
        raise ValueError("apery_q_lambda_mu requires lambda >= 2 and mu >= 0")
    alpha = get_alpha(alpha)
    if alpha.arity not in (0, 1):
        raise ValueError("alpha %r does not accept scalar indices" % (alpha.name,))
    return [(alpha((n,), k), ((n, k, lam), (n + k, k, mu))) for k in range(n + 1)]


def apery_q_lambda_mu(n: int, lam: int, mu: int, alpha="ksq") -> LaurentPoly:
    """sum_k q^alpha(n, k) C(n,k)_q^lambda C(n+k,k)_q^mu for lambda >= 2."""
    return sum((_summand(e, triples) for e, triples in apery_q_lambda_mu_terms(n, lam, mu, alpha)),
               LaurentPoly.zero())


def correction_R_lambda_mu(n: int, lam: int, mu: int) -> Fraction:
    """R^(lambda,mu)(n) = sum_k c_{n,k} C(n,k)^lambda C(n+k,k)^mu with

        c_{n,k} = n^2 + (mu - 2) n k / 2        if lambda = 2,
        c_{n,k} = ((lambda + mu) n - lambda k) k / 2   if lambda > 2.
    """
    if n < 0:
        raise ValueError("correction_R_lambda_mu requires n >= 0")
    if lam < 2 or mu < 0:
        raise ValueError("correction_R_lambda_mu requires lambda >= 2 and mu >= 0")
    total = Fraction(0)
    for k in range(n + 1):
        if lam == 2:
            c = Fraction(2 * n * n + (mu - 2) * n * k, 2)
        else:
            c = Fraction(((lam + mu) * n - lam * k) * k, 2)
        total += c * math.comb(n, k) ** lam * math.comb(n + k, k) ** mu
    return total
