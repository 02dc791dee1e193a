"""Exact-arithmetic q-Apery polynomials and cyclotomic supercongruence checks.

The package builds polynomial q-analogs of the Apery numbers and verifies
their congruences modulo powers of cyclotomic polynomials by exact rational
arithmetic, together with the supporting binomial, harmonic and q-commuting
identities.  See the CLI (``python -m qapery``) for computing values,
verifying single instances, and sweeping parameter grids.
"""

__version__ = "0.1.0"

from .laurent import (
    LaurentPoly,
    divrem,
    exact_div,
    ext_gcd,
    q,
    q_power,
)
from .cyclotomic import (
    Modulus,
    NotInvertibleError,
    ResidueRing,
    binomial_sum_residue,
    congruent,
    cyclotomic_at_one,
    euler_phi,
    integer_coefficient_check,
    inverse_mod,
    reduce_mod,
)
from .qcombinatorics import (
    binom,
    check_q_chu_vandermonde,
    check_q_lucas,
    q_binomial,
    q_factorial,
    q_integer,
    q_pochhammer,
    qbin,
    qbin_cyclotomic_support,
    qbin_pow,
)
from .qcommute import (
    QPolynomial,
    expand_linear_form_product,
)
from .sequences import (
    AlphaExponent,
    almkvist_zudilin,
    apery,
    apery_diagonal_oracle,
    apery_lambda_mu,
    apery_multivariate,
    apery_q_krz,
    apery_q_krz_binform,
    apery_q_lambda_mu,
    apery_q_lambda_mu_terms,
    apery_q_multivariate,
    apery_q_multivariate_terms,
    apery_q_zheng,
    az_diagonal_oracle,
    correction_R_lambda_mu,
    correction_R_multivariate,
    get_alpha,
    krz_partial_fraction_coeff,
    list_alphas,
    register_alpha,
)
from .reports import CongruenceReport, PreconditionError
from .checks import (
    CHECKS,
    check_classical_supercongruences,
    check_corollary,
    check_generalized_theorem,
    check_harmonic_identity_classical,
    check_harmonic_sp,
    check_ljunggren_q,
    check_main_theorem,
    check_qbin_prop,
    check_s1_s2_decomposition,
    check_wolstenholme_q,
    check_zheng_identity,
    run_named_check,
)
