"""Exact Hankel transforms of sums of consecutive generalized Catalan numbers.

The transform h_n of a_n(L) = c(n;L) + c(n+1;L) is computed by four
independent exact routes (determinant, surd closed form, orthogonal-polynomial
beta products, explicit polynomial) plus series and quadrature cross-checks
of the generating functions and the underlying weight.
"""

from types import ModuleType as _ModuleType

from .genfunc import (
    JacobiParams,
    PoleNotCancelled,
    big_g_series,
    big_g_series_from_jacobi,
    f_series,
    jacobi_genfun_series,
    jacobi_poly,
    rho_series,
    t_sum_identities,
)
from .hankel import (
    InsufficientTerms,
    NonIntegerResult,
    SurdState,
    ZeroLeadingMinor,
    closed_norms,
    h_closed_form,
    h_polynomial_form,
    hankel_det,
    hankel_minors,
    lemma_identities,
    odd_fibonacci,
    poly_norms,
    surd_states,
)
from .opoly import (
    DivisionByZeroR,
    RecurrenceCoeffs,
    chain_coeffs,
    chain_norms,
    h_from_products,
    hat_stage,
    jfraction_series,
    lambda_closed,
    r_closed_form,
    stieltjes_from_moments,
    tilde_coeffs,
    window_norms,
)
from .sequences import (
    InconsistentA0,
    SequenceParams,
    SequenceWindow,
    a_sequence,
    as_rational,
    gen_catalan,
    pascal_t,
    scaled_terms,
)
from .series import (
    BadConstantTerm,
    TruncatedSeries,
    ZeroLeadingCoefficient,
)
from .verify import VerificationReport, verify_cell, verify_grid, verify_row
from .weight import (
    DomainError,
    exact_moments,
    moment_quadrature,
    moment_quadratures,
    weight_eval,
)

#: Every public name imported above; the submodules themselves are not exported.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
