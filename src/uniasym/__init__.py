"""Uniform large-order asymptotics for a conical Legendre-type pair.

Exact symbolic recurrences for the expansion coefficients (field
arithmetic over Q(sqrt(g))), float evaluators for both function
families, a numeric spectral cross-check, and an arbitrary-precision
oracle used to measure truncation errors.
"""

from .coeff import CoeffExpr
from .errors import (
    DomainError,
    IntegrityError,
    PrecisionError,
    ResolutionError,
    UsageError,
)
from .exact import ExactScalar
from .bessel import BesselParams, SeriesEval, eta, eval_bessel, t_of_lambda
from .legendre import (
    CrossRelationReport,
    LegendreParams,
    cross_relation_check,
    eta_tilde,
    eta_tilde_from_profile,
    eval_bessel_form,
    eval_legendre,
    exact_params,
    mu_of,
)
from .oracle import (
    LimitBesselReport,
    OracleConfig,
    OracleValue,
    besselI_reference,
    besselK_reference,
    limit_check_bessel,
    p_reference,
    q_reference,
)
from .recurrences import (
    K_MAX,
    bernoulli_numbers,
    integrate_step_bessel,
    integrate_step_legendre,
    omega,
    omega_bar,
    psi,
    psi_bar,
    psi_bar_plus,
    psi_plus,
    stirling_exp_coefficients,
)
from .spectral import SpectralCoeff, spectral_chain, spectral_step

__version__ = "0.1.0"

__all__ = [
    "BesselParams",
    "CoeffExpr",
    "CrossRelationReport",
    "DomainError",
    "ExactScalar",
    "IntegrityError",
    "K_MAX",
    "LegendreParams",
    "LimitBesselReport",
    "OracleConfig",
    "OracleValue",
    "PrecisionError",
    "ResolutionError",
    "SeriesEval",
    "SpectralCoeff",
    "UsageError",
    "bernoulli_numbers",
    "besselI_reference",
    "besselK_reference",
    "cross_relation_check",
    "eta",
    "eta_tilde",
    "eta_tilde_from_profile",
    "eval_bessel",
    "eval_bessel_form",
    "eval_legendre",
    "exact_params",
    "integrate_step_bessel",
    "integrate_step_legendre",
    "limit_check_bessel",
    "mu_of",
    "omega",
    "omega_bar",
    "p_reference",
    "psi",
    "psi_bar",
    "psi_bar_plus",
    "psi_plus",
    "q_reference",
    "spectral_chain",
    "spectral_step",
    "stirling_exp_coefficients",
    "t_of_lambda",
]
