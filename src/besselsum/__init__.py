"""Evaluate infinite integrals of products of Bessel functions as sums.

The integral of t^{2k} prod_j t^{-nu_j} J_{nu_j}(a_j t) over [0, inf)
equals the same expression summed over integers (m = 0 at half weight)
whenever the validity conditions checked here hold; the sum converges
rapidly and replaces expensive oscillatory quadrature.  The package adds
truncation-error bounds, series acceleration for the conditionally
convergent regime, a rescaling transform for scale budgets beyond 2*pi,
and independent quadrature / correction-term / band-limit oracles.
"""

from .errors import (
    ConfigError,
    DampingError,
    DivergentAtZero,
    DomainError,
    InvalidSpec,
    SizeError,
    ToleranceUnreachable,
)
from .identity import (
    BesselProductSpec,
    ConvergenceClass,
    Factor,
    ValidityReport,
    beat_exists,
    beat_frequencies,
    check_validity,
    integrand,
    make_spec,
    rescale,
    summand,
)
from .quadrature import QuadratureResult, band_limit_check, correction_term, integrate
from .specfun import bessel_j
from .summation import (
    SummationResult,
    evaluate,
    required_terms,
    sum_truncated,
    truncation_bound,
)

__all__ = [
    "BesselProductSpec",
    "ConfigError",
    "ConvergenceClass",
    "DampingError",
    "DivergentAtZero",
    "DomainError",
    "Factor",
    "InvalidSpec",
    "QuadratureResult",
    "SizeError",
    "SummationResult",
    "ToleranceUnreachable",
    "ValidityReport",
    "band_limit_check",
    "beat_exists",
    "beat_frequencies",
    "bessel_j",
    "check_validity",
    "correction_term",
    "evaluate",
    "integrand",
    "integrate",
    "make_spec",
    "required_terms",
    "rescale",
    "sum_truncated",
    "summand",
    "truncation_bound",
]

__version__ = "0.1.0"
