"""Radii of starlikeness of normalized Bessel, Struve and Lommel functions.

The package computes each radius as the first positive zero of a normalized
derivative series, certifies it inside closed-form and Newton-recurrence
Euler-Rayleigh enclosures, cross-checks it against the equivalent
transcendental equation of the underlying classical function, and ships a
claim suite (`radii verify`) covering every quantitative statement it makes.
"""

from .errors import (
    DomainError,
    FloatRangeError,
    OrderError,
    RadiiError,
    RootNotFoundError,
    TruncationError,
)
from .families import Base, Family, Kind, check_domain, is_extended_domain
from .series import (
    CoefficientSequence,
    coefficient_ratio,
    coefficient_sequence,
    eval_normalized,
    eval_normalized_derivative,
)
from .sums import (
    BracketInterval,
    SumLedger,
    SumSource,
    closed_form_sum,
    crude_upper_bound,
    first_rayleigh_zero_sum,
    newton_power_sums,
    power_sums,
    radius_bracket,
)
from .roots import (
    RadiusReport,
    base_function_zeros,
    equation_residual,
    find_first_function_zero,
    find_radius,
)

#: The claim suite's names; radii.verify loads on first access, so computing
#: radii never loads it.
_VERIFY_NAMES = frozenset(("InterlacingReport", "VerificationOutcome", "VerifyConfig",
                           "VerifyReport", "default_config", "explore_interlacing", "run_verify"))


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Base",
    "BracketInterval",
    "CoefficientSequence",
    "DomainError",
    "Family",
    "FloatRangeError",
    "InterlacingReport",
    "Kind",
    "OrderError",
    "RadiiError",
    "RadiusReport",
    "RootNotFoundError",
    "SumLedger",
    "SumSource",
    "TruncationError",
    "VerificationOutcome",
    "VerifyConfig",
    "VerifyReport",
    "base_function_zeros",
    "check_domain",
    "closed_form_sum",
    "coefficient_ratio",
    "coefficient_sequence",
    "crude_upper_bound",
    "default_config",
    "equation_residual",
    "eval_normalized",
    "eval_normalized_derivative",
    "explore_interlacing",
    "find_first_function_zero",
    "find_radius",
    "first_rayleigh_zero_sum",
    "is_extended_domain",
    "newton_power_sums",
    "power_sums",
    "radius_bracket",
    "run_verify",
    "__version__",
]
