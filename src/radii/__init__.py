"""Radii of starlikeness of normalized Bessel, Struve and Lommel functions.

The package computes each radius as the first positive zero of a normalized
derivative series, certifies it inside closed-form and Newton-recurrence
Euler-Rayleigh enclosures, cross-checks it against the equivalent
transcendental equation of the underlying classical function, and ships a
claim suite (`radii verify`) covering every quantitative statement it makes.

`import radii` loads no submodule.  Each public name, and each submodule
(`radii.roots`), loads the module that defines it on first access, so a caller
that only wants `Family` or `radius_bracket` never compiles the zero engine or
the claim suite.
"""

#: submodule -> the public names it defines
_EXPORTS = {
    "errors": ("DomainError", "FloatRangeError", "OrderError", "RadiiError",
               "RootNotFoundError", "TruncationError"),
    "families": ("Base", "Family", "Kind", "check_domain", "is_extended_domain"),
    "series": ("CoefficientSequence", "coefficient_ratio", "coefficient_sequence",
               "eval_normalized", "eval_normalized_derivative"),
    "sums": ("BracketInterval", "SumLedger", "SumSource", "closed_form_sum", "crude_upper_bound",
             "first_rayleigh_zero_sum", "newton_power_sums", "power_sums", "radius_bracket"),
    "roots": ("RadiusReport", "base_function_zeros", "equation_residual",
              "find_first_function_zero", "find_radius"),
    "basefuncs": (),
    "verify": ("InterlacingReport", "VerificationOutcome", "VerifyConfig", "VerifyReport",
               "default_config", "explore_interlacing", "run_verify"),
    "cli": (),
}

#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # with a fromlist, __import__ returns the submodule itself (and needs no importlib)
    module = __import__(f"{__name__}.{home}", fromlist=("*",))
    return module if home == name else getattr(module, name)


def __dir__():
    return __all__
