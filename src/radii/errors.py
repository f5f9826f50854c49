"""Exception types shared across the package."""


class RadiiError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RadiiError, ValueError):
    """Parameter lies outside the family's valid interval."""


class OrderError(RadiiError, ValueError):
    """Requested order is not supported by the chosen source."""


class TruncationError(RadiiError, ArithmeticError):
    """Series evaluation failed to meet the stopping rule within the term budget."""


class RootNotFoundError(RadiiError, ArithmeticError):
    """A bracketing or refinement step could not locate the requested root."""


class FloatRangeError(RadiiError, ArithmeticError):
    """A power sum overflows or underflows binary64 at the requested parameter."""
