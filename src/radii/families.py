"""The six normalized special-function families and their parameter domains.

Each family is a normalization of a classical second-kind cylinder-type
function, rescaled so that f(0) = 0 and f'(0) = 1.  Two normalizations are
used per base function:

* the "circle" form keeps the original variable, e.g. for the Bessel base
  ``2^nu Gamma(nu+1) x^(1-nu) J_nu(x)``, which is odd in x;
* the "sqrt" form substitutes x -> sqrt(x), e.g.
  ``2^nu Gamma(nu+1) x^(1-nu/2) J_nu(sqrt(x))``, whose series runs over
  integer powers of x.

The radius of starlikeness of each normalized function is the smallest
positive zero of its derivative, and everything in this package is organized
around computing and certifying that zero.
"""

from __future__ import annotations

import enum
import math

from .errors import DomainError


class Base(enum.Enum):
    """Underlying classical function before normalization."""

    BESSEL = "bessel"
    STRUVE = "struve"
    LOMMEL = "lommel"

    @property
    def circle(self) -> Family:
        """The circle-normalized family of this base."""
        return Family(f"{self.value}-{Kind.CIRCLE.value}")


class Kind(enum.Enum):
    """Which normalization was applied to the base function."""

    CIRCLE = "circle"
    SQRT = "sqrt"


class Family(enum.Enum):
    """One of the six supported (base, normalization) combinations.

    The enum value doubles as the CLI spelling and names the base and the
    normalization, which set ``base`` and ``kind``.
    """

    BESSEL_CIRCLE = "bessel-circle"
    BESSEL_SQRT = "bessel-sqrt"
    STRUVE_CIRCLE = "struve-circle"
    STRUVE_SQRT = "struve-sqrt"
    LOMMEL_CIRCLE = "lommel-circle"
    LOMMEL_SQRT = "lommel-sqrt"

    def __init__(self, value: str) -> None:
        base, kind = value.split("-")
        self.base = Base(base)
        self.kind = Kind(kind)


# Human-readable domain descriptions, used in error messages and --help.
DOMAIN_TEXT = {
    Base.BESSEL: "nu > -1",
    Base.STRUVE: "-1/2 <= nu <= 1/2",
    Base.LOMMEL: "-1 < mu < 1, mu != 0",
}


def family_from_cli_name(name: str) -> Family:
    """Resolve a CLI spelling like ``bessel-circle`` to a Family member."""
    try:
        return Family(name)
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise DomainError(f"unknown family {name!r}; expected one of: {valid}") from None


def check_domain(family: Family, parameter: float) -> None:
    """Raise DomainError unless ``parameter`` lies in the family's domain.

    Domains are inherited from the base function: the order nu must exceed -1
    for Bessel, lie in [-1/2, 1/2] for Struve, and the Lommel parameter mu
    must lie in (-1, 1) with mu != 0 (the normalization divides by
    mu*(mu+1)).
    """
    base = family.base
    p = float(parameter)
    if not math.isfinite(p):  # NaN and infinities belong to no domain
        raise DomainError(
            f"{family.value}: parameter {p!r} is not finite, valid interval is {DOMAIN_TEXT[base]}"
        )
    if base is Base.BESSEL:
        ok = p > -1.0
    elif base is Base.STRUVE:
        ok = -0.5 <= p <= 0.5
    else:
        ok = -1.0 < p < 1.0 and p != 0.0
    if not ok:
        raise DomainError(
            f"{family.value}: parameter {p!r} outside valid interval {DOMAIN_TEXT[base]}"
        )


def is_extended_domain(family: Family, parameter: float) -> bool:
    """True for Lommel parameters in (-1, 0).

    The closed-form machinery is derived most directly for mu in (0, 1); its
    use on (-1, 0) rests on a continuation argument, so reports flag those
    results as coming from the extended domain.
    """
    return family.base is Base.LOMMEL and -1.0 < float(parameter) < 0.0
