"""Power sums of reciprocal derivative zeros and the brackets they induce.

Write the transformed derivative of a circle family as
prod(1 - z/a_n) and of a sqrt family as prod(1 - z/b_n) (Hadamard products
over the positive zero parameters; the c_n come from the base's Pochhammer
pair, :data:`radii.families.POCHHAMMER`).  The power sums

    p_k = sum_n a_n^(-k)      (resp. b_n^(-k))

are computable two independent ways:

* ``NEWTON_RECURRENCE``: from the coefficients c_1..c_K via the Newton
  identity p_k = (-1)^(k-1) k c_k + sum_{i<k} (-1)^(i-1) c_i p_(k-i);
* ``CLOSED_FORM``: rational functions of the parameter, available for
  k <= 4 and transcribed below as one table: per family and order, a
  constant num/den, the integer Horner coefficients of the numerator, and
  the exponents of the base's linear denominator factors.

Because the zeros are positive, the power sums sandwich the smallest zero:

    p_k^(-1/k)  <  a_1  <  p_k / p_(k+1)

which translates to brackets for the radius of starlikeness through
r = 2 sqrt(a_1) (circle) and r = 4 b_1 (sqrt).

One :class:`SumLedger` serves every order it covers: a closed-form p_k does
not depend on the ledger's length, and a Newton p_k uses only c_1..c_k of one
sequential recurrence, so a ledger's prefixes equal shorter ledgers bit for
bit.  ``verify`` reads every enclosure of a family member from one ledger
per source.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import FloatRangeError, OrderError
from .families import Base, Family, Kind, check_domain
from .series import CoefficientSequence, coefficient_sequence

#: Highest order the binary64 Newton recurrence is allowed to produce.
MAX_NEWTON_ORDER = 8

#: Highest order with a transcribed closed form.
MAX_CLOSED_ORDER = 4

#: Highest bracket order exposed for the Newton route (needs p_(k+1) <= p_7).
MAX_NEWTON_BRACKET = 6

#: Highest bracket order for the closed-form route (needs p_(k+1) <= p_4).
MAX_CLOSED_BRACKET = 3


class SumSource(enum.Enum):
    """Which computation produced a set of power sums."""

    CLOSED_FORM = "closed"
    NEWTON_RECURRENCE = "newton"


class SumLedger(NamedTuple):
    """Power sums p_1..p_K for one family instance, tagged by source."""

    family: Family
    parameter: float
    source: SumSource
    values: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def p(self, k: int) -> float:
        if not 1 <= k <= self.order:
            raise OrderError(f"ledger holds p_1..p_{self.order}, requested p_{k}")
        return self.values[k - 1]

    def bracket(self, k: int) -> BracketInterval:
        """Enclosure of order k from p_k and p_(k+1), in the family's variable."""
        pk = self.p(k)
        pk1 = self.p(k + 1)
        try:
            if self.family.kind is Kind.CIRCLE:
                lower = 2.0 * pk ** (-0.5 / k)
                upper = 2.0 * math.sqrt(pk / pk1)
            else:
                lower = 4.0 * pk ** (-1.0 / k)
                upper = 4.0 * pk / pk1
        except (ZeroDivisionError, OverflowError):  # a sum underflowed to 0 or a subnormal
            raise _range_error(self.family, self.parameter) from None
        return BracketInterval(self.family, self.parameter, k, lower, upper, self.source)


class BracketInterval(NamedTuple):
    """Certified enclosure lower < radius < upper of order k."""

    family: Family
    parameter: float
    k: int
    lower: float
    upper: float
    source: SumSource

    @property
    def width(self) -> float:
        return self.upper - self.lower


def newton_power_sums(coeffs: CoefficientSequence, upto: int) -> tuple[float, ...]:
    """p_1..p_upto from the coefficients through the Newton identities.

    The recurrence preserves p_1 == c_1 exactly.  Orders above
    MAX_NEWTON_ORDER are rejected: beyond that the alternating recurrence is
    not precision-certified in binary64.
    """
    if upto < 1:
        raise OrderError(f"power-sum order must be >= 1, got {upto}")
    if upto > MAX_NEWTON_ORDER:
        raise OrderError(
            f"power sums limited to order {MAX_NEWTON_ORDER}, got {upto}"
        )
    if coeffs.order < upto:
        raise OrderError(
            f"need coefficients c_0..c_{upto}, sequence stops at c_{coeffs.order}"
        )
    c = coeffs.values
    p: list[float] = []
    for k in range(1, upto + 1):
        acc = (-1.0) ** (k - 1) * k * c[k]
        for i in range(1, k):
            acc += (-1.0) ** (i - 1) * c[i] * p[k - i - 1]
        p.append(acc)
    return tuple(p)


#: Normal binary64 range; a power sum outside it (or NaN) has lost its digits.
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _range_error(family: Family, parameter: float) -> FloatRangeError:
    return FloatRangeError(
        f"{family.value}: binary64 power sums overflow or underflow at parameter {parameter!r}"
    )


def _poly(x: float, coeffs: tuple[int, ...]) -> float:
    """Horner evaluation; coefficients ordered highest degree first."""
    acc = 0.0
    for a in coeffs:
        acc = acc * x + a
    return acc


# Closed forms, one row per family and order k = 1..4:
#
#   (num, den, numerator Horner coefficients, denominator exponents)
#
# and p_k = num * N(v) / (den * f_1^e_1 * f_2^e_2 * ...), where N is the
# integer polynomial (coefficients highest degree first) and e_i is the
# exponent of the i-th linear factor f_i of the family's base:
#
#   Bessel  v+1, v+2, v+3, v+4
#   Struve  2v+3, 2v+5, 2v+7, 2v+9
#   Lommel  m+2, m+3, ..., m+9
#
# The denominator is multiplied left to right starting from den; that order
# is part of the transcription, since it fixes every rounding.
#
# The fourth lommel-sqrt numerator below is a corrected transcription: the
# commonly quoted polynomial fails the Newton cross-check (relative error
# ~0.55 at mu=1/2) while this one, rederived from the generating identity,
# matches it to binary64 precision.  See the repository notes for evidence.

_FACTORS = {
    Base.BESSEL: tuple((1.0, b) for b in (1.0, 2.0, 3.0, 4.0)),
    Base.STRUVE: tuple((2.0, b) for b in (3.0, 5.0, 7.0, 9.0)),
    Base.LOMMEL: tuple((1.0, b) for b in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)),
}

_CLOSED = {
    Family.BESSEL_CIRCLE: (
        (3, 1, (1,), (1,)),
        (1, 1, (4, 13), (2, 1)),
        (2, 1, (4, 26, 49), (3, 1, 1)),
        (1, 1, (16, 208, 1032, 2341, 1987), (4, 2, 1, 1)),
    ),
    Family.BESSEL_SQRT: (
        (2, 1, (1,), (1,)),
        (1, 1, (1, 5), (2, 1)),
        (1, 1, (1, 8, 23), (3, 1, 1)),
        (1, 1, (1, 15, 90, 267, 287), (4, 2, 1, 1)),
    ),
    Family.STRUVE_CIRCLE: (
        (4, 1, (1,), (1,)),
        (16, 3, (2, 9), (2, 1)),
        (64, 5, (4, 32, 79), (3, 1, 1)),
        (256, 315, (592, 9296, 56352, 159660, 171315), (4, 2, 1, 1)),
    ),
    Family.STRUVE_SQRT: (
        (8, 3, (1,), (1,)),
        (32, 45, (2, 23), (2, 1)),
        (128, 945, (20, 228, 1417), (3, 1, 1)),
        (512, 14175, (272, 5552, 47584, 247828, 416439), (4, 2, 1, 1)),
    ),
    Family.LOMMEL_CIRCLE: (
        (12, 1, (1,), (1, 1)),
        (16, 1, (-1, 31, 120), (2, 2, 1, 1)),
        (192, 1, (1, -2, 175, 1842, 4032), (3, 3, 1, 1, 1, 1)),
        (256, 1, (-1, 128, 2196, 24178, 352645, 3476958, 17744328, 44003088, 42301440),
         (4, 4, 2, 2, 1, 1, 1, 1)),
    ),
    Family.LOMMEL_SQRT: (
        (8, 1, (1,), (1, 1)),
        (32, 1, (-1, 3, 22), (2, 2, 1, 1)),
        (128, 1, (1, -14, -79, 320, 1308), (3, 3, 1, 1, 1, 1)),
        # corrected transcription, see the table comment above
        (512, 1, (-1, 24, 384, -1146, -32043, -97686, 321388, 2052024, 2733696),
         (4, 4, 2, 2, 1, 1, 1, 1)),
    ),
}


def closed_form_sum(family: Family, parameter: float, k: int) -> float:
    """Closed-form p_k; available for k = 1..MAX_CLOSED_ORDER."""
    check_domain(family, parameter)
    if not 1 <= k <= MAX_CLOSED_ORDER:
        raise OrderError(
            f"closed forms transcribed for 1 <= k <= {MAX_CLOSED_ORDER}, got {k}"
        )
    v = float(parameter)
    num, den, coeffs, exponents = _CLOSED[family][k - 1]
    try:
        for (a, b), e in zip(_FACTORS[family.base], exponents):
            den *= (a * v + b) ** e
    except OverflowError:
        raise _range_error(family, v) from None
    pk = num * _poly(v, coeffs) / den
    if not _TINY <= abs(pk) <= _HUGE:
        raise _range_error(family, v)
    return pk


def power_sums(
    family: Family, parameter: float, upto: int, source: SumSource
) -> SumLedger:
    """p_1..p_upto for a family instance from the requested source."""
    check_domain(family, parameter)
    if source is SumSource.CLOSED_FORM:
        if upto > MAX_CLOSED_ORDER:
            raise OrderError(
                f"closed forms stop at order {MAX_CLOSED_ORDER}, got {upto}"
            )
        values = tuple(closed_form_sum(family, parameter, k) for k in range(1, upto + 1))
    else:
        coeffs = coefficient_sequence(family, parameter, upto)
        values = newton_power_sums(coeffs, upto)
        if not all(_TINY <= abs(p) <= _HUGE for p in values):
            raise _range_error(family, float(parameter))
    return SumLedger(family, float(parameter), source, values)


def radius_bracket(
    family: Family, parameter: float, k: int, source: SumSource = SumSource.CLOSED_FORM
) -> BracketInterval:
    """Euler-Rayleigh enclosure of order k for the radius of starlikeness.

    Closed-form brackets exist for k <= 3, Newton brackets for k <= 6 (the
    upper endpoint consumes p_(k+1)).  For several orders, build one ledger
    with :func:`power_sums` and read each from :meth:`SumLedger.bracket`.
    """
    check_domain(family, parameter)
    if k < 1:
        raise OrderError(f"bracket order must be >= 1, got {k}")
    limit = MAX_CLOSED_BRACKET if source is SumSource.CLOSED_FORM else MAX_NEWTON_BRACKET
    if k > limit:
        raise OrderError(
            f"{source.value} brackets available for k <= {limit}, got {k}"
        )
    return power_sums(family, parameter, k + 1, source).bracket(k)


def crude_upper_bound(family: Family, parameter: float) -> float:
    """Cheap a-priori bound the radius never reaches, from the base's pair (a, b).

    It is (4a) b for the sqrt kind and sqrt((2a) b) for the circle kind.
    """
    check_domain(family, parameter)
    a, b = family.base.pochhammer(parameter)
    if family.kind is Kind.CIRCLE:
        return math.sqrt((2.0 * a) * b)
    return (4.0 * a) * b


def first_rayleigh_zero_sum(base: Base, parameter: float) -> float:
    """sum 1/j_n^2 over the positive zeros j_n of the circle-normalized base.

    These are the classical first Rayleigh sums 1/((4a) b), for the base's
    pair (a, b); they drive tail estimates for partial zero sums, the pole
    expansion check and the zero scan's window.
    """
    check_domain(base.circle, parameter)
    a, b = base.pochhammer(parameter)
    return 1.0 / ((4.0 * a) * b)
