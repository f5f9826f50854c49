"""Reduced series for the underlying classical functions.

The classical base functions all factor as

    F(x) = (leading factor) * x^alpha * R(x),        R(0) = 1,

where R is an even entire series in x.  This module evaluates R together
with the companion sum S(x) = x * R'(x), so that

    x * F'(x) = (leading factor) * x^alpha * (alpha * R(x) + S(x)).

The transcendental combinations checked by :func:`radii.roots.equation_residual`
are linear in F and x F', so they reduce to combinations of R and S with the
leading factor cancelled.  That keeps the evaluation representable at large
orders, where the leading factor alone would under- or overflow binary64.

The exponents alpha are nu (Bessel), nu + 1 (Struve), mu + 1/2 (Lommel).

Everything here is summed from scratch with its own term recurrences: this
module is the independent side of the dual-route residual check, so it
deliberately shares no series code with :mod:`radii.series`.
"""

from __future__ import annotations

import math

from .errors import TruncationError
from .families import Base, check_domain
from .series import resolve_max_terms


def _term_denominator(base: Base, parameter: float, n: int) -> float:
    """Denominator growth of term n+1 relative to term n (without the -t)."""
    if base is Base.BESSEL:
        return (n + 1.0) * (parameter + 1.0 + n)
    if base is Base.STRUVE:
        return (n + 1.5) * (parameter + 1.5 + n)
    return (n + 1.0 + parameter / 2.0) * (n + 1.5 + parameter / 2.0)


def reduced_pair(
    base: Base, parameter: float, x: float, *, max_terms: int | None = None
) -> tuple[float, float]:
    """(R(x), S(x)) for the reduced series of the base function at x > 0.

    Both sums share one term stream; the loop stops once the current term can
    no longer move either sum at binary64 resolution.
    """
    check_domain(base.circle, parameter)
    if not x > 0.0:
        raise ValueError(f"reduced series evaluated for x > 0, got {x!r}")
    budget = resolve_max_terms(max_terms)
    t = x * x / 4.0
    p = float(parameter)
    term = 1.0
    r_sum = 1.0
    s_sum = 0.0
    run_max = 1.0
    prev_mag = math.inf
    for n in range(budget):
        nxt = term * (-t) / _term_denominator(base, p, n)
        mag = abs(nxt)
        if (
            n + 1 >= 8
            and mag < prev_mag
            and mag * (2.0 * n + 4.0) < 1e-16 * run_max
        ):
            return r_sum, s_sum
        term = nxt
        prev_mag = mag
        r_sum += term
        s_sum += 2.0 * (n + 1.0) * term
        run_max = max(run_max, abs(r_sum), abs(s_sum))
    raise TruncationError(
        f"reduced {base.value} series at x={x!r}: no convergence within {budget} terms"
    )


def _reciprocal_gamma(y: float) -> float:
    """1/Gamma(y), defined as 0 at the poles and past the overflow range."""
    if y <= 0.0 and y == math.floor(y):
        return 0.0
    try:
        return 1.0 / math.gamma(y)
    except OverflowError:
        return 0.0


def struve_h(order: float, x: float, *, max_terms: int = 80) -> float:
    """The classical Struve function H_order(x) for x > 0 by direct summation.

    Coefficients are built from reciprocal Gamma values so that orders at or
    below -1/2, where individual Gamma factors blow up, still evaluate
    cleanly (the offending terms vanish).  Intended for moderate arguments;
    the pole-expansion check uses it at x of order a few.
    """
    if not x > 0.0:
        raise ValueError(f"struve_h defined here for x > 0, got {x!r}")
    half = x / 2.0
    t = half * half
    total = 0.0
    scale = 0.0
    power = half ** (order + 1.0)
    sign = 1.0
    for n in range(max_terms):
        coeff = _reciprocal_gamma(n + 1.5) * _reciprocal_gamma(n + order + 1.5)
        term = sign * power * coeff
        total += term
        scale = max(scale, abs(term), abs(total))
        if n >= 4 and abs(term) < 1e-18 * max(scale, 1e-300):
            return total
        power *= t
        sign = -sign
    raise TruncationError(
        f"struve series at order {order!r}, x={x!r}: no convergence in {max_terms} terms"
    )
