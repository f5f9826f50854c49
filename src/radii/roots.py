"""Root finding: radii of starlikeness, function zeros, residual checks.

The radius of starlikeness of a family member is the first positive zero of
the transformed derivative series.  It is located by plain bisection inside
the order-3 closed-form bracket; no derivative-based iteration is used, so
the only failure mode is a sign-check failure, which a defensive forward
scan recovers from.  Each search builds one series evaluator for its family
member, so coefficient ratios are computed once per radius, not once per
evaluation.

Each radius is cross-checked against the equivalent transcendental equation
written in terms of the underlying classical function (evaluated through the
independent reduced series of :mod:`radii.basefuncs`), and the residual of
that equation is carried in the report.

Zeros of the circle-normalized base functions beyond the first cannot be
taken from the power series in binary64: out where the 20th zero lives the
alternating terms peak around e^x and cancellation destroys every digit.
Those zeros instead come from integrating the function's second-order ODE
outward from a series-accurate starting point and root-scanning the dense
solution, which stays well conditioned at any argument reached here.
numpy and scipy are imported inside that engine only, so importing the
package and computing radii do not load them.
"""

from __future__ import annotations

import dataclasses
import math

from .basefuncs import reduced_pair
from .errors import OrderError, RootNotFoundError
from .families import Base, Family, Kind, check_domain, is_extended_domain
from .series import (
    derivative_evaluator,
    eval_normalized,
    eval_normalized_derivative,
    value_evaluator,
)
from .sums import (
    BracketInterval,
    SumSource,
    crude_upper_bound,
    first_rayleigh_zero_sum,
    radius_bracket,
)

#: Bisection stops when the enclosure is this wide relative to the root.
REL_WIDTH = 1e-13

#: Hard cap on bisection steps; enough for the widest bracket in range.
MAX_BISECT = 60

#: The ODE zero engine is exercised and certified through this zero index.
MAX_ZERO_INDEX = 20

#: Brackets narrower than this get a degenerate-parameter flag.
NARROW_BRACKET = 1e-10


@dataclasses.dataclass(frozen=True)
class RadiusReport:
    """Computed radius of starlikeness with its certification context."""

    family: Family
    parameter: float
    radius: float
    residual: float
    iterations: int
    converged: bool
    bracket3: BracketInterval
    narrow_bracket: bool
    extended_domain: bool


def _bisect(
    f, lo: float, hi: float, flo: float, *,
    xtol: float = 0.0, rtol: float = REL_WIDTH,
) -> tuple[float, int, bool]:
    """Shrink a sign-change bracket to width xtol + rtol*|mid|.

    Returns (midpoint, evals, converged); at most MAX_BISECT evaluations.
    """
    iterations = 0
    while hi - lo > xtol + rtol * abs(0.5 * (lo + hi)) and iterations < MAX_BISECT:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        iterations += 1
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, iterations, hi - lo <= xtol + rtol * abs(mid)


def _march(f, x: float, fx: float, step: float, growth: float, limit: float):
    """Step forward from x, where f(x) = fx > 0, until f is no longer positive.

    Each step is ``growth`` times the previous one, and no point beyond
    ``limit`` is evaluated.  Returns a bracket (lo, hi, f(lo)) for _bisect,
    with lo == hi at an exact zero, or None once the next point passes the
    limit.  A NaN value ends the march like a sign change.
    """
    while (x_new := x + step) <= limit:
        f_new = f(x_new)
        if not f_new > 0.0:
            return (x_new if f_new == 0.0 else x), x_new, fx
        x, fx = x_new, f_new
        step *= growth
    return None


def equation_residual(family: Family, parameter: float, z: float) -> float:
    """Transcendental-equation residual at z, in the family's own variable.

    The defining equations are combinations of the base function F and its
    weighted derivative x F' at x = z (circle) or x = sqrt(z) (sqrt):

        bessel-circle:  x F' + (1 - nu) F        bessel-sqrt:  x F' + (2 - nu) F
        struve-circle:  x F' - nu F              struve-sqrt:  x F' - (nu - 1) F
        lommel-circle:  x F' - (mu - 1/2) F      lommel-sqrt:  2 x F' - (2 mu - 3) F

    Each combination vanishes exactly where the family's normalized
    derivative does.  The value returned is the combination divided by the
    leading factor of F, which keeps it representable at large orders and
    orients it positive as z -> 0+; the zero set is unchanged.
    """
    check_domain(family, parameter)
    if not z > 0.0:
        raise ValueError(f"residual defined for z > 0, got {z!r}")
    p = float(parameter)
    x = z if family.kind is Kind.CIRCLE else math.sqrt(z)
    r, s = reduced_pair(family.base, p, x)
    if family.base is Base.BESSEL:
        xf = p * r + s  # alpha = nu
        shift = (1.0 - p) if family.kind is Kind.CIRCLE else (2.0 - p)
        return xf + shift * r
    if family.base is Base.STRUVE:
        xf = (p + 1.0) * r + s  # alpha = nu + 1
        shift = p if family.kind is Kind.CIRCLE else (p - 1.0)
        return xf - shift * r
    xf = (p + 0.5) * r + s  # alpha = mu + 1/2
    if family.kind is Kind.CIRCLE:
        return xf - (p - 0.5) * r
    return 2.0 * xf - (2.0 * p - 3.0) * r


def find_radius(family: Family, parameter: float) -> RadiusReport:
    """Radius of starlikeness by bisection inside the order-3 closed bracket.

    The derivative series is positive at the bracket's lower end and negative
    at the upper end whenever the enclosure is honest; if that sign check
    fails, a forward scan from the origin in steps of lower/64 recovers a
    bracket before anything is reported.
    """
    check_domain(family, parameter)
    p = float(parameter)
    bracket3 = radius_bracket(family, p, 3, SumSource.CLOSED_FORM)
    f = derivative_evaluator(family, p)
    lo, hi = bracket3.lower, bracket3.upper
    flo = f(lo)
    fhi = f(hi)
    if not (flo > 0.0 and fhi < 0.0):
        limit = 1.5 * crude_upper_bound(family, p)
        # the derivative equals 1 at the origin
        found = _march(f, 0.0, 1.0, bracket3.lower / 64.0, 1.0, limit)
        if found is None:
            raise RootNotFoundError(
                f"{family.value} at parameter {p!r}: no derivative sign change "
                f"up to {limit!r}"
            )
        lo, hi, flo = found
    radius, iterations, converged = _bisect(f, lo, hi, flo)
    residual = equation_residual(family, p, radius)
    return RadiusReport(
        family=family,
        parameter=p,
        radius=radius,
        residual=residual,
        iterations=iterations,
        converged=converged,
        bracket3=bracket3,
        narrow_bracket=bracket3.width < NARROW_BRACKET,
        extended_domain=is_extended_domain(family, p),
    )


def find_first_function_zero(family: Family, parameter: float) -> float:
    """Smallest positive zero of the normalized function itself.

    The first Rayleigh sum gives a certified lower bound for the zero, so the
    scan starts at half that bound and grows geometrically until the sign
    flips; bisection then sharpens the bracket.  Intended for parameters
    where the plain series is binary64-stable (moderate orders).
    """
    check_domain(family, parameter)
    p = float(parameter)
    total = first_rayleigh_zero_sum(family.base, p)
    if family.kind is Kind.CIRCLE:
        start = 0.5 / math.sqrt(total)  # first zero exceeds 1/sqrt(sum)
    else:
        start = 0.25 / total  # squared variable: first zero exceeds 1/sum
    f = value_evaluator(family, p)
    fx = f(start)
    if not fx > 0.0:
        raise RootNotFoundError(
            f"{family.value} at parameter {p!r}: series not positive at scan start"
        )
    found = _march(f, start, fx, start / 4.0, 1.25, 1e6)
    if found is None:
        raise RootNotFoundError(
            f"{family.value} at parameter {p!r}: no function zero found below 1e6"
        )
    zero, _, _ = _bisect(f, *found)
    return zero


# --- ODE continuation for zeros beyond the series' numeric reach ---------

def _ode_rhs(base: Base, p: float):
    """Second-order ODE y'' = rhs for the circle-normalized function.

    Derived by substituting the normalization into the classical defining
    equation of each base function; the Struve and Lommel forms keep the
    inhomogeneous term of the original equation.
    """
    if base is Base.BESSEL:
        a = 2.0 * p - 1.0

        def rhs(x, y):
            return [y[1], -a * y[1] / x - (1.0 - a / (x * x)) * y[0]]

    elif base is Base.STRUVE:
        a = 2.0 * p + 1.0

        def rhs(x, y):
            return [y[1], -a * y[1] / x - y[0] + a / x]

    else:
        b = p * (p - 1.0)
        c = p * (p + 1.0)

        def rhs(x, y):
            return [y[1], -2.0 * p * y[1] / x - (1.0 + b / (x * x)) * y[0] + c / x]

    return rhs


def circle_solution(base: Base, parameter: float, x_end: float):
    """Dense ODE solution of the circle-normalized function on [x0, x_end].

    Returns (x0, sol) where sol(x) yields [value, derivative].  The start
    point x0 sits safely below the first zero (half the Rayleigh lower
    bound), with initial values taken from the series in its accurate range.
    """
    fam = base.circle
    check_domain(fam, parameter)
    p = float(parameter)
    x0 = 0.5 / math.sqrt(first_rayleigh_zero_sum(base, p))
    if x_end <= x0:
        raise ValueError(f"x_end={x_end!r} must exceed the start point {x0!r}")
    y0 = [eval_normalized(fam, p, x0), eval_normalized_derivative(fam, p, x0)]
    from scipy.integrate import solve_ivp  # deferred: only the ODE engine needs scipy

    sol = solve_ivp(
        _ode_rhs(base, p),
        (x0, x_end),
        y0,
        method="DOP853",
        dense_output=True,
        rtol=1e-12,
        atol=1e-14,
    )
    if not sol.success:  # pragma: no cover - DOP853 does not fail on these
        raise RootNotFoundError(f"ODE integration failed: {sol.message}")
    return x0, sol


def zeros_from_solution(sol, lo: float, hi: float, combine, count: int) -> list[float]:
    """First ``count`` zeros of combine(x, [y, y']) on [lo, hi], by dense scan.

    Sign scanning assumes simple zeros; the scan grid is far finer than the
    quasi-period of the oscillation, so only genuinely non-simple zeros (a
    measure-zero parameter event) can be missed.
    """
    import numpy as np
    from scipy.optimize import brentq

    samples = max(int((hi - lo) * 40.0), 200)
    xs = np.linspace(lo, hi, samples)
    vals = combine(xs, sol.sol(xs))
    zeros: list[float] = []
    for i in range(samples - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            if not zeros or xs[i] > zeros[-1] + 1e-9:
                zeros.append(float(xs[i]))
        elif (a > 0.0) != (b > 0.0):
            root = brentq(
                lambda x: float(combine(x, sol.sol(x))), xs[i], xs[i + 1],
                xtol=1e-12, rtol=9e-16,
            )
            zeros.append(float(root))
        if len(zeros) >= count:
            break
    return zeros


def base_function_zeros(base: Base, parameter: float, count: int) -> tuple[float, ...]:
    """The first ``count`` positive zeros of the circle-normalized function.

    Certified for count <= MAX_ZERO_INDEX.  The first zero agrees with the
    series-based :func:`find_first_function_zero` to the scan tolerance.
    """
    if not 1 <= count <= MAX_ZERO_INDEX:
        raise OrderError(
            f"zero engine certified for 1..{MAX_ZERO_INDEX} zeros, got {count}"
        )
    fam = base.circle
    first = find_first_function_zero(fam, parameter)
    for stretch in (1.0, 1.6, 2.6):
        x_end = first + math.pi * (count + 1.5) * stretch
        x0, sol = circle_solution(base, parameter, x_end)
        zeros = zeros_from_solution(sol, x0, x_end, lambda x, y: y[0], count)
        if len(zeros) >= count:
            return tuple(zeros[:count])
    raise RootNotFoundError(
        f"{base.value} at parameter {parameter!r}: found {len(zeros)} of "
        f"{count} zeros; non-simple zeros are not scannable"
    )
