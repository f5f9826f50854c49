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

Zeros of the base functions themselves, the first included, all come from
one engine.  The power series cannot supply them in binary64 far out: where
the 20th zero lives the alternating terms peak around e^x and cancellation
destroys every digit.  They come from the classical Taylor-series method for
ODEs instead: each base function, multiplied through by x^2, satisfies
x^2 y'' + A x y' + (x^2 + B) y = C x, so at any x0 > 0 its local Taylor
coefficients follow from the value and slope by a five-term recurrence.  The
solution is continued outward step by step from a series-accurate starting
point, and each step's polynomial is sign-scanned and bisected for zeros.
Steps are built only as the scan asks for them, so the scan walks forward
until it holds the zeros it wants; the Euler-Rayleigh bounds on the first
zero fix where it gives up and catch a continuation that has lost its
accuracy (large Bessel orders) or a scan that stepped over a close pair.
The origin is the equation's only singular point and every step stays
within half its distance to it, so the method stays well conditioned at
any argument reached here.  It needs only the standard library.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .basefuncs import reduced_pair
from .errors import OrderError, RootNotFoundError
from .families import Base, Family, Kind, check_domain, is_extended_domain
from .series import (
    base_coefficient_ratio,
    derivative_evaluator,
    eval_normalized,
    eval_normalized_derivative,
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


class RadiusReport(NamedTuple):
    """Computed radius of starlikeness with its certification context."""

    family: Family
    parameter: float
    radius: float
    residual: float
    iterations: int
    bracket3: BracketInterval
    narrow_bracket: bool
    extended_domain: bool


def _bisect(
    f, lo: float, hi: float, flo: float, *,
    xtol: float = 0.0, rtol: float = REL_WIDTH,
) -> tuple[float, int]:
    """Shrink a sign-change bracket to width xtol + rtol*|mid|.

    Returns (midpoint, evals).  Raises RootNotFoundError if MAX_BISECT
    evaluations leave the bracket wider than that.
    """
    iterations = 0
    while hi - lo > xtol + rtol * abs(0.5 * (lo + hi)):
        if iterations == MAX_BISECT:
            raise RootNotFoundError(
                f"bisection of [{lo!r}, {hi!r}] not converged after {MAX_BISECT} steps"
            )
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
    return 0.5 * (lo + hi), iterations


def _march(f, x: float, fx: float, step: float, limit: float):
    """Step forward from x, where f(x) = fx > 0, until f is no longer positive.

    No point beyond ``limit`` is evaluated.  Returns a bracket (lo, hi, f(lo))
    for _bisect, with lo == hi at an exact zero, or None once the next point
    passes the limit.  A NaN value ends the march like a sign change.
    """
    while (x_new := x + step) <= limit:
        f_new = f(x_new)
        if not f_new > 0.0:
            return (x_new if f_new == 0.0 else x), x_new, fx
        x, fx = x_new, f_new
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
    if not 0.0 < z < math.inf:
        raise ValueError(f"residual defined for finite z > 0, got {z!r}")
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
        found = _march(f, 0.0, 1.0, bracket3.lower / 64.0, limit)
        if found is None:
            raise RootNotFoundError(
                f"{family.value} at parameter {p!r}: no derivative sign change "
                f"up to {limit!r}"
            )
        lo, hi, flo = found
    radius, iterations = _bisect(f, lo, hi, flo)
    residual = equation_residual(family, p, radius)
    return RadiusReport(
        family=family,
        parameter=p,
        radius=radius,
        residual=residual,
        iterations=iterations,
        bracket3=bracket3,
        narrow_bracket=bracket3.width < NARROW_BRACKET,
        extended_domain=is_extended_domain(family, p),
    )


# --- Taylor-series continuation: the zero engine --------------------------

#: Local Taylor terms kept per continuation step.
TAYLOR_TERMS = 32

#: Zero-scan samples per unit of x.
SCAN_DENSITY = 40.0


def _ode_coefficients(base: Base, p: float) -> tuple[float, float, float]:
    """(A, B, C) of x^2 y'' + A x y' + (x^2 + B) y = C x for the base.

    This is the classical defining equation of each base function with the
    circle normalization substituted and multiplied through by x^2; the
    Struve and Lommel forms keep the inhomogeneous term.
    """
    if base is Base.BESSEL:
        return 2.0 * p - 1.0, 1.0 - 2.0 * p, 0.0
    if base is Base.STRUVE:
        return 2.0 * p + 1.0, 0.0, 2.0 * p + 1.0
    return 2.0 * p, p * (p - 1.0), p * (p + 1.0)


def _taylor_terms(x0: float, y: float, dy: float, abc) -> tuple[float, ...]:
    """Coefficients a_0..a_(TAYLOR_TERMS-1) of y(x0 + t) = sum a_k t^k.

    Matching powers of t in the x^2-form ODE gives, for k >= 0,
    x0^2 (k+1)(k+2) a_(k+2) = C x0 [k=0] + C [k=1] - x0 (k+1)(2k+A) a_(k+1)
    - (k(k-1) + A k + x0^2 + B) a_k - 2 x0 a_(k-1) - a_(k-2).
    """
    A, B, C = abc
    x02 = x0 * x0
    a = [0.0, 0.0, y, dy]  # a[k + 2] holds a_k; the pads are a_(-2), a_(-1)
    forcing = (C * x0, C)
    for k in range(TAYLOR_TERMS - 2):
        s = (
            (forcing[k] if k < 2 else 0.0)
            - x0 * (k + 1) * (2 * k + A) * a[k + 3]
            - (k * (k - 1) + A * k + x02 + B) * a[k + 2]
            - 2.0 * x0 * a[k + 1]
            - a[k]
        )
        a.append(s / (x02 * (k + 1) * (k + 2)))
    return tuple(a[2:])


def _horner(terms: tuple[float, ...], t: float) -> tuple[float, float]:
    """(value, slope) of the polynomial sum terms[k] t^k."""
    value = slope = 0.0
    for c in reversed(terms):
        slope = slope * t + value
        value = value * t + c
    return value, slope


def circle_solution(base: Base, parameter: float):
    """Taylor continuation of the circle-normalized function, built lazily.

    Checks the domain and takes the start values at once, then returns an
    endless iterator of steps (start, width, terms): on [start, start + width]
    the solution is sum terms[k] (x - start)^k.  The first step starts safely
    below the first zero (half the Rayleigh lower bound), from series values
    in their accurate range.  Each step re-expands the solution in
    TAYLOR_TERMS local terms at its start x and advances h = min(1, x/2): the
    only singular point of the equation is the origin, so the neglected
    terms shrink at least like 2^-k on top of the factorial decay of an
    entire solution.
    """
    fam = base.circle
    check_domain(fam, parameter)
    p = float(parameter)
    x = 0.5 / math.sqrt(first_rayleigh_zero_sum(base, p))
    abc = _ode_coefficients(base, p)
    y, dy = eval_normalized(fam, p, x), eval_normalized_derivative(fam, p, x)

    def steps(x, y, dy):
        while True:
            h = min(1.0, 0.5 * x)
            terms = _taylor_terms(x, y, dy, abc)
            yield x, h, terms
            y, dy = _horner(terms, h)
            x += h

    return steps(x, y, dy)


def scan_window(base: Base, parameter: float, count: int) -> tuple[float, float, float]:
    """(lower, upper, limit) for a scan after the first ``count`` zeros of the base.

    With u_n the base series coefficients (u_0 = 1), the first two Rayleigh sums
    are s1 = u_1/4 and s2 = s1^2 - u_2/8 = s1^2 - s1 (u_2/u_1)/2, and the Euler-Rayleigh
    inequality puts the first zero strictly between lower = 1/sqrt(s1) and
    upper = sqrt(s1/s2).  A scan gives up at limit = upper + 2.6 pi (count + 2.5),
    far past where the zeros, about pi apart, run out.
    """
    s1 = first_rayleigh_zero_sum(base, parameter)
    s2 = s1 * s1 - s1 * base_coefficient_ratio(base, parameter, 1) / 2.0
    upper = math.sqrt(s1 / s2)
    return 1.0 / math.sqrt(s1), upper, upper + 2.6 * math.pi * (count + 2.5)


def zeros_from_solution(steps, combine, count: int, limit: float) -> list[float]:
    """First ``count`` zeros of combine(x, (y, y')) along ``steps``, by sign scan.

    ``steps`` comes from :func:`circle_solution`.  Each step's polynomial is
    sampled SCAN_DENSITY times per unit of x, and each sign change is
    bisected on that step's polynomial down to adjacent floats.  The scan
    stops at the ``count``-th zero, building no later step, or at the first
    step that starts beyond ``limit``, returning fewer zeros.  A non-finite
    value at a sign change or at a step's end raises RootNotFoundError: the
    continuation has broken down.  Sign scanning assumes simple zeros; the
    samples are far finer than the quasi-period of the oscillation, so only
    genuinely non-simple zeros (a measure-zero parameter event) can be
    missed.
    """
    zeros: list[float] = []
    f_prev = None
    for start, width, terms in steps:
        if start > limit:
            break

        def f(x, start=start, terms=terms):
            return combine(x, _horner(terms, x - start))

        if f_prev is None:  # the first step starts below every zero sought
            f_prev = f(start)
        end = start + width
        span = end - start  # not width: it can differ in the last bit and move samples
        n = math.ceil(span * SCAN_DENSITY)
        x_prev = start
        for j in range(1, n + 1):
            x = end if j == n else start + span * j / n
            fx = f(x)
            if fx == 0.0:
                zeros.append(x)
            elif f_prev != 0.0 and (fx > 0.0) != (f_prev > 0.0):
                _check_finite(fx - f_prev, x)  # NaN and inf fake sign changes
                # 2^-52 |x| is at least one ulp of x and less than two, so
                # bisection stops once the bracket ends are adjacent floats
                # and returns one of them; keep the float around it where
                # the polynomial is smallest
                root = _bisect(f, x_prev, x, f(x_prev), rtol=2.0**-52)[0]
                near = (math.nextafter(root, -math.inf), root, math.nextafter(root, math.inf))
                zeros.append(min(near, key=lambda v: abs(f(v))))
            if len(zeros) >= count:
                return zeros
            x_prev, f_prev = x, fx
        _check_finite(f_prev, end)  # a breakdown that faked no sign change
    return zeros


def _check_finite(value: float, x: float) -> None:
    if not math.isfinite(value):
        raise RootNotFoundError(f"Taylor continuation is not finite at x = {x!r}")


def base_function_zeros(base: Base, parameter: float, count: int) -> tuple[float, ...]:
    """The first ``count`` positive zeros of the circle-normalized function.

    Certified for count <= MAX_ZERO_INDEX.  One Taylor continuation is
    scanned forward until it holds ``count`` zeros, giving up past the
    :func:`scan_window` limit.  A first zero outside the Euler-Rayleigh
    bounds raises RootNotFoundError like a scan that runs out: not above
    the lower bound, the continuation has lost its accuracy (large Bessel
    orders); not below the upper bound, the sign scan stepped over a pair
    of zeros too close to tell apart.
    """
    if not 1 <= count <= MAX_ZERO_INDEX:
        raise OrderError(
            f"zero engine certified for 1..{MAX_ZERO_INDEX} zeros, got {count}"
        )
    steps = circle_solution(base, parameter)
    lower, upper, limit = scan_window(base, parameter, count)
    zeros = zeros_from_solution(steps, lambda x, y: y[0], count, limit)
    if zeros and zeros[0] <= lower:
        raise RootNotFoundError(
            f"{base.value} at parameter {parameter!r}: first zero {zeros[0]!r} is not "
            f"above the Rayleigh lower bound {lower!r}; the continuation is inaccurate"
        )
    if zeros and zeros[0] >= upper:
        raise RootNotFoundError(
            f"{base.value} at parameter {parameter!r}: first zero {zeros[0]!r} is not "
            f"below the Rayleigh upper bound {upper!r}; the scan skipped a close pair"
        )
    if len(zeros) < count:
        raise RootNotFoundError(
            f"{base.value} at parameter {parameter!r}: found {len(zeros)} of "
            f"{count} zeros up to {limit!r}; non-simple zeros are not scannable"
        )
    return tuple(zeros)


def find_first_function_zero(family: Family, parameter: float) -> float:
    """Smallest positive zero of the normalized function itself.

    A sqrt family is its circle family in the squared variable, so both
    read the first zero of one Taylor continuation of the base
    (:func:`base_function_zeros`), squared for the sqrt kind.
    """
    check_domain(family, parameter)
    p = float(parameter)
    if family.base is Base.STRUVE and p == 0.5:
        # H_(1/2) is proportional to 1 - cos x: its zeros 2 pi n are double,
        # with no sign change for a scan to find, so the first one is pinned
        zero = 2.0 * math.pi
    else:
        zero = base_function_zeros(family.base, p, 1)[0]
    return zero if family.kind is Kind.CIRCLE else zero * zero
