"""Power-series evaluation of the normalized functions and their derivatives.

Every family shares one template.  Writing u_n for the base coefficient

* Bessel:  u_n = 1 / (n! (nu+1)_n)
* Struve:  u_n = 1 / ((3/2)_n (nu+3/2)_n)
* Lommel:  u_n = 1 / (((mu+2)/2)_n ((mu+3)/2)_n)

the circle-normalized function is   f(x) = sum (-1)^n u_n x^(2n+1) / 4^n
and the sqrt-normalized function is f(x) = sum (-1)^n u_n x^(n+1) / 4^n.

Differentiating termwise and normalizing by the constant term gives the
"transformed derivative" coefficients

    circle: c_n = (2n+1) u_n        sqrt: c_n = (n+1) u_n

with c_0 = 1 and c_n > 0 throughout each domain.  The derivative's zeros in
the substituted variable are what the root finder brackets and refines, so
these c_n feed both the series evaluators here and the zero-sum machinery in
:mod:`radii.sums`.

All arithmetic is plain binary64 using ratio recurrences; no Gamma values
are ever formed, so large orders (nu of order 10^3) stay representable.

Callers that evaluate one family member many times, such as the radius
finder in :mod:`radii.roots`, build a :func:`derivative_evaluator` or
:func:`value_evaluator` once.  It checks the domain, resolves the term budget
and computes each coefficient ratio once, and then gives the same bits as
:func:`eval_normalized_derivative` / :func:`eval_normalized`, which are
one-call wrappers over the evaluators.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import TruncationError
from .families import Base, Family, Kind, check_domain

# Stopping rule: a term may be dropped once at least MIN_TERMS terms have been
# consumed and it is below EPS_REL times the largest partial sum seen so far.
# The series are alternating with eventually decreasing terms, so the error
# committed is bounded by the first dropped term.
EPS_REL = 1e-16
MIN_TERMS = 8
DEFAULT_MAX_TERMS = 400
MAX_TERMS_ENV = "RADII_MAX_TERMS"


def resolve_max_terms(max_terms: int | None = None) -> int:
    """Return the term budget, honoring the RADII_MAX_TERMS override.

    The environment variable is read whenever an evaluator is built, i.e. on
    every library call, so long-running processes can adjust it between
    calls.  Budgets below 9 cannot satisfy the minimum-term rule and are
    rejected.
    """
    if max_terms is None:
        env = os.environ.get(MAX_TERMS_ENV)
        max_terms = int(env) if env is not None else DEFAULT_MAX_TERMS
    max_terms = int(max_terms)
    if max_terms < MIN_TERMS + 1:
        raise ValueError(f"term budget must be at least {MIN_TERMS + 1}, got {max_terms}")
    return max_terms


def base_coefficient_ratio(base: Base, parameter: float, n: int) -> float:
    """Ratio u_(n+1)/u_n of the base series coefficients."""
    p = float(parameter)
    if base is Base.BESSEL:
        return 1.0 / ((n + 1.0) * (p + 1.0 + n))
    if base is Base.STRUVE:
        return 1.0 / ((n + 1.5) * (p + 1.5 + n))
    # Lommel: ((mu+2)/2 + n) ((mu+3)/2 + n) in the denominator
    return 4.0 / ((2.0 * n + p + 2.0) * (2.0 * n + p + 3.0))


def coefficient_ratio(family: Family, parameter: float, n: int) -> float:
    """Ratio c_(n+1)/c_n of the transformed derivative coefficients."""
    r = base_coefficient_ratio(family.base, parameter, n)
    if family.kind is Kind.CIRCLE:
        return r * (2.0 * n + 3.0) / (2.0 * n + 1.0)
    return r * (n + 2.0) / (n + 1.0)


class CoefficientSequence(NamedTuple):
    """Transformed derivative coefficients c_0..c_N of one family instance."""

    family: Family
    parameter: float
    values: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.values) - 1


def coefficient_sequence(family: Family, parameter: float, upto: int) -> CoefficientSequence:
    """Compute c_0..c_upto by running the ratio recurrence from c_0 = 1."""
    check_domain(family, parameter)
    if upto < 0:
        raise ValueError(f"coefficient order must be nonnegative, got {upto}")
    values = [1.0]
    c = 1.0
    for n in range(upto):
        c *= coefficient_ratio(family, parameter, n)
        values.append(c)
    return CoefficientSequence(family, float(parameter), tuple(values))


def _series(family: Family, parameter: float, ratio_at, max_terms: int | None, what: str):
    """Shared summation loop behind both evaluators.

    Checks the domain and resolves the term budget once, then returns
    ``total(term0, x)``: the sum of term0 * prod(q * ratio_at(i)) with
    q = -x^2/4 (circle) or -x/4 (sqrt), under the stopping rule.  Each ratio
    is computed once, the first time a sum reaches that term, and kept in a
    table owned by the returned function.
    """
    check_domain(family, parameter)
    budget = resolve_max_terms(max_terms)
    circle = family.kind is Kind.CIRCLE
    ratios: list[float] = []

    def total(term: float, x: float) -> float:
        q = -(x * x) / 4.0 if circle else -x / 4.0
        s = term
        run_max = abs(s)
        n = 0
        while True:
            if n == len(ratios):
                ratios.append(ratio_at(n))
            nxt = term * (q * ratios[n])
            if n + 1 >= MIN_TERMS and abs(nxt) < EPS_REL * run_max:
                return s
            if n + 1 >= budget:
                raise TruncationError(
                    f"{family.value} {what} at {x!r}: stopping rule not met within "
                    f"{budget} terms"
                )
            term = nxt
            s += term
            n += 1
            if abs(s) > run_max:
                run_max = abs(s)

    return total


def value_evaluator(family: Family, parameter: float, *, max_terms: int | None = None):
    """Return ``f(x)``, the normalized function of one family member.

    ``f(x)`` equals :func:`eval_normalized` at the same arguments, bit for bit,
    but the domain check, the term budget and the coefficient ratios are
    worked out once per evaluator instead of once per call.  The closure
    keeps a growing ratio table, so give each thread its own evaluator.
    """
    base = family.base
    total = _series(
        family, parameter, lambda n: base_coefficient_ratio(base, parameter, n),
        max_terms, "value",
    )

    def value(x: float) -> float:
        x = float(x)
        return 0.0 if x == 0.0 else total(x, x)

    return value


def derivative_evaluator(family: Family, parameter: float, *, max_terms: int | None = None):
    """Return ``f(x)``, the transformed derivative of one family member.

    ``f(x)`` equals :func:`eval_normalized_derivative` bit for bit; see
    :func:`value_evaluator` for what is shared between calls.
    """
    total = _series(
        family, parameter, lambda n: coefficient_ratio(family, parameter, n),
        max_terms, "derivative",
    )

    def derivative(x: float) -> float:
        x = float(x)
        return 1.0 if x == 0.0 else total(1.0, x)

    return derivative


def eval_normalized(
    family: Family, parameter: float, x: float, *, max_terms: int | None = None
) -> float:
    """Value of the normalized function at x (at z for sqrt families).

    For sqrt families the argument is the substituted variable, i.e. the
    series sum(-1)^n u_n x^(n+1)/4^n is evaluated as given.
    """
    return value_evaluator(family, parameter, max_terms=max_terms)(x)


def eval_normalized_derivative(
    family: Family, parameter: float, x: float, *, max_terms: int | None = None
) -> float:
    """Derivative of the normalized function at x (d/dz at z for sqrt families).

    This is the series sum(-1)^n c_n x^(2n)/4^n (circle) or
    sum(-1)^n c_n x^n/4^n (sqrt) whose first positive zero is the radius of
    starlikeness of the family member.
    """
    return derivative_evaluator(family, parameter, max_terms=max_terms)(x)
