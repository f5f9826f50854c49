import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from radii import (
    Family,
    TruncationError,
    coefficient_sequence,
    eval_normalized,
    eval_normalized_derivative,
)
from radii.families import Base, Kind
from radii.series import (
    base_coefficient_ratio,
    derivative_evaluator,
    resolve_max_terms,
    value_evaluator,
)
from radii.verify import default_config, grid_for

from draws import whole_domain_parameter

PARAM_RANGES = {
    Base.BESSEL: (-0.95, 40.0),
    Base.STRUVE: (-0.5, 0.5),
    Base.LOMMEL: (-0.95, 0.95),
}

SAMPLE_PARAMS = {
    Family.BESSEL_CIRCLE: 0.0,
    Family.BESSEL_SQRT: 1.5,
    Family.STRUVE_CIRCLE: 0.5,
    Family.STRUVE_SQRT: -0.25,
    Family.LOMMEL_CIRCLE: 0.5,
    Family.LOMMEL_SQRT: -0.5,
}


@st.composite
def family_and_parameter(draw):
    family = draw(st.sampled_from(list(Family)))
    lo, hi = PARAM_RANGES[family.base]
    parameter = draw(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)
    )
    if family.base is Base.LOMMEL and abs(parameter) < 1e-6:
        parameter = 0.5
    return family, parameter


def outcome(fn, *args, **kwargs):
    """Repr of the result, or the type and text of the error raised."""
    try:
        return repr(fn(*args, **kwargs))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


def brute_term_factor(family, parameter, n):
    # Independent transcription of the coefficient laws, kept deliberately
    # naive: explicit rising-factorial products, no shared code with radii.
    if family.base is Base.BESSEL:
        num, dens = 1.0, [(n + 1) * (parameter + 1 + n)]
    elif family.base is Base.STRUVE:
        num, dens = 1.0, [(n + 1.5) * (parameter + 1.5 + n)]
    else:
        num, dens = 4.0, [(2 * n + parameter + 2) * (2 * n + parameter + 3)]
    return num / dens[0]


def brute_value(family, parameter, x, terms=80):
    total = 0.0
    u = 1.0
    for n in range(terms):
        if family.kind is Kind.CIRCLE:
            total += (-1.0) ** n * u * x ** (2 * n + 1) / 4.0**n
        else:
            total += (-1.0) ** n * u * x ** (n + 1) / 4.0**n
        u *= brute_term_factor(family, parameter, n)
    return total


def gamma_coefficient(family, parameter, n):
    # Direct Gamma-function form of c_n, bypassing the ratio recurrence.
    if family.base is Base.BESSEL:
        log_u = (
            math.lgamma(parameter + 1)
            - math.lgamma(n + 1)
            - math.lgamma(parameter + 1 + n)
        )
    elif family.base is Base.STRUVE:
        log_u = (
            math.lgamma(1.5)
            + math.lgamma(parameter + 1.5)
            - math.lgamma(1.5 + n)
            - math.lgamma(parameter + 1.5 + n)
        )
    else:
        a, b = (parameter + 2) / 2, (parameter + 3) / 2
        log_u = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + n) - math.lgamma(b + n)
    factor = 2 * n + 1 if family.kind is Kind.CIRCLE else n + 1
    return factor * math.exp(log_u)


#: The Pochhammer pair (a, b) of u_n = 1/((a)_n (b)_n), spelled out exactly per base.
EXACT_PAIR = {
    Base.BESSEL: lambda p: (Fraction(1), p + 1),
    Base.STRUVE: lambda p: (Fraction(3, 2), p + Fraction(3, 2)),
    Base.LOMMEL: lambda p: ((p + 2) / 2, (p + 3) / 2),
}


@pytest.mark.parametrize("base", list(Base))
def test_base_ratio_within_two_ulps_of_exact_pochhammer_ratio(base):
    # one ulp is 2^-52 relative: the spacing of binary64 numbers in [1, 2)
    ulp = Fraction(sys.float_info.epsilon)
    for p in grid_for(default_config(), base.circle):
        a, b = EXACT_PAIR[base](Fraction(p))
        for n in range(41):
            exact = 1 / ((n + a) * (n + b))
            assert abs(Fraction(base_coefficient_ratio(base, p, n)) - exact) <= 2 * ulp * exact


def test_leading_coefficient_is_one_exactly():
    for family, parameter in SAMPLE_PARAMS.items():
        seq = coefficient_sequence(family, parameter, 6)
        assert seq.values[0] == 1.0


def test_low_order_coefficients_match_hand_values():
    assert coefficient_sequence(Family.BESSEL_SQRT, 0.0, 1).values[1] == 2.0
    assert coefficient_sequence(Family.BESSEL_CIRCLE, 0.0, 1).values[1] == 3.0
    c1 = coefficient_sequence(Family.STRUVE_CIRCLE, 0.5, 1).values[1]
    assert c1 == pytest.approx(1.0, abs=1e-15)


@given(family_and_parameter())
def test_transformed_coefficients_positive(fp):
    family, parameter = fp
    seq = coefficient_sequence(family, parameter, 40)
    assert seq.order == 40
    for value in seq.values:
        assert value > 0.0
        assert math.isfinite(value)


@given(family_and_parameter(), st.integers(min_value=1, max_value=30))
def test_coefficients_match_gamma_form(fp, n):
    family, parameter = fp
    got = coefficient_sequence(family, parameter, n).values[n]
    want = gamma_coefficient(family, parameter, n)
    assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("x", [0.3, 1.0, 2.2])
def test_value_matches_brute_force_series(x):
    for family, parameter in SAMPLE_PARAMS.items():
        got = eval_normalized(family, parameter, x)
        want = brute_value(family, parameter, x)
        assert got == pytest.approx(want, rel=1e-13)


@given(st.floats(min_value=0.05, max_value=8.0))
def test_circle_values_are_odd_in_x(x):
    for family in (Family.BESSEL_CIRCLE, Family.STRUVE_CIRCLE, Family.LOMMEL_CIRCLE):
        parameter = SAMPLE_PARAMS[family]
        assert eval_normalized(family, parameter, -x) == -eval_normalized(
            family, parameter, x
        )


def test_half_order_reductions_to_trigonometric_forms():
    for x in (0.2, 0.9, 1.7, 2.8):
        assert eval_normalized(Family.BESSEL_CIRCLE, 0.5, x) == pytest.approx(
            math.sin(x), abs=5e-14
        )
        assert eval_normalized(Family.STRUVE_CIRCLE, -0.5, x) == pytest.approx(
            math.sin(x), abs=5e-14
        )
        assert eval_normalized(Family.STRUVE_CIRCLE, 0.5, x) == pytest.approx(
            2.0 * (1.0 - math.cos(x)) / x, abs=5e-14
        )


def test_order_zero_value_at_one_matches_classical_constant():
    # J_0(1), to all printed digits of the classical tables.
    assert eval_normalized(Family.BESSEL_CIRCLE, 0.0, 1.0) == pytest.approx(
        0.76519768655796655, abs=1e-15
    )


def test_value_and_derivative_at_origin():
    for family, parameter in SAMPLE_PARAMS.items():
        assert eval_normalized(family, parameter, 0.0) == 0.0
        assert eval_normalized_derivative(family, parameter, 0.0) == 1.0


@pytest.mark.parametrize("x", [0.4, 1.3, 2.6])
def test_derivative_matches_difference_quotient(x):
    h = 1e-6
    for family, parameter in SAMPLE_PARAMS.items():
        got = eval_normalized_derivative(family, parameter, x)
        want = (
            eval_normalized(family, parameter, x + h)
            - eval_normalized(family, parameter, x - h)
        ) / (2 * h)
        assert got == pytest.approx(want, rel=5e-7)


def test_budget_below_minimum_rejected():
    with pytest.raises(ValueError, match="at least 9"):
        resolve_max_terms(8)


def test_tight_budget_raises_truncation_error():
    with pytest.raises(TruncationError, match="16 terms"):
        eval_normalized(Family.BESSEL_CIRCLE, 0.0, 40.0, max_terms=16)


def test_environment_budget_read_at_call_time(monkeypatch):
    monkeypatch.setenv("RADII_MAX_TERMS", "9")
    with pytest.raises(TruncationError):
        eval_normalized(Family.BESSEL_CIRCLE, 0.0, 20.0)
    monkeypatch.setenv("RADII_MAX_TERMS", "200")
    assert math.isfinite(eval_normalized(Family.BESSEL_CIRCLE, 0.0, 20.0))
    monkeypatch.setenv("RADII_MAX_TERMS", "8")
    with pytest.raises(ValueError):
        eval_normalized(Family.BESSEL_CIRCLE, 0.0, 1.0)


def test_explicit_budget_overrides_environment(monkeypatch):
    monkeypatch.setenv("RADII_MAX_TERMS", "9")
    value = eval_normalized(Family.BESSEL_CIRCLE, 0.0, 1.0, max_terms=100)
    assert value == pytest.approx(0.76519768655796655, abs=1e-15)


EVALUATORS = [
    (value_evaluator, eval_normalized),
    (derivative_evaluator, eval_normalized_derivative),
]


@pytest.mark.parametrize("build,evaluate", EVALUATORS, ids=["value", "derivative"])
@pytest.mark.parametrize("family", list(Family))
def test_evaluator_matches_single_call_bitwise(family, build, evaluate):
    rng = random.Random(f"{family.value}-{build.__name__}")
    for _ in range(40):
        parameter = whole_domain_parameter(rng, family)
        f = build(family, parameter)
        for x in [0.0, -0.0] + [10.0 ** rng.uniform(-6, 2.2) for _ in range(10)]:
            assert outcome(f, x) == outcome(evaluate, family, parameter, x)


@pytest.mark.parametrize("build,evaluate", EVALUATORS, ids=["value", "derivative"])
@pytest.mark.parametrize("family", list(Family))
def test_evaluator_results_do_not_depend_on_call_order(family, build, evaluate):
    parameter = SAMPLE_PARAMS[family]
    xs = [60.0, 25.0, 6.0, 1.5, 0.3, 1e-4]  # the first call grows the table the most
    grown_first = build(family, parameter)
    large_first = [outcome(grown_first, x) for x in xs]
    small_first = build(family, parameter)
    assert [outcome(small_first, x) for x in reversed(xs)] == large_first[::-1]
    assert large_first == [outcome(evaluate, family, parameter, x) for x in xs]


@pytest.mark.parametrize(
    "build,what", [(value_evaluator, "value"), (derivative_evaluator, "derivative")]
)
def test_evaluator_truncation_message(build, what, monkeypatch):
    message = f"^bessel-circle {what} at 40.0: stopping rule not met within 16 terms$"
    with pytest.raises(TruncationError, match=message):
        build(Family.BESSEL_CIRCLE, 0.0, max_terms=16)(40.0)
    monkeypatch.setenv("RADII_MAX_TERMS", "16")
    f = build(Family.BESSEL_CIRCLE, 0.0)
    monkeypatch.setenv("RADII_MAX_TERMS", "200")  # read when the evaluator is built
    with pytest.raises(TruncationError, match=message):
        f(40.0)
    assert math.isfinite(build(Family.BESSEL_CIRCLE, 0.0)(40.0))
