import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from radii import (
    Family,
    OrderError,
    base_function_zeros,
    crude_upper_bound,
    equation_residual,
    find_first_function_zero,
    find_radius,
)
from radii import roots
from radii.families import Base
from radii.roots import circle_solution

# First and twentieth positive zeros of the order-zero Bessel base, from the
# classical tables.
FIRST_ZERO_ORDER0 = 2.40482555769577276862
TWENTIETH_ZERO_ORDER0 = 62.0484691902271698828525

SAMPLE_PARAMS = {
    Family.BESSEL_CIRCLE: (0.0, 0.5, 4.0),
    Family.BESSEL_SQRT: (0.0, 1.5, 10.0),
    Family.STRUVE_CIRCLE: (-0.5, 0.0, 0.5),
    Family.STRUVE_SQRT: (-0.25, 0.25, 0.5),
    Family.LOMMEL_CIRCLE: (-0.5, 0.25, 0.75),
    Family.LOMMEL_SQRT: (-0.75, 0.5, 0.9),
}

PARAM_RANGES = {
    Base.BESSEL: (-0.9, 25.0),
    Base.STRUVE: (-0.5, 0.5),
    Base.LOMMEL: (-0.9, 0.9),
}


def test_radius_special_values():
    assert find_radius(Family.STRUVE_CIRCLE, -0.5).radius == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )
    assert find_radius(Family.BESSEL_CIRCLE, 0.5).radius == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )
    assert find_radius(Family.STRUVE_CIRCLE, 0.5).radius == pytest.approx(
        2.33112237041442261, abs=1e-12
    )


@pytest.mark.parametrize("family", list(Family))
def test_radius_report_invariants(family):
    for parameter in SAMPLE_PARAMS[family]:
        report = find_radius(family, parameter)
        assert report.converged
        assert report.iterations <= 60
        assert report.bracket3.lower < report.radius < report.bracket3.upper
        assert abs(report.residual) < 1e-10
        assert report.radius < crude_upper_bound(family, parameter)
        assert not report.narrow_bracket


@pytest.mark.parametrize("family", list(Family))
def test_residual_changes_sign_across_the_radius(family):
    parameter = SAMPLE_PARAMS[family][1]
    radius = find_radius(family, parameter).radius
    assert equation_residual(family, parameter, 0.95 * radius) > 0.0
    assert equation_residual(family, parameter, 1.05 * radius) < 0.0


@pytest.mark.parametrize(
    "family,limit",
    [
        (Family.BESSEL_CIRCLE, 1.0),
        (Family.BESSEL_SQRT, 2.0),
        (Family.STRUVE_CIRCLE, 1.0),
        (Family.STRUVE_SQRT, 2.0),
        (Family.LOMMEL_CIRCLE, 1.0),
        (Family.LOMMEL_SQRT, 4.0),
    ],
)
def test_residual_origin_limits(family, limit):
    parameter = SAMPLE_PARAMS[family][1]
    assert equation_residual(family, parameter, 1e-8) == pytest.approx(limit, abs=1e-5)


def test_residual_rejects_nonpositive_argument():
    with pytest.raises(ValueError, match="z > 0"):
        equation_residual(Family.BESSEL_CIRCLE, 0.0, 0.0)
    with pytest.raises(ValueError, match="z > 0"):
        equation_residual(Family.LOMMEL_SQRT, 0.5, -2.0)


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


@given(family_and_parameter())
def test_radius_always_lands_inside_its_bracket(fp):
    family, parameter = fp
    report = find_radius(family, parameter)
    assert report.converged
    assert report.bracket3.lower < report.radius < report.bracket3.upper
    assert abs(report.residual) < 1e-9


def test_extended_domain_flagged_on_reports():
    report = find_radius(Family.LOMMEL_CIRCLE, -0.5)
    assert report.extended_domain
    assert not find_radius(Family.LOMMEL_CIRCLE, 0.5).extended_domain


def test_first_function_zero_trigonometric_cases():
    assert find_first_function_zero(Family.BESSEL_CIRCLE, 0.5) == pytest.approx(
        math.pi, abs=1e-12
    )
    assert find_first_function_zero(Family.STRUVE_CIRCLE, -0.5) == pytest.approx(
        math.pi, abs=1e-12
    )
    assert find_first_function_zero(Family.BESSEL_CIRCLE, 0.0) == pytest.approx(
        FIRST_ZERO_ORDER0, abs=1e-11
    )


def test_sqrt_zero_is_square_of_circle_zero():
    for base, circle, sqrt, parameter in (
        (Base.BESSEL, Family.BESSEL_CIRCLE, Family.BESSEL_SQRT, 0.0),
        (Base.STRUVE, Family.STRUVE_CIRCLE, Family.STRUVE_SQRT, 0.25),
        (Base.LOMMEL, Family.LOMMEL_CIRCLE, Family.LOMMEL_SQRT, 0.5),
    ):
        z_circle = find_first_function_zero(circle, parameter)
        z_sqrt = find_first_function_zero(sqrt, parameter)
        assert z_sqrt == pytest.approx(z_circle**2, rel=1e-10)


def test_function_zero_exceeds_radius():
    for family, params in SAMPLE_PARAMS.items():
        parameter = params[0]
        assert find_radius(family, parameter).radius < find_first_function_zero(
            family, parameter
        )


def test_twenty_bessel_zeros_match_classical_tables():
    zeros = base_function_zeros(Base.BESSEL, 0.0, 20)
    assert len(zeros) == 20
    assert zeros[0] == pytest.approx(FIRST_ZERO_ORDER0, abs=1e-9)
    assert zeros[19] == pytest.approx(TWENTIETH_ZERO_ORDER0, abs=1e-8)
    for a, b in zip(zeros, zeros[1:]):
        assert b > a
    # high zeros of the order-zero base settle into near-pi spacing
    assert zeros[19] - zeros[18] == pytest.approx(math.pi, abs=5e-3)


@pytest.mark.parametrize(
    "base,parameter",
    [(Base.BESSEL, 0.7), (Base.STRUVE, 0.0), (Base.LOMMEL, 0.5)],
)
def test_zero_engine_agrees_with_series_on_first_zero(base, parameter):
    circle = {
        Base.BESSEL: Family.BESSEL_CIRCLE,
        Base.STRUVE: Family.STRUVE_CIRCLE,
        Base.LOMMEL: Family.LOMMEL_CIRCLE,
    }[base]
    series_zero = find_first_function_zero(circle, parameter)
    ode_zero = base_function_zeros(base, parameter, 1)[0]
    assert ode_zero == pytest.approx(series_zero, abs=1e-9)


@pytest.mark.parametrize(
    "base,family,parameter",
    [
        (Base.BESSEL, Family.BESSEL_CIRCLE, 0.3),
        (Base.STRUVE, Family.STRUVE_CIRCLE, 0.25),
        (Base.LOMMEL, Family.LOMMEL_CIRCLE, 0.5),
    ],
)
def test_ode_solution_tracks_series_in_its_accurate_range(base, family, parameter):
    from radii import eval_normalized, eval_normalized_derivative

    x0, sol = circle_solution(base, parameter, 8.0)
    for x in (x0 + 0.5, 3.7, 6.2):
        value, slope = sol.sol(x)
        assert float(value) == pytest.approx(
            eval_normalized(family, parameter, x), abs=1e-9
        )
        assert float(slope) == pytest.approx(
            eval_normalized_derivative(family, parameter, x), abs=1e-9
        )


def test_zero_engine_count_bounds():
    with pytest.raises(OrderError, match="1..20"):
        base_function_zeros(Base.BESSEL, 0.0, 0)
    with pytest.raises(OrderError, match="got 21"):
        base_function_zeros(Base.BESSEL, 0.0, 21)


@pytest.fixture
def derivative_calls(monkeypatch):
    """Count calls to every evaluator find_radius builds."""
    calls = [0]
    build = roots.derivative_evaluator

    def counting_builder(*args, **kwargs):
        f = build(*args, **kwargs)

        def counted(x):
            calls[0] += 1
            return f(x)

        return counted

    monkeypatch.setattr(roots, "derivative_evaluator", counting_builder)
    return calls


@pytest.mark.parametrize("family", list(Family))
def test_evaluations_per_radius_inside_an_honest_bracket(family, derivative_calls):
    for parameter in SAMPLE_PARAMS[family]:
        derivative_calls[0] = 0
        report = find_radius(family, parameter)
        # both bracket ends, then one evaluation per bisection step
        assert derivative_calls[0] == report.iterations + 2


@pytest.mark.parametrize("family", [Family.BESSEL_CIRCLE, Family.BESSEL_SQRT])
def test_evaluations_per_radius_with_forward_scan_fallback(family, derivative_calls):
    parameter = -0.999999  # the order-3 bracket misses the radius here
    report = find_radius(family, parameter)
    march = derivative_calls[0] - 2 - report.iterations
    assert march > 0
    step = report.bracket3.lower / 64.0
    assert march <= math.ceil(1.5 * crude_upper_bound(family, parameter) / step)
    assert report.iterations <= roots.MAX_BISECT


def test_import_leaves_numpy_and_scipy_to_the_ode_engine():
    script = (
        "import sys, radii\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        "print(radii.base_function_zeros(radii.Base.BESSEL, 0.0, 2)[0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(roots.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    loaded, first_zero = done.stdout.splitlines()
    assert loaded == "[]"
    assert float(first_zero) == pytest.approx(FIRST_ZERO_ORDER0, abs=1e-9)
