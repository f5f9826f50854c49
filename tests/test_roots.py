import decimal
import itertools
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
    RootNotFoundError,
    base_function_zeros,
    crude_upper_bound,
    default_config,
    equation_residual,
    explore_interlacing,
    find_first_function_zero,
    find_radius,
)
from radii import roots
from radii.families import Base
from radii.roots import circle_solution
from radii.series import value_evaluator


def steps_below(base, parameter, x_end):
    """The Taylor continuation's steps that start below x_end."""
    return list(itertools.takewhile(lambda s: s[0] < x_end, circle_solution(base, parameter)))


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
    assert report.bracket3.lower < report.radius < report.bracket3.upper
    assert abs(report.residual) < 1e-9


def test_unconverged_bisection_raises(monkeypatch):
    monkeypatch.setattr(roots, "MAX_BISECT", 5)
    with pytest.raises(RootNotFoundError, match="not converged after 5 steps"):
        find_radius(Family.BESSEL_CIRCLE, 0.0)


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
    # order 1/2 is 1 - cos x, whose double zeros a sign scan cannot see
    assert find_first_function_zero(Family.STRUVE_CIRCLE, 0.5) == 2 * math.pi
    assert find_first_function_zero(Family.STRUVE_SQRT, 0.5) == (2 * math.pi) ** 2


def test_sqrt_zero_is_square_of_circle_zero():
    for base, circle, sqrt, parameter in (
        (Base.BESSEL, Family.BESSEL_CIRCLE, Family.BESSEL_SQRT, 0.0),
        (Base.STRUVE, Family.STRUVE_CIRCLE, Family.STRUVE_SQRT, 0.25),
        (Base.LOMMEL, Family.LOMMEL_CIRCLE, Family.LOMMEL_SQRT, 0.5),
    ):
        z_circle = find_first_function_zero(circle, parameter)
        z_sqrt = find_first_function_zero(sqrt, parameter)
        assert z_sqrt == z_circle * z_circle


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
    # an independent check: the plain series, not the Taylor continuation,
    # brackets the first zero the engine reports
    z = find_first_function_zero(base.circle, parameter)
    f = value_evaluator(base.circle, parameter)
    assert f(z * (1.0 - 1e-12)) > 0.0
    assert f(z * (1.0 + 1e-12)) < 0.0


# First zeros where the series first-zero march went wrong, from mpmath 1.3.0
# at 40 digits, with the relative tolerance each is held to: struve-circle
# (findroot on struveh), whose first two zeros close in on the double zero at
# 2 pi as nu -> 1/2, and bessel-circle (besseljzero) at large orders.
MPMATH_FIRST_ZEROS = {
    (Family.STRUVE_CIRCLE, 0.48): ("5.9915744560478576539", "1e-14"),
    (Family.STRUVE_CIRCLE, 0.49): ("6.0823225563154321975", "1e-14"),
    (Family.STRUVE_CIRCLE, 0.4999): ("6.2642844292966949367", "1e-14"),
    (Family.BESSEL_CIRCLE, 30.0): ("36.0983369567477248", "4e-16"),
    (Family.BESSEL_CIRCLE, 60.0): ("67.528785765029446902", "4e-16"),
}


@pytest.mark.parametrize("case", list(MPMATH_FIRST_ZEROS), ids=lambda c: f"{c[0].value}{c[1]:g}")
def test_first_zeros_match_mpmath(case):
    exact, tolerance = MPMATH_FIRST_ZEROS[case]
    errors = relative_errors([find_first_function_zero(*case)], [decimal.Decimal(exact)])
    assert errors[0] <= decimal.Decimal(tolerance)


@pytest.mark.parametrize(
    "base,parameter", [(Base.STRUVE, 0.49999), (Base.STRUVE, 0.499999), (Base.LOMMEL, 0.999999)]
)
def test_skipped_close_zero_pair_raises(base, parameter):
    # the first two zeros are closer than the scan spacing, so the sign scan
    # sees no change across them; its next zero lies past sqrt(s1/s2)
    with pytest.raises(RootNotFoundError, match="Rayleigh upper bound"):
        base_function_zeros(base, parameter, 1)
    with pytest.raises(RootNotFoundError, match="Rayleigh upper bound"):
        find_first_function_zero(base.circle, parameter)


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

    steps = steps_below(base, parameter, 8.0)
    x0 = steps[0][0]
    for x in (x0 + 0.5, 3.7, 6.2):
        start, _, terms = next(s for s in steps if s[0] <= x <= s[0] + s[1])
        value, slope = roots._horner(terms, x - start)
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


# Zeros of J_0, J_1 and H_0, from mpmath 1.3.0 at 40 digits (besseljzero, and
# findroot on struveh), rounded to 32 significant digits.
MPMATH_ZEROS = {
    (Base.BESSEL, 0.0): (
        "2.4048255576957727686216318793265", "5.520078110286310649596604112813",
        "8.6537279129110122169541987126609", "11.791534439014281613743044911925",
        "14.930917708487785947762593997389", "18.071063967910922543147882975618",
        "21.211636629879258959078393350526", "24.352471530749302737057944763179",
        "27.493479132040254795877288234607", "30.634606468431975117549578926854",
        "33.775820213573568684238546346715", "36.917098353664043979769493063273",
        "40.058425764628239294799307373994", "43.199791713176730357524072728743",
        "46.341188371661814018685788879113", "49.482609897397817173602761533178",
        "52.624051841114996029251285380392", "55.765510755019979311683492773462",
        "58.906983926080942132834406634616", "62.048469190227169882852500264651",
    ),
    (Base.BESSEL, 1.0): (
        "3.8317059702075123156144358863082", "7.0155866698156187535370499814765",
        "10.173468135062722077185711776776", "13.323691936314223032393684126948",
        "16.47063005087763281255246047099", "19.615858510468242021125065884138",
        "22.760084380592771898053005152182", "25.90367208761838262549585544598",
        "29.046828534916855066647819883532", "32.18967991097440362662298410446",
        "35.332307550083865102634479022519", "38.474766234771615112052197557717",
        "41.61709421281445088586351680506", "44.759318997652821732779352713212",
        "47.901460887185447121274008722508", "51.043535183571509468733034633224",
        "54.185553641061320532099966214534", "57.327525437901010745090504243751",
        "60.469457845347491559398749808383", "63.611356698481232631039762417874",
    ),
    (Base.STRUVE, 0.0): (
        "4.333237820406421670532399270933", "6.7810276398620777841931906690052",
        "10.469205239059108256123361835029", "13.140494713271764214522544557825",
        "16.696713198336852964628979264223", "19.459941243671420603223824797785",
        "22.94902763048870300923983185415", "25.765365242768551374631081021684",
        "29.212012614764502308030395022296", "32.063972696689304627591220203457",
        "35.480693261214837807593567564793", "38.358663361236363109271459304272",
        "41.752825124977431293918902512913", "44.650859066299062833216919623559",
        "48.027231099367980419000625041187", "50.941349779514969122261739375613",
        "54.303227685483006646684968058598", "57.230614226508549911704065628794",
        "60.580387645298572013022688765113", "63.518961720750884971421177639979",
    ),
}

PI = decimal.Decimal("3.14159265358979323846264338327950288")

# Lommel zero tables of the earlier scipy DOP853 engine (rtol 1e-12).
DOP853_LOMMEL_ZEROS = {
    -0.5: (
        2.2974395736081856, 5.517618880986459, 8.628725654865812, 11.787772022079311,
        14.917746508202354, 18.06779055834694, 21.202884357568454, 24.349676359749544,
        27.486987728264705, 30.632185734485343, 33.7706882637153, 36.91496799918758,
        40.054196093990626, 43.19789058326751, 46.33759886720099, 49.480893534053536,
        52.620938921119944, 55.76394621903983, 58.904238939562376, 62.04703153152913,
    ),
    0.25: (
        3.6323484262350467, 6.610626154056535, 9.86643056207056, 12.918883801491354,
        16.1347632217614, 19.212298381914138, 22.410560296665466, 25.501181065514828,
        28.68924971692505, 31.788048107287015, 34.96937922074397, 38.07383125363523,
        41.25033665756731, 44.35895959688299, 47.531817001140105, 50.64365978902536,
        53.81365029013138, 56.92806347965835, 60.09573390225471, 63.212252677381734,
    ),
    0.5: (
        4.196921752800777, 6.8544412429775186, 10.385004289325604, 13.196475637222703,
        16.63178140830035, 19.507111963394372, 22.894566733249565, 25.806974352191684,
        29.164303169618233, 32.10165409449808, 35.4377779128013, 38.393376411636616,
        41.71353129446282, 44.683224448269954, 47.99079332039511, 50.971796750090526,
        54.269114715468596, 57.25945449450045, 60.54821349949846, 63.54643022901949,
    ),
}


def relative_errors(computed, exact) -> list[decimal.Decimal]:
    """|computed - exact| / exact for each pair, with no binary rounding."""
    return [abs((decimal.Decimal(c) - e) / e) for c, e in zip(computed, exact)]


@pytest.mark.parametrize("case", list(MPMATH_ZEROS), ids=lambda c: f"{c[0].value}{c[1]:g}")
def test_zero_tables_match_mpmath_to_an_ulp(case):
    zeros = base_function_zeros(*case, 20)
    exact = [decimal.Decimal(s) for s in MPMATH_ZEROS[case]]
    assert max(relative_errors(zeros, exact)) <= decimal.Decimal("4e-16")


def test_struve_minus_half_zeros_are_multiples_of_pi():
    zeros = base_function_zeros(Base.STRUVE, -0.5, 20)
    exact = [n * PI for n in range(1, 21)]
    assert max(relative_errors(zeros, exact)) <= decimal.Decimal("4e-16")


def test_struve_minus_half_interlacing_zeros_are_half_odd_multiples_of_pi():
    # the normalized Struve function of order -1/2 is sin, so the zeros of
    # its derivative are (n - 1/2) pi
    zeros = explore_interlacing(-0.5, 20).struve_zeros
    exact = [(n - decimal.Decimal("0.5")) * PI for n in range(1, 21)]
    assert len(zeros) == 20
    assert max(relative_errors(zeros, exact)) <= decimal.Decimal("4e-16")


@pytest.mark.parametrize("mu", list(DOP853_LOMMEL_ZEROS))
def test_lommel_zero_tables_agree_with_the_dop853_engine(mu):
    zeros = base_function_zeros(Base.LOMMEL, mu, 20)
    assert zeros == pytest.approx(DOP853_LOMMEL_ZEROS[mu], rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "base,parameter",
    [
        (Base.BESSEL, -0.9), (Base.BESSEL, 0.0), (Base.BESSEL, 1.0),
        (Base.STRUVE, -0.5), (Base.STRUVE, 0.5),
        (Base.LOMMEL, -0.9), (Base.LOMMEL, 0.9),
    ],
)
def test_taylor_steps_truncate_far_below_rounding(base, parameter):
    steps = steps_below(base, parameter, 70.0)
    # each step starts where the previous one ends, out past x = 70
    assert all(a[0] + a[1] == b[0] for a, b in zip(steps, steps[1:]))
    assert steps[-1][0] + steps[-1][1] >= 70.0
    assert all(len(terms) == roots.TAYLOR_TERMS for _, _, terms in steps)
    for _, width, terms in steps:
        sizes = [abs(c) * width**k for k, c in enumerate(terms)]
        assert max(sizes[-4:]) < 1e-20 * max(sizes)


def test_default_zero_tables_need_one_solution_each(monkeypatch):
    calls = [0]
    solve = roots.circle_solution

    def counting(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(roots, "circle_solution", counting)
    cases = default_config().zero_sum_cases
    for base, parameter in cases:
        assert len(base_function_zeros(base, parameter, 20)) == 20
    # no stretch retry fires on the default tables
    assert calls[0] == len(cases) == 9


def test_zero_scan_is_at_least_forty_samples_per_unit():
    calls = [0]
    built = []

    def value(x, y):
        calls[0] += 1
        return y[0]

    def recorded(steps):
        for step in steps:
            built.append(step)
            yield step

    # more zeros than the steps starting up to 30 hold, so all of them are scanned
    steps = recorded(circle_solution(Base.BESSEL, 0.0))
    zeros = roots.zeros_from_solution(steps, value, 20, 30.0)
    assert len(zeros) == 9
    scanned = [s for s in built if s[0] <= 30.0]
    assert len(scanned) == len(built) - 1  # the first step past the limit ends the scan
    x0, (start, width, _) = scanned[0][0], scanned[-1]
    assert start + width > 30.0
    assert calls[0] >= 40 * (start + width - x0)


# Zeros of J_150 and the twentieth zero of J_200, from mpmath 1.3.0
# besseljzero at 40 digits, rounded to 32 significant digits.
MPMATH_BESSEL150_ZEROS = (
    "160.0545795924303599860585025973", "167.83320724264495706420557377535",
    "174.36298553874015169037975502754", "180.25463930335540225608953004262",
    "185.73912375383657732892937321802", "190.93435782228039121716578726307",
    "195.91045483847074395356324088772", "200.71321855273375436646219930061",
)
MPMATH_BESSEL200_ZERO20 = "308.82784521096912754239023574067"


def test_large_order_zero_tables_match_mpmath():
    # a scan range guessed from the series first zero stops short of these
    zeros = base_function_zeros(Base.BESSEL, 150.0, 8)
    exact = [decimal.Decimal(s) for s in MPMATH_BESSEL150_ZEROS]
    assert max(relative_errors(zeros, exact)) <= decimal.Decimal("4e-16")
    zeros = base_function_zeros(Base.BESSEL, 200.0, 20)
    assert len(zeros) == 20
    exact = [decimal.Decimal(MPMATH_BESSEL200_ZERO20)]
    assert max(relative_errors(zeros[-1:], exact)) <= decimal.Decimal("4e-16")


@pytest.fixture
def taylor_steps(monkeypatch):
    """Record the start of every Taylor step the zero engine builds."""
    starts = []
    build = roots._taylor_terms

    def recording(x0, *args):
        starts.append(x0)
        return build(x0, *args)

    monkeypatch.setattr(roots, "_taylor_terms", recording)
    return starts


@pytest.mark.parametrize("count", [1, 20])
def test_double_zeros_give_up_at_the_scan_limit(count, taylor_steps):
    # the normalized Struve function of order 1/2 touches zero at 2 pi n
    # without changing sign, so the scan runs out
    with pytest.raises(RootNotFoundError, match=f"found 0 of {count} zeros"):
        base_function_zeros(Base.STRUVE, 0.5, count)
    # Euler-Rayleigh: s1/s2 = 60 at order 1/2, and the scan gives up at
    # sqrt(s1/s2) + 2.6 pi (count + 2.5): the first step past it is the last
    limit = math.sqrt(60.0) + 2.6 * math.pi * (count + 2.5)
    assert roots.scan_window(Base.STRUVE, 0.5, count)[2] == pytest.approx(limit, rel=1e-15)
    assert limit < taylor_steps[-1] <= limit + 1.0
    assert len(taylor_steps) <= math.ceil(limit) + 1


@pytest.mark.parametrize(
    "order,reason",
    [(300.0, "Rayleigh lower bound"), (500.0, "not finite"), (1000.0, "not finite")],
)
def test_large_order_breakdown_raises_instead_of_a_wrong_zero(order, reason):
    # the true first zeros are 312.58, 514.86 and 1018.66; the continuation
    # loses its accuracy first and would report a spurious zero near 19-51
    for count in (1, 20):
        with pytest.raises(RootNotFoundError, match=reason):
            base_function_zeros(Base.BESSEL, order, count)


def test_zero_tables_build_no_step_past_their_last_zero(taylor_steps):
    total = 0
    for base, parameter in default_config().zero_sum_cases:
        taylor_steps.clear()
        zeros = base_function_zeros(base, parameter, 20)
        last = taylor_steps[-1]
        assert last <= zeros[-1] <= last + min(1.0, 0.5 * last)
        total += len(taylor_steps)
    assert total == 565
