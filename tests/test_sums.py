import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from radii import (
    BracketInterval,
    DomainError,
    Family,
    FloatRangeError,
    OrderError,
    RadiiError,
    SumLedger,
    SumSource,
    closed_form_sum,
    coefficient_sequence,
    crude_upper_bound,
    first_rayleigh_zero_sum,
    newton_power_sums,
    power_sums,
    radius_bracket,
)
from radii.families import Base, Kind

from draws import whole_domain_parameter

PARAM_RANGES = {
    Base.BESSEL: (-0.9, 30.0),
    Base.STRUVE: (-0.5, 0.5),
    Base.LOMMEL: (-0.9, 0.9),
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


def fraction_power_sums(family, parameter: Fraction, upto: int) -> list[Fraction]:
    """Exact-rational oracle: coefficient recurrence plus Newton identities.

    Everything is a Fraction, so the only rounding in a comparison against the
    float pipeline happens in the final float() conversion.
    """

    def u_ratio(n: int) -> Fraction:
        if family.base is Base.BESSEL:
            return Fraction(1) / ((n + 1) * (parameter + 1 + n))
        if family.base is Base.STRUVE:
            return Fraction(1) / ((n + Fraction(3, 2)) * (parameter + Fraction(3, 2) + n))
        return Fraction(4) / ((2 * n + parameter + 2) * (2 * n + parameter + 3))

    c = [Fraction(1)]
    for n in range(upto):
        step = u_ratio(n)
        if family.kind is Kind.CIRCLE:
            step *= Fraction(2 * n + 3, 2 * n + 1)
        else:
            step *= Fraction(n + 2, n + 1)
        c.append(c[-1] * step)

    p: list[Fraction] = []
    for k in range(1, upto + 1):
        acc = (-1) ** (k - 1) * k * c[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * c[i] * p[k - i - 1]
        p.append(acc)
    return p


ORACLE_PARAMS = {
    Base.BESSEL: (Fraction(1, 2), Fraction(-1, 4), Fraction(3)),
    Base.STRUVE: (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 2)),
    Base.LOMMEL: (Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 4)),
}


@pytest.mark.parametrize("family", list(Family))
def test_closed_forms_match_exact_rational_oracle(family):
    for parameter in ORACLE_PARAMS[family.base]:
        exact = fraction_power_sums(family, parameter, 4)
        for k in range(1, 5):
            got = closed_form_sum(family, float(parameter), k)
            assert got == pytest.approx(float(exact[k - 1]), rel=1e-14)


@pytest.mark.parametrize("family", list(Family))
def test_newton_recurrence_matches_exact_rational_oracle(family):
    for parameter in ORACLE_PARAMS[family.base]:
        exact = fraction_power_sums(family, parameter, 8)
        coeffs = coefficient_sequence(family, float(parameter), 8)
        got = newton_power_sums(coeffs, 8)
        for k in range(1, 9):
            assert got[k - 1] == pytest.approx(float(exact[k - 1]), rel=1e-12)


def test_corrected_fourth_order_lommel_sqrt_agrees_with_newton():
    # Regression guard for the corrected quartic-order closed form: the
    # commonly quoted polynomial is off by ~55% at mu = 1/2.
    for mu in (0.5, -0.5, 0.25, -0.75):
        closed = closed_form_sum(Family.LOMMEL_SQRT, mu, 4)
        newton = power_sums(Family.LOMMEL_SQRT, mu, 4, SumSource.NEWTON_RECURRENCE).p(4)
        assert closed == pytest.approx(newton, rel=5e-14)


@given(family_and_parameter())
def test_first_power_sum_equals_first_coefficient_exactly(fp):
    family, parameter = fp
    ledger = power_sums(family, parameter, 1, SumSource.NEWTON_RECURRENCE)
    assert ledger.p(1) == coefficient_sequence(family, parameter, 1).values[1]


def test_bracket_hand_values_bessel_sqrt_order_one():
    bracket = radius_bracket(Family.BESSEL_SQRT, 0.0, 1)
    assert bracket.lower == 2.0
    assert bracket.upper == 3.2
    assert bracket.source is SumSource.CLOSED_FORM


def test_bracket_hand_values_bessel_circle_order_one():
    bracket = radius_bracket(Family.BESSEL_CIRCLE, 0.0, 1)
    assert bracket.lower == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
    assert bracket.upper == pytest.approx(2.0 * math.sqrt(6.0 / 13.0), rel=1e-15)


def test_bracket_hand_values_struve_circle_order_one():
    bracket = radius_bracket(Family.STRUVE_CIRCLE, -0.5, 1)
    assert bracket.lower == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert bracket.upper == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert bracket.lower < math.pi / 2.0 < bracket.upper


def test_bracket_width_property():
    bracket = radius_bracket(Family.LOMMEL_CIRCLE, 0.5, 2)
    assert bracket.width == bracket.upper - bracket.lower
    assert isinstance(bracket, BracketInterval)


def test_closed_sum_spot_values():
    assert closed_form_sum(Family.BESSEL_CIRCLE, 0.0, 1) == 3.0
    assert closed_form_sum(Family.BESSEL_SQRT, 0.0, 1) == 2.0
    assert closed_form_sum(Family.STRUVE_CIRCLE, -0.5, 1) == 2.0
    assert closed_form_sum(Family.LOMMEL_SQRT, 0.5, 1) == pytest.approx(8.0 / 8.75, rel=1e-15)


# Spot parameters per base, edges included, with the crude bounds and first
# Rayleigh sums pinned bit for bit.  Each literal is the base's hand formula:
# sqrt(2 (nu+1)) and 4 (nu+1) for Bessel, sqrt(3 (nu+3/2)) and 3 (2 nu+3) for
# Struve, sqrt((mu+2)(mu+3)/2) and (mu+2)(mu+3) for Lommel; the Rayleigh sums
# 1/(4 (nu+1)), 1/(3 (2 nu+3)) and 1/((mu+2)(mu+3)).
SPOT_PARAMS = {
    Base.BESSEL: (-0.999999, 0.0, 9.0, 1e4, 1e10),
    Base.STRUVE: (-0.5, 0.0, 0.5),
    Base.LOMMEL: (1e-12, -1e-12, 0.5, -0.5, 0.999999, -0.999999),
}

CRUDE_SPOT = {
    Family.BESSEL_CIRCLE: (0.0014142135623934284, 1.4142135623730951, 4.47213595499958,
                           141.42842712835352, 141421.3562443806),
    Family.BESSEL_SQRT: (4.000000000115023e-06, 4.0, 40.0, 40004.0, 40000000004.0),
    Family.STRUVE_CIRCLE: (1.7320508075688772, 2.1213203435596424, 2.449489742783178),
    Family.STRUVE_SQRT: (6.0, 9.0, 12.0),
    Family.LOMMEL_CIRCLE: (1.732050807569599, 1.7320508075681555, 2.091650066335189,
                           1.3693063937629153, 2.4494890283486677, 1.0000007499999688),
    Family.LOMMEL_SQRT: (6.0000000000050004, 5.9999999999949996, 8.75, 3.75,
                         11.999993000000998, 2.0000030000010005),
}

RAYLEIGH_SPOT = {
    Base.BESSEL: (249999.9999928111, 0.25, 0.025, 2.4997500249975004e-05, 2.49999999975e-11),
    Base.STRUVE: (0.16666666666666666, 0.1111111111111111, 0.08333333333333333),
    Base.LOMMEL: (0.16666666666652777, 0.16666666666680557, 0.11428571428571428,
                  0.26666666666666666, 0.08333338194446586, 0.49999925000087486),
}


def test_crude_bound_spot_values():
    for family in Family:
        got = tuple(crude_upper_bound(family, p) for p in SPOT_PARAMS[family.base])
        assert got == CRUDE_SPOT[family], family


def test_first_rayleigh_sum_spot_values():
    for base in Base:
        got = tuple(first_rayleigh_zero_sum(base, p) for p in SPOT_PARAMS[base])
        assert got == RAYLEIGH_SPOT[base], base


@given(family_and_parameter())
def test_bracket_chain_nests(fp):
    family, parameter = fp
    brackets = [
        radius_bracket(family, parameter, k, SumSource.NEWTON_RECURRENCE)
        for k in range(1, 7)
    ]
    lowers = [b.lower for b in brackets]
    uppers = [b.upper for b in brackets]
    for a, b in zip(lowers, lowers[1:]):
        assert b >= a - 1e-13 * abs(a)
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-13 * abs(a)
    assert max(lowers) < min(uppers)


@given(family_and_parameter(), st.integers(min_value=1, max_value=3))
def test_closed_and_newton_brackets_agree(fp, k):
    family, parameter = fp
    closed = radius_bracket(family, parameter, k, SumSource.CLOSED_FORM)
    newton = radius_bracket(family, parameter, k, SumSource.NEWTON_RECURRENCE)
    assert closed.lower == pytest.approx(newton.lower, rel=1e-12)
    assert closed.upper == pytest.approx(newton.upper, rel=1e-12)


def test_order_limits_rejected():
    with pytest.raises(OrderError, match="closed forms transcribed"):
        closed_form_sum(Family.BESSEL_CIRCLE, 0.0, 5)
    with pytest.raises(OrderError):
        closed_form_sum(Family.BESSEL_CIRCLE, 0.0, 0)
    with pytest.raises(OrderError, match="k <= 3"):
        radius_bracket(Family.BESSEL_CIRCLE, 0.0, 4, SumSource.CLOSED_FORM)
    with pytest.raises(OrderError, match="k <= 6"):
        radius_bracket(Family.BESSEL_CIRCLE, 0.0, 7, SumSource.NEWTON_RECURRENCE)
    with pytest.raises(OrderError, match="order must be >= 1"):
        radius_bracket(Family.BESSEL_CIRCLE, 0.0, 0)
    with pytest.raises(OrderError, match="limited to order 8"):
        newton_power_sums(coefficient_sequence(Family.BESSEL_SQRT, 0.0, 9), 9)
    with pytest.raises(OrderError, match="need coefficients"):
        newton_power_sums(coefficient_sequence(Family.BESSEL_SQRT, 0.0, 2), 3)
    with pytest.raises(OrderError, match="closed forms stop"):
        power_sums(Family.BESSEL_SQRT, 0.0, 5, SumSource.CLOSED_FORM)


def test_ledger_index_bounds():
    ledger = power_sums(Family.STRUVE_SQRT, 0.25, 3, SumSource.NEWTON_RECURRENCE)
    assert ledger.order == 3
    with pytest.raises(OrderError, match="requested p_4"):
        ledger.p(4)
    with pytest.raises(OrderError):
        ledger.p(0)


@pytest.mark.parametrize("family", list(Family))
def test_one_ledger_gives_every_order_bit_for_bit(family):
    # verify reads all its enclosures from a 4-sum closed and a 7-sum Newton
    # ledger; each must equal the bracket built from its own k + 1 sums.
    rng = random.Random(f"ledger-{family.value}")
    for parameter in (whole_domain_parameter(rng, family) for _ in range(40)):
        for source, upto in ((SumSource.CLOSED_FORM, 4), (SumSource.NEWTON_RECURRENCE, 7)):
            ledger = power_sums(family, parameter, upto, source)
            for k in range(1, upto):
                assert ledger.bracket(k) == radius_bracket(family, parameter, k, source)


def test_ledger_bracket_needs_the_next_sum():
    ledger = power_sums(Family.BESSEL_SQRT, 0.0, 4, SumSource.CLOSED_FORM)
    assert ledger.bracket(3).k == 3
    with pytest.raises(OrderError, match="requested p_5"):
        ledger.bracket(4)
    with pytest.raises(OrderError, match="requested p_0"):
        ledger.bracket(0)


def test_sums_out_of_binary64_range_raise_float_range_error():
    # bessel p_4 divides by (nu+1)^4 (nu+2)^2 (nu+3)(nu+4) ~ nu^8, which leaves
    # binary64 near nu = 1e38; the Newton p_7 ~ nu^-7 underflows near nu = 1e44
    message = "bessel-circle: binary64 power sums overflow or underflow at parameter 1e+60"
    with pytest.raises(FloatRangeError, match=re.escape(message)):
        closed_form_sum(Family.BESSEL_CIRCLE, 1e60, 4)
    with pytest.raises(FloatRangeError, match=r"at parameter 1e\+300"):
        closed_form_sum(Family.BESSEL_SQRT, 1e300, 2)  # (nu+1)^2 raises OverflowError
    with pytest.raises(FloatRangeError, match=r"at parameter 1e\+100"):
        power_sums(Family.BESSEL_CIRCLE, 1e100, 7, SumSource.NEWTON_RECURRENCE)
    ledger = SumLedger(Family.BESSEL_SQRT, 1e100, SumSource.NEWTON_RECURRENCE, (2e-100, 0.0))
    with pytest.raises(FloatRangeError, match=r"bessel-sqrt: .* at parameter 1e\+100"):
        ledger.bracket(1)
    assert issubclass(FloatRangeError, RadiiError) and issubclass(FloatRangeError, ArithmeticError)
    assert closed_form_sum(Family.BESSEL_CIRCLE, 1e30, 4) > 0.0  # still in range


def test_domain_errors_propagate():
    with pytest.raises(DomainError):
        radius_bracket(Family.BESSEL_CIRCLE, -1.0, 1)
    with pytest.raises(DomainError):
        crude_upper_bound(Family.LOMMEL_CIRCLE, 0.0)
    with pytest.raises(DomainError):
        first_rayleigh_zero_sum(Base.STRUVE, 0.75)
