"""The library's result and config types are immutable, hashable values."""

import pytest

from radii import Family, SumSource, coefficient_sequence, find_radius, power_sums
from radii.verify import default_config, explore_interlacing, run_verify

# Each factory builds a fresh instance through the public API, so equality
# below compares two separately computed values, not one object with itself.
FACTORIES = {
    "CoefficientSequence": lambda: coefficient_sequence(Family.BESSEL_CIRCLE, 0.5, 4),
    "SumLedger": lambda: power_sums(Family.STRUVE_SQRT, 0.25, 4, SumSource.CLOSED_FORM),
    "BracketInterval": lambda: power_sums(
        Family.LOMMEL_CIRCLE, 0.5, 3, SumSource.NEWTON_RECURRENCE
    ).bracket(2),
    "RadiusReport": lambda: find_radius(Family.BESSEL_SQRT, 1.5),
    "VerificationOutcome": lambda: run_verify(default_config(only="const.bessel")).outcomes[0],
    "VerifyReport": lambda: run_verify(default_config(only="const.bessel")),
    "InterlacingReport": lambda: explore_interlacing(0.0, 2),
    "VerifyConfig": lambda: default_config(only="mle"),
}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_result_type_is_an_immutable_value(name):
    first, second = FACTORIES[name](), FACTORIES[name]()
    assert type(first).__name__ == name
    field = first._fields[0]
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(second, field))
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first).startswith(f"{name}({field}=")
