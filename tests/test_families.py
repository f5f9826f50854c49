import math

import pytest

from radii import DomainError, Family, check_domain, is_extended_domain
from radii.families import Base, Kind, family_from_cli_name


def test_every_family_reports_base_and_kind():
    assert Family.BESSEL_CIRCLE.base is Base.BESSEL
    assert Family.BESSEL_SQRT.kind is Kind.SQRT
    assert Family.STRUVE_CIRCLE.kind is Kind.CIRCLE
    assert Family.LOMMEL_SQRT.base is Base.LOMMEL
    assert {f.value for f in Family} == {
        "bessel-circle",
        "bessel-sqrt",
        "struve-circle",
        "struve-sqrt",
        "lommel-circle",
        "lommel-sqrt",
    }


def test_cli_name_roundtrip():
    for family in Family:
        assert family_from_cli_name(family.value) is family


def test_unknown_cli_name_rejected():
    with pytest.raises(DomainError, match="unknown family"):
        family_from_cli_name("airy-circle")


@pytest.mark.parametrize(
    "family,parameter",
    [
        (Family.BESSEL_CIRCLE, -0.999),
        (Family.BESSEL_SQRT, 250.0),
        (Family.STRUVE_CIRCLE, -0.5),
        (Family.STRUVE_SQRT, 0.5),
        (Family.LOMMEL_CIRCLE, -0.999),
        (Family.LOMMEL_SQRT, 0.999),
    ],
)
def test_domain_accepts_interior_and_closed_edges(family, parameter):
    check_domain(family, parameter)


@pytest.mark.parametrize(
    "family,parameter",
    [
        (Family.BESSEL_CIRCLE, -1.0),
        (Family.BESSEL_SQRT, -1.5),
        (Family.STRUVE_CIRCLE, 0.5000001),
        (Family.STRUVE_SQRT, -0.6),
        (Family.LOMMEL_CIRCLE, 0.0),
        (Family.LOMMEL_CIRCLE, 1.0),
        (Family.LOMMEL_SQRT, -1.0),
        (Family.BESSEL_CIRCLE, math.inf),
        (Family.BESSEL_SQRT, -math.inf),
        (Family.STRUVE_CIRCLE, math.inf),
        (Family.LOMMEL_SQRT, -math.inf),
    ],
)
def test_domain_rejects_boundary_and_exterior(family, parameter):
    with pytest.raises(DomainError):
        check_domain(family, parameter)


def test_circle_family_of_each_base():
    assert {base: base.circle for base in Base} == {
        Base.BESSEL: Family.BESSEL_CIRCLE,
        Base.STRUVE: Family.STRUVE_CIRCLE,
        Base.LOMMEL: Family.LOMMEL_CIRCLE,
    }


def test_domain_error_names_the_valid_interval():
    with pytest.raises(DomainError, match=r"nu > -1"):
        check_domain(Family.BESSEL_CIRCLE, -2.0)
    with pytest.raises(DomainError, match=r"-1/2 <= nu <= 1/2"):
        check_domain(Family.STRUVE_SQRT, 0.7)
    with pytest.raises(DomainError, match=r"-1 < mu < 1, mu != 0"):
        check_domain(Family.LOMMEL_SQRT, 0.0)


def test_nan_parameter_rejected():
    for family in Family:
        with pytest.raises(DomainError):
            check_domain(family, math.nan)


def test_extended_domain_is_negative_lommel_only():
    assert is_extended_domain(Family.LOMMEL_CIRCLE, -0.25)
    assert is_extended_domain(Family.LOMMEL_SQRT, -0.9)
    assert not is_extended_domain(Family.LOMMEL_CIRCLE, 0.25)
    assert not is_extended_domain(Family.BESSEL_CIRCLE, -0.25)
    assert not is_extended_domain(Family.STRUVE_SQRT, -0.5)
