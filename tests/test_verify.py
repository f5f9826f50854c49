import collections
import math

import pytest

from radii import (
    DomainError,
    Family,
    OrderError,
    VerifyConfig,
    default_config,
    explore_interlacing,
    find_radius,
    run_verify,
)
from radii import verify
from radii.families import Base
from radii.roots import base_function_zeros
from radii.verify import (
    _grid,
    _pole_expansion_sides,
    grid_for,
    solve_half_pi_crossing_order,
)

# Trimmed-down suite used by most tests here; same structure as the default,
# two orders of magnitude fewer radius computations.
SMALL = VerifyConfig(
    bessel_grid=_grid(-0.5, 2.0, 5),
    struve_grid=_grid(-0.5, 0.5, 5),
    lommel_grid=(-0.5, -0.25, 0.25, 0.5),
    asymptotic_orders=(100.0,),
    zero_sum_cases=((Base.BESSEL, 0.0), (Base.STRUVE, 0.0), (Base.LOMMEL, 0.5)),
    pole_pairs=((0.0, 0.5), (-0.5, 1.0)),
    pole_limit_orders=(0.5,),
)


@pytest.fixture(scope="module")
def small_report():
    return run_verify(SMALL)


def count_with_prefix(report, prefix):
    return sum(o.claim_id.startswith(prefix) for o in report.outcomes)


def test_small_suite_passes_everywhere(small_report):
    assert small_report.passed
    assert small_report.failed == ()


def test_small_suite_group_counts(small_report):
    family_points = 2 * (5 + 5 + 4)  # each base grid serves two families
    assert count_with_prefix(small_report, "bracket.") == 6 * family_points
    assert count_with_prefix(small_report, "chain.") == 4 * family_points
    assert count_with_prefix(small_report, "crude.") == family_points
    assert count_with_prefix(small_report, "ceiling.") == family_points
    assert count_with_prefix(small_report, "const.") == 5
    assert count_with_prefix(small_report, "asym.") == 2
    assert count_with_prefix(small_report, "mono.") == 2
    assert count_with_prefix(small_report, "cross.") == 2 * 5
    assert count_with_prefix(small_report, "zerosum.") == 6
    assert count_with_prefix(small_report, "mle.") == 3


def test_suite_is_deterministic(small_report):
    again = run_verify(SMALL)
    assert again.outcomes == small_report.outcomes


def test_run_computes_each_ledger_and_zero_table_once(monkeypatch, small_report):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verify, "base_function_zeros", counting("zeros", verify.base_function_zeros))
    monkeypatch.setattr(verify, "power_sums", counting("ledgers", verify.power_sums))
    assert run_verify(SMALL).outcomes == small_report.outcomes
    family_points = 2 * (5 + 5 + 4)
    # three zero-sum cases, plus Struve -1/2 for the pole pairs: their
    # Struve order 0 reuses the zero-sum table
    assert calls["zeros"] == 4
    assert calls["ledgers"] == 2 * family_points  # one closed, one Newton


ONLY_PREFIXES = [
    "",
    *("bracket", "chain", "crude", "ceiling", "const", "asym", "mono", "cross", "zerosum", "mle"),
    "bracket.lommel",
    "chain.bessel-sqrt.newton",
    "crude.struve",
    "const.struve-circle.halfpi-order",
    "mle.limit",
]


@pytest.mark.parametrize("prefix", ONLY_PREFIXES)
def test_only_gives_the_full_run_filtered_by_prefix(small_report, prefix):
    report = run_verify(SMALL._replace(only=prefix))
    assert report.outcomes == tuple(
        o for o in small_report.outcomes if o.claim_id.startswith(prefix)
    )
    assert report.outcomes


# Facts computed per --only prefix on the default suite: radii, power-sum
# ledgers, first function zeros, crude bounds and zero tables.
GRID_ONLY = {"radii": 300, "ledgers": 0, "first_zeros": 0, "crude": 0, "zero_tables": 0}
FACTS_BY_PREFIX = {
    "": {"radii": 407, "ledgers": 600, "first_zeros": 150, "crude": 300, "zero_tables": 10},
    "crude": {**GRID_ONLY, "crude": 300},
    "bracket": {**GRID_ONLY, "ledgers": 600},
    "chain": {**GRID_ONLY, "ledgers": 600},
    "ceiling": {**GRID_ONLY, "first_zeros": 150},
    "bracket.lommel": {**GRID_ONLY, "radii": 100, "ledgers": 200},
}


@pytest.mark.parametrize("prefix", list(FACTS_BY_PREFIX))
def test_only_skips_the_facts_behind_dropped_claims(monkeypatch, prefix):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, attr in (
        ("radii", "find_radius"),
        ("ledgers", "power_sums"),
        ("first_zeros", "find_first_function_zero"),
        ("crude", "crude_upper_bound"),
        ("zero_tables", "base_function_zeros"),
    ):
        monkeypatch.setattr(verify, attr, counting(name, getattr(verify, attr)))
    assert run_verify(default_config(only=prefix)).outcomes
    assert {name: calls[name] for name in FACTS_BY_PREFIX[prefix]} == FACTS_BY_PREFIX[prefix]


def test_extended_domain_noted_on_negative_lommel_rows(small_report):
    flagged = [
        o
        for o in small_report.outcomes
        if o.family.startswith("lommel") and o.parameter is not None and o.parameter < 0
    ]
    assert flagged
    assert all("extended domain" in o.note for o in flagged if o.claim_id.startswith("bracket"))


def test_default_config_shape():
    config = default_config()
    assert len(config.bessel_grid) == 50
    assert config.bessel_grid[0] == -0.9
    assert config.bessel_grid[-1] == 9.0
    assert config.struve_grid[0] == -0.5
    assert config.struve_grid[-1] == 0.5
    assert len(config.lommel_grid) == 50
    assert all(abs(p) >= 0.05 for p in config.lommel_grid)
    assert config.asymptotic_orders == (100.0, 300.0, 1000.0)
    assert len(config.zero_sum_cases) == 9
    assert len(config.pole_pairs) == 10
    assert grid_for(config, Family.STRUVE_SQRT) == config.struve_grid


def test_only_filter_restricts_claim_ids():
    report = run_verify(default_config(only="const"))
    assert report.outcomes
    assert all(o.claim_id.startswith("const") for o in report.outcomes)
    assert len(report.outcomes) == 5
    assert report.passed


def test_tolerance_override_can_force_failures():
    report = run_verify(
        default_config(only="const", tolerance_overrides=(("const", 1e-18),))
    )
    assert not report.passed
    assert all(o.claim_id.startswith("const") for o in report.failed)
    # interval-style claims carry no tolerance and stay green
    assert any(o.passed for o in report.outcomes)


def test_half_pi_crossing_order_value():
    assert solve_half_pi_crossing_order() == pytest.approx(
        -0.49350341222992355, abs=5e-13
    )


def test_pole_expansion_left_side_matches_trigonometric_form():
    # At order -1/2 both Struve functions collapse to trig forms, giving the
    # quotient in closed form: (cos z - sin z / z) / (z sin z).
    zeros = base_function_zeros(Base.STRUVE, -0.5, 20)
    for z in (0.7, 1.0, 2.1):
        left, right = _pole_expansion_sides(-0.5, z, zeros)
        want = (math.cos(z) - math.sin(z) / z) / (z * math.sin(z))
        assert left == pytest.approx(want, rel=1e-12)
        assert left == pytest.approx(right, rel=0.02)


def test_interlacing_exploration_at_order_zero():
    report = explore_interlacing(0.0, count=6)
    assert report.strict
    assert len(report.struve_zeros) == 6
    assert len(report.bessel_zeros) == 6
    assert "numerical evidence only" in report.note
    # the second combination reduces to the higher-order Bessel zero set
    assert report.bessel_zeros[0] == pytest.approx(3.8317059702075123, abs=1e-8)
    assert report.bessel_zeros[1] == pytest.approx(7.0155866698156188, abs=1e-8)
    # the first combination's smallest zero is the radius itself
    radius = find_radius(Family.STRUVE_CIRCLE, 0.0).radius
    assert report.struve_zeros[0] == pytest.approx(radius, abs=1e-9)
    labels = [label for _, label in report.merged]
    assert all(a != b for a, b in zip(labels, labels[1:]))
    values = [z for z, _ in report.merged]
    assert values == sorted(values)


def test_interlacing_argument_validation():
    with pytest.raises(OrderError, match="1..20"):
        explore_interlacing(0.0, count=0)
    with pytest.raises(OrderError):
        explore_interlacing(0.0, count=21)
    with pytest.raises(DomainError):
        explore_interlacing(0.75)


@pytest.mark.parametrize(
    "grids,kept",
    [
        ({"bessel_grid": (0.5,)}, "mono.struve-circle.max-at-half"),
        ({"struve_grid": ()}, "mono.bessel-sqrt.increasing"),
    ],
    ids=["one-point-bessel-grid", "empty-struve-grid"],
)
def test_monotonicity_claims_need_grid_points(grids, kept):
    # a one-point grid has no increment and an empty grid no maximum; each
    # drops only the claim it cannot support
    report = run_verify(SMALL._replace(only="mono", **grids))
    assert [o.claim_id for o in report.outcomes] == [kept]
    assert report.passed
