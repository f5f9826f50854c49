"""Machine-checkable claim suite for every quantitative statement shipped.

Each claim becomes a :class:`VerificationOutcome` with a stable id.  Ids are
dot-separated, keyed by what is being asserted rather than where it came
from, so filters compose naturally:

    bracket.<family>.k<k>.<source>   radius strictly inside the enclosure
    chain.<family>.<source>.<side>   enclosures improve monotonically with k
    crude.<family>                   radius below the cheap a-priori bound
    ceiling.<family>                 radius below the function's first zero
    const.*                          pinned special values
    asym.*                           large-order behaviour
    mono.* / cross.*                 monotonicity in the parameter and
                                     between families
    zerosum.<base>.*                 20-zero partial Rayleigh sums
    mle.*                            pole-expansion identity spot checks

Claims come in the group order of :data:`GROUPS` and, inside a group, in
the config's grid order; every number is a pure function of the config, so
two runs of the same suite render byte-identically.  An ``only`` prefix
skips the facts behind the claims it drops, not just their rows.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import OrderError
from .families import Base, Family, Kind
from .basefuncs import struve_h
from .roots import (
    MAX_ZERO_INDEX,
    RadiusReport,
    _bisect,
    base_function_zeros,
    circle_solution,
    find_first_function_zero,
    find_radius,
    scan_window,
    zeros_from_solution,
)
from .sums import SumSource, crude_upper_bound, first_rayleigh_zero_sum, power_sums, radius_bracket

#: Default tolerances by claim-id prefix.  Entries marked (rel) multiply a
#: claim-specific scale; the rest are absolute.  One-sided interval claims
#: carry tolerance 0.
TOLERANCES: tuple[tuple[str, float], ...] = (
    ("const.struve-circle.radius-at-minus-half", 1e-10),
    ("const.struve-circle.radius-at-half", 1e-7),
    ("const.struve-circle.halfpi-order", 1e-9),
    ("const.bessel-circle.radius-at-half", 1e-10),
    ("asym.bessel-sqrt.ratio", 10.0),  # (rel) times 1/nu^2
    ("asym.bessel-circle.square", 10.0),  # (rel) times 1/nu
    ("chain", 1e-14),  # slack for monotone-improvement steps
    ("mono.struve-circle.max-at-half", 1e-12),
    ("mle.limit", 1e-6),
    ("mle", 0.02),  # (rel) times |expected|
)

HALF_PI = math.pi / 2.0

#: Pinned expected values for the special-constant claims.
RADIUS_STRUVE_AT_HALF = 2.33112237
HALF_PI_CROSSING_ORDER = -0.4935034122


class VerificationOutcome(NamedTuple):
    """One checked claim: measured value against its expected enclosure."""

    claim_id: str
    family: str
    parameter: float | None
    measured: float
    expected_low: float
    expected_high: float
    tolerance: float
    passed: bool
    note: str = ""


class VerifyReport(NamedTuple):
    outcomes: tuple[VerificationOutcome, ...]

    @property
    def failed(self) -> tuple[VerificationOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.passed)

    @property
    def passed(self) -> bool:
        return not self.failed


class InterlacingReport(NamedTuple):
    """Zeros of the two derivative combinations at one Struve order.

    ``struve_zeros`` solve x H' - nu H = 0, ``bessel_zeros`` solve
    x J' - nu J = 0 (equivalently, they are the zeros of the first
    derivative of the respective circle-normalized quotient by x).  Whether
    these strictly interlace is an open question; the report is numerical
    evidence, not proof.
    """

    nu: float
    count: int
    struve_zeros: tuple[float, ...]
    bessel_zeros: tuple[float, ...]
    merged: tuple[tuple[float, str], ...]
    strict: bool
    note: str


class VerifyConfig(NamedTuple):
    """Grids, sample points and overrides driving one verify run."""

    bessel_grid: tuple[float, ...]
    struve_grid: tuple[float, ...]
    lommel_grid: tuple[float, ...]
    asymptotic_orders: tuple[float, ...]
    zero_sum_cases: tuple[tuple[Base, float], ...]
    pole_pairs: tuple[tuple[float, float], ...]
    pole_limit_orders: tuple[float, ...]
    only: str = ""
    tolerance_overrides: tuple[tuple[str, float], ...] = ()


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(lo + (hi - lo) * (i / (n - 1)) for i in range(n))


def default_config(
    only: str = "", tolerance_overrides: tuple[tuple[str, float], ...] = ()
) -> VerifyConfig:
    """The stock suite: 50-point grids per base, desk-scale spot checks.

    The zero-sum and pole-expansion sample points sit where the 20-zero
    Rayleigh tail is provably inside 5% and all base-function zeros are
    simple (Struve orders near 1/2 produce double zeros and are excluded).
    """
    return VerifyConfig(
        bessel_grid=_grid(-0.9, 9.0, 50),
        struve_grid=_grid(-0.5, 0.5, 50),
        lommel_grid=_grid(-0.9, -0.05, 25) + _grid(0.05, 0.9, 25),
        asymptotic_orders=(100.0, 300.0, 1000.0),
        zero_sum_cases=(
            (Base.BESSEL, 0.0),
            (Base.BESSEL, 0.5),
            (Base.BESSEL, 1.0),
            (Base.STRUVE, -0.5),
            (Base.STRUVE, -0.25),
            (Base.STRUVE, 0.0),
            (Base.LOMMEL, -0.5),
            (Base.LOMMEL, 0.25),
            (Base.LOMMEL, 0.5),
        ),
        pole_pairs=(
            (-0.5, 0.5),
            (-0.5, 1.0),
            (-0.5, 2.0),
            (-0.25, 0.7),
            (-0.25, 1.8),
            (0.0, 0.5),
            (0.0, 1.3),
            (0.0, 2.6),
            (0.25, 0.9),
            (0.25, 2.2),
        ),
        pole_limit_orders=(-0.5, 0.0, 0.5),
        only=only,
        tolerance_overrides=tuple(tolerance_overrides),
    )


def grid_for(config: VerifyConfig, family: Family) -> tuple[float, ...]:
    return {
        Base.BESSEL: config.bessel_grid,
        Base.STRUVE: config.struve_grid,
        Base.LOMMEL: config.lommel_grid,
    }[family.base]


def _longest_prefix(table, claim_id: str, default: float) -> float:
    """Value of the longest prefix in ``table`` that starts claim_id, else default."""
    matches = [(prefix, value) for prefix, value in table if claim_id.startswith(prefix)]
    return max(matches, key=lambda m: len(m[0]))[1] if matches else default


def _tolerance(config: VerifyConfig, claim_id: str, scale: float = 1.0) -> float:
    """Tolerance for a claim: the longest matching ``--tol`` override prefix
    wins; otherwise the longest matching TOLERANCES entry times ``scale``
    (0 when no entry matches)."""
    default = _longest_prefix(TOLERANCES, claim_id, 0.0) * scale
    return _longest_prefix(config.tolerance_overrides, claim_id, default)


def _within(
    config: VerifyConfig,
    claim_id: str,
    family: str,
    parameter: float | None,
    measured: float,
    expected: float,
    tol_scale: float = 1.0,
    note: str = "",
) -> VerificationOutcome:
    tol = _tolerance(config, claim_id, tol_scale)
    ok = math.isfinite(measured) and abs(measured - expected) <= tol
    return VerificationOutcome(
        claim_id, family, parameter, measured, expected - tol, expected + tol, tol, ok, note
    )


def _inside(
    claim_id: str,
    family: str,
    parameter: float | None,
    measured: float,
    lo: float,
    hi: float,
    note: str = "",
) -> VerificationOutcome:
    ok = math.isfinite(measured) and lo < measured < hi
    return VerificationOutcome(claim_id, family, parameter, measured, lo, hi, 0.0, ok, note)


def _wants(config: VerifyConfig, prefix: str) -> bool:
    """Whether some claim id starting with ``prefix`` can pass the filter."""
    return prefix.startswith(config.only) or config.only.startswith(prefix)


def _note_for(report: RadiusReport) -> str:
    parts = []
    if report.extended_domain:
        parts.append("extended domain")
    if report.narrow_bracket:
        parts.append("narrow bracket")
    return "; ".join(parts)


def _check_grid(config: VerifyConfig, radius, zero_table):
    """Per grid point: brackets, chains, crude bound, ceiling.  Each kind's
    facts (ledgers, crude bound, first zero) are computed only when the
    filter keeps that kind for the family.  Both kinds of a base share one
    first zero per parameter, the sqrt kind's being its square."""
    first_zero = functools.cache(find_first_function_zero)  # keyed by the circle family
    for family in Family:
        name = family.value
        bracket, chain, crude, ceiling = (
            _wants(config, f"{kind}.{name}") for kind in ("bracket", "chain", "crude", "ceiling")
        )
        if not (bracket or chain or crude or ceiling):
            continue
        for p in grid_for(config, family):
            rep = radius(family, p)
            note = _note_for(rep)
            r = rep.radius
            if bracket or chain:
                closed_sums = power_sums(family, p, 4, SumSource.CLOSED_FORM)
                newton_sums = power_sums(family, p, 7, SumSource.NEWTON_RECURRENCE)
                closed = [closed_sums.bracket(k) for k in (1, 2, 3)]
                newton = [newton_sums.bracket(k) for k in range(1, 7)]
            if bracket:
                for b in closed:
                    yield _inside(f"bracket.{name}.k{b.k}.closed", name, p, r, b.lower, b.upper, note)
                for b in newton[3:]:
                    yield _inside(f"bracket.{name}.k{b.k}.newton", name, p, r, b.lower, b.upper, note)
            if chain:
                for source, seq in (("closed", closed), ("newton", newton)):
                    lowers = [b.lower for b in seq]
                    uppers = [b.upper for b in seq]
                    worst_lo = min(b - a for a, b in zip(lowers, lowers[1:]))
                    worst_up = min(a - b for a, b in zip(uppers, uppers[1:]))
                    slack = _tolerance(config, f"chain.{name}")
                    yield _inside(f"chain.{name}.{source}.lower", name, p, worst_lo, -slack, math.inf, note)
                    yield _inside(f"chain.{name}.{source}.upper", name, p, worst_up, -slack, math.inf, note)
            if crude:
                yield _inside(f"crude.{name}", name, p, r, 0.0, crude_upper_bound(family, p), note)
            if ceiling:
                zero = first_zero(family.base.circle, p)
                if family.kind is Kind.SQRT:
                    zero *= zero
                yield _inside(f"ceiling.{name}", name, p, r, 0.0, zero, note)


def solve_half_pi_crossing_order() -> float:
    """Struve order at which the order-2 lower bound crosses pi/2.

    Below this order the circle-normalized Struve radius provably sits under
    pi/2; re-solving the crossing from the closed forms reproduces the pinned
    constant.
    """
    g = lambda v: radius_bracket(Family.STRUVE_CIRCLE, v, 2, SumSource.CLOSED_FORM).lower - HALF_PI
    crossing, _ = _bisect(g, -0.5, -0.45, g(-0.5), xtol=1e-15, rtol=0.0)
    return crossing


def _check_constants(config: VerifyConfig, radius, zero_table):
    sc = Family.STRUVE_CIRCLE.value
    bc = Family.BESSEL_CIRCLE.value
    yield _within(
        config,
        "const.struve-circle.radius-at-minus-half",
        sc,
        -0.5,
        radius(Family.STRUVE_CIRCLE, -0.5).radius,
        HALF_PI,
        note="reduces to the sine function",
    )
    yield _within(
        config,
        "const.struve-circle.radius-at-half",
        sc,
        0.5,
        radius(Family.STRUVE_CIRCLE, 0.5).radius,
        RADIUS_STRUVE_AT_HALF,
        note="root of z sin z = 1 - cos z",
    )
    crossing = solve_half_pi_crossing_order()
    yield _within(
        config,
        "const.struve-circle.halfpi-order",
        sc,
        None,
        crossing,
        HALF_PI_CROSSING_ORDER,
        note="order-2 lower bound crosses pi/2 here",
    )
    yield _inside(
        "const.struve-circle.halfpi-order.radius-above",
        sc,
        crossing,
        radius(Family.STRUVE_CIRCLE, crossing).radius,
        HALF_PI,
        math.inf,
        note="radius exceeds its own lower bound at the crossing",
    )
    yield _within(
        config,
        "const.bessel-circle.radius-at-half",
        bc,
        0.5,
        radius(Family.BESSEL_CIRCLE, 0.5).radius,
        HALF_PI,
        note="reduces to the sine function",
    )


def _check_asymptotics(config: VerifyConfig, radius, zero_table):
    for nu in config.asymptotic_orders:
        tag = f"nu{nu:g}"
        r_sqrt = radius(Family.BESSEL_SQRT, nu).radius
        yield _within(
            config,
            f"asym.bessel-sqrt.ratio.{tag}",
            Family.BESSEL_SQRT.value,
            nu,
            r_sqrt / (4.0 * (nu + 1.0)),
            1.0 - 1.0 / nu,
            tol_scale=1.0 / (nu * nu),
        )
        r_circ = radius(Family.BESSEL_CIRCLE, nu).radius
        yield _within(
            config,
            f"asym.bessel-circle.square.{tag}",
            Family.BESSEL_CIRCLE.value,
            nu,
            r_circ * r_circ / nu,
            2.0,
            tol_scale=1.0 / nu,
        )


def _check_monotonicity(config: VerifyConfig, radius, zero_table):
    radii = [radius(Family.BESSEL_SQRT, p).radius for p in config.bessel_grid]
    if len(radii) >= 2:  # an increment needs two grid points
        yield _inside(
            "mono.bessel-sqrt.increasing",
            Family.BESSEL_SQRT.value,
            None,
            min(b - a for a, b in zip(radii, radii[1:])),
            0.0,
            math.inf,
            note="smallest consecutive increment over the grid",
        )
    for p in config.struve_grid:
        r_v = radius(Family.STRUVE_CIRCLE, p).radius
        r_phi = radius(Family.BESSEL_CIRCLE, p).radius
        yield _inside(
            "cross.struve-circle.above-bessel",
            Family.STRUVE_CIRCLE.value,
            p,
            r_v - r_phi,
            0.0,
            math.inf,
        )
        r_w = radius(Family.STRUVE_SQRT, p).radius
        r_psi = radius(Family.BESSEL_SQRT, p).radius
        yield _inside(
            "cross.struve-sqrt.above-bessel",
            Family.STRUVE_SQRT.value,
            p,
            r_w - r_psi,
            0.0,
            math.inf,
        )
    if not config.struve_grid:
        return
    r_half = radius(Family.STRUVE_CIRCLE, 0.5).radius
    worst_gap = min(r_half - radius(Family.STRUVE_CIRCLE, p).radius for p in config.struve_grid)
    slack = _tolerance(config, "mono.struve-circle.max-at-half")
    yield _inside(
        "mono.struve-circle.max-at-half",
        Family.STRUVE_CIRCLE.value,
        0.5,
        worst_gap,
        -slack,
        math.inf,
        note="numerical check only",
    )


def _check_zero_sums(config: VerifyConfig, radius, zero_table):
    for base, p in config.zero_sum_cases:
        zeros = zero_table(base, p, MAX_ZERO_INDEX)
        partial = math.fsum(1.0 / (z * z) for z in zeros)
        closed = first_rayleigh_zero_sum(base, p)
        yield _inside(
            f"zerosum.{base.value}.partial-below",
            base.value,
            p,
            partial,
            0.0,
            closed,
            note=f"first {MAX_ZERO_INDEX} zeros",
        )
        yield _inside(
            f"zerosum.{base.value}.tail-within",
            base.value,
            p,
            partial / closed,
            0.95,
            1.0,
            note="partial over closed form",
        )


def _pole_expansion_sides(nu: float, z: float, zeros: tuple[float, ...]) -> tuple[float, float]:
    """(left, right) sides of the pole expansion of the Struve quotient.

    Left: H_(nu-1)(z) / (z H_nu(z)) - (2 nu + 1)/z^2, from direct series.
    Right: sum of 2/(z^2 - h_n^2) over computed zeros plus a tail bracket
    from the first Rayleigh sum, weighted by the worst-case pole factor at
    the last computed zero.
    """
    left = struve_h(nu - 1.0, z) / (z * struve_h(nu, z)) - (2.0 * nu + 1.0) / (z * z)
    partial = math.fsum(1.0 / (h * h) for h in zeros)
    total = first_rayleigh_zero_sum(Base.STRUVE, nu)
    z2 = z * z
    main = math.fsum(2.0 / (z2 - h * h) for h in zeros)
    last = zeros[-1]
    tail = -2.0 * (total - partial) * (1.0 + z2 / (last * last - z2))
    return left, main + tail


def _check_pole_expansion(config: VerifyConfig, radius, zero_table):
    for nu, z in config.pole_pairs:
        left, right = _pole_expansion_sides(nu, z, zero_table(Base.STRUVE, nu, MAX_ZERO_INDEX))
        yield _within(
            config,
            f"mle.struve.nu{nu:g}.z{z:g}",
            Base.STRUVE.value,
            nu,
            left,
            right,
            tol_scale=abs(right),
            note=f"z={z:g}; tail estimated from first Rayleigh sum",
        )
    for nu in config.pole_limit_orders:
        z0 = 1e-3
        left = struve_h(nu - 1.0, z0) / (z0 * struve_h(nu, z0)) - (2.0 * nu + 1.0) / (z0 * z0)
        expected = -2.0 * first_rayleigh_zero_sum(Base.STRUVE, nu)
        yield _within(
            config,
            f"mle.limit.nu{nu:g}",
            Base.STRUVE.value,
            nu,
            left,
            expected,
            note=f"small-argument limit at z={z0:g}",
        )


#: Claim groups in output order: the claim-id prefixes each can yield, and
#: its generator over (config, radius memo, zero-table memo).
GROUPS = (
    (("bracket", "chain", "crude", "ceiling"), _check_grid),
    (("const",), _check_constants),
    (("asym",), _check_asymptotics),
    (("mono", "cross"), _check_monotonicity),
    (("zerosum",), _check_zero_sums),
    (("mle",), _check_pole_expansion),
)


def run_verify(config: VerifyConfig | None = None) -> VerifyReport:
    """Run the claim suite described by the config and collect outcomes.

    Output order is the order of :data:`GROUPS`.  The ``only`` filter keeps
    claims whose id starts with the given prefix, and the facts behind the
    claims it drops are not computed: groups that cannot match are skipped,
    and the grid group computes ledgers, crude bounds and first zeros only
    for the kinds and families it keeps.

    Each fact is computed once per run: radii and base-function zero tables
    (shared by the zero-sum and pole-expansion groups) go through memos that
    live for this call only, and each grid point reads its nine enclosures
    from one closed-form and one Newton power-sum ledger.
    """
    if config is None:
        config = default_config()
    # per-run memos, built from the module globals at call time
    radius = functools.cache(find_radius)
    zero_table = functools.cache(base_function_zeros)
    return VerifyReport(
        tuple(
            outcome
            for prefixes, check in GROUPS
            if any(_wants(config, prefix) for prefix in prefixes)
            for outcome in check(config, radius, zero_table)
            if outcome.claim_id.startswith(config.only)
        )
    )


def explore_interlacing(nu: float, count: int = 8) -> InterlacingReport:
    """Numerically probe whether the two derivative-combination zero sets
    interlace at the given Struve order.

    Both combinations are sign-scanned on one Taylor continuation each (the
    zero engine of :mod:`radii.roots`, walked forward until it holds
    ``count`` zeros or passes the give-up point of
    :func:`radii.roots.scan_window`), which supplies value and slope
    together; the merged table and the strictness verdict are evidence for
    an open question, nothing more.
    """
    if not 1 <= count <= MAX_ZERO_INDEX:
        raise OrderError(f"interlacing table supports 1..{MAX_ZERO_INDEX} zeros, got {count}")
    nu = float(nu)
    notes: list[str] = []
    found: dict[str, tuple[float, ...]] = {}
    for label, base, combine in (
        ("struve", Base.STRUVE, lambda x, y: y[1]),
        ("bessel", Base.BESSEL, lambda x, y: x * y[1] - y[0]),
    ):
        steps = circle_solution(base, nu)
        zeros = zeros_from_solution(steps, combine, count, scan_window(base, nu, count)[2])
        if len(zeros) < count:
            notes.append(f"{label}: found only {len(zeros)} of {count} zeros")
        found[label] = tuple(zeros)
    merged = tuple(
        sorted(
            [(z, "struve") for z in found["struve"]] + [(z, "bessel") for z in found["bessel"]]
        )
    )
    strict = (
        len(found["struve"]) == count
        and len(found["bessel"]) == count
        and all(b[0] - a[0] > 1e-9 for a, b in zip(merged, merged[1:]))
        and all(a[1] != b[1] for a, b in zip(merged, merged[1:]))
    )
    notes.append("numerical evidence only")
    return InterlacingReport(
        nu=nu,
        count=count,
        struve_zeros=found["struve"],
        bessel_zeros=found["bessel"],
        merged=merged,
        strict=strict,
        note="; ".join(notes),
    )
