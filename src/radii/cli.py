"""Command line front end.

Four subcommands cover the library surface:

* ``bounds``   closed-form / Newton-recurrence enclosures of the radii
* ``radius``   bisection-refined radii with residual certification
* ``verify``   the full machine-checkable claim suite
* ``explore-interlace``  numerical zero tables for the open interlacing
  question

Each subcommand is one function, registered on its subparser, that reads the
parsed arguments and returns its columns, rows, text renderer and exit code;
``main`` renders the result once.

Output formats are text (default), csv and json.  CSV columns are fixed and
floats carry 17 significant digits; JSON output is ``{"schema_version": 1,
"command": ..., "rows": [...]}`` with keys matching the CSV columns.

Exit codes: 0 success, 1 verify ran and some claim failed, 2 usage or domain
error, 3 numerical failure (series truncation, lost root or float overflow).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from .errors import DomainError, OrderError
from .families import Family, check_domain, family_from_cli_name
# eager: resolved lazily, this alias would bind a tracer's wrapper of roots.find_radius
from .roots import MAX_ZERO_INDEX, find_radius
from .series import MAX_TERMS_ENV
from .sums import MAX_CLOSED_BRACKET, MAX_NEWTON_BRACKET, SumSource, radius_bracket

EXIT_OK = 0
EXIT_CLAIMS_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

BOUNDS_COLUMNS = ("family", "parameter", "k", "lower", "upper", "source")
RADIUS_COLUMNS = ("family", "parameter", "radius", "residual", "iterations", "lo3", "hi3")
INTERLACE_COLUMNS = ("nu", "index", "source", "zero")

#: Largest number of parameters one --range sweep may hold.
MAX_SWEEP_POINTS = 1_000_000

_FAMILY_GUIDE = """\
families (normalizations of classical functions, f(0)=0, f'(0)=1):
  bessel-circle   x^(1-nu) Bessel J_nu(x), scaled; order nu > -1
  bessel-sqrt     same with x -> sqrt(x) substituted; order nu > -1
  struve-circle   x^(-nu) Struve H_nu(x), scaled; -1/2 <= nu <= 1/2
  struve-sqrt     substituted variant; -1/2 <= nu <= 1/2
  lommel-circle   x^(1/2-mu) Lommel s_(mu-1/2,1/2)(x), scaled; 0 < |mu| < 1
  lommel-sqrt     substituted variant; 0 < |mu| < 1
'all' selects every family.  Sqrt-family radii are reported in the
substituted variable.

environment:
  %s   series term budget (default 400), read at call time

exit codes: 0 ok, 1 failed verify claims, 2 usage/domain error, 3 numerics
""" % MAX_TERMS_ENV


def __getattr__(name: str):
    # radii.verify loads on first use; handlers call it through the module, where a tracer wraps it
    if name in ("VerificationOutcome", "default_config", "explore_interlacing", "run_verify"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _add_selection(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        required=True,
        metavar="NAME",
        help="one of %s, or 'all'" % ", ".join(f.value for f in Family),
    )
    pick = sub.add_mutually_exclusive_group(required=True)
    pick.add_argument("--param", type=float, help="single parameter value")
    pick.add_argument(
        "--range",
        nargs=3,
        type=float,
        metavar=("START", "STOP", "STEP"),
        help="inclusive parameter sweep of at most %d points; out-of-domain points are "
        "skipped with a warning" % MAX_SWEEP_POINTS,
    )


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Reads any float literal (``-1e-3``, ``-inf``) as a value, where argparse
    takes only ``-1``/``-0.5`` shapes; every option starts with ``--``, so none
    is ambiguous.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None  # a value, not an option


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radii",
        description="Radii of starlikeness of normalized Bessel, Struve and "
        "Lommel functions, with certified enclosures.",
        epilog=_FAMILY_GUIDE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser(
        "bounds",
        help="print enclosures of orders 1..k",
        description="Euler-Rayleigh enclosures lower < radius < upper for orders 1..k.",
    )
    _add_selection(bounds)
    bounds.add_argument("--k", type=int, default=3, help="highest enclosure order (default 3)")
    bounds.add_argument(
        "--source",
        choices=("closed", "newton", "both"),
        default="closed",
        help="closed forms (k <= %d), Newton recurrence (k <= %d), or both"
        % (MAX_CLOSED_BRACKET, MAX_NEWTON_BRACKET),
    )
    _add_output(bounds)
    bounds.set_defaults(run=_bounds)

    radius = sub.add_parser(
        "radius",
        help="compute radii by bracketed bisection",
        description="Radius of starlikeness, its equation residual, and the "
        "order-3 bracket used to certify it.",
    )
    _add_selection(radius)
    _add_output(radius)
    radius.set_defaults(run=_radius)

    verify = sub.add_parser(
        "verify",
        help="run the claim suite",
        description="Run every quantitative claim check; exit 1 if any fails.",
    )
    verify.add_argument("--only", default="", metavar="PREFIX", help="keep claims whose id starts with PREFIX")
    verify.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="PREFIX=VALUE",
        help="override the tolerance for claims whose id starts with PREFIX (repeatable)",
    )
    _add_output(verify)
    verify.set_defaults(run=_verify)

    explore = sub.add_parser(
        "explore-interlace",
        help="zero tables for the interlacing question",
        description="Tabulate zeros of the two derivative combinations at "
        "Struve orders and report whether they interlace strictly. "
        "Numerical evidence for an open question.",
    )
    explore.add_argument(
        "--nu",
        type=float,
        action="append",
        metavar="NU",
        help="Struve order; repeatable (default: -0.5 0.0 0.5)",
    )
    explore.add_argument("--count", type=int, default=8, help=f"zeros per combination (max {MAX_ZERO_INDEX})")
    _add_output(explore)
    explore.set_defaults(run=_interlace)
    return parser


def _points(args: argparse.Namespace):
    """Check the --family and --param/--range selection now; return its points lazily.

    The returned generator yields (family, parameter) pairs and checks each
    against its family's domain as it goes: a single explicitly requested
    pair fails hard, while sweeps and all-family selections skip invalid
    points with a warning on stderr.
    """
    try:
        families = tuple(Family) if args.family == "all" else (family_from_cli_name(args.family),)
    except DomainError as exc:
        raise DomainError(f"{exc}, all") from None
    if args.param is not None:
        return _valid_points(families, (float(args.param),), strict=len(families) == 1)
    lo, hi, step = args.range
    for name, value in zip(("START", "STOP", "STEP"), args.range):
        if not math.isfinite(value):
            raise DomainError(f"range {name} must be finite, got {value!r}")
    if step <= 0.0:
        raise DomainError(f"range STEP must be positive, got {step!r}")
    if hi < lo:
        raise DomainError(f"range STOP {hi!r} is below START {lo!r}")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also an overflowed span; checked before allocating
        raise DomainError(
            f"range {lo!r}..{hi!r} by {step!r} has more than "
            f"{MAX_SWEEP_POINTS} points; use a larger STEP"
        )
    n = int(math.floor(span)) + 1
    # lo + i*step can round past an included STOP; the sweep ends at STOP itself
    parameters = tuple(min(lo + i * step, hi) for i in range(n))
    return _valid_points(families, parameters, strict=False)


def _valid_points(families, parameters, strict: bool):
    emitted = False
    for family in families:
        for p in parameters:
            try:
                check_domain(family, p)
            except DomainError as exc:
                if strict:
                    raise
                print(f"warning: skipping {exc}", file=sys.stderr)
                continue
            emitted = True
            yield family, p
    if not emitted:
        raise DomainError("selection contains no valid (family, parameter) points")


def _bounds(args: argparse.Namespace):
    points = _points(args)
    limit = MAX_CLOSED_BRACKET if args.source == "closed" else MAX_NEWTON_BRACKET
    if not 1 <= args.k <= limit:
        raise DomainError(f"--k must be in 1..{limit} for source {args.source!r}, got {args.k}")
    sources = {
        "closed": (SumSource.CLOSED_FORM,),
        "newton": (SumSource.NEWTON_RECURRENCE,),
        "both": (SumSource.CLOSED_FORM, SumSource.NEWTON_RECURRENCE),
    }[args.source]
    rows = []
    for family, p in points:
        for source in sources:
            top = min(args.k, MAX_CLOSED_BRACKET) if source is SumSource.CLOSED_FORM else args.k
            for k in range(1, top + 1):
                b = radius_bracket(family, p, k, source)
                rows.append(
                    {
                        "family": family.value,
                        "parameter": p,
                        "k": k,
                        "lower": b.lower,
                        "upper": b.upper,
                        "source": source.value,
                    }
                )
    return BOUNDS_COLUMNS, rows, rows, lambda: _render_table_text(rows, BOUNDS_COLUMNS), EXIT_OK


def _radius(args: argparse.Namespace):
    rows = []
    for family, p in _points(args):
        rep = find_radius(family, p)
        rows.append(
            {
                "family": family.value,
                "parameter": p,
                "radius": rep.radius,
                "residual": rep.residual,
                "iterations": rep.iterations,
                "lo3": rep.bracket3.lower,
                "hi3": rep.bracket3.upper,
            }
        )
    return RADIUS_COLUMNS, rows, rows, lambda: _render_table_text(rows, RADIUS_COLUMNS), EXIT_OK


def _verify(args: argparse.Namespace):
    tol_overrides = []
    for item in args.tol:
        prefix, sep, value = item.partition("=")
        if not sep or not prefix:
            raise DomainError(f"--tol expects PREFIX=VALUE, got {item!r}")
        try:
            tol = float(value)
        except ValueError:
            raise DomainError(f"--tol value in {item!r} is not a number") from None
        if not tol >= 0.0:  # also NaN; inf switches the check off
            raise DomainError(f"--tol value in {item!r} must be >= 0")
        tol_overrides.append((prefix, tol))
    cli = sys.modules[__name__]
    report = cli.run_verify(cli.default_config(only=args.only, tolerance_overrides=tuple(tol_overrides)))
    if args.only and not report.outcomes:
        raise DomainError(f"--only {args.only!r} matches no claim id")
    rows = [o._asdict() for o in report.outcomes]
    code = EXIT_OK if report.passed else EXIT_CLAIMS_FAILED
    return cli.VerificationOutcome._fields, rows, rows, lambda: _render_verify_text(report), code


def _interlace(args: argparse.Namespace):
    if not 1 <= args.count <= MAX_ZERO_INDEX:
        raise DomainError(f"--count must be in 1..{MAX_ZERO_INDEX}, got {args.count}")
    explore = sys.modules[__name__].explore_interlacing
    reports = [explore(nu, args.count) for nu in args.nu or (-0.5, 0.0, 0.5)]
    rows = [
        {"nu": rep.nu, "index": index, "source": source, "zero": zero}
        for rep in reports
        for index, (zero, source) in enumerate(rep.merged, start=1)
    ]
    json_rows = [
        {
            "nu": rep.nu,
            "count": rep.count,
            "struve_zeros": list(rep.struve_zeros),
            "bessel_zeros": list(rep.bessel_zeros),
            "strict": rep.strict,
            "note": rep.note,
        }
        for rep in reports
    ]
    return INTERLACE_COLUMNS, rows, json_rows, lambda: _render_interlace_text(reports), EXIT_OK


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt17(value)  # also inf, -inf and nan
    if value is None:
        return ""
    return str(value)


def _render_csv(columns, rows) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buf.getvalue()


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None  # unbounded interval sides render as null
    return value


def _render_json(command: str, rows) -> str:
    import json
    payload = {
        "schema_version": 1,
        "command": command,
        "rows": [{k: _json_safe(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_table_text(rows, columns) -> str:
    lines = []
    for row in rows:
        lines.append("  ".join(f"{c}={_cell(row[c])}" for c in columns))
    return "\n".join(lines) + "\n" if lines else ""


def _render_verify_text(report) -> str:
    lines = []
    for o in report.outcomes:
        head = "PASS" if o.passed else "FAIL"
        par = "" if o.parameter is None else f"  param={_fmt17(o.parameter)}"
        note = f"  note={o.note}" if o.note else ""
        lines.append(
            f"{head} {o.claim_id}  family={o.family or '-'}{par}"
            f"  measured={_cell(o.measured)}"
            f"  expected=({_cell(o.expected_low)}, {_cell(o.expected_high)})"
            f"  tol={_cell(o.tolerance)}{note}"
        )
    n = len(report.outcomes)
    bad = len(report.failed)
    lines.append(f"{n - bad} of {n} claims passed" if bad else f"all {n} claims passed")
    return "\n".join(lines) + "\n"


def _render_interlace_text(reports) -> str:
    lines = []
    for rep in reports:
        verdict = "strict" if rep.strict else "NOT strict"
        lines.append(f"nu={_fmt17(rep.nu)}  first {rep.count} zeros per combination  interlacing: {verdict}")
        for index, (zero, source) in enumerate(rep.merged, start=1):
            lines.append(f"  {index:2d}. {_fmt17(zero):<24} {source}")
        lines.append(f"  note: {rep.note}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        # --out is opened before the work, so a path that cannot be written
        # fails at once; as with a shell redirection, the file is emptied even
        # if the command then fails.
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
        try:
            columns, rows, json_rows, render_text, code = args.run(args)
            if args.format == "csv":
                text = _render_csv(columns, rows)
            elif args.format == "json":
                text = _render_json(args.command, json_rows)
            else:
                text = render_text()
            out.write(text)
        finally:
            if out is not sys.stdout:
                out.close()
        return code
    except ArithmeticError as exc:  # series truncation, lost root, float overflow
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, OrderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def script_main():
    """The ``radii`` script and ``python -m radii.cli``: exit with main()'s code.
    Freezing first leaves the interpreter's exit-time collections nothing to
    traverse; main itself does not freeze, since tests call it in process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    script_main()
