import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from radii import cli, roots
from radii.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv_all_families(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--family", "all", "--param", "0.5", "--k", "3", "--format", "csv"
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "family,parameter,k,lower,upper,source"
    assert len(lines) == 1 + 6 * 3
    for line in lines[1:]:
        family, parameter, k, lower, upper, source = line.split(",")
        assert parameter == "0.5"
        assert source == "closed"
        assert float(lower) < float(upper)
    assert lines[1].startswith("bessel-circle,0.5,1,")


def test_bounds_csv_hand_checked_row(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "bessel-sqrt", "--param", "0", "--k", "1", "--format", "csv"
    )
    assert code == 0
    expected = "bessel-sqrt,0,1,%s,%s,closed" % (format(2.0, ".17g"), format(3.2, ".17g"))
    assert out.splitlines()[1] == expected


def test_bounds_both_sources_caps_closed_orders(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--family", "lommel-sqrt", "--param", "-0.5",
        "--k", "5", "--source", "both", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    closed = [r for r in rows if r[5] == "closed"]
    newton = [r for r in rows if r[5] == "newton"]
    assert [r[2] for r in closed] == ["1", "2", "3"]
    assert [r[2] for r in newton] == ["1", "2", "3", "4", "5"]


def test_bounds_text_format(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "struve-circle", "--param", "0.5")
    assert code == 0
    assert "family=struve-circle" in out
    assert "k=1" in out and "k=3" in out
    assert "lower=" in out and "upper=" in out


def test_bounds_rejects_order_beyond_source_limit(capsys):
    code, _, err = run_cli(capsys, "bounds", "--family", "bessel-circle", "--param", "0", "--k", "4")
    assert code == 2
    assert "--k must be in 1..3" in err
    # the order is checked before any sweep point, so no skip warnings come first
    code, out, err = run_cli(
        capsys, "bounds", "--family", "all", "--range", "0.6", "0.9", "0.1", "--k", "9"
    )
    assert (code, out) == (2, "")
    assert err == "error: --k must be in 1..3 for source 'closed', got 9\n"
    code, _, _ = run_cli(
        capsys, "bounds", "--family", "bessel-circle", "--param", "0", "--k", "4",
        "--source", "newton",
    )
    assert code == 0


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--family", "airy-circle", "--param", "0")
    assert code == 2
    assert "unknown family" in err
    assert "lommel-sqrt, all" in err
    # the family is checked before the order
    code, _, err = run_cli(capsys, "bounds", "--family", "nope", "--param", "0", "--k", "9")
    assert code == 2
    assert err.startswith("error: unknown family 'nope'")
    assert "--k" not in err


def test_radius_csv_header_and_sweep_warnings(capsys):
    code, out, err = run_cli(
        capsys,
        "radius", "--family", "struve-circle",
        "--range", "-0.75", "0.5", "0.25", "--format", "csv",
    )
    assert code == 0
    assert "warning: skipping" in err
    lines = out.splitlines()
    assert lines[0] == "family,parameter,radius,residual,iterations,lo3,hi3"
    assert len(lines) == 1 + 5  # -0.75 is outside the Struve domain
    first = lines[1].split(",")
    assert first[1] == "-0.5"
    assert float(first[2]) == pytest.approx(math.pi / 2.0, abs=1e-12)
    for line in lines[1:]:
        cells = line.split(",")
        radius, lo3, hi3 = float(cells[2]), float(cells[5]), float(cells[6])
        assert lo3 < radius < hi3
        assert int(cells[4]) <= 60


def test_inclusive_range_keeps_a_stop_that_stepping_overshoots(capsys):
    # -0.1 + 6*0.1 rounds to 0.5000000000000001, outside the Struve domain
    code, out, err = run_cli(
        capsys, "radius", "--family", "struve-circle", "--range", "-0.1", "0.5", "0.1",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 + 7
    assert lines[-1].split(",")[1] == "0.5"


def test_radius_single_invalid_parameter_fails_hard(capsys):
    code, _, err = run_cli(capsys, "radius", "--family", "bessel-circle", "--param", "-1")
    assert code == 2
    assert "nu > -1" in err


def test_all_points_invalid_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--family", "struve-circle", "--range", "0.6", "0.9", "0.1"
    )
    assert code == 2
    assert "no valid" in err


def test_range_validation(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--family", "bessel-circle", "--range", "0", "1", "-0.5"
    )
    assert code == 2
    assert "STEP" in err
    code, _, err = run_cli(
        capsys, "bounds", "--family", "bessel-circle", "--range", "1", "0", "0.5"
    )
    assert code == 2
    assert "below START" in err


@pytest.mark.parametrize(
    "bounds,name",
    [(("0", "1", "inf"), "STEP"), (("nan", "1", "0.1"), "START"), (("0", "inf", "0.1"), "STOP")],
)
def test_range_endpoints_must_be_finite(capsys, bounds, name):
    code, out, err = run_cli(capsys, "radius", "--family", "bessel-circle", "--range", *bounds)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: range {name} must be finite")
    assert "parameter nan" not in err


def test_range_point_count_is_capped_before_allocation(capsys, monkeypatch):
    # 10^9 + 1 points: refused at once instead of building the sweep
    code, out, err = run_cli(
        capsys, "radius", "--family", "bessel-circle", "--range", "0", "1", "1e-9"
    )
    assert code == 2
    assert out == ""
    assert f"more than {cli.MAX_SWEEP_POINTS} points" in err
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 5)
    argv = ("bounds", "--family", "bessel-sqrt", "--k", "1", "--format", "csv", "--range")
    code, out, _ = run_cli(capsys, *argv, "0", "0.4", "0.1")
    assert code == 0
    assert len(out.splitlines()) == 1 + 5
    code, _, err = run_cli(capsys, *argv, "0", "0.5", "0.1")
    assert code == 2
    assert "more than 5 points" in err


def test_unconverged_bisection_is_numeric_error(capsys, monkeypatch):
    monkeypatch.setattr(roots, "MAX_BISECT", 5)
    code, out, err = run_cli(capsys, "radius", "--family", "bessel-circle", "--param", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not converged" in err


def test_tight_term_budget_is_numeric_error(capsys, monkeypatch):
    monkeypatch.setenv("RADII_MAX_TERMS", "9")
    code, _, err = run_cli(capsys, "radius", "--family", "bessel-sqrt", "--param", "200")
    assert code == 3
    assert "stopping rule not met within 9 terms" in err


def test_infinite_parameter_is_domain_error(capsys):
    for value in ("inf", "-inf"):
        code, _, err = run_cli(capsys, "radius", "--family", "bessel-circle", "--param", value)
        assert code == 2
        assert "not finite" in err
    code, _, err = run_cli(capsys, "bounds", "--family", "all", "--param", "inf")
    assert code == 2
    assert "no valid" in err


@pytest.mark.parametrize("command", ["radius", "bounds"])
def test_negative_exponent_literal_is_a_value(capsys, command):
    spaced = run_cli(capsys, command, "--family", "bessel-circle", "--param", "-1e-3", "--format", "csv")
    joined = run_cli(capsys, command, "--family", "bessel-circle", "--param=-1e-3", "--format", "csv")
    assert spaced == joined
    assert spaced[0] == 0
    assert "bessel-circle,-0.001," in spaced[1]


def test_negative_exponent_range_start(capsys):
    code, out, err = run_cli(
        capsys, "radius", "--family", "bessel-circle", "--range", "-1e-3", "0", "0.001",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 2


def test_explore_interlace_accepts_negative_exponent_order(capsys):
    spaced = run_cli(capsys, "explore-interlace", "--nu", "-2.5e-1", "--count", "2", "--format", "csv")
    assert spaced == run_cli(capsys, "explore-interlace", "--nu", "-0.25", "--count", "2", "--format", "csv")
    assert spaced[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("radius", "--family", "bessel-sqrt", "--param", "1e40"),
        ("bounds", "--family", "all", "--param", "1e300", "--k", "6", "--source", "both"),
        ("radius", "--family", "bessel-sqrt", "--param", "1e60"),
        ("radius", "--family", "bessel-sqrt", "--param", "1e80"),
        ("radius", "--family", "bessel-circle", "--param", "1e150"),
        ("bounds", "--family", "bessel-circle", "--param", "1e100", "--k", "6", "--source", "newton"),
        ("bounds", "--family", "bessel-circle", "--param", "1e150"),
    ],
    ids=["zero-division", "overflow", "sqrt-1e60", "sqrt-1e80", "circle-1e150", "newton-1e100",
         "bounds-1e150"],
)
def test_float_arithmetic_failure_is_numeric_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    family = "bessel-circle" if argv[2] == "all" else argv[2]  # the first family fails first
    assert err == (
        f"error: {family}: binary64 power sums overflow or underflow at parameter {float(argv[4])!r}\n"
    )


def test_verify_only_const_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "const", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "verify"
    rows = payload["rows"]
    assert len(rows) == 5
    for row in rows:
        assert row["claim_id"].startswith("const")
        assert row["passed"] is True
    assert set(rows[0]) == {
        "claim_id", "family", "parameter", "measured",
        "expected_low", "expected_high", "tolerance", "passed", "note",
    }


def test_verify_unbounded_interval_sides(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "mono", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert any(row["expected_high"] is None for row in payload["rows"])
    code, out, _ = run_cli(capsys, "verify", "--only", "mono", "--format", "csv")
    assert code == 0
    assert ",inf," in out or out.rstrip().endswith("inf")


def test_verify_tolerance_override_fails_claims(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "const", "--tol", "const=1e-18")
    assert code == 1
    assert "FAIL" in out
    assert "of 5 claims passed" in out


def test_verify_failed_claims_written_to_out_file(capsys, tmp_path):
    target = tmp_path / "claims.txt"
    code, out, err = run_cli(
        capsys, "verify", "--only", "const", "--tol", "const=1e-18", "--out", str(target)
    )
    assert (code, out, err) == (1, "", "")
    assert "of 5 claims passed" in target.read_text(encoding="utf-8")


def test_verify_all_pass_summary_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "const")
    assert code == 0
    assert out.splitlines()[-1] == "all 5 claims passed"
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_verify_bad_tol_syntax(capsys):
    code, _, err = run_cli(capsys, "verify", "--tol", "const")
    assert code == 2
    assert "PREFIX=VALUE" in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_only_matching_nothing_is_usage_error(capsys, fmt):
    code, out, err = run_cli(capsys, "verify", "--only", "brackets", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: --only 'brackets' matches no claim id\n"


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_verify_tol_must_be_nonnegative(capsys, value):
    code, out, err = run_cli(capsys, "verify", "--only", "const", "--tol", f"const={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: --tol value in 'const={value}' must be >= 0\n"


def test_verify_infinite_tol_switches_checks_off(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "const", "--tol", "const=inf")
    assert code == 0
    assert "tol=inf" in out
    assert out.splitlines()[-1] == "all 5 claims passed"


def test_non_finite_cells_render_by_name():
    assert [cli._cell(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    row = {"a": math.nan, "b": 1.5}
    assert cli._render_csv(("a", "b"), [row]) == "a,b\nnan,1.5\n"
    assert cli._render_table_text([row], ("a", "b")) == "a=nan  b=1.5\n"


def test_verify_output_is_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--only", "const", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "verify", "--only", "const", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2


def test_explore_interlace_json(capsys):
    code, out, _ = run_cli(
        capsys, "explore-interlace", "--nu", "0", "--count", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "explore-interlace"
    row = payload["rows"][0]
    assert row["nu"] == 0.0
    assert row["count"] == 4
    assert len(row["struve_zeros"]) == 4
    assert len(row["bessel_zeros"]) == 4
    assert row["strict"] is True
    assert "numerical evidence only" in row["note"]


def test_explore_interlace_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "explore-interlace", "--nu", "0", "--count", "3")
    assert code == 0
    assert "interlacing: strict" in out
    code, out, _ = run_cli(
        capsys, "explore-interlace", "--nu", "0", "--count", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nu,index,source,zero"
    assert len(lines) == 1 + 6


def test_explore_interlace_default_orders(capsys):
    code, out, _ = run_cli(capsys, "explore-interlace", "--count", "2", "--format", "json")
    assert code == 0
    assert [row["nu"] for row in json.loads(out)["rows"]] == [-0.5, 0.0, 0.5]


def test_explore_interlace_count_bounds(capsys):
    code, _, err = run_cli(capsys, "explore-interlace", "--nu", "0", "--count", "25")
    assert code == 2
    assert "--count must be in 1..20" in err


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "radius", "--family", "bessel-circle", "--param", "0",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("family,parameter,radius,")
    assert "bessel-circle,0," in content


def test_unwritable_out_path_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "bounds", "--family", "bessel-circle", "--param", "0",
        "--out", str(tmp_path / "missing" / "rows.csv"),
    )
    assert code == 2
    assert "error:" in err


def test_unwritable_out_path_fails_before_any_work(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "run_verify", lambda config: calls.append(config))
    target = tmp_path / "missing" / "v.json"
    code, out, err = run_cli(capsys, "verify", "--format", "json", "--out", str(target))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error:") and str(target) in err


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "bounds" in out and "verify" in out
    assert main(["bounds", "--help"]) == 0


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def run_module(*argv):
    """``python -m radii.cli ARGV`` in a fresh interpreter: the script's exit path."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "radii.cli", *argv], capture_output=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "param, code", [("0.3", 0), ("-2", 2), ("1e60", 3)], ids=["ok", "domain", "numeric"]
)
def test_module_exit_codes(param, code):
    done = run_module("radius", "--family", "bessel-sqrt", "--param", param)
    assert done.returncode == code, done.stderr
    assert (done.stdout != b"") == (code == 0)
    assert (done.stderr == b"") == (code == 0)


def test_module_out_file_matches_stdout(tmp_path):
    argv = ("radius", "--family", "all", "--param", "0.25", "--format", "csv")
    target = tmp_path / "rows.csv"
    to_file = run_module(*argv, "--out", str(target))
    to_stdout = run_module(*argv)
    assert (to_file.returncode, to_file.stdout) == (0, b"")
    assert to_stdout.returncode == 0
    assert target.read_bytes() == to_stdout.stdout
    assert to_stdout.stdout.count(b"\n") == 7


def test_module_verify_json_is_complete(capsys):
    done = run_module("verify", "--only", "const", "--format", "json")
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert len(payload["rows"]) == 5
    code, out, _ = run_cli(capsys, "verify", "--only", "const", "--format", "json")
    assert done.stdout.decode() == out
