"""The benchmark's layer tracer still binds every call site it names.

``perfbench/tracing.py`` wraps package functions at the modules that call
them and refuses to install when a binding is gone.  Installing it here
makes a refactor that drops a traced call site fail the tests instead of
the traced benchmark run.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import radii
from radii import cli
from radii.families import Base
from radii.verify import VerifyConfig, run_verify

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
SRC = str(Path(radii.__file__).resolve().parents[1])

TINY = VerifyConfig(
    bessel_grid=(0.0, 0.5),
    struve_grid=(0.0, 0.5),
    lommel_grid=(0.5,),
    asymptotic_orders=(100.0,),
    zero_sum_cases=((Base.STRUVE, 0.0),),
    pole_pairs=((0.0, 0.5),),
    pole_limit_orders=(0.5,),
)


def load_tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def bound_functions(tracing):
    return {
        (site, name): getattr(importlib.import_module(site), name.split(".", 1)[1], None)
        for name, (_, sites) in tracing.BINDINGS.items()
        for site in sites
    }


def test_tracer_installs_counts_and_uninstalls():
    tracing = load_tracing()
    before = bound_functions(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        report = run_verify(TINY)
    finally:
        tracer.uninstall()
    assert all(fn is before[key] for key, fn in bound_functions(tracing).items())
    calls = tracing.SpanSet(tracer.spans).calls
    assert report.passed
    assert calls["roots.base_function_zeros"] == 1  # shared by zero sums and pole pairs
    assert calls["roots.find_radius"] > 0
    assert calls["sums.radius_bracket"] > 0
    assert calls["basefuncs.struve_h"] > 0


def test_tracer_sees_the_cli_verify_call(capsys):
    # cli resolves run_verify lazily; its handler must still call it through
    # the module attribute the tracer wraps, or the span below is missing
    tracing = load_tracing()
    before = bound_functions(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", "--only", "const", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out
    assert all(fn is before[key] for key, fn in bound_functions(tracing).items())
    spans = tracing.SpanSet(tracer.spans, tracer.counts)
    assert spans.calls["verify.run_verify"] == 1
    assert spans.counts["verify.claims"] == 5


def test_fresh_traced_cli_run_records_one_radius_span():
    # perfbench/traced_cli.py's steps in a fresh interpreter: nothing in radii
    # is resolved before install, so a lazily bound alias would be wrapped
    # twice (once at roots, once through it) and outlive uninstall.
    script = f"""
import importlib, sys
sys.path[:0] = [{SRC!r}, {PERFBENCH!r}]
import radii.cli
from tracing import BINDINGS, SpanSet, Tracer
tracer = Tracer()
tracer.install()
try:
    code = radii.cli.main(["radius", "--family", "bessel-circle", "--param", "0.3", "--format", "csv"])
finally:
    tracer.uninstall()
restored = True
for name, (home, sites) in BINDINGS.items():
    attr = name.split(".", 1)[1]
    original = getattr(importlib.import_module(home), attr)
    restored &= not hasattr(original, "__wrapped__")
    restored &= all(getattr(importlib.import_module(site), attr) is original for site in sites)
print(code, SpanSet(tracer.spans).calls["roots.find_radius"], restored)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("family,parameter,radius")
    assert lines[-1] == "0 1 True"
