"""Benchmark for radii: three workloads, an untimed correctness gate, a traced census.

Run from the repository root:

    python3 perfbench/run.py --workload radius-mix --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, no threads):

* ``radius-mix``   in-process ``find_radius`` calls after a warm-up, round-robin
                   over the six families, parameters drawn from the seed
* ``verify-cold``  ``python -m radii.cli verify --format json``, one fresh
                   interpreter per invocation (the verify grids are fixed)
* ``cli-cold``     alternating one-point ``radius`` and ``bounds`` commands with
                   seeded family and parameter, one fresh interpreter each

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the traced census of all three workloads on fixed,
seed-drawn inputs and reports the per-layer metrics (README.md has the table
of which layer metric should move which end-to-end metric on which workload).
Timed end-to-end metrics are scaled by a frozen reference loop timed beside
them on the same CPU (refloop.py; README.md "Noise" says why and how).
Human-readable lines name every metric with its unit and sample count; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 2, without that line, means the
benchmark could not run at all (for instance, no radii source in the checkout).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import reduce
from itertools import count, islice, repeat
from pathlib import Path

from refloop import REF_CHILD, REF_CHILD_NOMINAL_S, scaled, time_reference
from tracing import SpanSet, TraceBindingError, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("radius-mix", "verify-cold", "cli-cold")
FAMILIES = (
    "bessel-circle",
    "bessel-sqrt",
    "struve-circle",
    "struve-sqrt",
    "lommel-circle",
    "lommel-sqrt",
)

SETUP_PROBES = 5  # fresh interpreters timed until `import radii` returns
IMPORT_PROBES = 3  # `python -X importtime` runs in the traced census
WARMUP_RADII = 120
#: radius-mix times passes over a fixed pool of this many distinct draws (400
#: per family, 2-4 s a pass at the seed code) until the run's time is up.  The
#: fixed pool makes `attempted` and `failed` the same on every run of a seed:
#: each draw is one operation, checked once.
POOL_DRAWS = 2400
#: One reference call (refloop.py) follows every REF_EVERY-th find_radius
#: call; each call is scaled by the median reference of its chunk of REF_CHUNK
#: consecutive calls (0.1-0.2 s, well inside one CPU state).
REF_EVERY = 2
REF_CHUNK = 100
#: While a child interpreter runs, this process times one reference call per
#: REF_GAP_S and otherwise sleeps, so the child keeps its vCPU to itself.
REF_GAP_S = 0.01
REFERENCE_DRAWS = 60  # pool draws also checked against mpmath
REFERENCE_RTOL = 1e-12
VERIFY_ROWS = 3744
MIN_INVOCATIONS = 2  # byte identity needs two verify outputs to compare
CHILD_TIMEOUT_S = 120
TRACE_RADII = 300
TRACE_CLI = 4

#: Gate failures that leave the returned value right: the radius agrees with
#: the reference but sits outside the bracket that claims to certify it.
CERTIFICATION_ONLY = {"containment"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Report:
    """Metrics, operation counts and gate failures of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.examples: list[str] = []

    def show(self, name: str, value: float, unit: str, detail: str = "") -> None:
        print(f"  {name:<34} {value:>16.6g} {unit:<12} {detail}".rstrip())

    def metric(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.show(name, value, unit, detail)
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, kind: str, message: str) -> None:
        self.failures[kind] += 1
        if len(self.examples) < 10:
            self.examples.append(f"{kind}: {message}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return all(kind in CERTIFICATION_ONLY for kind in self.failures)

    def show_failures(self) -> None:
        ratio = self.failed / self.attempted if self.attempted else 0.0
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.failures.items())) or "none"
        detail = f"failed={self.failed} attempted={self.attempted} ({kinds})"
        self.show("failed_ratio", ratio, "ratio", detail)
        for line in self.examples:
            print(f"  gate: {line}", file=sys.stderr)


# --- inputs ---------------------------------------------------------------


def draw_parameter(rng: random.Random, family: str) -> float:
    """One parameter from the family's whole domain, edges included.

    Bessel orders reach down to within 1e-12 of -1 and up to 1e4, Lommel
    parameters approach 0 from both sides and both ends of (-1, 1), and a
    fifth of the Struve draws sit exactly on the closed ends +-1/2.
    """
    base = family.split("-")[0]
    r = rng.random()
    if base == "bessel":
        if r < 0.25:
            return -1.0 + 10.0 ** rng.uniform(-12.0, -1.0)
        if r < 0.75:
            return max(rng.uniform(-1.0, 10.0), math.nextafter(-1.0, 0.0))
        return 10.0 ** rng.uniform(1.0, 4.0)
    if base == "struve":
        if r < 0.2:
            return rng.choice((-0.5, 0.5))
        return rng.uniform(-0.5, 0.5)
    sign = rng.choice((-1.0, 1.0))
    if r < 0.25:
        return sign * 10.0 ** rng.uniform(-12.0, -1.0)
    if r < 0.4:
        return sign * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0))
    return sign * rng.uniform(0.1, 0.9)


def radius_draws(seed: str):
    """Endless (family, parameter) draws, round-robin over the families."""
    rng = random.Random(seed)
    for i in count():
        family = FAMILIES[i % len(FAMILIES)]
        yield family, draw_parameter(rng, family)


def cli_commands(seed: str):
    """Endless one-point commands: `radius` and `bounds --family all` in turn."""
    rng = random.Random(seed)
    for i in count():
        family = rng.choice(FAMILIES)
        param = f"--param={draw_parameter(rng, family)!r}"
        if i % 2 == 0:
            yield ("radius", "--family", family, param, "--format", "csv")
        else:
            yield ("bounds", "--family", "all", param, "--k", "6", "--source", "both",
                   "--format", "csv")


# --- processes ------------------------------------------------------------


def load_radii():
    init = SRC / "radii" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no radii package at {init}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import radii

    if Path(radii.__file__).resolve() != init.resolve():
        raise BenchError(f"imported radii from {radii.__file__}, expected {init}")
    return radii


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU.

    The test box's vCPUs change speed independently of each other, so a
    reference call measures the program's CPU only if both run on the same
    one.  A child shares the CPU with this process, which sleeps between
    reference calls while the child runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args, env) -> subprocess.CompletedProcess | None:
    """Run one child interpreter to completion; None if it had to be killed."""
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None


def run_child_sampled(args, env):
    """run_child, timing the reference loop here while the child runs.

    Returns the child's outcome as run_child gives it, its wall seconds, and
    the median reference call in nanoseconds over the same interval.
    """
    refs: list[int] = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    while True:
        try:
            stdout, stderr = proc.communicate(timeout=REF_GAP_S)
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                return None, time.perf_counter() - start, time_reference()
            refs.append(time_reference())
    wall = time.perf_counter() - start
    out = subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)
    return out, wall, statistics.median(refs or [time_reference()])


def reference_child_seconds(env) -> float:
    """Wall time of one start-up reference interpreter (refloop.REF_CHILD)."""
    start = time.perf_counter()
    out = run_child(REF_CHILD, env)
    if out is None or out.returncode != 0:
        raise BenchError(f"the reference interpreter failed: {out and out.stderr.decode()[-400:]}")
    return time.perf_counter() - start


def sampled_child(args, env):
    """A compute-bound child, scaled by the reference loop sampled beside it.

    Returns the outcome, wall seconds, scaled seconds and the median
    reference call in microseconds.
    """
    out, wall, ref = run_child_sampled(args, env)
    return out, wall, scaled(wall, ref), ref / 1e3


def start_up_child(args, env):
    """A child that is mostly interpreter start-up, scaled by the reference
    interpreter run just before it.

    Returns the outcome, wall seconds, scaled seconds and the reference
    interpreter's wall time in milliseconds.
    """
    ref = reference_child_seconds(env)
    start = time.perf_counter()
    out = run_child(args, env)
    wall = time.perf_counter() - start
    return out, wall, wall * REF_CHILD_NOMINAL_S / ref, ref * 1e3


def setup_seconds(env) -> tuple[float, float, float]:
    """Fresh interpreter start until `import radii` returns.

    Returns seconds, scaled seconds and the reference interpreter's
    milliseconds, as start_up_child does.
    """
    ref = reference_child_seconds(env)
    start = time.perf_counter()
    out = run_child(["-c", "import radii, time; print(time.perf_counter())"], env)
    if out is None or out.returncode != 0:
        raise BenchError(f"`import radii` failed in a child: {out and out.stderr.decode()[-400:]}")
    seconds = float(out.stdout) - start
    return seconds, seconds * REF_CHILD_NOMINAL_S / ref, ref * 1e3


def peak_child_rss_mb() -> float:
    """Largest resident set of any finished child (each child ran radii)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# --- correctness gate -----------------------------------------------------


def time_radii(radii, draws, deadline: float = math.inf, ref_every: int = 0):
    """find_radius over the draws until they or the deadline run out.

    Returns per-call nanoseconds, each call's outcome (its report, or the
    exception it raised) and, if ``ref_every``, (call index, reference ns)
    for a reference call after every ``ref_every``-th call.  Nothing is
    checked inside the timed loop.
    """
    families = {f.value: f for f in radii.Family}
    roots = radii.roots  # find_radius is looked up per call, where tracing wraps it
    clock = time.perf_counter_ns
    durations: list[int] = []
    outcomes: list = []
    refs: list[tuple[int, int]] = []
    for i, (family, p) in enumerate(draws):
        start = clock()
        try:
            out = roots.find_radius(families[family], p)
        except Exception as exc:  # counted by the gate; the run goes on
            out = exc
        durations.append(clock() - start)
        outcomes.append(out)
        if ref_every and i % ref_every == 0:
            refs.append((i, time_reference()))
        if time.perf_counter() >= deadline:
            break
    return durations, outcomes, refs


def scale_calls(durations, refs) -> list[float]:
    """Each call's nanoseconds at nominal speed, by its chunk's median reference."""
    chunks: dict[int, list[int]] = {}
    for i, ns in refs:
        chunks.setdefault(i // REF_CHUNK, []).append(ns)
    ref = {c: statistics.median(v) for c, v in chunks.items()}
    return [scaled(ns, ref[i // REF_CHUNK]) for i, ns in enumerate(durations)]


def gate_radii(draws, outcomes, report: Report, keep=frozenset()):
    """Count each outcome as one operation and check it.

    Returns {index: (family, parameter, radius)} for the indices in ``keep``,
    to be checked against the mpmath reference.
    """
    kept: dict[int, tuple[str, float, float]] = {}
    for i, ((family, p), out) in enumerate(zip(draws, outcomes)):
        report.attempted += 1
        if isinstance(out, Exception):
            report.fail("exception", f"find_radius({family}, {p!r}): {outcome_key(out)}")
            continue
        if not out.bracket3.lower < out.radius < out.bracket3.upper:
            report.fail(
                "containment",
                f"{family} {p!r}: radius {out.radius!r} outside "
                f"({out.bracket3.lower!r}, {out.bracket3.upper!r})",
            )
        if i in keep:
            kept[i] = (family, p, out.radius)
    return kept


def outcome_key(out) -> str:
    """Everything a find_radius call returned (or raised), for comparing calls."""
    return f"{type(out).__name__}: {out}" if isinstance(out, Exception) else repr(out)


def check_references(kept, report: Report) -> None:
    from reference import reference_radius

    for family, p, radius in kept.values():
        try:
            ref = reference_radius(family, p)
        except (ValueError, ArithmeticError) as exc:
            report.fail("reference", f"{family} {p!r}: no reference root: {exc}")
            continue
        if not abs(radius - ref) <= REFERENCE_RTOL * abs(ref):
            report.fail("reference", f"{family} {p!r}: radius {radius!r}, mpmath {ref!r}")


def check_verify_output(out, expected: bytes | None, report: Report) -> bytes | None:
    """Gate one verify invocation; returns its stdout if it passed, else None."""
    if out is None:
        report.fail("exit", "verify timed out")
        return None
    if out.returncode != 0:
        report.fail("exit", f"verify exited {out.returncode}: {out.stderr.decode()[-300:]}")
        return None
    try:
        doc = json.loads(out.stdout)
        shape = (doc["schema_version"], doc["command"], len(doc["rows"]))
    except (ValueError, KeyError, TypeError) as exc:
        report.fail("output", f"verify JSON unreadable: {exc}")
        return None
    if shape != (1, "verify", VERIFY_ROWS):
        report.fail("output", f"verify JSON: (schema, command, rows) = {shape}")
        return None
    if expected is not None and out.stdout != expected:
        report.fail("output", "verify output bytes differ between invocations")
        return None
    return out.stdout


def expected_cli_rows(radii, args) -> list[list]:
    """The library's own values for one one-point command, as CSV rows."""
    p = float(args[3].split("=", 1)[1])
    if args[0] == "radius":
        rep = radii.find_radius(radii.Family(args[2]), p)
        b = rep.bracket3
        return [[args[2], p, rep.radius, rep.residual, rep.iterations, b.lower, b.upper]]
    rows = []
    for family in radii.Family:
        try:
            radii.check_domain(family, p)
        except radii.DomainError:
            continue
        for source, top in ((radii.SumSource.CLOSED_FORM, 3), (radii.SumSource.NEWTON_RECURRENCE, 6)):
            for k in range(1, top + 1):
                b = radii.radius_bracket(family, p, k, source)
                rows.append([family.value, p, k, b.lower, b.upper, source.value])
    return rows


def parse_cli_csv(text: str) -> list[list]:
    lines = list(csv.reader(io.StringIO(text)))
    kinds = {"family": str, "source": str, "k": int, "iterations": int}
    header = lines[0]
    return [[kinds.get(col, float)(cell) for col, cell in zip(header, row)] for row in lines[1:]]


def check_cli_output(radii, args, out, report: Report) -> None:
    if out is None:
        report.fail("exit", f"{' '.join(args)} timed out")
        return
    if out.returncode != 0:
        report.fail("exit", f"{' '.join(args)} exited {out.returncode}: {out.stderr.decode()[-300:]}")
        return
    try:
        got = parse_cli_csv(out.stdout.decode())
    except (ValueError, IndexError) as exc:
        report.fail("output", f"{' '.join(args)}: CSV unreadable: {exc}")
        return
    if got != expected_cli_rows(radii, args):
        report.fail("output", f"{' '.join(args)}: CSV differs from the library's values")


# --- workloads ------------------------------------------------------------


def run_radius_mix(radii, seed, seconds, env, report: Report) -> None:
    time_radii(radii, islice(radius_draws(f"warmup:{seed}"), WARMUP_RADII), ref_every=REF_EVERY)
    pool = list(islice(radius_draws(f"radius-mix:{seed}"), POOL_DRAWS))
    keep = frozenset(random.Random(f"reference:{seed}").sample(range(POOL_DRAWS), REFERENCE_DRAWS))
    start = time.perf_counter()
    first, outcomes, refs = time_radii(radii, pool, ref_every=REF_EVERY)  # always completes
    calls, scaled_ns, repeats_differ = len(first), scale_calls(first, refs), set()
    ref_ns = [ns for _, ns in refs]
    while time.perf_counter() < start + seconds:
        durations, again, refs = time_radii(radii, pool, start + seconds, REF_EVERY)
        scaled_ns += scale_calls(durations, refs)
        ref_ns += [ns for _, ns in refs]
        calls += len(durations)
        repeats_differ.update(
            i for i, out in enumerate(again) if outcome_key(out) != outcome_key(outcomes[i])
        )
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kept = gate_radii(pool, outcomes, report, keep)
    for i in sorted(repeats_differ):
        report.fail("repeat", f"{pool[i][0]} {pool[i][1]!r}: a later pass returned something else")
    check_references(kept, report)

    us = sorted(d / 1e3 for d in first)
    p99, beyond = percentile(us, 0.99)
    n = len(us)
    passes = f"passes={calls / n:.2f}"
    report.show("radius_p50_us", statistics.median(us), "us", f"n={n} (first pass, no repeats)")
    report.show("radius_p99_us", p99, "us", f"n={n} above={beyond} (first pass)")
    report.show("radii_per_s", calls / wall, "1/s", f"n={calls} wall={wall:.3f}s {passes}")
    report.show("reference_checked", len(kept), "count", f"rtol={REFERENCE_RTOL:g}")
    report.show("reference_call_us", statistics.median(ref_ns) / 1e3, "us", f"n={len(ref_ns)}")
    report.metric("op_p50_scaled_ms", statistics.median(scaled_ns) / 1e6, "ms", f"n={calls} calls, {passes}")
    report.metric("peak_rss_mb", rss, "MB", "benchmark process")


def cold_loop(name, commands, child, seconds, env, report: Report):
    """Run each command in a fresh interpreter until the time is up.

    ``child`` is sampled_child or start_up_child.  Reports the timings and
    returns [(command, outcome)] for the gate.
    """
    done, walls, scaled_s, refs = [], [], [], []
    start = time.perf_counter()
    for args in commands:
        out, wall, scaled_wall, ref = child(["-m", "radii.cli", *args], env)
        done.append((args, out))
        walls.append(wall)
        scaled_s.append(scaled_wall)
        refs.append(ref)
        if len(done) >= MIN_INVOCATIONS and time.perf_counter() - start >= seconds:
            break
    total = time.perf_counter() - start

    n = len(walls)
    ref_name, ref_unit = REFERENCE_SHOWN[child]
    report.show(f"{name}_p50_s", statistics.median(walls), "s", f"n={n}")
    report.show(f"{name}_per_s", n / total, "1/s", f"n={n}")
    report.show(ref_name, statistics.median(refs), ref_unit, f"n={n}")
    report.metric("op_p50_scaled_ms", statistics.median(scaled_s) * 1e3, "ms", f"n={n} ({name} invocation)")
    report.metric("peak_rss_mb", peak_child_rss_mb(), "MB", "largest child")
    report.attempted += n
    return done


REFERENCE_SHOWN = {sampled_child: ("reference_call_us", "us"), start_up_child: ("reference_child_ms", "ms")}


def run_verify_cold(radii, seed, seconds, env, report: Report) -> None:
    done = cold_loop("verify", repeat(("verify", "--format", "json")), sampled_child, seconds, env, report)
    expected = None
    for _, out in done:
        got = check_verify_output(out, expected, report)
        expected = expected or got


def run_cli_cold(radii, seed, seconds, env, report: Report) -> None:
    done = cold_loop("cli", cli_commands(f"cli-cold:{seed}"), start_up_child, seconds, env, report)
    for args, out in done:
        check_cli_output(radii, args, out, report)


RUNNERS = {"radius-mix": run_radius_mix, "verify-cold": run_verify_cold, "cli-cold": run_cli_cold}


# --- traced census --------------------------------------------------------


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds in `import radii`, seconds in the scipy subtrees it imports).

    `-X importtime` prints children before their parent, indented two spaces
    per level; a scipy module's subtree is counted once, at its outermost
    scipy ancestor.
    """
    radii_us = None
    stack: list[tuple[int, int, int]] = []  # (level, subtree us, scipy us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # header
        level = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        subtree, scipy_us = int(self_us), 0
        while stack and stack[-1][0] > level:
            _, child, child_scipy = stack.pop()
            subtree += child
            scipy_us += child_scipy
        if name == "scipy" or name.startswith("scipy."):
            scipy_us = subtree
        stack.append((level, subtree, scipy_us))
        if name == "radii" and level == 0:
            radii_us = int(cumulative)
    if radii_us is None:
        raise BenchError("`-X importtime` output has no top-level radii entry")
    return radii_us / 1e6, sum(s for _, _, s in stack) / 1e6


def importtime_probe(env) -> tuple[float, float]:
    out = run_child(["-X", "importtime", "-c", "import radii"], env)
    if out is None or out.returncode != 0:
        raise BenchError("`python -X importtime -c 'import radii'` failed")
    return parse_importtime(out.stderr.decode())


def traced_children(commands, label: str, env):
    """Run each command through traced_cli.py; returns (outputs, SpanSet, wall s)."""
    SCRATCH.mkdir(exist_ok=True)
    outputs, sets = [], []
    start = time.perf_counter()
    for i, args in enumerate(commands):
        spans_file = SCRATCH / f"spans-{os.getpid()}-{label}-{i}.json"
        script = str(Path(__file__).with_name("traced_cli.py"))
        out = run_child([script, str(spans_file), f"{label}:{i}", "--", *args], env)
        outputs.append(out)
        if spans_file.exists():
            doc = json.loads(spans_file.read_text())
            spans_file.unlink()
            sets.append(SpanSet(doc["spans"], doc["counts"]))
    wall = time.perf_counter() - start
    return outputs, reduce(SpanSet.merge, sets, SpanSet([])), wall


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_traced_census(radii, seed, env, report: Report) -> None:
    """Every workload on fixed inputs: untraced once, traced twice.

    The two traced passes must record identical counts; the first pass's
    spans feed the per-layer metrics and are written to .perfbench/spans.jsonl.
    """
    imports = [importtime_probe(env) for _ in range(IMPORT_PROBES)]

    # radius-mix: in process
    draws = list(islice(radius_draws(f"radius-mix:{seed}"), TRACE_RADII))
    time_radii(radii, islice(radius_draws(f"warmup:{seed}"), WARMUP_RADII))
    keep = frozenset(range(0, TRACE_RADII, TRACE_RADII // 12))
    t0 = time.perf_counter()
    _, outcomes, _ = time_radii(radii, draws)
    radius_untraced = time.perf_counter() - t0
    check_references(gate_radii(draws, outcomes, report, keep), report)
    radius_sets, radius_traced = [], None
    for label in ("a", "b"):
        tracer = Tracer()
        tracer.run_id = f"radius-mix:{seed}:{label}"
        tracer.install()
        t0 = time.perf_counter()
        try:
            _, outcomes, _ = time_radii(radii, draws)
        finally:
            tracer.uninstall()
        radius_traced = radius_traced or time.perf_counter() - t0
        gate_radii(draws, outcomes, report)
        radius_sets.append(SpanSet(tracer.spans, tracer.counts))

    # verify-cold: one invocation untraced, then two traced
    verify_cmd = ("verify", "--format", "json")
    t0 = time.perf_counter()
    plain = run_child(["-m", "radii.cli", *verify_cmd], env)
    verify_untraced = time.perf_counter() - t0
    expected = check_verify_output(plain, None, report)
    verify_sets, verify_traced = [], None
    for label in ("a", "b"):
        outs, spans, wall = traced_children([verify_cmd], f"verify-cold:{seed}:{label}", env)
        check_verify_output(outs[0], expected, report)
        verify_sets.append(spans)
        verify_traced = verify_traced or wall

    # cli-cold: the first TRACE_CLI commands of the seed
    commands = list(islice(cli_commands(f"cli-cold:{seed}"), TRACE_CLI))
    t0 = time.perf_counter()
    plain_outs = [run_child(["-m", "radii.cli", *args], env) for args in commands]
    cli_untraced = time.perf_counter() - t0
    cli_sets, cli_traced = [], None
    for label in ("a", "b"):
        outs, spans, wall = traced_children(commands, f"cli-cold:{seed}:{label}", env)
        cli_sets.append(spans)
        cli_traced = cli_traced or wall
        plain_outs += outs
    for args, out in zip(commands * 3, plain_outs):
        check_cli_output(radii, args, out, report)
    report.attempted += 3 + 3 * len(commands)

    parts = {"radius-mix": radius_sets, "verify-cold": verify_sets, "cli-cold": cli_sets}
    for workload, (a, b) in parts.items():
        ca, cb = a.deterministic_counts(), b.deterministic_counts()
        if ca != cb:
            diff = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
            report.fail("counts", f"{workload}: traced counts differ between passes: {diff[:5]}")
    R, V, C = radius_sets[0], verify_sets[0], cli_sets[0]
    write_spans(R, V, C)

    deriv, value = "series.eval_normalized_derivative", "series.eval_normalized"
    find, first = "roots.find_radius", "roots.find_first_function_zero"
    ode, scan = "roots.circle_solution", "roots.zeros_from_solution"
    n_cli = len(commands)
    print(f"  traced census: {TRACE_RADII} radii, 1 verify, {n_cli} CLI commands; seed {seed}")
    for name, number, unit, where in (
        ("series.deriv_calls_per_radius", ratio(R.calls_under[(find, deriv)], R.calls[find]),
         "calls/radius", "radius-mix"),
        ("series.deriv_us", ratio(R.self_ns[deriv], R.calls[deriv]) / 1e3,
         "us", f"radius-mix, self per call, n={R.calls[deriv]}"),
        ("series.value_calls", V.calls[value], "count", "verify-cold"),
        ("series.value_self_s", V.self_ns[value] / 1e9, "s", "verify-cold"),
        ("sums.bracket_calls", V.calls["sums.radius_bracket"], "count", "verify-cold"),
        ("sums.bracket_self_s", V.self_ns["sums.radius_bracket"] / 1e9, "s", "verify-cold"),
        ("basefuncs.reduced_pair_calls", R.calls["basefuncs.reduced_pair"], "count", "radius-mix"),
        ("basefuncs.self_s", R.layer_self_s("basefuncs"), "s", "radius-mix"),
        ("roots.find_radius_self_s", R.self_ns[find] / 1e9, "s", "radius-mix"),
        ("roots.first_zero_calls", V.calls[first], "count", "verify-cold"),
        ("roots.first_zero_evals_per_call", ratio(V.calls_under[(first, value)], V.calls[first]),
         "evals/call", "verify-cold"),
        ("roots.first_zero_self_s", V.self_ns[first] / 1e9, "s", "verify-cold"),
        ("roots.ode_solves", V.calls[ode], "count", "verify-cold"),
        ("roots.ode_useful_ratio", ratio(V.calls["roots.base_function_zeros"], V.calls[ode]),
         "ratio", "verify-cold"),
        ("roots.ode_s", V.total_ns[ode] / 1e9, "s", "verify-cold"),
        ("roots.zero_scan_s", V.total_ns[scan] / 1e9, "s", "verify-cold"),
        ("verify.claims", V.counts["verify.claims"], "count", "verify-cold"),
        ("verify.self_s", V.self_ns["verify.run_verify"] / 1e9, "s", "verify-cold"),
        ("cli.self_s", V.self_ns["cli.main"] / 1e9, "s", "verify-cold"),
        ("cli.cold_self_s", C.self_ns["cli.main"] / 1e9, "s", f"cli-cold, {n_cli} commands"),
        ("import.radii_s", statistics.median(r for r, _ in imports), "s", f"n={len(imports)}"),
        ("import.scipy_s", statistics.median(s for _, s in imports), "s", f"n={len(imports)}"),
        ("families.check_domain_calls", R.calls["families.check_domain"], "count", "radius-mix"),
        ("trace.radius-mix.overhead_s", radius_traced - radius_untraced,
         "s", f"untraced {radius_untraced:.3f}s"),
        ("trace.verify-cold.overhead_s", verify_traced - verify_untraced,
         "s", f"untraced {verify_untraced:.3f}s"),
        ("trace.cli-cold.overhead_s", cli_traced - cli_untraced, "s", f"untraced {cli_untraced:.3f}s"),
    ):
        report.metric(name, number, unit, where)


def write_spans(*span_sets: SpanSet) -> None:
    """One JSON line per span: run id, name, start ns, end ns, parent index.

    Parent indices count spans within the same run id, from 0.
    """
    SCRATCH.mkdir(exist_ok=True)
    with open(SCRATCH / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span_set in span_sets:
            for span in span_set.spans:
                fh.write(json.dumps(span) + "\n")


# --- entry point ----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    report = Report()
    try:
        radii = load_radii()
        env = child_env()
        pin_to_one_cpu()
        setup_seconds(env)  # writes the bytecode cache once, untimed
        print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            run_traced_census(radii, args.seed, env, report)
        else:
            walls, scaled_s, refs = zip(*(setup_seconds(env) for _ in range(SETUP_PROBES)))
            n = len(walls)
            report.show("setup_wall_s", statistics.median(walls), "s", f"n={n}")
            report.show("setup_reference_child_ms", statistics.median(refs), "ms", f"n={n}")
            report.metric("setup_s", statistics.median(scaled_s), "s", f"n={n}, scaled")
            RUNNERS[args.workload](radii, args.seed, args.seconds, env, report)
    except (BenchError, TraceBindingError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report.show_failures()
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
