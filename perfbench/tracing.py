"""Span recording around the radii layers, installed from outside the package.

Each traced function is replaced by a wrapper at the module attribute where
its callers look it up (``radii.roots.eval_normalized_derivative`` is what
``find_radius`` calls, not ``radii.series.eval_normalized_derivative``).  A
wrapper records one span: run id, name, start and end in nanoseconds, and the
index of the enclosing span.  Spans stay in memory until the run ends.

Calls inside one module are not wrapped, so a span's children are calls into
other layers and a span's self time is the time its layer spent on its own.
If a binding below no longer exists, or now resolves to a function defined in
another module, installation raises :class:`TraceBindingError`: a renamed or
moved function breaks the trace loudly instead of reporting zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

#: span name -> (module that defines the function, modules that look it up)
BINDINGS: dict[str, tuple[str, tuple[str, ...]]] = {
    "series.eval_normalized_derivative": ("radii.series", ("radii.roots",)),
    "series.eval_normalized": ("radii.series", ("radii.roots",)),
    "series.coefficient_sequence": ("radii.series", ("radii.sums",)),
    "series.resolve_max_terms": ("radii.series", ("radii.basefuncs",)),
    "sums.radius_bracket": ("radii.sums", ("radii.roots", "radii.verify", "radii.cli")),
    "sums.crude_upper_bound": ("radii.sums", ("radii.roots", "radii.verify")),
    "sums.first_rayleigh_zero_sum": ("radii.sums", ("radii.roots", "radii.verify")),
    "basefuncs.reduced_pair": ("radii.basefuncs", ("radii.roots",)),
    "basefuncs.struve_h": ("radii.basefuncs", ("radii.verify",)),
    # radii.roots.find_radius is where the in-process benchmark looks it up
    "roots.find_radius": ("radii.roots", ("radii.roots", "radii.verify", "radii.cli")),
    "roots.find_first_function_zero": ("radii.roots", ("radii.roots", "radii.verify")),
    "roots.base_function_zeros": ("radii.roots", ("radii.verify",)),
    "roots.circle_solution": ("radii.roots", ("radii.roots", "radii.verify")),
    "roots.zeros_from_solution": ("radii.roots", ("radii.roots", "radii.verify")),
    "verify.run_verify": ("radii.verify", ("radii.cli",)),
    "cli.main": ("radii.cli", ("radii.cli",)),
    "families.check_domain": (
        "radii.families",
        ("radii.series", "radii.sums", "radii.roots", "radii.basefuncs", "radii.cli"),
    ),
}

#: Counts taken from a traced call's result, keyed by span name.
RESULT_COUNTS = {
    "verify.run_verify": ("verify.claims", lambda report: len(report.outcomes)),
}


class TraceBindingError(RuntimeError):
    """A traced name is missing or no longer defined where the table says."""


class Tracer:
    """Records spans for every binding in :data:`BINDINGS` while installed."""

    def __init__(self) -> None:
        self.run_id = ""
        # each span: [run_id, name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self.run_id, name, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2:4] = start, end
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, (home, sites) in BINDINGS.items():
                attr = name.split(".", 1)[1]
                for site in sites:
                    module = importlib.import_module(site)
                    fn = getattr(module, attr, None)
                    if not callable(fn) or getattr(fn, "__module__", None) != home:
                        raise TraceBindingError(
                            f"{site}.{attr} is not a function from {home}; "
                            "update BINDINGS in perfbench/tracing.py"
                        )
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        """Write spans and counts as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class SpanSet:
    """Per-name aggregates over one process's spans."""

    def __init__(self, spans: list[list], counts: dict[str, int] | None = None) -> None:
        self.spans = spans
        self.counts = Counter(counts or {})
        child_ns = [0] * len(spans)
        for run_id, name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls_under: Counter[tuple[str, str]] = Counter()
        for i, (run_id, name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[i]
            if parent >= 0:
                self.calls_under[(spans[parent][1], name)] += 1

    def merge(self, other: "SpanSet") -> "SpanSet":
        """Aggregates of both sets; parent indices stay within their set."""
        merged = SpanSet([])
        merged.spans = self.spans + other.spans
        for field in ("counts", "calls", "total_ns", "self_ns", "calls_under"):
            setattr(merged, field, getattr(self, field) + getattr(other, field))
        return merged

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(layer + ".")) / 1e9

    def deterministic_counts(self) -> dict[str, int]:
        """Every call count and recorded count; two runs on one seed must agree."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"under:{p}>{c}": v for (p, c), v in self.calls_under.items()})
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return out
