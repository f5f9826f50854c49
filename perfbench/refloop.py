"""Frozen references: how fast this CPU runs Python, and starts it, right now.

The test box moves between a fast and a slow state, up to 2x apart, for
seconds to minutes at a time.  Timings taken beside a reference and divided
by it cancel the state while keeping the program's own speed, because the
references never change with the program:

* ``reference()`` is a fixed copy of the kind of work radii does (a
  ratio-recurrence power series with per-term calls and enum checks, under
  bisection).  ``scaled(ns, ref_ns)`` converts a time measured beside a
  reference call of ``ref_ns`` into the time it would take in the box's fast
  state, where one call takes ``REF_NOMINAL_NS``.
* ``REF_CHILD`` is a fresh interpreter that imports a fixed set of standard
  library modules.  Interpreter start-up is unmarshalling, allocation and
  page faults more than arithmetic, and follows this reference, not the
  loop: a start-up timed right after it is scaled by
  ``REF_CHILD_NOMINAL_S / ref_child_s``.
"""

from __future__ import annotations

import enum
import time

#: Median reference call in the fast state of the test box (Intel Xeon,
#: 2 vCPU, Python 3.11).  Only a unit: the scaled metrics are measured
#: ratios times this constant.
REF_NOMINAL_NS = 160_000

#: Interpreter arguments of the start-up reference; ``-I`` keeps the
#: checkout and the user's site out of it.
REF_CHILD = (
    "-I",
    "-c",
    "import argparse, asyncio, csv, decimal, email.message, fractions, http.client,"
    " json, logging.handlers, tarfile, unittest, xml.dom.minidom, zipfile",
)
#: Its fastest wall time seen on the test box, in seconds.  Only a unit.
REF_CHILD_NOMINAL_S = 0.16


class Kind(enum.Enum):
    CIRCLE = "circle"
    SQRT = "sqrt"


def _ratio(kind: Kind, p: float, n: int) -> float:
    r = 1.0 / ((n + 1.0) * (p + 1.0 + n))
    if kind is Kind.CIRCLE:
        return r * (2.0 * n + 3.0) / (2.0 * n + 1.0)
    return r * (n + 2.0) / (n + 1.0)


def _derivative(kind: Kind, p: float, x: float) -> float:
    t = x * x / 4.0 if kind is Kind.CIRCLE else x / 4.0
    c, s, big, n = 1.0, 1.0, 1.0, 0
    while True:
        c *= -_ratio(kind, p, n) * t
        s += c
        big = max(big, abs(s))
        n += 1
        if n >= 8 and abs(c) < 1e-16 * big:
            return s


def reference() -> float:
    """First zero of a Bessel-type derivative series by 18 bisection steps."""
    lo, hi = 0.5, 3.0
    flo = _derivative(Kind.CIRCLE, 0.5, lo)
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        fm = _derivative(Kind.CIRCLE, 0.5, mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo


def time_reference() -> int:
    """Nanoseconds one reference call takes now."""
    start = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - start


def scaled(ns: float, ref_ns: float) -> float:
    """``ns`` measured beside a reference call of ``ref_ns``, at nominal speed."""
    return ns * REF_NOMINAL_NS / ref_ns
