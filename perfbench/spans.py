"""In-process spans around calls into the public names of ``ozaki``.

``instrumented(tracer)`` rebinds each traced function in every ``ozaki.*``
namespace that holds it, replaces the traced methods on their classes, and
replaces the ``fn`` of each ``OBJECTIVES`` entry; everything is restored on
exit.  The program's source is not touched.

A span's busy time is its wall time (outermost call only, when a name nests
inside itself); its self time is the wall time minus the time of the spans
it directly contains.  Self times therefore add up to the top-level time.
Only ``time.perf_counter`` is used: no machine-wide profiler.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, public name) of each traced function
FUNCTIONS = (
    ("cli", "run"),
    ("cli", "emit"),
    ("sampling", "sample_and_check"),
    ("gridsearch", "grid_extremize"),
    ("classes", "build_member"),
    ("classes", "build_member_from_caratheodory"),
    ("classes", "caratheodory_from_schwarz"),
    ("classes", "coeffs_from_schwarz_direct"),
    ("classes", "coeffs_from_caratheodory_direct"),
    ("classes", "extremal_member"),
    ("functionals", "full_report"),
    ("ledger", "check_extremals"),
)

# (module, class, method) of each traced method
METHODS = (
    ("series", "NormalizedFunction", "inverse"),
    ("series", "TruncatedSeries", "__mul__"),
    ("series", "TruncatedSeries", "__truediv__"),
    ("series", "TruncatedSeries", "exp"),
    ("series", "TruncatedSeries", "pow"),
    ("series", "TruncatedSeries", "compose"),
    ("series", "TruncatedSeries", "antiderivative"),
)

OBJECTIVE_SPAN = "objectives.fn"
SPAN_NAMES = tuple(f"{m}.{n}" for m, n in FUNCTIONS[:4]) + (OBJECTIVE_SPAN,) + tuple(
    f"{m}.{n}" for m, n in FUNCTIONS[4:]) + tuple(f"{m}.{c}.{n}" for m, c, n in METHODS)


class Tracer:
    """Per-name call counts, busy and self times, and layer counters."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()     # exact counts taken at the boundaries
        self.by_objective = defaultdict(float)
        self.top_level = 0.0
        self._children = []           # time of finished children, per open span
        self._open = Counter()

    def call(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        self._open[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            children = self._children.pop()
            self._open[name] -= 1
            self.calls[name] += 1
            self.self_time[name] += elapsed - children
            if not self._open[name]:
                self.busy[name] += elapsed
            if self._children:
                self._children[-1] += elapsed
            else:
                self.top_level += elapsed


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _sample_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(cfg):
        report = tracer.call("sampling.sample_and_check", fn, cfg)
        tracer.counters["sampling.members"] += cfg.count
        if cfg.label.value == "F":
            tracer.counters["sampling.members_F"] += cfg.count
            tracer.counters["sampling.t21_hits"] += sum(
                c.violations for c in report.checks
                if c.functional == "T21_log" and c.side == "upper")
        return report
    return traced


def _grid_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(objective_id, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return tracer.call("gridsearch.grid_extremize", fn, objective_id,
                               *args, **kwargs)
        finally:
            tracer.by_objective[objective_id.value] += time.perf_counter() - t0
    return traced


def _count_points(tracer: Tracer, domain, u, v) -> None:
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    tracer.counters["objectives.evals"] += int(np.prod(shape))
    inside = np.broadcast_to(domain.contains(u, v), shape)
    tracer.counters["objectives.inside"] += int(np.count_nonzero(inside))


def _objective_span(tracer: Tracer, fn, domain):
    @functools.wraps(fn)
    def traced(u, v):
        out = tracer.call(OBJECTIVE_SPAN, fn, u, v)
        # benchmark bookkeeping, kept in its own span so that it is not
        # charged to the grid search
        tracer.call("perfbench.count_points", _count_points, tracer, domain, u, v)
        return out
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every traced name of the loaded ``ozaki`` modules through tracer."""
    modules = [m for name, m in sys.modules.items()
               if name == "ozaki" or name.startswith("ozaki.")]
    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    special = {"sample_and_check": _sample_span, "grid_extremize": _grid_span}
    for module, name in FUNCTIONS:
        original = getattr(sys.modules[f"ozaki.{module}"], name)
        if name in special:
            wrapped = special[name](tracer, original)
        else:
            wrapped = _span(tracer, f"{module}.{name}", original)
        for m in modules:
            if m.__dict__.get(name) is original:
                rebind(m, name, wrapped)

    for module, cls_name, name in METHODS:
        cls = getattr(sys.modules[f"ozaki.{module}"], cls_name)
        wrapped = _span(tracer, f"{module}.{cls_name}.{name}", cls.__dict__[name])
        rebind(cls, name, wrapped)
        if cls.__dict__.get("__rmul__") is not None and name == "__mul__":
            rebind(cls, "__rmul__", wrapped)   # the class aliases it to __mul__

    objectives = sys.modules["ozaki.objectives"].OBJECTIVES
    saved = dict(objectives)
    for oid, obj in saved.items():
        objectives[oid] = dataclasses.replace(
            obj, fn=_objective_span(tracer, obj.fn, obj.domain))
    try:
        yield tracer
    finally:
        objectives.update(saved)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
