"""Spans around the package's public functions, installed from outside it.

``Tracer`` wraps each traced function and rebinds every ``subnorms`` module
global that refers to it (``ordering``, ``asymptotics`` and ``verify`` import
``geval``, ``ginvert``, ``normalize`` and ``direct_compare`` by name), plus
``TSubnorm.surface``, ``ComposedMap.__call__`` and the ``verify.CHECKS`` list.
Leaving the ``with`` block puts every original object back.

Spans (name, start, end, parent) are kept in memory; self time is a span's
duration minus that of its direct children.  ``raw()`` gives summable
counters, so the counters of several processes merge by addition;
``layer_metrics()`` turns merged counters into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import sys
import time
import warnings
from array import array
from collections import defaultdict

import numpy as np

from subnorms import asymptotics, generators, operators, ordering, verify

TRACE_MARKER = "BENCH-LAYERS "  # prefix of the launcher's stderr line
CLI_COMMANDS = ("eval", "compare", "scan", "surface", "verify-paper")
CHECK_NAMES = [name for name, _ in verify.CHECKS]


def _arg(pos, name, args, kwargs):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(pos, name):
    return lambda args, kwargs, result: (int(np.size(_arg(pos, name, args, kwargs))), False)


def _points(args, kwargs, result):
    return int(np.broadcast(_arg(1, "x", args, kwargs), _arg(2, "y", args, kwargs)).size), False


def _cells(args, kwargs, result):
    return (_arg(2, "grid", args, kwargs).points.size + 1) ** 2, False


def _fallback(args, kwargs, result):
    return 0, result.criterion == "direct_compare"


def _decisive(args, kwargs, result):
    return 0, result.holds


def _none(args, kwargs, result):
    return 0, False


# span name, owner, attribute, counter hook; owners that are modules are
# patched wherever their function is bound, classes in place
TARGETS = [
    ("generators.geval", generators, "geval", _size(1, "x")),
    ("generators.ginvert", generators, "ginvert", _size(1, "u")),
    ("generators.normalize", generators, "normalize", _none),
    ("operators.surface", operators.TSubnorm, "surface", _points),
    ("operators.evaluate", operators, "evaluate", _points),
    ("operators.make_family", operators, "make_family", _none),
    ("ordering.compare", ordering, "compare", _fallback),
    ("ordering.criterion", ordering, "run_criterion", _decisive),
    ("ordering.h", ordering.ComposedMap, "__call__", _size(1, "u")),
    ("ordering.compose", ordering, "compose", _none),
    ("ordering.oracle", ordering, "direct_compare", _cells),
] + [("asymptotics", asymptotics, fn, _none) for fn in (
    "asymptotic_slope_A", "small_slope_B", "linear_envelope_check",
    "section4_equivalences")]

SPAN_NAMES = list(dict.fromkeys(t[0] for t in TARGETS)) + [f"verify.{c}" for c in CHECK_NAMES]


class Tracer:
    def __init__(self):
        self.ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.name = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.elements = defaultdict(int)
        self.flags = defaultdict(int)
        self.patches: list[tuple[object, str, object]] = []
        self.warnings = 0

    def wrap(self, span: str, fn, hook=_none):
        sid = self.ids[span]
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        elements, flags = self.elements, self.flags

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            n, flag = hook(args, kwargs, result)
            elements[span] += n
            flags[span] += flag
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "subnorms" or name.startswith("subnorms.")]
        for span, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._set(verify, "CHECKS", [(name, self.wrap(f"verify.{name}", fn))
                                     for name, fn in verify.CHECKS])

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self._caught = warnings.catch_warnings(record=True)
        self._records = self._caught.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        self._caught.__exit__(*exc)
        self.warnings += sum(issubclass(w.category, RuntimeWarning) for w in self._records)
        return False

    def raw(self) -> dict:
        """Summable counters: calls, elements, flags, self and inclusive ns per span."""
        names = np.frombuffer(self.name, dtype=np.int16) if len(self.name) else np.zeros(0, int)
        parents = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        own = dur - child
        out = {"trace.spans": int(names.size), "numpy.runtime_warnings": self.warnings}
        for span, sid in self.ids.items():
            sel = names == sid
            out[f"{span}.calls"] = int(sel.sum())
            out[f"{span}.self_ns"] = int(own[sel].sum())
            out[f"{span}.incl_ns"] = int(dur[sel].sum())
            out[f"{span}.elements"] = self.elements[span]
            out[f"{span}.flags"] = self.flags[span]
        geval, ginvert = self.ids["generators.geval"], self.ids["generators.ginvert"]
        in_ginvert = np.zeros(names.size, bool)
        in_ginvert[has] = names[parents[has]] == ginvert
        out["generators.bisect_evals"] = int(((names == geval) & in_ginvert).sum())
        # list-valued: each check's duration per run, for a median across processes
        for name in CHECK_NAMES:
            sel = names == self.ids[f"verify.{name}"]
            if sel.any():
                out[f"verify.{name}.runs_s"] = (dur[sel] * 1e-9).tolist()
        return out


def merge(raws: list[dict]) -> dict:
    """Add counters; list-valued entries (per-process timings) are concatenated."""
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if isinstance(value, list):
                out.setdefault(key, []).extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit), always the same names."""
    m: dict[str, tuple[float, str]] = {}

    def span(name, elements=None, self_time=True):
        m[f"{name}.calls"] = (raw.get(f"{name}.calls", 0), "count")
        if elements:
            m[f"{name}.{elements}"] = (raw.get(f"{name}.elements", 0), "count")
        if self_time:
            m[f"{name}.self_s"] = (raw.get(f"{name}.self_ns", 0) * 1e-9, "s")

    def per_second(name, label):
        m[f"{name}.{label}"] = (_ratio(raw.get(f"{name}.elements", 0),
                                       raw.get(f"{name}.incl_ns", 0) * 1e-9), "1/s")

    span("generators.geval", "elements")
    span("generators.ginvert", "elements")
    m["generators.bisect_evals"] = (raw.get("generators.bisect_evals", 0), "count")
    span("generators.normalize", self_time=False)

    span("operators.surface", "points")
    per_second("operators.surface", "points_per_s")
    span("operators.evaluate")
    m["operators.evaluate.us_per_call"] = (
        _ratio(raw.get("operators.evaluate.incl_ns", 0) * 1e-3,
               raw.get("operators.evaluate.calls", 0)), "us")
    span("operators.make_family")

    span("ordering.compare")
    span("ordering.criterion")
    span("ordering.h", "elements")
    span("ordering.compose", self_time=False)
    span("ordering.oracle", "cells")
    per_second("ordering.oracle", "cells_per_s")
    m["ordering.certificate_hit_rate"] = (
        _ratio(raw.get("ordering.criterion.flags", 0), raw.get("ordering.criterion.calls", 0)),
        "ratio")
    m["ordering.oracle_fallback_rate"] = (
        _ratio(raw.get("ordering.compare.flags", 0), raw.get("ordering.compare.calls", 0)),
        "ratio")

    span("asymptotics")
    for name in CHECK_NAMES:
        m[f"verify.{name}.s"] = (_median(raw.get(f"verify.{name}.runs_s", [])), "s")
    for key in ["cli.import_s"] + [f"cli.main_s.{c}" for c in CLI_COMMANDS]:
        m[key] = (_median(raw.get(key, [])), "s")
    m["numpy.runtime_warnings"] = (raw.get("numpy.runtime_warnings", 0), "count")
    m["trace.spans"] = (raw.get("trace.spans", 0), "count")
    return m
