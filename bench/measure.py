"""Timed and traced runs of one workload, and the metrics they report.

The timed run (``--trace 0``) sets up ``SETUP_REPEATS`` times, warms up on a
separate random stream, then makes the workload's calls in a closed loop
until ``seconds`` have passed, finishing the round in progress.  Each call's
latency is timed alone; output checks run between calls, untimed.

The traced run (``--trace 1``) takes a fixed slice of the workload's rounds,
so its counters repeat exactly for a seed.  It runs the slice untraced, under
the tracer, and untraced again; the tracing overhead is the traced time minus
the mean untraced time.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import tracing

SETUP_REPEATS = 9


@dataclass(frozen=True)
class Outcome:
    kind: str
    ns: int
    status: str  # ok | known | wrong | error
    record: str


def run_call(call) -> Outcome:
    t0 = time.perf_counter_ns()
    try:
        out = call.run()
    except Exception as exc:  # one failing call must not end the run; it counts as failed
        return Outcome(call.kind, time.perf_counter_ns() - t0, "error",
                       f"{type(exc).__name__}: {exc}")
    ns = time.perf_counter_ns() - t0
    try:
        status, record = call.check(out)
    except (ValueError, IndexError, KeyError, AttributeError) as exc:  # malformed output
        status, record = "wrong", f"unreadable output: {exc}"
    return Outcome(call.kind, ns, status, record)


def warm_up(workload, seed: int) -> None:
    for call in next(workload.rounds(np.random.default_rng([seed, 1])))[:workload.warmup_calls]:
        run_call(call)


def tail_percentile(n: int) -> int:
    """p99 from 1000 samples; below that the highest with >= 10 samples beyond it."""
    if n >= 1000:
        return 99
    return max(50, math.floor(100 - 1000 / n)) if n else 50


def check_summary(outcomes: list[Outcome]) -> dict:
    wrong = sum(o.status != "ok" for o in outcomes)
    known = sum(o.status == "known" for o in outcomes)
    return {"checked": len(outcomes), "wrong": wrong, "known": known, "new": wrong - known,
            "error_rate": wrong / len(outcomes) if outcomes else 0.0}


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    warm_up(workload, seed)
    outcomes = []
    start = time.perf_counter()
    for calls in workload.rounds(np.random.default_rng(seed)):
        outcomes.extend(run_call(call) for call in calls)
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    lat_ms = np.array([o.ns for o in outcomes]) * 1e-6
    p = tail_percentile(lat_ms.size)
    checks = check_summary(outcomes)
    metrics = {
        "calls_per_s": (float(lat_ms.size / (lat_ms.sum() * 1e-3)), "1/s"),
        "call_p50_ms": (float(np.median(lat_ms)), "ms"),
        "call_tail_ms": (float(np.percentile(lat_ms, p)), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    kinds = {}
    for kind in dict.fromkeys(o.kind for o in outcomes):
        lat = lat_ms[[o.kind == kind for o in outcomes]]
        kinds[kind] = (lat.size, float(np.median(lat)))
    notes = {
        "call_tail_ms": f"p{p} of {lat_ms.size} calls",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "error_rate": _error_note(checks),
    }
    return {"metrics": metrics, "checks": checks, "attempted": len(outcomes),
            "failed": checks["new"], "correct": checks["new"] == 0,
            "wall_s": wall, "kinds": kinds, "notes": notes}


def _error_note(checks: dict) -> str:
    return (f"{checks['wrong']} of {checks['checked']} outputs wrong: "
            f"{checks['known']} pinned seed defects, {checks['new']} new")


def traced_run(workload, seed: int) -> dict:
    workload.setup()
    rounds = workload.rounds(np.random.default_rng(seed))
    calls = [call for _ in range(workload.trace_rounds) for call in next(rounds)]
    warm_up(workload, seed)
    before = [run_call(call) for call in calls]
    tracer = tracing.Tracer()
    with tracer:
        workload.setup()
        workload.traced = True
        try:
            traced = [run_call(call) for call in calls]
        finally:
            workload.traced = False
    after = [run_call(call) for call in calls]
    raw = tracing.merge([tracer.raw()] + getattr(workload, "child_layers", []))
    metrics = tracing.layer_metrics(raw)
    # untraced passes on both sides of the traced one cancel a linear drift
    t_untraced = sum(o.ns for o in before + after) * 0.5e-9
    t_traced = sum(o.ns for o in traced) * 1e-9
    metrics["trace.overhead_s"] = (t_traced - t_untraced, "s")
    metrics["trace.overhead_ratio"] = ((t_traced - t_untraced) / t_untraced, "ratio")
    checks = check_summary(traced)
    metrics["error_rate"] = (checks["error_rate"], "ratio")
    metrics["checked_outputs"] = (checks["checked"], "count")
    metrics["wrong_outputs"] = (checks["wrong"], "count")
    metrics["new_wrong_outputs"] = (checks["new"], "count")
    mismatched = sum(a.record != b.record or c.record != b.record
                     for a, b, c in zip(before, traced, after))
    failed = check_summary(before)["new"] + checks["new"] + check_summary(after)["new"] + mismatched
    notes = {"error_rate": _error_note(checks),
             "trace.overhead_s": f"{t_traced:.3f} s traced vs {t_untraced:.3f} s untraced "
                                 f"(mean of 2 passes) over the same {len(calls)} calls",
             "checked_outputs": f"{mismatched} outputs differ between traced and untraced"}
    return {"metrics": metrics, "checks": checks, "attempted": 3 * len(calls),
            "failed": failed, "correct": failed == 0, "notes": notes}
