"""Benchmark entry point; run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one line per metric (name, value, unit, and notes such as the tail
percentile or the error rate's base), then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones; both sets are declared in ``BENCHMARK.json``.  The package is
imported from ``src/`` next to this directory; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("catalog-compare", "surfaces", "numeric-inverse", "cli", "verify-paper")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="subnorms benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def report(result: dict) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    notes = result["notes"]
    for name, (value, unit) in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    if "error_rate" not in result["metrics"]:
        print(f"error_rate {result['checks']['error_rate']!r} ratio  ({notes['error_rate']})")
    for kind, (n, p50) in result.get("kinds", {}).items():
        print(f"  kind {kind}: {n} calls, median {p50:.4g} ms")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subnorms" / "__init__.py").is_file():
        print(f"bench: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          "one caller, closed loop")
    if args.trace:
        result = measure.traced_run(workload, args.seed)
    else:
        result = measure.timed_run(workload, args.seed, args.seconds)
        print(f"{result['attempted']} calls in {result['wall_s']:.2f} s")
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
