"""Run one `subnorms` CLI command under the tracer, for the traced cli runs.

    PYTHONPATH=src python3 bench/launch.py <cli arguments...>

Behaves like ``python -m subnorms.cli`` on stdout and in its exit code.  It
times the cold ``import subnorms.cli`` and the ``main`` call, and writes its
layer counters as the last stderr line, prefixed with ``BENCH-LAYERS ``.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    t0 = time.perf_counter()
    import subnorms.cli as cli
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    with tracer:
        t1 = time.perf_counter()
        code = cli.main(args)
        main_s = time.perf_counter() - t1
    sys.stdout.flush()
    raw = tracer.raw()
    raw["cli.import_s"] = [import_s]
    raw[f"cli.main_s.{args[0]}"] = [main_s]
    print(tracing.TRACE_MARKER + json.dumps(raw), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
