"""The benchmark's workloads: seeded inputs, the calls they make, output checks.

Each workload is a closed loop with one caller and no threads: it yields
rounds, each a list of calls, and the runner makes each call after the
previous one returns.  A call returns its output; the workload's check turns
it into a status ('ok', 'known' for a pinned seed defect, 'wrong') and a short
record, which the traced run compares with the untraced one.

Library functions are looked up on their modules at call time
(``ordering.compare``), so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import members
import reference
import tracing
from reference import defect_key
from subnorms import generators, operators, ordering

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


def _point(ref, ops, m: int, a: int, b: int) -> Call:
    x, y = float(reference.SAMPLE_AXIS[a]), float(reference.SAMPLE_AXIS[b])

    def check(value):
        return ("ok" if ref.value_ok(m, a, b, value) else "wrong"), repr(value)

    return Call("point", lambda: operators.evaluate(ops[m], x, y), check)


def _surface(ref, ops, m: int, axis: np.ndarray) -> Call:
    n = axis.size
    at = np.array([k * (n - 1) // 10 for k in range(11)])
    want = ref.samples[m][np.ix_(reference.ON_GRID, reference.ON_GRID)]

    def check(Z):
        got = np.asarray(Z)[np.ix_(at, at)]
        ok = Z.shape == (n, n) and np.all(np.abs(got - want) <= reference.VALUE_TOL)
        return ("ok" if ok else "wrong"), hashlib.sha256(got.tobytes()).hexdigest()[:16]

    return Call("surface", lambda: ops[m].surface(axis[:, None], axis[None, :]), check)


def _compare(ref, ops, grid, i: int, j: int, kind: str) -> Call:
    key = defect_key(kind, i, j, grid.points.size + 1)

    def check(v):
        return ref.judge(v.relation, key, i, j), f"{v.relation}/{v.criterion}"

    return Call("compare", lambda: ordering.compare(ops[i], ops[j], grid), check)


def _oracle(ref, ops, grid, i: int, j: int) -> Call:
    key = defect_key("oracle", i, j, grid.points.size + 1)

    def check(v):
        return ref.judge(v.relation, key, i, j), v.relation

    return Call("oracle", lambda: ordering.direct_compare(ops[i], ops[j], grid), check)


def _shuffled(rng, calls: list[Call]) -> list[Call]:
    return [calls[k] for k in rng.permutation(len(calls))]


class Workload:
    """Base: ``setup`` builds members and loads the reference."""

    name = ""
    in_process = True
    warmup_calls = 1  # made before timing, from a separate random stream
    trace_rounds = 1  # the traced run repeats exactly this many rounds

    def setup(self) -> None:
        self.ref = reference.load()
        self.build()

    def build(self) -> None:
        self.ops = members.build_extended()

    def rounds(self, rng) -> Iterator[list[Call]]:
        raise NotImplementedError


class CatalogCompare(Workload):
    """`compare` at 101^2 on the 4032 ordered pairs of the extended catalog.

    A round is one pass over every pair in seeded order, so each run measures
    the same population of calls and its tail does not depend on which pairs
    a partial pass happened to reach.
    """

    name = "catalog-compare"
    warmup_calls = 64

    def rounds(self, rng):
        grid = generators.IntervalGrid.uniform(reference.COMPARE_GRID)
        pairs = members.ordered_pairs(members.N_EXTENDED)
        while True:
            yield [_compare(self.ref, self.ops, grid, *pairs[k], "compare")
                   for k in rng.permutation(len(pairs))]


class Surfaces(Workload):
    """Oracle and surface at 401^2, 1001^2, 2001^2 plus 128 scalar points a round.

    With 134 calls a round the points are the median call, and p99 falls
    among the 2001^2 calls (the slowest 1.5%), away from any edge between
    groups of latencies.
    """

    name = "surfaces"
    warmup_calls = 16
    trace_rounds = 3
    points_per_round = 128

    def rounds(self, rng):
        pool = members.oracle_pairs()
        sizes = reference.SURFACE_SIZES
        grids = {n: generators.IntervalGrid.uniform(n) for n in sizes}
        axes = {n: np.linspace(0.0, 1.0, n) for n in sizes}
        na, nm = reference.SAMPLE_AXIS.size, len(self.ops)
        while True:
            calls = []
            for n in sizes:
                i, j = pool[rng.integers(len(pool))]
                calls.append(_oracle(self.ref, self.ops, grids[n], i, j))
                calls.append(_surface(self.ref, self.ops, int(rng.integers(nm)), axes[n]))
            for _ in range(self.points_per_round):
                m, a, b = rng.integers(nm), *rng.integers(na, size=2)
                calls.append(_point(self.ref, self.ops, int(m), int(a), int(b)))
            yield _shuffled(rng, calls)


class NumericInverse(Workload):
    """The 13 catalog members with bisection inverses: compare, surface, points.

    A round covers the 156 ordered pairs once, one 401^2 surface per member
    and 260 scalar points, interleaved as 13 blocks of 12 compares, 1 surface
    and 20 points.  Points are the majority so the median call is a scalar
    bisection, well inside one cluster of latencies; the surfaces (3% of
    calls) are the tail.  Outputs are checked against the reference entry of
    the closed-form twin.
    """

    name = "numeric-inverse"
    warmup_calls = 33
    points_per_block = 20

    def build(self):
        self.ops = members.build_numeric_twins()

    def rounds(self, rng):
        grid = generators.IntervalGrid.uniform(reference.COMPARE_GRID)
        axis = np.linspace(0.0, 1.0, reference.SURFACE_SIZES[0])
        n = len(self.ops)
        pairs = members.ordered_pairs(n)
        per_block = len(pairs) // n
        na = reference.SAMPLE_AXIS.size
        while True:
            order = rng.permutation(len(pairs))
            surf = rng.permutation(n)
            calls = []
            for r in range(n):
                block = [_compare(self.ref, self.ops, grid, *pairs[k], "numeric")
                         for k in order[r * per_block:(r + 1) * per_block]]
                block.append(_surface(self.ref, self.ops, int(surf[r]), axis))
                for _ in range(self.points_per_block):
                    m, a, b = rng.integers(n), *rng.integers(na, size=2)
                    block.append(_point(self.ref, self.ops, int(m), int(a), int(b)))
                calls += _shuffled(rng, block)
            yield calls


class _ColdProcesses(Workload):
    """Cold `python -m subnorms.cli` processes with `src` on PYTHONPATH.

    In the traced run each child starts through ``launch.py`` instead, which
    times the import and ``main`` and reports its layer counters on stderr.
    """

    in_process = False
    traced = False

    def setup(self):
        super().setup()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.child_layers: list[dict] = []

    def cli(self, kind: str, args: list[str], check) -> Call:
        def run():
            if self.traced:
                cmd = [sys.executable, str(LAUNCHER), *args]
            else:
                cmd = [sys.executable, "-m", "subnorms.cli", *args]
            proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT,
                                  timeout=CLI_TIMEOUT_S)
            if self.traced:
                tail = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
                if tail.startswith(tracing.TRACE_MARKER):
                    self.child_layers.append(json.loads(tail[len(tracing.TRACE_MARKER):]))
            return proc

        def checked(proc):
            if proc.returncode != 0:
                return "wrong", f"exit {proc.returncode}"
            return check(proc.stdout.decode())

        return Call(kind, run, checked)


class Cli(_ColdProcesses):
    """A round is one each of eval, compare, scan and surface at 101."""

    name = "cli"
    warmup_calls = 4
    trace_rounds = 2

    def rounds(self, rng):
        specs = [members.spec_text(s) for s in members.EXTENDED_SPECS]
        pairs = members.ordered_pairs(len(specs))
        chains = list(members.chain_pairs().items())
        na = reference.SAMPLE_AXIS.size
        while True:
            m, a, b = rng.integers(members.N_CATALOG), *rng.integers(na, size=2)
            i, j = pairs[rng.integers(len(pairs))]
            (fam, fa), chain = chains[rng.integers(len(chains))]
            s = int(rng.integers(members.N_CATALOG))
            x, y = float(reference.SAMPLE_AXIS[a]), float(reference.SAMPLE_AXIS[b])
            lams = ",".join(repr(v) for v in members.CHAINS[fam])
            calls = [
                self.cli("cli:eval", ["eval", specs[m], repr(x), repr(y)],
                         self._eval_check(int(m), int(a), int(b))),
                self.cli("cli:compare", ["compare", specs[i], specs[j]],
                         self._compare_check(i, j)),
                self.cli("cli:scan", ["scan", f"{fam}:a={fa!r}", f"--lambdas={lams}"],
                         self._scan_check(chain)),
                self.cli("cli:surface", ["surface", specs[s], "--resolution",
                                         str(reference.CLI_RESOLUTION)],
                         self._surface_check(specs[s])),
            ]
            yield _shuffled(rng, calls)

    def _eval_check(self, m, a, b):
        def check(out):
            value = float(out.strip())
            return ("ok" if self.ref.value_ok(m, a, b, value) else "wrong"), out.strip()
        return check

    def _compare_check(self, i, j):
        key = defect_key("compare", i, j, reference.COMPARE_GRID)

        def check(out):
            lines = [ln for ln in out.splitlines() if ln.startswith("verdict: ")]
            if len(lines) != 1:
                return "wrong", "no verdict line"
            rel = lines[0][len("verdict: "):]
            return self.ref.judge(rel, key, i, j), rel
        return check

    def _scan_check(self, chain):
        def check(out):
            rels = [ln.split(" oracle: ")[1].split()[0]
                    for ln in out.splitlines() if ln.startswith("pair: ")]
            if len(rels) != len(chain):
                return "wrong", f"{len(rels)} pair lines"
            status = [self.ref.judge(r, defect_key("oracle", i, j, reference.COMPARE_GRID), i, j)
                      for r, (i, j) in zip(rels, chain)]
            worst = "wrong" if "wrong" in status else "known" if "known" in status else "ok"
            return worst, " ".join(rels)
        return check

    def _surface_check(self, spec):
        def check(out):
            digest = hashlib.sha256(out.encode()).hexdigest()
            return ("ok" if digest == self.ref.csv_sha256[spec] else "wrong"), digest[:16]
        return check


class VerifyPaper(_ColdProcesses):
    """A round is one `verify-paper` process; it has no inputs to seed."""

    name = "verify-paper"
    trace_rounds = 3

    def build(self):
        self.ops = []

    def rounds(self, rng):
        while True:
            yield [self.cli("cli:verify-paper", ["verify-paper"], self._check)]

    def _check(self, out):
        passed = [ln.split()[1].rstrip(":") for ln in out.splitlines()
                  if ln.startswith("PASS ")]
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL ")]
        ok = passed == self.ref.checks and not failed
        return ("ok" if ok else "wrong"), " ".join(passed)


WORKLOADS = {w.name: w for w in (CatalogCompare, Surfaces, NumericInverse, Cli, VerifyPaper)}
