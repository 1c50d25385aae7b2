"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import members  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import subnorms.cli  # noqa: E402,F401  (binds compare, evaluate, make_family by name)
from subnorms import generators, operators, ordering  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "subnorms" or name.startswith("subnorms."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out["TSubnorm.surface"] = operators.TSubnorm.__dict__["surface"]
    out["ComposedMap.__call__"] = ordering.ComposedMap.__dict__["__call__"]
    return out


def test_patching_reaches_every_importer_and_restores_every_original():
    before = _bindings()
    with tracing.Tracer():
        during = _bindings()
        for key in [("subnorms.generators", "geval"), ("subnorms.ordering", "geval"),
                    ("subnorms.asymptotics", "geval"), ("subnorms.operators", "geval"),
                    ("subnorms.ordering", "ginvert"), ("subnorms.verify", "normalize"),
                    ("subnorms.verify", "direct_compare"), ("subnorms.cli", "compare"),
                    ("subnorms.cli", "evaluate"), ("subnorms.cli", "make_family"),
                    ("subnorms", "compare"), ("subnorms.verify", "CHECKS"),
                    "TSubnorm.surface", "ComposedMap.__call__"]:
            assert during[key] is not before[key], key
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_and_untraced_runs_give_identical_outputs():
    compare = workloads.CatalogCompare()
    compare.setup()
    numeric = workloads.NumericInverse()
    numeric.setup()
    calls = (next(compare.rounds(np.random.default_rng(7)))[:60]
             + next(numeric.rounds(np.random.default_rng(7)))[:40])
    plain = [measure.run_call(c) for c in calls]
    tracer = tracing.Tracer()
    with tracer:
        traced = [measure.run_call(c) for c in calls]
    assert [o.record for o in plain] == [o.record for o in traced]
    assert all(o.status in ("ok", "known") for o in plain + traced)
    raw = tracer.raw()
    assert raw["ordering.compare.calls"] == sum(c.kind == "compare" for c in calls)
    assert raw["generators.bisect_evals"] > 0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.name.extend([tracer.ids["ordering.compare"], tracer.ids["ordering.oracle"],
                        tracer.ids["operators.surface"]])
    tracer.parent.extend([-1, 0, 1])
    tracer.start.extend([0, 10, 20])
    tracer.end.extend([100, 60, 50])
    raw = tracer.raw()
    assert raw["ordering.compare.self_ns"] == 50
    assert raw["ordering.oracle.self_ns"] == 20
    assert raw["operators.surface.self_ns"] == 30
    assert raw["ordering.compare.incl_ns"] == 100


def test_pinned_reference_matches_a_regeneration_on_a_pair_subset():
    ref = reference.load()
    ext = members.build_extended()
    miss = members.oracle_pairs()[0]
    pairs = [(0, 5), (5, 0), miss, (7, 8), (1, 2), (40, 60)]
    fresh = reference.reference_verdicts(ext, pairs)
    assert {p: ref.verdict(*p) for p in pairs} == fresh
    used = sorted({k for p in pairs for k in p})
    values = reference.sample_values([ext[k] for k in used])
    assert np.allclose(values, ref.samples[used], rtol=0, atol=1e-12)
    assert ref.csv_sha256.keys() == {members.spec_text(s) for s in members.CATALOG_SPECS}


def test_known_defects_are_counted_not_hidden():
    ref = reference.load()
    # the ROADMAP repro: product vs rational(a=0.5) is incomparable, compare says dominated
    grid = generators.IntervalGrid.uniform(reference.COMPARE_GRID)
    ext = members.build_extended()
    v = ordering.compare(ext[0], ext[5], grid)
    key = reference.defect_key("compare", 0, 5, reference.COMPARE_GRID)
    assert ref.verdict(0, 5) == ordering.INCOMPARABLE
    assert ref.judge(v.relation, key, 0, 5) == "known"
    checks = measure.check_summary([measure.Outcome("compare", 1, "known", ""),
                                    measure.Outcome("compare", 1, "ok", "")])
    assert (checks["error_rate"], checks["new"]) == (0.5, 0)


def test_workload_names_agree_everywhere():
    declared = [w["name"] for w in DECLARED["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_layer_metric_names_are_the_declared_ones():
    names = set(tracing.layer_metrics({})) | {
        "trace.overhead_s", "trace.overhead_ratio", "error_rate", "checked_outputs",
        "wrong_outputs", "new_wrong_outputs"}
    assert names == {m["name"] for m in DECLARED["per_layer"]}


def _run(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=170)


def _printed_names(stdout: str) -> tuple[set, dict]:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    names = set()
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(" "):
            try:
                float(parts[1])
            except ValueError:
                continue
            names.add(parts[0])
    return names, result


def test_every_printed_metric_name_is_declared():
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    declared = end_to_end | per_layer
    for args, expected in [(("--workload", "surfaces", "--trace", "0"), end_to_end),
                           (("--workload", "verify-paper", "--trace", "1"), per_layer)]:
        proc = _run(ROOT, *args, "--seed", "3", "--seconds", "1")
        assert proc.returncode == 0, proc.stderr
        printed, result = _printed_names(proc.stdout)
        assert printed <= declared.keys()
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
