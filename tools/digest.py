"""One SHA-256 per output family of the order engine, for refactors that must
keep every output bit for bit.

Run from the root of a checkout; it imports the package from that checkout's
``src`` and the operator sets from its ``bench/members.py``, so the same
command on two trees gives two lists to diff:

    python tools/digest.py

Each line is ``<family> <sha256>``.  The families are ``compare`` records
(``serialize_verdict``) on the extended pairs, the numeric-inverse twins, the
catalog and the catalog against fixtures; oracle records on the benchmark's
oracle pairs; the named criteria's reports; axioms, the nilpotent guard and
the Section 4 equivalences; point values (``float.hex``) through ``evaluate``
and ``surface``; surfaces of several shapes; the ``verify-paper`` lines with
their timings masked; and the stdout of a few CLI commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import members  # noqa: E402
from subnorms import cli  # noqa: E402
from subnorms import (  # noqa: E402
    CRITERION_NAMES,
    IntervalGrid,
    check_axioms,
    compare,
    complete_to_tnorm,
    compose,
    direct_compare,
    dual_superconorm,
    evaluate,
    lukasiewicz_fixture,
    nilpotent_guard,
    run_criterion,
    section4_equivalences,
    serialize_report,
    serialize_verdict,
    verify,
    yager_fixture,
)

GRIDS = {
    "u101": IntervalGrid.uniform(101),
    "u201": IntervalGrid.uniform(201),
    "r101": IntervalGrid.random(101, np.random.default_rng(0)),
}
CLI_RUNS = [
    ["eval", "dombi:a=0.6,l=2", "0.3", "0.7"],
    ["compare", "rational:a=0.5", "rational:a=0.7"],
    ["compare", "product", "rational:a=0.5"],
    ["compare", "half_product", "yager:l=2", "--grid", "401"],
    ["compare", "half_product", "hamacher0", "--criterion", "strict_dominance"],
    ["scan", "dombi:a=0.6", "--lambdas", "0.5,1,2,4", "--criterion", "concavity"],
    ["surface", "dombi:a=0.6,l=2", "--resolution", "41"],
]
# 0, subnormal and tiny arguments, the decade points and the top edge
EDGE = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 0.7, 1.0 - 2.0 ** -53, 1.0]


def sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
        h.update(b"\n")
    return h.hexdigest()


def pairs_of(ops):
    return [(a, b) for a in ops for b in ops if a is not b]


def verdicts(pairs, grid):
    return [serialize_verdict(compare(S1, S2, grid)) for S1, S2 in pairs]


def families():
    ext = members.build_extended()
    twins = members.build_numeric_twins()
    cat = ext[:members.N_CATALOG]
    ext_pairs = [(ext[i], ext[j]) for i, j in members.ordered_pairs(members.N_EXTENDED)]
    u101 = GRIDS["u101"]

    yield "compare/extended/u101", verdicts(ext_pairs, u101)
    for name in ("u201", "r101"):
        yield f"compare/extended/{name}/every7", verdicts(ext_pairs[::7], GRIDS[name])
    for name, grid in GRIDS.items():
        yield f"compare/twins/{name}", verdicts(pairs_of(twins), grid)
    yield "compare/twins/second-pass", [
        verdicts(pairs_of(twins), grid) for grid in GRIDS.values()]
    for name, grid in GRIDS.items():
        yield f"compare/catalog/{name}", verdicts(pairs_of(cat), grid)

    S = cat[4]  # half_product, a proper member
    fixtures = [lukasiewicz_fixture(), yager_fixture(2.0),
                complete_to_tnorm(S), dual_superconorm(S)]
    yield "compare/catalog-x-fixtures", [
        verdicts([(A, F), (F, A)], u101) for A in cat for F in fixtures]

    oracle = [(ext[i], ext[j]) for i, j in members.oracle_pairs()[:8]]
    for n in (401, 1001):
        grid = IntervalGrid.uniform(n)
        yield f"oracle/{n}", [serialize_verdict(direct_compare(S1, S2, grid))
                              for S1, S2 in oracle]

    yield "criteria", [serialize_report(run_criterion(name, S1, S2, u101))
                       for name in CRITERION_NAMES for S1, S2 in pairs_of(cat)]

    yield "check_axioms", [check_axioms(A, u101) for A in cat + twins[:3]]
    yield "nilpotent_guard", [serialize_report(nilpotent_guard(A, F, u101))
                              for A in cat for F in fixtures[:2]]
    yield "section4_equivalences", [
        sorted((k, serialize_report(r), r.details)
               for k, r in section4_equivalences(compose(S1.generator, S2.generator),
                                                 u101).items())
        for S1, S2 in pairs_of(cat)]

    ops = cat + twins + fixtures
    yield "points/evaluate", [evaluate(A, x, y).hex() for A in ops for x in EDGE for y in EDGE]
    yield "points/surface", [float(A.surface(x, y)).hex()
                             for A in ops for x in EDGE for y in EDGE]

    for n, ops_n in ((101, cat + twins + fixtures), (401, cat + twins[:2]),
                     (1001, cat[:4] + fixtures[:2])):
        ax = np.linspace(0.0, 1.0, n)
        yield f"surface/square/{n}", [
            A.surface(ax[:, None], ax[None, :]).tobytes() for A in ops_n]
    rows, cols = np.linspace(0.0, 1.0, 301), np.geomspace(1e-9, 1.0, 77)
    yield "surface/rectangle", [A.surface(rows[:, None], cols[None, :]).tobytes()
                                for A in cat + twins[:2]]
    a, b = np.linspace(0.0, 1.0, 23), np.linspace(0.0, 1.0, 17)
    yield "surface/broadcast-3d", [
        A.surface(a[:, None, None] * b[None, :, None], b[None, None, :] ** 2).tobytes()
        for A in cat + twins[:2] + fixtures]

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok = verify.run_all()
    yield "verify-paper", [ok, re.sub(r"\(\d+\.\d+s\)", "(-s)", out.getvalue())]

    runs = []
    for argv in CLI_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runs.append((cli.main(argv), out.getvalue()))
    yield "cli", runs


def main() -> int:
    for name, chunks in families():
        print(name, sha(chunks), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
