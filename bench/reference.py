"""The pinned reference the benchmark checks outputs against.

Verdicts come from one brute-force scan per pair on a graded grid that holds
every grid the workloads use: uniform 2001 (which contains the uniform 101,
401 and 1001 grids) plus 60 geometric points in [1e-6, 0.1] and 0.  Only
``TSubnorm.surface`` is used, never a criterion or ``direct_compare``.
Sample values are ``TSubnorm.surface`` on a 14-point axis.

The file also lists the seed's known wrong verdicts (``known_seed_defects``):
outputs of the code under test that disagree with the reference when the
reference was pinned.  They still count in ``error_rate``; only a wrong output
missing from this list makes a run incorrect.

Regenerate with ``PYTHONPATH=src python3 bench/reference.py`` (about a
minute, 400 MB peak).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import members
from subnorms import generators, ordering, verify

DATA = Path(__file__).resolve().parent / "data"
VERDICTS_PATH = DATA / "reference.json"
SAMPLES_PATH = DATA / "samples.npz"

MARGIN = 1e-6  # the library's default verdict margin, fixed here
VALUE_TOL = 1e-9  # absolute tolerance on operator values

REF_AXIS = np.unique(np.concatenate([
    [0.0], np.linspace(0.0, 1.0, 2001), np.geomspace(1e-6, 0.1, 60)]))
# point-query and surface-sample coordinates; k/10 lies on every workload grid
SAMPLE_AXIS = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 11), np.geomspace(1e-6, 1e-2, 3)]))
ON_GRID = np.flatnonzero(np.isin(SAMPLE_AXIS, np.linspace(0.0, 1.0, 11)))

SURFACE_SIZES = (401, 1001, 2001)
COMPARE_GRID = 101
CLI_RESOLUTION = 101

CODES = {ordering.DOMINATED: "<", ordering.DOMINATES: ">",
         ordering.EQUAL: "=", ordering.INCOMPARABLE: "|"}
RELATIONS = {c: r for r, c in CODES.items()}


def relation(hi: float, lo: float, margin: float = MARGIN) -> str:
    """The order of S1, S2 from the extremes of S1 - S2 on a grid."""
    if hi <= margin and lo >= -margin:
        return ordering.EQUAL
    if hi <= margin:
        return ordering.DOMINATED
    if lo >= -margin:
        return ordering.DOMINATES
    return ordering.INCOMPARABLE


def extrema(ops: list, pairs: list[tuple[int, int]], axis: np.ndarray = REF_AXIS,
            block: int = 128) -> dict[tuple[int, int], tuple[float, float]]:
    """max and min of S_i - S_j over axis x axis, scanned in row blocks."""
    used = sorted({k for p in pairs for k in p})
    hi = {p: -np.inf for p in pairs}
    lo = {p: np.inf for p in pairs}
    for start in range(0, axis.size, block):
        rows = axis[start:start + block, None]
        surf = {k: ops[k].surface(rows, axis[None, :]) for k in used}
        buf = np.empty((rows.size, axis.size))
        for i, j in pairs:
            np.subtract(surf[i], surf[j], out=buf)
            hi[i, j] = max(hi[i, j], float(buf.max()))
            lo[i, j] = min(lo[i, j], float(buf.min()))
    return {p: (hi[p], lo[p]) for p in pairs}


def reference_verdicts(ops: list, pairs: list[tuple[int, int]]) -> dict:
    return {p: relation(*e) for p, e in extrema(ops, pairs).items()}


def sample_values(ops: list) -> np.ndarray:
    X, Y = SAMPLE_AXIS[:, None], SAMPLE_AXIS[None, :]
    return np.stack([S.surface(X, Y) for S in ops])


def surface_csv(S, n: int) -> bytes:
    """The documented `surface` CSV: header, then x,y,z rows at %.9g."""
    axis = np.linspace(0.0, 1.0, n)
    Z = S.surface(axis[:, None], axis[None, :])
    lines = ["x,y,z"]
    for i, x in enumerate(axis):
        for j, y in enumerate(axis):
            lines.append(f"{x:.9g},{y:.9g},{Z[i, j]:.9g}")
    return ("\n".join(lines) + "\n").encode()


def defect_key(kind: str, i: int, j: int, n: int) -> str:
    return f"{kind}:{i}:{j}:{n}"


@dataclass(frozen=True)
class Reference:
    verdicts: list[str]
    known: frozenset
    samples: np.ndarray
    csv_sha256: dict
    checks: list[str]

    def verdict(self, i: int, j: int) -> str:
        return RELATIONS[self.verdicts[i][j]]

    def judge(self, relation_: str, key: str, i: int, j: int) -> str:
        """'ok', 'known' (a pinned seed defect) or 'wrong'."""
        if relation_ == self.verdict(i, j):
            return "ok"
        return "known" if key in self.known else "wrong"

    def value_ok(self, member: int, a: int, b: int, value: float) -> bool:
        return abs(value - self.samples[member, a, b]) <= VALUE_TOL


def load() -> Reference:
    doc = json.loads(VERDICTS_PATH.read_text())
    with np.load(SAMPLES_PATH, allow_pickle=False) as z:
        if not np.array_equal(z["axis"], SAMPLE_AXIS):
            raise ValueError("samples.npz was pinned on another axis")
        samples = z["values"]
    return Reference(doc["verdicts"], frozenset(doc["known_seed_defects"]),
                     samples, doc["surface_csv_sha256"], doc["verify_checks"])


def seed_defects(ext: list, twins: list, ref: dict) -> list[str]:
    """Outputs of the code under test that disagree with the reference."""
    out = []
    grid = generators.IntervalGrid.uniform(COMPARE_GRID)
    for (i, j), truth in ref.items():
        if ordering.compare(ext[i], ext[j], grid).relation != truth:
            out.append(defect_key("compare", i, j, COMPARE_GRID))
    for i, j in members.ordered_pairs(len(twins)):
        if ordering.compare(twins[i], twins[j], grid).relation != ref[i, j]:
            out.append(defect_key("numeric", i, j, COMPARE_GRID))
    oracle_runs = [(p, n) for p in members.oracle_pairs() for n in SURFACE_SIZES]
    oracle_runs += [(p, COMPARE_GRID)
                    for chain in members.chain_pairs().values() for p in chain]
    for (i, j), n in oracle_runs:
        v = ordering.direct_compare(ext[i], ext[j], generators.IntervalGrid.uniform(n))
        if v.relation != ref[i, j]:
            out.append(defect_key("oracle", i, j, n))
    return sorted(set(out))


def regenerate() -> None:
    ext = members.build_extended()
    pairs = members.ordered_pairs(len(ext))
    print(f"reference verdicts for {len(pairs)} pairs on {REF_AXIS.size}^2",
          file=sys.stderr)
    ref = reference_verdicts(ext, pairs)
    rows = ["".join("." if i == j else CODES[ref[i, j]] for j in range(len(ext)))
            for i in range(len(ext))]
    print("seed defects", file=sys.stderr)
    known = seed_defects(ext, members.build_numeric_twins(), ref)
    print("cli surface digests", file=sys.stderr)
    digests = {members.spec_text(s): hashlib.sha256(surface_csv(S, CLI_RESOLUTION)).hexdigest()
               for s, S in zip(members.CATALOG_SPECS, ext)}
    doc = {
        "about": "pinned by bench/reference.py; see its docstring",
        "margin": MARGIN,
        "reference_axis": {"uniform": 2001, "geomspace": [1e-6, 0.1, 60],
                           "zero": True, "points": int(REF_AXIS.size)},
        "codes": {c: r for r, c in CODES.items()},
        "members": [members.spec_text(s) for s in members.EXTENDED_SPECS],
        "verdicts": rows,
        "known_seed_defects": known,
        "surface_csv_resolution": CLI_RESOLUTION,
        "surface_csv_sha256": digests,
        "verify_checks": [name for name, _ in verify.CHECKS],
    }
    DATA.mkdir(exist_ok=True)
    VERDICTS_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    np.savez_compressed(SAMPLES_PATH, axis=SAMPLE_AXIS, values=sample_values(ext))
    print(f"wrote {VERDICTS_PATH.name} ({len(known)} known seed defects) "
          f"and {SAMPLES_PATH.name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
