"""Operator sets the workloads run on, and their command-line spellings.

The extended catalog is ``catalog()`` (13 members, same order) followed by 51
family members, 64 in all; it gives 4032 ordered pairs.  Members are built
through module attributes (``operators.make_family``) at call time, so the
tracer's patches apply to them.
"""

from __future__ import annotations

import numpy as np

from subnorms import generators, operators

FamilySpec = operators.FamilySpec

CATALOG_SPECS = [
    FamilySpec("product"),
    FamilySpec("hamacher0"),
    FamilySpec("reciprocal_minus_x"),
    FamilySpec("aa_tnorm", {"l": 2.0}),
    FamilySpec("half_product"),
    FamilySpec("rational", {"a": 0.5}),
    FamilySpec("rational", {"a": 0.7}),
    FamilySpec("dombi_sub", {"a": 0.6, "l": 1.0}),
    FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0}),
    FamilySpec("aa_sub", {"a": 0.5, "l": 2.0}),
    FamilySpec("ss_sub", {"a": 0.5, "l": -2.0}),
    FamilySpec("log_sub", {"a": 0.5, "l": 1.0}),
    FamilySpec("log_sub", {"a": 0.5, "l": 2.0}),
]

FAMILY_AS = (0.2, 0.4, 0.8)
# one-parameter chains: family -> lambda values; every member is in the
# extended catalog, so the cli `scan` outputs can be checked pair by pair
CHAINS = {
    "dombi_sub": (0.3, 0.7, 1.5, 3.0),
    "aa_sub": (0.3, 0.7, 1.5, 3.0),
    "log_sub": (0.3, 0.7, 1.5, 3.0),
    "ss_sub": (-0.5, -1.5, -4.0),
}

EXTENDED_SPECS = (
    CATALOG_SPECS
    + [FamilySpec(fam, {"a": a, "l": lam})
       for fam in ("dombi_sub", "aa_sub", "log_sub")
       for a in FAMILY_AS for lam in CHAINS[fam]]
    + [FamilySpec("ss_sub", {"a": a, "l": lam})
       for a in FAMILY_AS for lam in CHAINS["ss_sub"]]
    + [FamilySpec("rational", {"a": a}) for a in FAMILY_AS]
    + [FamilySpec("aa_tnorm", {"l": lam}) for lam in (0.5, 1.5, 3.0)]
)

N_CATALOG = len(CATALOG_SPECS)
N_EXTENDED = len(EXTENDED_SPECS)


def spec_text(spec: FamilySpec) -> str:
    """The CLI spelling ``name[:key=val,...]``; floats round-trip exactly."""
    if not spec.params:
        return spec.family
    return spec.family + ":" + ",".join(f"{k}={v!r}" for k, v in spec.params.items())


def index_of(family: str, a: float, lam: float) -> int:
    """Position of a family member in the extended catalog."""
    return EXTENDED_SPECS.index(FamilySpec(family, {"a": a, "l": lam}))


def build_extended() -> list:
    return [operators.make_family(s) for s in EXTENDED_SPECS]


def build_numeric_twins() -> list:
    """The 13 catalog members rebuilt with no closed inverse: every inversion bisects."""
    twins = []
    for S in operators.catalog():
        g = S.generator
        twins.append(operators.from_generator(generators.numeric_inverse(
            g.fn, g.boundary_at_one, g.label, g.family, g.params)))
    return twins


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def chain_pairs() -> dict[tuple[str, float], list[tuple[int, int]]]:
    """Adjacent (lhs, rhs) extended-catalog indices of every scan chain."""
    out = {}
    for fam, lams in CHAINS.items():
        for a in FAMILY_AS:
            idx = [index_of(fam, a, lam) for lam in lams]
            out[fam, a] = list(zip(idx, idx[1:]))
    return out


def oracle_pairs() -> list[tuple[int, int]]:
    """Pairs the `surfaces` workload runs the oracle on at its large sizes.

    The ROADMAP's near-0 miss, dombi_sub(a=0.2,l=0.3) vs aa_sub(a=0.2,l=3),
    plus 15 pairs drawn once with a fixed seed, so the pinned reference can
    record the seed's oracle verdict for each pair at each size.
    """
    pairs = ordered_pairs(N_EXTENDED)
    picks = np.random.default_rng(0).choice(len(pairs), 15, replace=False)
    miss = (index_of("dombi_sub", 0.2, 0.3), index_of("aa_sub", 0.2, 3.0))
    return [miss] + [pairs[int(k)] for k in picks if pairs[int(k)] != miss]
