"""End-to-end regression suite replaying the worked comparisons.

Each check re-derives a known closed-form quantity or order relation and
verifies the library reproduces it at a pinned tolerance.  This is the same
list the ``verify-paper`` CLI command runs; every item prints one pass/fail
line there.  ``CHECKS`` is the only place these assertions are written: the
acceptance tests run each check as it stands.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .generators import DEFAULT_TOL, IntervalGrid, geval, normalize, numeric_inverse
from .operators import (
    FamilySpec,
    catalog,
    check_axioms,
    complete_to_tnorm,
    from_generator,
    lukasiewicz_fixture,
    make_family,
    yager_fixture,
)
from .ordering import (
    DOMINATES,
    FAILS,
    HOLDS,
    _profile,
    compose,
    concavity_criterion,
    direct_compare,
    dominated_or_equal,
    family_monotonicity_scan,
    nilpotent_guard,
    proper_never_dominates_tnorm_check,
    ratio_profile_criterion,
    run_criterion,
    subadditivity_test,
)
from .asymptotics import _envelope, _slope_A, _sup_slope, small_slope_B

SQRT13 = math.sqrt(13.0)
LN2 = math.log(2.0)


class CheckFailure(AssertionError):
    pass


def _expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


def _over_rational(f, label):
    """(s1, s2) with s1 = f o s2 for s2(x) = 2/x - 1, so s1 o s2^{-1} = f.

    f maps [1, inf] into itself, increasing, with f(1) = 1.  s1 needs no
    closed inverse: the composed map inverts only s2.
    """
    s2 = make_family(FamilySpec("rational", {"a": 0.5})).generator
    return numeric_inverse(lambda x: f(s2.fn(x)), 1.0, label), s2


def psi_shifted_generator():
    """s1 = psi o s2 for s2(x) = 2/x - 1: subadditive map, decreasing ratio."""
    return _over_rational(
        lambda u: np.where(u <= 2.0, -u * u + 4.0 * u - 2.0, u), "psi_shifted")


def remark_fixture_maps():
    """Concave-but-not-subadditive maps f on [1, inf], each as (f o s2) o s2^{-1}."""
    f1 = compose(*_over_rational(lambda u: 2.0 * (u - 1.0) + 1.0, "affine_k2"))
    f2 = compose(*_over_rational(
        lambda u: np.where(u <= 2.0, 2.0 * u - 1.0, 0.5 * u + 2.0),
        "piecewise_halfslope"))
    # ln(2e^u - e) written overflow-free as u + ln(2 - e^(1-u))
    f3 = compose(*_over_rational(lambda u: u + np.log(2.0 - np.exp(1.0 - u)),
                                 "log_two_exp"))
    return [f2, f3], f1


def check_example_values() -> str:
    """Hamacher vs reciprocal pair: exact corner values and a strict verdict."""
    start = time.perf_counter()
    T1 = make_family(FamilySpec("hamacher0"))
    T2 = make_family(FamilySpec("reciprocal_minus_x"))
    v1, v2 = T1(0.5, 0.5), T2(0.5, 0.5)
    _expect(abs(v1 - 1.0 / 3.0) <= 1e-9, f"T1(0.5,0.5) = {v1}")
    _expect(abs(v2 - (SQRT13 - 3.0) / 2.0) <= 1e-9, f"T2(0.5,0.5) = {v2}")
    grid = IntervalGrid.uniform(201)
    verdict = direct_compare(T1, T2, grid)
    _expect(verdict.relation == DOMINATES, f"verdict {verdict.relation}")
    _expect(v1 - v2 > 1e-6, "no strict gap at (0.5, 0.5)")
    rep = run_criterion("ratio", T2, T1, grid)
    _expect(rep.verdict == HOLDS, "ratio (1+x) criterion did not certify T2 <= T1")
    xs = np.linspace(0.05, 0.95, 20)
    ratio = geval(T2.generator, xs) / geval(T1.generator, xs)
    _expect(float(np.max(np.abs(ratio - (1.0 + xs)))) <= 1e-9,
            "generator ratio != 1 + x")
    elapsed = time.perf_counter() - start
    _expect(elapsed < 1.0, f"too slow: {elapsed:.2f}s")
    return f"values exact, dominates with strict gap, ratio certified ({elapsed:.2f}s)"


def check_subadditivity_trio() -> str:
    """Three generator pairs with closed-form composed maps."""
    start = time.perf_counter()
    grid = IntervalGrid.uniform(101)
    P = make_family(FamilySpec("product"))
    H = make_family(FamilySpec("hamacher0"))
    HP = make_family(FamilySpec("half_product"))
    R5 = make_family(FamilySpec("rational", {"a": 0.5}))
    R7 = make_family(FamilySpec("rational", {"a": 0.7}))

    u = np.concatenate([np.linspace(0.01, 50.0, 50), np.linspace(0.01, 60.0, 50)])
    m1 = compose(P.generator, H.generator)
    _expect(float(np.max(np.abs(m1(u) - np.log(u + 1.0)))) <= 1e-9,
            "h != ln(u+1) for the product/Hamacher pair")
    _expect(subadditivity_test(m1, grid).verdict == HOLDS, "pair 1 subadditivity")
    _expect(dominated_or_equal(direct_compare(P, H, grid)), "pair 1 oracle")

    m2 = compose(normalize(HP.generator), H.generator)
    _expect(subadditivity_test(m2, grid).verdict == HOLDS, "pair 2 subadditivity")
    _expect(dominated_or_equal(direct_compare(HP, H, grid)), "pair 2 oracle")

    u3 = np.concatenate([np.linspace(1.0, 50.0, 50), np.linspace(1.0, 60.0, 50)])
    m3 = compose(R5.generator, R7.generator)
    _expect(float(np.max(np.abs(m3(u3) - (3.0 * u3 + 2.0) / 5.0))) <= 1e-9,
            "h != (3u+2)/5 for the rational pair")
    _expect(subadditivity_test(m3, grid).verdict == HOLDS, "pair 3 subadditivity")
    _expect(dominated_or_equal(direct_compare(R5, R7, grid)), "pair 3 oracle")
    elapsed = time.perf_counter() - start
    _expect(elapsed < 2.0, f"too slow: {elapsed:.2f}s")
    return f"all three maps match closed forms to 1e-9 ({elapsed:.2f}s)"


def check_matrix_equivalence() -> str:
    """Subadditivity verdict == oracle dominated-or-equal over the catalog."""
    start = time.perf_counter()
    grid = IntervalGrid.uniform(101)
    members = catalog()
    _expect(len(members) >= 10, f"catalog has only {len(members)} members")
    mismatches = []
    for S1 in members:
        for S2 in members:
            if S1 is S2:
                continue
            sub = run_criterion("subadditivity", S1, S2, grid)
            oracle = direct_compare(S1, S2, grid)
            if (sub.verdict == HOLDS) != dominated_or_equal(oracle):
                mismatches.append((S1.label, S2.label, sub.verdict,
                                   oracle.relation))
    elapsed = time.perf_counter() - start
    _expect(not mismatches, f"mismatched cells: {mismatches[:4]}")
    _expect(elapsed < 30.0, f"too slow: {elapsed:.2f}s")
    n = len(members)
    return f"{n * (n - 1)} ordered pairs agree ({elapsed:.2f}s)"


FAMILY_CHAINS = [
    ("dombi_sub", {"a": 0.6}, [0.5, 1.0, 2.0, 4.0], "concavity", "increasing"),
    ("ss_sub", {"a": 0.5}, [-3.0, -2.0, -1.0], "derivative_ratio", "decreasing"),
    ("log_sub", {"a": 0.5}, [1.0, 2.0], "ratio", "increasing"),
]


def check_family_chain(family, fixed, lambdas, criterion, expected):
    """One row of ``FAMILY_CHAINS``: the chain direction, with strict witnesses."""
    grid = IntervalGrid.uniform(101)
    scan = family_monotonicity_scan(family, fixed, lambdas, criterion, grid)
    _expect(scan["chain"] == expected,
            f"{family}: chain {scan['chain']}, expected {expected}")
    for step in scan["steps"]:
        _expect(step["agree"], f"{family} step {step['pair']}: "
                f"criterion {step['criterion'].verdict}")
        w = step["oracle"].witnesses[0]
        _expect(abs(w[2] - w[3]) > 1e-6,
                f"{family} step {step['pair']}: witness not strict")


def check_family_chains() -> str:
    """Dombi increasing, Schweizer-Sklar decreasing, log-power increasing."""
    for row in FAMILY_CHAINS:
        check_family_chain(*row)
    return "three chains certified with strict witnesses"


def check_psi_construction():
    """psi o s2 gives a subadditive map whose generator ratio decreases."""
    grid = IntervalGrid.uniform(101)
    s1, s2 = psi_shifted_generator()
    m = compose(s1, s2)
    _expect(subadditivity_test(m, grid).verdict == HOLDS,
            "psi construction should be subadditive")
    rep = ratio_profile_criterion(m, grid)
    _expect(rep.verdict == FAILS, "psi ratio should decrease somewhere")
    # the witness is in u = s2(x), and psi(u)/u = 4 - u - 2/u increases
    # exactly on [1, sqrt 2]
    u = rep.worst_case[0]
    _expect(1.0 <= u < math.sqrt(2.0),
            f"decrease found at u = {u}, expected in [1, {math.sqrt(2.0):.4f})")


def check_remark_maps():
    """The remark's maps are concave yet fail subadditivity at a checked pair."""
    grid = IntervalGrid.uniform(101)
    others, f1 = remark_fixture_maps()
    for fm in [f1] + others:
        c = concavity_criterion(fm, grid)
        _expect(c.details["midpoint_concave"], f"{fm.label} should be concave")
        s = subadditivity_test(fm, grid)
        _expect(s.verdict == FAILS, f"{fm.label} should fail subadditivity")
        _expect(s.worst_case is not None and s.worst_case[2] > 1e-6,
                f"{fm.label}: no explicit counterexample pair")
        u, v, _ = s.worst_case
        gap = float(fm(u + v)) - float(fm(u)) - float(fm(v))
        _expect(gap > 1e-6, f"{fm.label}: m(u+v) - m(u) - m(v) = {gap} at ({u}, {v})")


def check_converse_fixtures() -> str:
    """Sufficient criteria are not necessary: the documented counterexamples."""
    check_psi_construction()
    check_remark_maps()
    return "psi passes subadd/fails ratio; f1,f2,f3 concave yet superadditive"


def check_growth_numbers() -> str:
    """Slopes and envelopes for the two closed-form maps."""
    grid = IntervalGrid.uniform(101)
    P = make_family(FamilySpec("product"))
    H = make_family(FamilySpec("hamacher0"))
    m1 = compose(P.generator, H.generator)  # h = ln(u+1)
    u, hu = _profile(m1, grid)  # h sampled once per map: A, envelope, normalized B
    A1 = _slope_A(m1, u, hu)
    B1 = small_slope_B(m1, grid)  # a strict pair: probes at x -> 0, no samples
    _expect(A1.converged and abs(A1.value) <= 1e-3, f"A = {A1.value}")
    _expect(B1.converged and abs(B1.value - 1.0) <= 1e-3, f"B = {B1.value}")
    _expect(abs(A1.value - A1.sample_infimum) <= 1e-3,
            f"A vs inf phi: {A1.value} vs {A1.sample_infimum}")
    _expect(_envelope(u, hu, 0.0, 1.0, DEFAULT_TOL).verdict == HOLDS,
            "0 <= ln(u+1) <= u envelope")

    R5 = make_family(FamilySpec("rational", {"a": 0.5}))
    R7 = make_family(FamilySpec("rational", {"a": 0.7}))
    m2 = compose(R5.generator, R7.generator)  # h = (3u+2)/5
    u, hu = _profile(m2, grid)
    A2 = _slope_A(m2, u, hu)
    B2 = _sup_slope(u, hu, DEFAULT_TOL)  # a normalized pair: the sup over samples
    _expect(A2.converged and abs(A2.value - 0.6) <= 1e-3 * 0.6, f"A = {A2.value}")
    _expect(abs(A2.value - A2.sample_infimum) <= 1e-3 * 0.6,
            f"A vs inf phi: {A2.value} vs {A2.sample_infimum}")
    _expect(abs(B2.value - 1.0) <= 1e-3, f"B = {B2.value}")
    _expect(_envelope(u, hu, 0.6, 1.0, DEFAULT_TOL).verdict == HOLDS,
            "3/5 <= phi <= 1 envelope")
    return "A/B limits and envelopes match the closed forms"


def check_guards() -> str:
    """No member is below a nilpotent t-norm; no proper member above a t-norm."""
    grid = IntervalGrid.uniform(41)
    members = catalog()
    luka = lukasiewicz_fixture()
    yager2 = yager_fixture(2.0)
    for S in members:
        for T in (luka, yager2):
            rep = nilpotent_guard(S, T, grid)
            _expect(rep.verdict == FAILS and "n" in rep.details
                    and rep.details["s_power"] > 0,
                    f"{S.label} vs {T.label}: no power witness")
    stricts = [S for S in members if S.is_strict]
    propers = [S for S in members if S.is_proper]
    _expect(stricts and propers, "catalog lacks a strict or a proper member")
    for S in propers:
        for T in stricts:
            rep = proper_never_dominates_tnorm_check(S, T, grid)
            _expect(rep.verdict == HOLDS, f"{S.label} vs {T.label}: {rep.notes}")
    return (f"{len(members)}x2 power witnesses, "
            f"{len(propers)}x{len(stricts)} boundary witnesses")


def check_structural() -> str:
    """Axioms, t-norm completion, normalization invariance for the catalog."""
    grid = IntervalGrid.uniform(21)
    for S in catalog():
        report = check_axioms(S, grid)
        _expect(report.all_pass, f"{S.label}: axiom failure")
        _expect(report.associative.residual <= 1e-9,
                f"{S.label}: associativity residual {report.associative.residual}")
        T = complete_to_tnorm(S)
        neutral = np.abs(T.surface(grid.points, np.asarray(1.0)) - grid.points)
        _expect(float(np.max(neutral)) <= 1e-9,
                f"{S.label}: completed operator lacks neutral 1")
        if S.is_proper:
            Sn = from_generator(normalize(S.generator))
            X, Y = grid.points[:, None], grid.points[None, :]
            gap = np.max(np.abs(S.surface(X, Y) - Sn.surface(X, Y)))
            _expect(float(gap) <= 1e-9, f"{S.label}: normalization changed S")
    return "axioms, completion and normalization all within 1e-9"


def check_product_isomorphism_replay() -> str:
    """xy/2 below the Hamacher product through the product isomorphism."""
    grid = IntervalGrid.uniform(101)
    HP = make_family(FamilySpec("half_product"))
    H = make_family(FamilySpec("hamacher0"))
    s, t = normalize(HP.generator), H.generator
    u = np.linspace(0.02, 1.0, 50)
    g = compose(s, t)(-np.log(u))
    expected = 1.0 + np.log(1.0 - np.log(u)) / LN2
    _expect(float(np.max(np.abs(g - expected))) <= 1e-9,
            "g != 1 + ln(1 - ln u)/ln 2")
    _expect(run_criterion("strict_dominance", HP, H, grid).verdict == HOLDS,
            "submultiplicative-additivity should hold")
    _expect(dominated_or_equal(direct_compare(HP, H, grid)),
            "oracle should confirm xy/2 <= Hamacher product")
    return "transported generator matches; dominance certified and confirmed"


CHECKS = [
    ("example-values", check_example_values),
    ("subadditivity-trio", check_subadditivity_trio),
    ("catalog-matrix", check_matrix_equivalence),
    ("family-chains", check_family_chains),
    ("converse-fixtures", check_converse_fixtures),
    ("growth-numbers", check_growth_numbers),
    ("guards", check_guards),
    ("structural", check_structural),
    ("product-isomorphism", check_product_isomorphism_replay),
]


def run_all() -> bool:
    """Run every check, print one pass/fail line each; True iff all pass."""
    ok = True
    for name, fn in CHECKS:
        try:
            detail = fn()
            print(f"PASS {name}: {detail}")
        except CheckFailure as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
    return ok
