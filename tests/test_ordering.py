"""Order decisions: the grid oracle, the certificates, and their agreement."""

import json
import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorms import (
    FamilySpec,
    IntervalGrid,
    ParameterError,
    affine_shift,
    catalog,
    compare,
    complete_to_tnorm,
    compose,
    concavity_criterion,
    direct_compare,
    dual_superconorm,
    equality_test,
    family_monotonicity_scan,
    from_generator,
    lukasiewicz_fixture,
    make_family,
    nilpotent_guard,
    normalize,
    numeric_inverse,
    proper_never_dominates_tnorm_check,
    quasi_homogeneity_criterion,
    ratio_profile_criterion,
    subadditivity_test,
    yager_fixture,
)
from subnorms.ordering import (
    CRITERION_NAMES,
    ComparisonVerdict,
    CriterionReport,
    DOMINATED,
    DOMINATES,
    EQUAL,
    FAILS,
    HOLDS,
    INCOMPARABLE,
    NOT_APPLICABLE,
    UNKNOWN,
    ComposedMap,
    dominated_or_equal,
    map_samples,
    run_criterion,
    serialize_report,
    serialize_verdict,
)
from subnorms.cli import main, parse_operator_spec
from subnorms import generators, operators, ordering
from subnorms.generators import DEFAULT_TOL, SOLVER_CHUNK, ToleranceProfile, ginvert
from subnorms.operators import Fixture, TSubnorm
from subnorms import verify
from subnorms.verify import psi_shifted_generator, remark_fixture_maps

GRID = IntervalGrid.uniform(101)
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "data" / "reference.json"


def half_product_fixture():
    return Fixture(fn=lambda x, y, tol: np.asarray(x) * np.asarray(y) / 2.0,
                   label="xy/2")


class TestOracle:
    def test_incomparable_pair_with_witnesses(self):
        v = direct_compare(half_product_fixture(), yager_fixture(2.0), GRID)
        assert v.relation == INCOMPARABLE
        assert len(v.witnesses) == 2
        signs = {w[2] > w[3] for w in v.witnesses}
        assert signs == {True, False}
        # xy/2 wins deep inside (Yager is 0 there), loses at the corner
        x, y, lhs, rhs = max(v.witnesses, key=lambda w: w[2] - w[3])
        assert lhs > rhs
        assert half_product_fixture()(0.3, 0.3) == pytest.approx(0.045)
        assert yager_fixture(2.0)(0.3, 0.3) == pytest.approx(
            1.0 - math.sqrt(0.98), abs=1e-12)  # ~0.0101, below 0.045
        assert yager_fixture(2.0)(1.0, 1.0) == 1.0  # above 0.5 at the corner

    def test_rational_chain(self):
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("rational", {"a": 0.7}))
        assert direct_compare(S1, S2, GRID).relation == DOMINATED
        assert direct_compare(S2, S1, GRID).relation == DOMINATES

    def test_equal_on_rescaled_generator(self):
        g = make_family(FamilySpec("rational", {"a": 0.5})).generator
        S = from_generator(g)
        Sc = from_generator(affine_shift(g, 3.0, 0.0))
        assert direct_compare(S, Sc, GRID).relation == EQUAL

    def test_self_comparison_is_equal(self):
        S = make_family(FamilySpec("product"))
        v = direct_compare(S, S, GRID)
        assert v.relation == EQUAL
        assert v.margin == 1e-6

    @given(st.sampled_from(range(len(catalog()))),
           st.sampled_from(range(len(catalog()))))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry_property(self, i, j):
        members = catalog()
        grid = IntervalGrid.uniform(31)
        fwd = direct_compare(members[i], members[j], grid).relation
        rev = direct_compare(members[j], members[i], grid).relation
        flip = {DOMINATED: DOMINATES, DOMINATES: DOMINATED,
                EQUAL: EQUAL, INCOMPARABLE: INCOMPARABLE}
        assert rev == flip[fwd]


def oracle_kinds():
    """Every kind of operator the oracle sees: the extended catalog, the
    numeric twins, the nilpotent fixtures, completions and duals."""
    ref = json.loads(REFERENCE.read_text())
    members = [make_family(parse_operator_spec(text)) for text in ref["members"]]
    twins = [from_generator(numeric_inverse(g.fn, g.boundary_at_one, g.label,
                                            g.family, g.params))
             for g in (S.generator for S in catalog())]
    fixtures = [lukasiewicz_fixture()] + [yager_fixture(lam) for lam in (0.5, 2.0, 3.0)]
    return (members + twins + fixtures + [complete_to_tnorm(S) for S in catalog()]
            + [dual_superconorm(S) for S in catalog()])


def full_matrix_oracle(S1, S2, pts, surface):
    """The oracle written as a scan of every cell: d = surface(S1) - surface(S2)
    on the whole square grid over pts, its max, min and first argmax, argmin
    and argmax |d|."""
    d = surface(S1) - surface(S2)
    m = DEFAULT_TOL.verdict_margin
    hi, lo = float(np.max(d)), float(np.min(d))

    def witness(idx):
        i, j = np.unravel_index(idx, d.shape)
        x, y = float(pts[i]), float(pts[j])
        return (x, y, float(S1.surface(x, y)), float(S2.surface(x, y)))

    if hi <= m and lo >= -m:
        relation, wits = EQUAL, [witness(np.argmax(np.abs(d)))]
    elif hi <= m:
        relation, wits = DOMINATED, [witness(np.argmin(d))]
    elif lo >= -m:
        relation, wits = DOMINATES, [witness(np.argmax(d))]
    else:
        relation = INCOMPARABLE
        wits = [witness(np.argmax(d)), witness(np.argmin(d))]
    return ComparisonVerdict(relation, wits, "direct_compare", m)


ZERO = Fixture(fn=lambda x, y, tol: np.zeros(np.broadcast(x, y).shape), label="0")


def banded(near, far):
    """A fixture that is ``near`` on 0.5 < x + y < 0.6, ``far`` on x + y > 1.5
    and 0 elsewhere: the near band comes first in row-major order."""
    def fn(x, y, tol):
        s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
        return np.where((s > 0.5) & (s < 0.6), near, np.where(s > 1.5, far, 0.0))
    return Fixture(fn=fn, label=f"banded({near:g},{far:g})")


class TestTriangleScan:
    """The oracle scans one triangle of the symmetric grid in row blocks."""

    @pytest.mark.parametrize("n", [101, 401])
    def test_surfaces_are_symmetric(self, n):
        # the precondition: every operator's grid surface equals its transpose
        grid = IntervalGrid.uniform(n)
        P = np.concatenate([[0.0], grid.axis])
        asym = [S.label for S in oracle_kinds()
                if not np.array_equal(d := S.surface(P[:, None], P[None, :]), d.T)]
        assert asym == []

    @pytest.mark.parametrize("grid", [IntervalGrid.uniform(401),
                                      IntervalGrid.random(301, np.random.default_rng(0))],
                             ids=["uniform401", "random301"])
    def test_matches_full_matrix_scan(self, grid):
        pts = np.concatenate([[0.0], grid.axis])
        assert pts.size ** 2 > 2 * SOLVER_CHUNK  # several blocks
        members, Y2 = catalog(), yager_fixture(2.0)
        cache = {}

        def surfaces(S):
            if S.label not in cache:
                cache[S.label] = S.surface(pts[:, None], pts[None, :])
            return cache[S.label]

        pairs = ([(S1, S2) for S1 in members for S2 in members]  # S vs S: EQUAL, |d| all 0
                 + [p for S in members for p in ((S, Y2), (Y2, S))]
                 # |d| tied at both extremes; NaN before and after a maximum
                 + [(banded(a, b), ZERO) for a, b in ((1e-7, -1e-7), (-1e-7, 1e-7),
                                                     (1.0, np.nan), (np.nan, 1.0))])
        for S1, S2 in pairs:
            assert serialize_verdict(direct_compare(S1, S2, grid)) == serialize_verdict(
                full_matrix_oracle(S1, S2, pts, surfaces)), (S1.label, S2.label)

    @pytest.mark.parametrize("S1, S2", [
        (make_family(FamilySpec("rational", {"a": 0.5})),
         make_family(FamilySpec("rational", {"a": 0.7}))),
        (make_family(FamilySpec("product")), yager_fixture(2.0))],
        ids=["rational", "product-yager"])
    def test_memory_stays_linear(self, S1, S2):
        # one 2007^2 float array is 32 MB; the blocks stay below 4 MB
        grid = IntervalGrid.uniform(2001)
        tracemalloc.start()
        try:
            direct_compare(S1, S2, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestOracleKernel:
    """The oracle evaluates each operand's per-axis values once and combines blocks."""

    def test_each_generator_evaluated_once(self, monkeypatch):
        grid = IntervalGrid.uniform(401)
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0}))
        seen = []
        real = operators.geval

        def counting(g, x):
            seen.append(np.size(x))
            return real(g, x)

        for module in (generators, operators, ordering):
            monkeypatch.setattr(module, "geval", counting)
        v = direct_compare(S1, S2, grid)
        # one axis per operand, plus s(x) and s(y) per operand at each witness
        assert sum(seen) <= 2 * (grid.axis.size + 1) + 4 * len(v.witnesses)

    def test_generator_against_fixture_matches_full_scan(self):
        grid = IntervalGrid.uniform(401)
        pts = np.concatenate([[0.0], grid.axis])
        g = make_family(FamilySpec("aa_sub", {"a": 0.5, "l": 2.0})).generator
        S = from_generator(numeric_inverse(g.fn, g.boundary_at_one, "aa_sub/numeric"))
        L = lukasiewicz_fixture()

        def surface(op):
            return op.surface(pts[:, None], pts[None, :])

        for S1, S2 in ((S, L), (L, S)):
            assert serialize_verdict(direct_compare(S1, S2, grid)) == serialize_verdict(
                full_matrix_oracle(S1, S2, pts, surface))


class TestSubadditivity:
    def test_characterizes_order_both_ways(self):
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        m = compose(P.generator, H.generator)  # h = ln(u+1), subadditive
        assert subadditivity_test(m, GRID).verdict == HOLDS
        back = compose(H.generator, P.generator)  # h = e^u - 1, superadditive
        rep = subadditivity_test(back, GRID)
        assert rep.verdict == FAILS
        assert rep.worst_case is not None and rep.worst_case[2] > 1e-6

    def test_matches_oracle_on_random_grid(self):
        grid = IntervalGrid.random(40, np.random.default_rng(3))
        members = catalog()[:6]
        for S1 in members:
            for S2 in members:
                if S1 is S2:
                    continue
                sub = run_criterion("subadditivity", S1, S2, grid)
                oracle = direct_compare(S1, S2, grid)
                assert (sub.verdict == HOLDS) == dominated_or_equal(oracle), \
                    (S1.label, S2.label)


class TestMarginFloor:
    """s1 = f o s2 for s2(x) = 2/x - 1 and a convex f that leaves u <= 1e7 alone:
    the surfaces differ only where s2(x) + s2(y) > 1e7, so min(x, y) < 4e-7,
    in the strip the grid does not sample.  At a margin of 1e-9 both compare
    and the oracle called the pair equal, although S1 - S2 is 24 margins at
    x = y = 2e-7."""

    @staticmethod
    def pair():
        s1, s2 = verify._over_rational(
            lambda u: np.where(u <= 1e7, u, u + (u - 1e7) ** 2 / 1e7), "convex_tail")
        return from_generator(s1), from_generator(s2)

    def test_equal_at_the_default_margin_and_no_finer_margin(self):
        S1, S2 = self.pair()
        gap = S1(2e-7, 2e-7) - S2(2e-7, 2e-7)
        assert 1e-9 < gap < DEFAULT_TOL.verdict_margin
        assert compare(S1, S2, GRID).relation == EQUAL
        assert direct_compare(S1, S2, GRID).relation == EQUAL
        with pytest.raises(ParameterError, match="verdict_margin must be at least"):
            ToleranceProfile(verdict_margin=1e-9)


class TestEquality:
    def test_linear_map_detected(self):
        g = make_family(FamilySpec("product")).generator
        S = from_generator(g)
        Sc = from_generator(affine_shift(g, 5.0, 0.0))
        m = compose(Sc.generator, S.generator)  # h(u) = 5u
        rep = equality_test(m, GRID)
        assert rep.verdict == HOLDS
        assert rep.details["c"] == pytest.approx(5.0, rel=1e-9)

    def test_nonlinear_map_rejected(self):
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        assert equality_test(compose(P.generator, H.generator), GRID).verdict == FAILS


class TestSufficientCertificates:
    def test_concavity_certifies_rational_pair(self):
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("rational", {"a": 0.7}))
        assert run_criterion("concavity", S1, S2, GRID).verdict == HOLDS

    def test_concavity_side_condition_blocks_affine_offset(self):
        # h = 2u - 1 is concave but h(u) > u for u > 1: certificate must fail
        fixtures, f1 = remark_fixture_maps()
        rep = concavity_criterion(f1, GRID)
        assert rep.details["midpoint_concave"]
        assert rep.details["upper_bound_ok"] is False
        assert rep.verdict == FAILS

    @pytest.mark.parametrize("name", ["concavity", "derivative_ratio"])
    def test_side_condition_when_rhs_is_proper(self, name):
        # d = s2(1) = 1 but h(d) = s1(1) = 0, so h(u) <= u*h(d)/d fails for u > d:
        # product and rational(0.5) are incomparable
        P = make_family(FamilySpec("product"))
        R = make_family(FamilySpec("rational", {"a": 0.5}))
        assert run_criterion(name, P, R, GRID).verdict == FAILS

    def test_quasi_homogeneity_on_affine_map(self):
        R5 = make_family(FamilySpec("rational", {"a": 0.5}))
        R7 = make_family(FamilySpec("rational", {"a": 0.7}))
        m = compose(R5.generator, R7.generator)  # h = (3u+2)/5
        assert quasi_homogeneity_criterion(m, GRID).verdict == HOLDS

    def test_quasi_homogeneity_needs_convexity(self):
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        m = compose(P.generator, H.generator)  # h = ln(u+1)
        assert quasi_homogeneity_criterion(m, GRID).verdict == NOT_APPLICABLE

    def test_ratio_certifies_one_plus_x(self):
        # ratio of the reciprocal and Hamacher generators is 1 + x
        R = make_family(FamilySpec("reciprocal_minus_x"))
        H = make_family(FamilySpec("hamacher0"))
        assert run_criterion("ratio", R, H, GRID).verdict == HOLDS
        assert run_criterion("ratio", H, R, GRID).verdict == FAILS

    def test_ratio_profile_on_composed_map(self):
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        m = compose(P.generator, H.generator)  # phi = ln(u+1)/u decreasing
        assert ratio_profile_criterion(m, GRID).verdict == HOLDS
        back = compose(H.generator, P.generator)
        assert ratio_profile_criterion(back, GRID).verdict == FAILS

    def test_derivative_ratio(self):
        R = make_family(FamilySpec("reciprocal_minus_x"))
        H = make_family(FamilySpec("hamacher0"))
        # d(1/x - x)/d((1-x)/x) = (1/x^2 + 1)/(1/x^2) = 1 + x^2 non-decreasing
        assert run_criterion("derivative_ratio", R, H, GRID).verdict == HOLDS
        assert run_criterion("derivative_ratio", H, R, GRID).verdict == FAILS

    def test_derivative_ratio_is_concavity_of_h(self):
        # s1'/s2' non-decreasing in x is h' non-increasing in u = s2(x); the
        # ratio drops only below x ~ 1e-3, under the grid, where h is sampled
        # at the decade points
        S1 = make_family(FamilySpec("dombi_sub", {"a": 0.2, "l": 0.3}))
        S2 = make_family(FamilySpec("aa_tnorm", {"l": 3.0}))
        rep = run_criterion("derivative_ratio", S1, S2, GRID)
        assert rep.verdict == FAILS
        concave = concavity_criterion(compose(normalize(S1.generator), S2.generator), GRID)
        assert (rep.verdict, rep.worst_case, rep.notes) \
            == (concave.verdict, concave.worst_case, concave.notes)

    @pytest.mark.parametrize("named, base", [("ratio", "ratio_profile"),
                                             ("derivative_ratio", "concavity")])
    def test_restated_criterion_reruns_its_base(self, named, base):
        # s1/s2 at x is h(u)/u at u = s2(x), and s1'/s2' at x is h'(u): same
        # verdict and the same witness, in u
        members = catalog()
        for S1 in members:
            for S2 in members:
                if S1 is not S2:
                    got, want = (run_criterion(n, S1, S2, GRID) for n in (named, base))
                    assert (got.verdict, got.worst_case) \
                        == (want.verdict, want.worst_case), (S1.label, S2.label)


class TestConverseFailures:
    def test_psi_construction(self):
        verify.check_psi_construction()

    def test_remark_maps_concave_but_superadditive(self):
        verify.check_remark_maps()

    def test_converse_maps_reproduce_their_closed_forms(self):
        # each map is s1 o s2^{-1} with s1 = f o s2, so it must be f itself
        others, f1 = remark_fixture_maps()
        maps = [f1] + others + [compose(*psi_shifted_generator())]
        closed = [lambda u: 2.0 * u - 1.0,
                  lambda u: np.where(u <= 2.0, 2.0 * u - 1.0, 0.5 * u + 2.0),
                  lambda u: np.log(2.0 * np.exp(u) - np.e),
                  lambda u: np.where(u <= 2.0, 4.0 * u - u * u - 2.0, u)]
        for m, f in zip(maps, closed):
            u = map_samples(m, IntervalGrid.uniform(101))
            with np.errstate(over="ignore"):
                fu = f(u)
            fin = np.isfinite(fu)  # e^u overflows far out; check those in f3's form
            assert fin.sum() >= 90
            np.testing.assert_array_less(
                np.abs(m(u[fin]) - fu[fin]), 1e-9 * np.maximum(1.0, np.abs(fu[fin])))

    def test_every_composed_map_is_a_generator_pair(self):
        import subnorms
        assert not hasattr(subnorms, "from_callable")
        assert [f.name for f in fields(ComposedMap)] == ["lhs", "rhs", "tol"]
        m = compose(*psi_shifted_generator())
        assert (m.domain_start, m.both_normalized) == (1.0, True)
        assert m.label == "psi_shifted o inv(rational(a=0.5))"


class TestStrictTnormDominance:
    def test_half_product_below_hamacher(self):
        HP = make_family(FamilySpec("half_product"))
        H = make_family(FamilySpec("hamacher0"))
        assert run_criterion("strict_dominance", HP, H, GRID).verdict == HOLDS

    def test_superadditive_pair_fails(self):
        # rational(0.5) and aa_tnorm(3) are incomparable
        R = make_family(FamilySpec("rational", {"a": 0.5}))
        A = make_family(FamilySpec("aa_tnorm", {"l": 3.0}))
        rep = run_criterion("strict_dominance", R, A, GRID)
        assert (rep.verdict, rep.notes) == (FAILS, "submultiplicative-additivity fails")

    def test_no_overflow_warning(self):
        # t^{-1} underflows and s overflows at large w; no inf - inf residual
        S = make_family(FamilySpec("ss_sub", {"a": 0.2, "l": -4.0}))
        T = make_family(FamilySpec("aa_tnorm", {"l": 0.5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = run_criterion("strict_dominance", S, T, GRID)
        assert rep.verdict in (HOLDS, FAILS)

    def test_not_applicable_cases(self):
        P = make_family(FamilySpec("product"))
        HP = make_family(FamilySpec("half_product"))
        assert run_criterion("strict_dominance", HP, HP, GRID).verdict == NOT_APPLICABLE
        assert run_criterion("strict_dominance", P, P, GRID).verdict == NOT_APPLICABLE

    def test_logarithmic_equality(self):
        P = make_family(FamilySpec("product"))
        A = make_family(FamilySpec("aa_tnorm", {"l": 2.0}))
        rep = run_criterion("logarithmic_equality", P, P, GRID)
        assert rep.verdict == HOLDS
        assert rep.details["c"] == pytest.approx(1.0, rel=1e-9)
        assert run_criterion("logarithmic_equality", A, P, GRID).verdict == FAILS

    def test_fixture_left_operand_not_applicable(self):
        P = make_family(FamilySpec("product"))
        L = lukasiewicz_fixture()
        assert run_criterion("strict_dominance", L, P, GRID).verdict == NOT_APPLICABLE
        assert run_criterion("logarithmic_equality", L, P, GRID).verdict == NOT_APPLICABLE


class TestGuards:
    def test_nilpotent_guard_yields_power_witness(self):
        S = make_family(FamilySpec("product"))
        rep = nilpotent_guard(S, yager_fixture(2.0), GRID)
        assert rep.verdict == FAILS
        assert rep.details["s_power"] > 0
        assert rep.details["n"] >= 2

    def test_nilpotent_guard_without_a_vanishing_power(self):
        # Yager(1e4) is min(x, y) to within rounding: no power vanishes in 500 steps
        S = make_family(FamilySpec("product"))
        rep = nilpotent_guard(S, yager_fixture(1e4), IntervalGrid.uniform(41))
        assert (rep.verdict, rep.notes) == (NOT_APPLICABLE,
                                            "no vanishing power found on the grid")

    def test_nilpotent_guard_rejects_strict_rhs(self):
        S = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        assert nilpotent_guard(S, H, GRID).verdict == NOT_APPLICABLE

    def test_proper_boundary_witness(self):
        HP = make_family(FamilySpec("half_product"))
        P = make_family(FamilySpec("product"))
        rep = proper_never_dominates_tnorm_check(HP, P, GRID)
        assert rep.verdict == HOLDS
        x, s_val, t_val = rep.worst_case
        assert s_val < x == t_val

    def test_proper_lhs_without_a_boundary_gap(self):
        # s(1) = 1e-9: S(x, 1) falls short of x by less than the margin
        P = make_family(FamilySpec("product"))
        S = TSubnorm(affine_shift(P.generator, 1.0, 1e-9))
        rep = proper_never_dominates_tnorm_check(S, P, IntervalGrid.uniform(41))
        assert (rep.verdict, rep.notes) == (FAILS, "no boundary gap found")

    def test_strict_lhs_not_applicable(self):
        P = make_family(FamilySpec("product"))
        assert proper_never_dominates_tnorm_check(P, P, GRID).verdict == NOT_APPLICABLE

    def test_proper_rhs_is_not_a_tnorm(self):
        # T(x, 1) < x for a proper T, so the boundary row rules nothing out;
        # HOLDS against half_product would be wrong: half_product <= rational(0.5)
        R = make_family(FamilySpec("rational", {"a": 0.5}))
        HP = make_family(FamilySpec("half_product"))
        assert compare(HP, R, GRID).relation == DOMINATED
        for T in (R, HP):
            rep = proper_never_dominates_tnorm_check(R, T, GRID)
            assert (rep.verdict, rep.notes) == (NOT_APPLICABLE,
                                                "right operand is not a t-norm")

    def test_tnorm_rhs_gets_the_boundary_witness(self):
        R = make_family(FamilySpec("rational", {"a": 0.5}))
        for T in (lukasiewicz_fixture(), yager_fixture(2.0), complete_to_tnorm(R)):
            rep = proper_never_dominates_tnorm_check(R, T, GRID)
            assert rep.verdict == HOLDS, T.label
            x, s_val, t_val = rep.worst_case
            assert s_val < x == t_val

    def test_guards_use_the_callers_tol(self):
        # a bisecting twin whose inverse moves with inversion_tol
        g = make_family(FamilySpec("rational", {"a": 0.5})).generator
        S = from_generator(numeric_inverse(g.fn, g.boundary_at_one, "rational/numeric"))
        tol = ToleranceProfile(inversion_tol=1e-7)
        rep = nilpotent_guard(S, lukasiewicz_fixture(), GRID, tol)
        x, n = rep.details["x"], rep.details["n"]

        def power(t):
            acc = x
            for _ in range(n - 1):
                acc = float(S.surface(x, acc, t))
            return acc

        assert rep.details["s_power"] == power(tol) != power(DEFAULT_TOL)
        rep = proper_never_dominates_tnorm_check(S, make_family(FamilySpec("product")),
                                                 GRID, tol)
        x, s_val, _ = rep.worst_case
        assert s_val == float(S.surface(x, 1.0, tol)) != float(S.surface(x, 1.0))


def _chain_row(family):
    return next(row for row in verify.FAMILY_CHAINS if row[0] == family)


def criteria_map(S, T):
    """h = s o t^{-1} of the criteria generators: normalized for proper operands."""
    return compose(*(normalize(X.generator) if X.is_proper else X.generator
                     for X in (S, T)))


# named row -> (reported name, base test, FAILS note or None to keep the
# test's, h from (S1, S2) or None where the row does not apply)
RESTATED = {
    "ratio": ("ratio_criterion", ratio_profile_criterion, "generator ratio decreases",
              criteria_map),
    "derivative_ratio": ("derivative_ratio_criterion", concavity_criterion, None,
                         criteria_map),
    "strict_dominance": ("strict_dominance_test", subadditivity_test,
                         "submultiplicative-additivity fails",
                         lambda S, T: compose(normalize(S.generator), T.generator)
                         if T.is_strict and S.is_proper else None),
    "logarithmic_equality": ("logarithmic_equality_test", equality_test,
                             "g is not logarithmic",
                             lambda S, T: compose(S.generator, T.generator)
                             if T.is_strict else None),
}


# every named row: the five base tests under their own names and the four
# restatements
ROWS = {**{name: (test.__name__, test, None, criteria_map)
           for name, test in (("subadditivity", subadditivity_test),
                              ("equality", equality_test),
                              ("concavity", concavity_criterion),
                              ("quasi_homogeneity", quasi_homogeneity_criterion),
                              ("ratio_profile", ratio_profile_criterion))},
        **RESTATED}


class TestMapTolerance:
    """Every test on h reads its tolerance off the map: a row run at a
    tolerance gives its base test's report on h composed at that tolerance."""

    TOL = ToleranceProfile(verdict_margin=1e-4, inversion_tol=1e-10)
    TIGHT = replace(TOL, verdict_margin=DEFAULT_TOL.verdict_margin)

    @staticmethod
    def near_margin_pairs():
        """Pairs with residuals between the margins 1e-6 and 1e-4, each with
        the rows whose reports differ between the two margins."""
        e = 1e-5
        P, R = catalog()[0], catalog()[5]
        twins = numeric_twins()
        w = -math.log(1e-6)  # the largest sample w = -ln x
        q = (1.0 + e) / (2.0 * w * w)

        def log_term(c):  # h(u) = u + c ln u over s2 = R's
            s2 = R.generator.fn
            return from_generator(numeric_inverse(
                lambda x: s2(x) + c * np.log(s2(x)), 1.0, f"s+{c:g}*ln(s)")), R

        affine_rows = {"subadditivity", "equality", "concavity", "quasi_homogeneity",
                       "derivative_ratio"}
        return [
            # h(u) = (1 + e)u - e: superadditive by e, off linear by e, and
            # above u*h(1) by e*(u - 1), the side condition of concavity
            ((from_generator(affine_shift(R.generator, 1.0 + e, -e)), R), affine_rows),
            # h concave by e*ln(4/3)/2 at (1, 3): midpoint convex, so
            # quasi-homogeneity applies, only within the wider margin
            (log_term(e), affine_rows),
            # h convex by as much: midpoint concave only within the wider margin
            (log_term(-e), affine_rows - {"quasi_homogeneity"}),
            # one operator (1 - log2 x, and -ln(x/2) normalized) up to the solver
            ((twins[4], twins[11]),
             {"equality", "concavity", "ratio", "ratio_profile", "derivative_ratio"}),
            # s = -ln x + e over t = -ln x: h(w) = w + e, off linear by e
            ((from_generator(affine_shift(P.generator, 1.0, e)), P),
             {"logarithmic_equality"}),
            # h(w) = 1 + w + q w^2 over t = -ln x: superadditive by e at (w, w)
            ((from_generator(numeric_inverse(
                lambda x: 1.0 - np.log(x) + q * np.log(x) ** 2, 1.0, "1+t+qt^2")), P),
             {"subadditivity", "strict_dominance"}),
        ]

    def test_rows_read_the_map_tolerance(self):
        pairs = self.near_margin_pairs()
        assert set().union(*(rows for _, rows in pairs)) == set(CRITERION_NAMES)
        for (S1, S2), rows in pairs:
            moved = set()
            for name, (reported, base, failure, build) in ROWS.items():
                got = run_criterion(name, S1, S2, GRID, self.TOL)
                h = build(S1, S2)
                if h is None:
                    assert (got.criterion, got.verdict) == (reported, NOT_APPLICABLE)
                    continue
                want = base(replace(h, tol=self.TOL), GRID)
                notes = want.notes if want.holds or failure is None else failure
                assert got == replace(want, criterion=reported, notes=notes), \
                    (name, S1.label, S2.label)
                if want != base(replace(h, tol=self.TIGHT), GRID):
                    moved.add(name)
            assert moved == rows, (S1.label, S2.label)


class TestScansAndCompare:
    def test_dombi_chain_increasing(self):
        verify.check_family_chain(*_chain_row("dombi_sub"))

    def test_ss_chain_decreasing(self):
        verify.check_family_chain(*_chain_row("ss_sub"))

    def test_scan_needs_two_lambdas(self):
        with pytest.raises(ParameterError):
            family_monotonicity_scan("log_sub", {"a": 0.5}, [1.0], "ratio", GRID)

    def test_compare_pipeline_matches_oracle(self):
        members = catalog()
        grid = IntervalGrid.uniform(51)
        for S1, S2 in [(members[0], members[1]), (members[5], members[6]),
                       (members[4], members[1]), (members[7], members[8])]:
            fast = compare(S1, S2, grid)
            oracle = direct_compare(S1, S2, grid)
            assert fast.relation == oracle.relation, (S1.label, S2.label)

    def test_compare_named_criterion_records_verdict(self, capsys):
        # the CLI prints the oracle's record with the named test's verdict
        assert main(["compare", "rational:a=0.5", "rational:a=0.7",
                     "--criterion", "subadditivity"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["criterion: subadditivity:holds", f"verdict: {DOMINATED}"]

    @staticmethod
    def counting(spec, calls):
        """spec's operator with a generator fn that counts its calls by label."""
        g = make_family(spec).generator

        def fn(x):
            calls[g.label] = calls.get(g.label, 0) + 1
            return g.fn(x)
        return TSubnorm(replace(g, fn=fn))

    def test_compare_samples_the_pair_once(self):
        # a ratio-decided pair: s2 gives the samples u, s1 gives h(u) and the
        # equality fit's h(u0); the ratio reads the same sample
        calls = {}
        S1 = self.counting(FamilySpec("rational", {"a": 0.5}), calls)
        S2 = self.counting(FamilySpec("rational", {"a": 0.7}), calls)
        assert compare(S1, S2, GRID).criterion == "ratio_criterion"
        assert calls == {S1.label: 2, S2.label: 1}

    def test_odd_sample_count_reads_the_median_from_the_sample(self):
        # a strict s2 gives 103 positive samples, so u0 is a sample and the
        # equality fit reads h(u0) from h(u) instead of evaluating s1 again
        calls = {}
        S1 = self.counting(FamilySpec("product"), calls)
        S2 = self.counting(FamilySpec("hamacher0"), calls)
        assert compare(S1, S2, GRID).criterion == "ratio_criterion"
        assert calls == {S1.label: 1, S2.label: 1}
        # the slope is the one a call at u0 gives
        m = compose(S1.generator, S2.generator)
        u = map_samples(m, GRID)
        u0 = float(np.median(u[u > 0]))
        assert equality_test(m, GRID).details["c"] == float(m(u0)) / u0

    @pytest.mark.parametrize("name", CRITERION_NAMES)
    def test_registry_dispatches_every_name(self, name):
        report_names = {
            "subadditivity": "subadditivity_test",
            "equality": "equality_test",
            "concavity": "concavity_criterion",
            "quasi_homogeneity": "quasi_homogeneity_criterion",
            "ratio": "ratio_criterion",
            "ratio_profile": "ratio_profile_criterion",
            "derivative_ratio": "derivative_ratio_criterion",
            "strict_dominance": "strict_dominance_test",
            "logarithmic_equality": "logarithmic_equality_test",
        }
        # the CLI help text and error messages print this tuple in this order
        assert CRITERION_NAMES == tuple(report_names)
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        rep = run_criterion(name, P, H, GRID)
        assert isinstance(rep, CriterionReport)
        assert rep.criterion == report_names[name]

    @pytest.mark.parametrize("name", [n for n in CRITERION_NAMES if n not in
                                      ("strict_dominance", "logarithmic_equality")])
    def test_fixture_operand_typed_error(self, name):
        P = make_family(FamilySpec("product"))
        L = lukasiewicz_fixture()
        for S1, S2 in [(L, P), (P, L)]:
            with pytest.raises(ParameterError, match="generator-backed"):
                run_criterion(name, S1, S2, GRID)

    def test_unknown_criterion_rejected(self):
        S = make_family(FamilySpec("product"))
        with pytest.raises(ParameterError):
            run_criterion("mystery", S, S, GRID)
        assert "subadditivity" in CRITERION_NAMES

    @pytest.mark.parametrize("name", list(RESTATED))
    def test_restated_row_is_its_base_test_renamed(self, name):
        # the whole report, details included, on the 156 catalog pairs
        reported, base, failure, build = RESTATED[name]
        members = catalog()
        for S1 in members:
            for S2 in members:
                if S1 is S2:
                    continue
                got = run_criterion(name, S1, S2, GRID)
                h = build(S1, S2)
                if h is None:
                    assert (got.criterion, got.verdict) == (reported, NOT_APPLICABLE)
                    continue
                want = base(h, GRID)
                notes = want.notes if want.holds or failure is None else failure
                assert got == replace(want, criterion=reported, notes=notes), \
                    (S1.label, S2.label)


FLIP = {DOMINATED: DOMINATES, DOMINATES: DOMINATED, EQUAL: EQUAL,
        INCOMPARABLE: INCOMPARABLE}


def residual_sizes(monkeypatch) -> list[int]:
    """The sample count n of each ``_pair_residuals`` call, appended as it runs."""
    sizes = []
    build = ordering._pair_residuals

    def counted(u, *args):
        sizes.append(u.size)
        return build(u, *args)

    monkeypatch.setattr(ordering, "_pair_residuals", counted)
    return sizes


class TestResidualMatrix:
    """compare's exact step: one residual matrix of h decides both directions;
    an incomparable verdict is settled on a 14-sample coarse matrix, and the
    full matrix runs only for a one-sided verdict."""

    @pytest.mark.parametrize("swap", [False, True])
    def test_oracle_miss_is_incomparable(self, swap):
        # the 101^2 oracle calls these dominated/dominates; the reference and
        # the residual matrix find a violation near 0 in each direction
        S1 = make_family(FamilySpec("dombi_sub", {"a": 0.2, "l": 0.3}))
        S2 = make_family(FamilySpec("aa_tnorm", {"l": 3.0}))
        if swap:
            S1, S2 = S2, S1
        v = compare(S1, S2, GRID)
        assert (v.relation, v.criterion) == (INCOMPARABLE, "subadditivity_test")
        (x1, y1, a1, b1), (x2, y2, a2, b2) = v.witnesses
        assert a1 > b1 and a2 < b2
        for x, y, lhs, rhs in v.witnesses:
            assert (S1(x, y), S2(x, y)) == (lhs, rhs)

    def test_violation_that_does_not_reproduce_is_unknown(self, monkeypatch):
        # R finds a violation in each direction; surfaces that show neither
        # S1 > S2 nor S1 < S2 at the witnesses make the verdict unknown, and
        # the coarse matrix, whose witnesses do not reproduce, falls through
        P = make_family(FamilySpec("product"))
        R = make_family(FamilySpec("rational", {"a": 0.5}))
        monkeypatch.setattr(TSubnorm, "surface", lambda self, x, y, tol=None:
                            np.zeros(np.broadcast(x, y).shape))
        sizes = residual_sizes(monkeypatch)
        v = compare(P, R, GRID)
        assert (v.relation, v.criterion) == (UNKNOWN, "subadditivity_test")
        assert [(lhs, rhs) for _, _, lhs, rhs in v.witnesses] == [(0.0, 0.0)] * 2
        assert sizes == [14, 104]

    def test_matrix_and_oracle_share_the_relation_table(self, monkeypatch):
        # with both certificates failing, every catalog pair reaches the
        # residual matrix, whose verdict must be the oracle's; all four
        # relations occur, so every row of the table is read by both
        monkeypatch.setattr(ordering, "_linear_fit", lambda *args: (False, (), 0.0))
        monkeypatch.setattr(ordering, "_monotone_scan", lambda *args: (False, ()))
        members = catalog()
        seen = {}
        for S1 in members:
            for S2 in members:
                if S1 is S2:
                    continue
                v = compare(S1, S2, GRID)
                assert v.criterion == "subadditivity_test"
                assert v.relation == direct_compare(S1, S2, GRID).relation, \
                    (S1.label, S2.label, v)
                seen[v.relation] = seen.get(v.relation, 0) + 1
        assert seen == {INCOMPARABLE: 52, DOMINATED: 50, DOMINATES: 50, EQUAL: 4}

    def test_swapping_mirrors_the_verdict(self):
        signs = {DOMINATED: [-1.0], DOMINATES: [1.0], INCOMPARABLE: [1.0, -1.0]}
        members = catalog()
        decided = set()
        for S1 in members:
            for S2 in members:
                if S1 is S2:
                    continue
                v = compare(S1, S2, GRID)
                assert compare(S2, S1, GRID).relation == FLIP[v.relation]
                decided.add(v.criterion)
                if v.criterion != "subadditivity_test":
                    assert v.witnesses == [], v
                elif v.relation == EQUAL:
                    [(x, y, lhs, rhs)] = v.witnesses
                    assert abs(lhs - rhs) <= v.margin
                else:
                    assert [np.sign(lhs - rhs) for _, _, lhs, rhs in v.witnesses] \
                        == signs[v.relation], (S1.label, S2.label, v)
        assert decided == {"equality_test", "ratio_criterion", "subadditivity_test"}


def numeric_twins():
    return [from_generator(numeric_inverse(g.fn, g.boundary_at_one, g.label,
                                           g.family, g.params))
            for g in (S.generator for S in catalog())]


def pair_maps(members):
    """h of every ordered pair of members, as compare builds it."""
    return [ordering._section3_map(S1, S2, DEFAULT_TOL)
            for S1 in members for S2 in members if S1 is not S2]


def old_witnesses(S1, S2, X, Y, tol=DEFAULT_TOL):
    """The witnesses from one surface call per operand on the arrays X, Y."""
    return [tuple(map(float, w))
            for w in zip(X, Y, S1.surface(X, Y, tol), S2.surface(X, Y, tol))]


class TestTriangleOfH:
    """h over sample pairs is evaluated on one triangle and mirrored."""

    @pytest.mark.parametrize("combine", [np.add, ordering._midpoint],
                             ids=["add", "midpoint"])
    @pytest.mark.parametrize("kind", ["closed", "numeric"])
    def test_matches_the_full_square(self, kind, combine):
        # bit for bit, f(combine(U, V)) on the full square: the residual here
        # is f itself, so the matrix is compared before any subtraction
        members = catalog() if kind == "closed" else numeric_twins()
        for m in pair_maps(members):
            u = map_samples(m, GRID)
            hu = m(u)
            fc, allow = ordering._pair_residuals(
                u, hu, m, combine, lambda fc, fu, fv: fc, DEFAULT_TOL.verdict_margin)
            full = m(combine(u[:, None], u[None, :]))
            assert fc.shape == full.shape == (u.size, u.size)
            assert fc.tobytes() == full.tobytes(), m.label
            want = ordering._slack(DEFAULT_TOL.verdict_margin, hu[:, None], hu[None, :])
            assert allow.tobytes() == want.tobytes()

    def test_compare_inverts_one_triangle(self, monkeypatch):
        # an incomparable twin pair is settled on the coarse matrix: the n
        # samples x = g2^{-1}(u) and one triangle of 14 samples go to the array
        # solver, not n^2/2 targets; the witness coordinates are read off x
        targets = 0
        solve = generators._bracket_invert

        def counted(g, u, tol):
            nonlocal targets
            targets += u.size
            return solve(g, u, tol)

        twins = numeric_twins()
        P, R = twins[0], twins[5]
        n = map_samples(ordering._section3_map(P, R, DEFAULT_TOL), GRID).size
        monkeypatch.setattr(generators, "_bracket_invert", counted)
        v = compare(P, R, GRID)
        assert (v.relation, v.criterion) == (INCOMPARABLE, "subadditivity_test")
        assert targets == n + 14 * 15 // 2


def fresh(S: TSubnorm) -> TSubnorm:
    """S rebuilt from a copy of its generator, whose cache starts empty."""
    return from_generator(replace(S.generator))


class TestRightOperandSample:
    """compare keeps a solver-backed right operand's sample (u, x = g2^{-1}(u)
    and the inverses solved before the full matrix) in the cache of its
    criteria generator g2, per grid axis and tolerance: the records equal
    those of fresh operands, and a warm call solves only what the full matrix
    needs."""

    def test_records_match_fresh_operands(self):
        fine = ToleranceProfile(inversion_tol=1e-10)
        grids = [IntervalGrid.uniform(101), IntervalGrid.uniform(201),
                 IntervalGrid.random(101, np.random.default_rng(0))]
        tols = (DEFAULT_TOL, fine)
        # the axis changes at a fixed tolerance, then the tolerance at a fixed axis
        settings = ([(grid, tol) for tol in tols for grid in grids]
                    + [(grid, tol) for grid in grids for tol in tols])
        twins, closed = numeric_twins(), catalog()
        # incomparable on the coarse matrix, a log_sub twin on the right, a
        # one-sided pair that needs the full matrix, and two pairs whose
        # records differ from grid to grid
        pairs = [(twins[0], twins[5]), (twins[0], twins[11]), (twins[12], twins[10]),
                 (twins[3], twins[5]), (twins[12], twins[5]), (closed[0], closed[5])]
        compare(*pairs[0], GRID)
        # an operand rebuilt with another generator reads that generator's
        # cache, which holds no sample or normalized generator yet
        swapped = replace(twins[5], generator=twins[12].generator)
        assert "rhs" in twins[5].generator._cache
        assert not {"rhs", "normalized"} & swapped.generator._cache.keys()
        pairs.append((twins[0], swapped))
        for grid, tol in settings:
            for S1, S2 in pairs:
                want = compare(fresh(S1), fresh(S2), grid, tol)
                assert repr(compare(S1, S2, grid, tol)) == repr(want), \
                    (S1.label, S2.label, grid.points.size, tol)
                # the kept sample is solved at this call's tolerance, which
                # these records do not show
                g2 = ordering._normalized(S2)
                side = ordering._rhs_sample(g2, grid, tol)
                assert side.x.tobytes() == ginvert(g2, side.u, tol).tobytes()
        assert "rhs" in twins[5].generator._cache
        assert "rhs" not in closed[5].generator._cache

    def test_warm_compare_solves_only_the_full_matrix(self, monkeypatch):
        # ginvert's solvers, patched in generators, count compare's own
        # inverses of g2; the witness values S(x, y) come from each operand's
        # point kernel, which inverts one target per point through the float
        # inverse that a scalar ginvert also runs
        twins = numeric_twins()
        pairs = [(S1, S2) for S1 in twins for S2 in twins if S1 is not S2]
        for S1, S2 in pairs:
            compare(S1, S2, GRID)
        counts = {}
        bracket, point = generators._bracket_invert, generators._invert_float

        def counted(key, solve, size):
            def run(g, u, tol):
                counts[key] += size(u)
                return solve(g, u, tol)
            return run

        monkeypatch.setattr(generators, "_bracket_invert",
                            counted("ginvert", bracket, np.size))
        monkeypatch.setattr(generators, "_invert_float",
                            counted("ginvert", point, lambda u: 1))
        monkeypatch.setattr(operators, "_invert_float",
                            counted("kernel", point, lambda u: 1))
        sizes = residual_sizes(monkeypatch)
        full = 0
        for S1, S2 in pairs:
            sizes.clear()
            counts.update(ginvert=0, kernel=0)
            v = compare(S1, S2, GRID)
            if len(sizes) == 2:
                full += 1
                assert counts["ginvert"] > 0
                continue
            assert counts["ginvert"] == 0, (S1.label, S2.label)
            assert counts["kernel"] <= 2 * len(v.witnesses)
        assert full == 4

    def test_criteria_share_the_kept_sample(self, monkeypatch):
        # once g2 holds its sample, neither a second run_criterion nor a bare
        # map with another generator on the left solves u again: the one
        # array of solver targets is the triangle of pair sums; the reports
        # are those of fresh generators
        twins, closed = numeric_twins(), catalog()
        S1, S2 = twins[0], twins[5]
        g1, g2 = closed[6].generator, S2.generator
        want = [run_criterion("subadditivity", fresh(S1), fresh(S2), GRID),
                subadditivity_test(compose(g1, replace(g2)), GRID)]
        run_criterion("subadditivity", S1, S2, GRID)
        n = map_samples(compose(g1, g2), GRID).size
        targets = []
        solve = generators._bracket_invert

        def counted(g, u, tol):
            targets.append(u.size)
            return solve(g, u, tol)

        monkeypatch.setattr(generators, "_bracket_invert", counted)
        got = []
        for run in (lambda: run_criterion("subadditivity", S1, S2, GRID),
                    lambda: subadditivity_test(compose(g1, g2), GRID)):
            targets.clear()
            got.append(run())
            assert targets == [n * (n + 1) // 2]
        assert got == want

    def test_criteria_keep_their_scalar_inverses(self, monkeypatch):
        # the fit's median u0 and concavity's d = s2(1) are inverses of g2
        # kept with the sample, so warm tests solve neither again
        twins = numeric_twins()
        m = compose(twins[6].generator, twins[5].generator)
        tests = (equality_test, concavity_criterion)
        want = [test(m, GRID) for test in tests]
        solves = 0
        point = generators._invert_float

        def counted(g, u, tol):
            nonlocal solves
            solves += 1
            return point(g, u, tol)

        monkeypatch.setattr(generators, "_invert_float", counted)
        assert [test(m, GRID) for test in tests] == want
        assert solves == 0

    def test_second_pass_builds_no_table(self, monkeypatch):
        # the normalized generator is kept in the cache of the operand's
        # generator, so the two log_sub twins (s(1) != 1) build their
        # normalized table once, not per pair
        builds = 0
        table = generators._table

        def counted(g, eps):
            nonlocal builds
            builds += eps not in g._cache
            return table(g, eps)

        monkeypatch.setattr(generators, "_table", counted)
        twins = numeric_twins()
        passes = []
        for _ in range(2):
            builds = 0
            for S1 in twins:
                for S2 in twins:
                    if S1 is not S2:
                        compare(S1, S2, GRID)
            passes.append(builds)
        assert passes == [2, 0]


class TestCoarseMatrix:
    """compare settles an incomparable pair on every 8th map sample and the
    last (14 of 104), when both coarse witnesses reproduce; every other
    verdict comes from the full matrix, as with a stride of 1."""

    KINDS = {"closed": catalog, "numeric": numeric_twins}

    @staticmethod
    def pairs(members):
        return [(S1, S2) for S1 in members for S2 in members if S1 is not S2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_incomparable_pairs_skip_the_full_matrix(self, kind, monkeypatch):
        sizes = residual_sizes(monkeypatch)
        settled = 0
        for S1, S2 in self.pairs(self.KINDS[kind]()):
            sizes.clear()
            v = compare(S1, S2, GRID)
            if v.relation != INCOMPARABLE:
                continue
            assert sizes == [14], (S1.label, S2.label)
            (_, _, a1, b1), (_, _, a2, b2) = v.witnesses
            assert a1 > b1 and a2 < b2
            for x, y, lhs, rhs in v.witnesses:
                assert (S1(x, y), S2(x, y)) == (lhs, rhs)
            settled += 1
        assert settled == 52

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_sided_pairs_build_the_full_matrix(self, kind, monkeypatch):
        sizes = residual_sizes(monkeypatch)
        records = []
        for S1, S2 in self.pairs(self.KINDS[kind]()):
            sizes.clear()
            v = compare(S1, S2, GRID)
            if v.criterion == "subadditivity_test" and v.relation in (DOMINATED, DOMINATES):
                assert sizes == [14, 104], (S1.label, S2.label)
                records.append((S1, S2, serialize_verdict(v)))
        assert len(records) == 4
        monkeypatch.setattr(ordering, "_COARSE_STRIDE", 1)
        for S1, S2, text in records:
            assert serialize_verdict(compare(S1, S2, GRID)) == text

    @pytest.mark.parametrize("kind", KINDS)
    def test_relations_do_not_depend_on_the_stride(self, kind, monkeypatch):
        pairs = self.pairs(self.KINDS[kind]())
        default = [compare(S1, S2, GRID).relation for S1, S2 in pairs]
        monkeypatch.setattr(ordering, "_COARSE_STRIDE", 1)
        assert [compare(S1, S2, GRID).relation for S1, S2 in pairs] == default
        assert UNKNOWN not in default


class TestPointWitnesses:
    """Witnesses are points through each operand's ``surface``, bit for bit
    the old array form: a TSubnorm's float kernel, and a fixture on 1-element
    arrays."""

    # yager(0.7) at (0.6, 0.7) rounds differently on 0-d inputs than on
    # arrays, where numpy's power has a SIMD loop
    X = np.array([0.0, 1e-6, 0.01, 0.25, 0.5, 0.7, 1.0, 1.0, 0.3, 0.6])
    Y = np.array([0.5, 0.3, 1.0, 0.25, 0.9, 0.1, 1.0, 0.0, 1e-4, 0.7])

    def operand_pairs(self):
        closed, twins = catalog(), numeric_twins()
        yield closed[0], closed[5]
        yield twins[3], twins[9]
        yield closed[7], twins[11]
        for F in (lukasiewicz_fixture(), yager_fixture(2.0), yager_fixture(0.7)):
            yield closed[9], F
            yield F, twins[2]
        for S in (closed[3], twins[10]):
            yield complete_to_tnorm(S), S
            yield dual_superconorm(S), closed[1]
            yield closed[6], complete_to_tnorm(S)

    def test_match_the_array_form(self):
        for S1, S2 in self.operand_pairs():
            got = ordering._witnesses(S1, S2, self.X, self.Y, DEFAULT_TOL)
            want = old_witnesses(S1, S2, self.X, self.Y)
            assert [tuple(map(float.hex, w)) for w in got] \
                == [tuple(map(float.hex, w)) for w in want], (S1.label, S2.label)

    def test_sequences_of_python_floats(self):
        # compare passes lists of scalar inverses
        S1, S2 = catalog()[0], yager_fixture(2.0)
        got = ordering._witnesses(S1, S2, [0.25, 0.5], [0.5, 0.75], DEFAULT_TOL)
        assert got == old_witnesses(S1, S2, np.array([0.25, 0.5]), np.array([0.5, 0.75]))
        assert all(type(v) is float for w in got for v in w)


class TestReferenceVerdicts:
    """compare at GRID against the benchmark's pinned reference verdicts.

    The reference comes from a 2060-point-per-axis scan, uniform plus
    geometric near 0; ``known_seed_defects`` names the pairs it pins as wrong.
    """

    @pytest.fixture(scope="class")
    def ref(self):
        return json.loads(REFERENCE.read_text())

    @staticmethod
    def disagreements(ref, members):
        return [(i, j) for i, S1 in enumerate(members) for j, S2 in enumerate(members)
                if i != j and compare(S1, S2, GRID).relation
                != ref["codes"][ref["verdicts"][i][j]]]

    def test_extended_catalog(self, ref):
        members = [make_family(parse_operator_spec(text)) for text in ref["members"]]
        wrong = self.disagreements(ref, members)
        assert wrong == []

    def test_strict_dominance(self, ref):
        # where it applies, the criterion is exact: HOLDS iff S1 <= S2
        members = [make_family(parse_operator_spec(text)) for text in ref["members"]]
        wrong = []
        for i, S1 in enumerate(members):
            for j, S2 in enumerate(members):
                rep = run_criterion("strict_dominance", S1, S2, GRID)
                if i != j and rep.verdict != NOT_APPLICABLE and rep.holds \
                        != (ref["codes"][ref["verdicts"][i][j]] in (DOMINATED, EQUAL)):
                    wrong.append((S1.label, S2.label, rep.verdict))
        assert wrong == []

    def test_numeric_twins(self, ref):
        assert self.disagreements(ref, numeric_twins()) == []


class TestSerialization:
    def test_verdict_record_fields_in_order(self):
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("rational", {"a": 0.7}))
        text = serialize_verdict(direct_compare(S1, S2, GRID))
        lines = text.splitlines()
        assert lines[0].startswith("criterion: ")
        assert lines[1] == "verdict: dominated"
        assert lines[2].startswith("witness: ")
        assert lines[-1].startswith("margin: ")

    def test_report_serialization(self):
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        text = serialize_report(run_criterion("subadditivity", P, H, GRID))
        assert "criterion: subadditivity_test" in text
        assert "verdict: holds" in text
