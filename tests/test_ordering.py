"""Order decisions: the grid oracle, the certificates, and their agreement."""

import json
import math
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
    compose,
    concavity_criterion,
    derivative_ratio_criterion,
    direct_compare,
    equality_test,
    family_monotonicity_scan,
    from_generator,
    logarithmic_equality_test,
    lukasiewicz_fixture,
    make_family,
    nilpotent_guard,
    numeric_inverse,
    proper_never_dominates_tnorm_check,
    quasi_homogeneity_criterion,
    ratio_criterion,
    ratio_profile_criterion,
    strict_dominance_test,
    subadditivity_test,
    yager_fixture,
)
from subnorms.ordering import (
    CRITERION_NAMES,
    CriterionReport,
    DOMINATED,
    DOMINATES,
    EQUAL,
    FAILS,
    HOLDS,
    INCOMPARABLE,
    NOT_APPLICABLE,
    dominated_or_equal,
    from_callable,
    run_criterion,
    serialize_report,
    serialize_verdict,
)
from subnorms.cli import parse_operator_spec
from subnorms.operators import Fixture
from subnorms import verify
from subnorms.verify import remark_fixture_maps

GRID = IntervalGrid.uniform(101)
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "data" / "reference.json"


def half_product_fixture():
    return Fixture(fn=lambda x, y: np.asarray(x) * np.asarray(y) / 2.0,
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
        m = from_callable(lambda u: (3.0 * np.asarray(u) + 2.0) / 5.0, 1.0,
                          "affine")
        assert quasi_homogeneity_criterion(m, GRID).verdict == HOLDS

    def test_quasi_homogeneity_needs_convexity(self):
        m = from_callable(lambda u: np.log(np.asarray(u) + 1.0), 0.0, "log")
        assert quasi_homogeneity_criterion(m, GRID).verdict == NOT_APPLICABLE

    def test_quasi_homogeneity_rejects_bad_t(self):
        identity = from_callable(lambda u: np.asarray(u), 1.0, "id")
        # not midpoint-convex: t is checked before the convexity precheck
        log = from_callable(lambda u: np.log(np.asarray(u) + 1.0), 0.0, "log")
        for m in (identity, log):
            with pytest.raises(ParameterError):
                quasi_homogeneity_criterion(m, GRID, t_samples=(0.5,))

    def test_ratio_certifies_one_plus_x(self):
        # ratio of the reciprocal and Hamacher generators is 1 + x
        R = make_family(FamilySpec("reciprocal_minus_x"))
        H = make_family(FamilySpec("hamacher0"))
        assert ratio_criterion(R.generator, H.generator, GRID).verdict == HOLDS
        assert ratio_criterion(H.generator, R.generator, GRID).verdict == FAILS

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
        assert derivative_ratio_criterion(
            R.generator, H.generator, GRID).verdict == HOLDS
        assert derivative_ratio_criterion(
            H.generator, R.generator, GRID).verdict == FAILS


class TestConverseFailures:
    def test_psi_construction(self):
        verify.check_psi_construction()

    def test_remark_maps_concave_but_superadditive(self):
        verify.check_remark_maps()


class TestStrictTnormDominance:
    def test_half_product_below_hamacher(self):
        HP = make_family(FamilySpec("half_product"))
        H = make_family(FamilySpec("hamacher0"))
        assert strict_dominance_test(HP, H, GRID).verdict == HOLDS

    def test_not_applicable_cases(self):
        P = make_family(FamilySpec("product"))
        HP = make_family(FamilySpec("half_product"))
        assert strict_dominance_test(HP, HP, GRID).verdict == NOT_APPLICABLE
        assert strict_dominance_test(P, P, GRID).verdict == NOT_APPLICABLE

    def test_logarithmic_equality(self):
        P = make_family(FamilySpec("product"))
        A = make_family(FamilySpec("aa_tnorm", {"l": 2.0}))
        rep = logarithmic_equality_test(P, P, GRID)
        assert rep.verdict == HOLDS
        assert rep.details["c"] == pytest.approx(1.0, rel=1e-9)
        assert logarithmic_equality_test(A, P, GRID).verdict == FAILS

    def test_fixture_left_operand_not_applicable(self):
        P = make_family(FamilySpec("product"))
        L = lukasiewicz_fixture()
        assert strict_dominance_test(L, P, GRID).verdict == NOT_APPLICABLE
        assert logarithmic_equality_test(L, P, GRID).verdict == NOT_APPLICABLE


class TestGuards:
    def test_nilpotent_guard_yields_power_witness(self):
        S = make_family(FamilySpec("product"))
        rep = nilpotent_guard(S, yager_fixture(2.0), GRID)
        assert rep.verdict == FAILS
        assert rep.details["s_power"] > 0
        assert rep.details["n"] >= 2

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

    def test_strict_lhs_not_applicable(self):
        P = make_family(FamilySpec("product"))
        assert proper_never_dominates_tnorm_check(P, P, GRID).verdict == NOT_APPLICABLE


def _chain_row(family):
    return next(row for row in verify.FAMILY_CHAINS if row[0] == family)


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

    def test_compare_named_criterion_records_verdict(self):
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("rational", {"a": 0.7}))
        v = compare(S1, S2, GRID, criterion="subadditivity")
        assert v.relation == DOMINATED
        assert v.criterion == "subadditivity:holds"

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
        known = set(ref["known_seed_defects"])
        assert [p for p in wrong if f"compare:{p[0]}:{p[1]}:101" not in known] == []
        assert len(wrong) <= 6, wrong

    def test_numeric_twins(self, ref):
        twins = [from_generator(numeric_inverse(g.fn, g.boundary_at_one, g.label,
                                                g.family, g.params))
                 for g in (S.generator for S in catalog())]
        assert self.disagreements(ref, twins) == []


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
