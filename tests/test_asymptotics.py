"""Asymptotic slopes, linear envelopes, and the growth-based order predicates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from subnorms import (
    FamilySpec,
    IntervalGrid,
    affine_shift,
    asymptotic_slope_A,
    compose,
    linear_envelope_check,
    make_family,
    numeric_inverse,
    section4_equivalences,
    small_slope_B,
)
from subnorms.asymptotics import ORDER_LOWER, SAME_ORDER
from subnorms import asymptotics, verify
from subnorms.ordering import FAILS, HOLDS, NOT_APPLICABLE, ComposedMap, map_samples

GRID = IntervalGrid.uniform(101)


def log_map():
    P = make_family(FamilySpec("product"))
    H = make_family(FamilySpec("hamacher0"))
    return compose(P.generator, H.generator)  # h = ln(u+1)


def affine_map():
    S1 = make_family(FamilySpec("rational", {"a": 0.5}))
    S2 = make_family(FamilySpec("rational", {"a": 0.7}))
    return compose(S1.generator, S2.generator)  # h = (3u+2)/5


class TestSlopeA:
    def test_log_map_has_zero_slope(self):
        est = asymptotic_slope_A(log_map(), GRID)
        assert est.converged
        assert abs(est.value) <= 1e-3
        assert est.note == ORDER_LOWER

    def test_affine_map_slope(self):
        est = asymptotic_slope_A(affine_map(), GRID)
        assert est.converged
        assert est.value == pytest.approx(0.6, rel=1e-3)
        assert est.note == SAME_ORDER

    def test_slope_equals_profile_infimum(self):
        for m, expected_tol in [(log_map(), 1e-3), (affine_map(), 1e-3)]:
            est = asymptotic_slope_A(m, GRID)
            assert est.sample_infimum is not None
            assert abs(est.value - est.sample_infimum) <= expected_tol

    def test_affine_shift_slope(self):
        s2 = make_family(FamilySpec("rational", {"a": 0.5})).generator
        m = compose(affine_shift(s2, 2.0, -1.0), s2)  # h = 2u - 1
        est = asymptotic_slope_A(m, GRID)
        assert est.converged
        assert est.value == pytest.approx(2.0, rel=1e-3)

    def test_probe_sequence_recorded(self):
        est = asymptotic_slope_A(affine_map(), GRID)
        assert len(est.sequence) >= 2
        probes = [p for p, _ in est.sequence]
        assert probes == sorted(probes, reverse=True)
        assert "value: " in est.serialize()


class TestSlopeB:
    def test_log_map_small_slope(self):
        est = small_slope_B(log_map(), GRID)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_normalized_pair_uses_profile_sup(self):
        est = small_slope_B(affine_map(), GRID)
        assert est.value == pytest.approx(1.0, abs=1e-3)
        assert est.value <= 2.0 + 1e-9  # subadditivity caps the sup at 2

    def test_mixed_unnormalized_pair_not_applicable(self):
        R = make_family(FamilySpec("rational", {"a": 0.5})).generator
        L = make_family(FamilySpec("log_sub", {"a": 0.5, "l": 1.0})).generator
        est = small_slope_B(compose(L, R), GRID)
        assert math.isnan(est.value) and not est.converged
        assert est.note == "not_applicable: mixed unnormalized pair"

    def test_sup_above_the_subadditive_bound_is_flagged(self):
        R = make_family(FamilySpec("rational", {"a": 0.5})).generator
        D = make_family(FamilySpec("dombi_sub", {"a": 0.6, "l": 4.0})).generator
        est = small_slope_B(compose(D, R), GRID)
        assert est.value > 2.0
        assert est.note == "sup over samples; exceeds the theoretical bound 2"


class TestEnvelope:
    def test_log_map_envelope(self):
        assert linear_envelope_check(log_map(), 0.0, 1.0, GRID).verdict == HOLDS

    def test_affine_map_envelope(self):
        assert linear_envelope_check(affine_map(), 0.6, 1.0, GRID).verdict == HOLDS

    def test_too_tight_envelope_fails(self):
        rep = linear_envelope_check(affine_map(), 0.9, 1.0, GRID)
        assert rep.verdict == FAILS
        assert rep.worst_case is not None

    def test_degenerate_bounds_not_applicable(self):
        assert linear_envelope_check(log_map(), 1.0, 0.0,
                                     GRID).verdict == NOT_APPLICABLE
        assert linear_envelope_check(log_map(), 0.0, math.inf,
                                     GRID).verdict == NOT_APPLICABLE

    def test_unbounded_profile_notes(self):
        P = make_family(FamilySpec("product"))
        H = make_family(FamilySpec("hamacher0"))
        back = compose(H.generator, P.generator)  # h = e^u - 1
        rep = linear_envelope_check(back, 0.0, 1.0, GRID)
        assert rep.verdict == FAILS
        assert "unbounded" in rep.notes


@pytest.mark.parametrize("a", [
    [2.0], [3.0, 1.0], [5.0, 1.0, 4.0], [0.1, 0.7, 0.2, 0.3], [1.0, math.nan, 0.5],
    [math.nan, 1.0], [-math.inf, math.inf], [math.inf, 1.0, 2.0, math.inf],
    np.random.default_rng(0).uniform(0.0, 3.0, 104).tolist(),
    np.random.default_rng(1).uniform(0.0, 3.0, 103).tolist()])
def test_median_is_numpys(a):
    # the sort-based median of _envelope: same value, NaN rule and even-count mean
    a = np.array(a)
    with np.errstate(invalid="ignore"):  # -inf + inf, in both
        assert asymptotics._median(a).hex() == float(np.median(a)).hex()


class TestGrowthPredicates:
    def test_affine_pair_all_branches_hold(self):
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("rational", {"a": 0.7}))
        out = section4_equivalences(affine_map(), GRID, pair=(S1, S2))
        assert out["convex_profile"].verdict == HOLDS
        assert out["monotone_profile"].verdict == HOLDS
        assert out["concave_envelope"].verdict == HOLDS
        assert out["monotone_profile"].details["A"] == pytest.approx(0.6, rel=1e-3)

    def test_pair_skips_the_subadditivity_test(self, monkeypatch):
        S1 = make_family(FamilySpec("rational", {"a": 0.5}))
        S2 = make_family(FamilySpec("rational", {"a": 0.7}))
        expected = section4_equivalences(affine_map(), GRID, pair=(S1, S2))

        def refuse(*args, **kwargs):
            raise AssertionError("subadditivity_test ran although the oracle decides")

        monkeypatch.setattr(asymptotics, "subadditivity_test", refuse)
        assert section4_equivalences(affine_map(), GRID, pair=(S1, S2)) == expected
        with pytest.raises(AssertionError, match="subadditivity_test ran"):
            section4_equivalences(affine_map(), GRID)

    def test_nonconvex_profile_not_applicable(self):
        L = make_family(FamilySpec("log_sub", {"a": 0.5, "l": 2.0})).generator
        SS = make_family(FamilySpec("ss_sub", {"a": 0.5, "l": -2.0})).generator
        rep = section4_equivalences(compose(L, SS), GRID)["convex_profile"]
        assert (rep.verdict, rep.notes) == (NOT_APPLICABLE,
                                            "phi not midpoint-convex on samples")

    def test_log_map_concave_branch(self):
        out = section4_equivalences(log_map(), GRID)
        # phi = ln(u+1)/u is non-increasing and bounded; h is concave, phi <= 1
        assert out["monotone_profile"].verdict == HOLDS
        assert out["concave_envelope"].verdict == HOLDS

    def test_midpoint_matrix_evaluated_once(self):
        sizes = []
        P = make_family(FamilySpec("product")).generator
        H = make_family(FamilySpec("hamacher0")).generator

        def counting_fn(x):
            sizes.append(np.size(x))
            return P.fn(x)

        m = compose(replace(P, fn=counting_fn), H)  # h = ln(u+1)
        u = map_samples(m, GRID)
        u = u[u > 0]
        section4_equivalences(m, GRID)
        # both the phi-convexity and the h-concavity scan read one h((u_i + u_j)/2),
        # evaluated on the cells j >= i of the pair matrix only
        n = u.size
        assert sizes.count(n * (n + 1) // 2) == 1
        assert n * n not in sizes

    def test_growth_check_samples_each_map_once(self, monkeypatch):
        sizes = []
        real = ComposedMap.__call__

        def counting(m, u):
            sizes.append(np.size(u))
            return real(m, u)

        monkeypatch.setattr(ComposedMap, "__call__", counting)
        verify.check_growth_numbers()
        # one profile per map; the product/Hamacher B probes h at 12 scalars
        assert sorted(n for n in sizes if n > 1) == [103, 104]

    def test_increasing_profile_not_applicable(self):
        s2 = make_family(FamilySpec("rational", {"a": 0.5})).generator
        m = compose(numeric_inverse(lambda x: s2.fn(x) ** 2, 1.0, "square"), s2)  # u^2
        out = section4_equivalences(m, GRID)
        assert out["monotone_profile"].verdict == NOT_APPLICABLE
        assert out["concave_envelope"].verdict == NOT_APPLICABLE
