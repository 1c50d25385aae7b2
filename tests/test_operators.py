"""Operator construction, axioms, completion, duality and the family catalog."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorms import (
    DomainError,
    FamilySpec,
    IntervalGrid,
    ParameterError,
    catalog,
    check_axioms,
    complete_to_tnorm,
    dual_superconorm,
    evaluate,
    from_generator,
    lukasiewicz_fixture,
    make_family,
    yager_fixture,
)
from subnorms.operators import FAMILY_NAMES

GRID = IntervalGrid.uniform(21)
SQRT13 = math.sqrt(13.0)

unit = st.floats(min_value=0.0, max_value=1.0)


def grid_operator_oracle(gen, x, y):
    """Direct textbook evaluation s^{(-1)}(s(x)+s(y)) without the library path."""
    if x == 0.0 or y == 0.0:
        return 0.0
    total = gen.fn(np.asarray(x)) + gen.fn(np.asarray(y))
    if total <= gen.boundary_at_one:
        return 1.0
    return float(np.clip(gen.inverse_fn(np.asarray(total)), 0.0, 1.0))


class TestCatalogValues:
    def test_known_corner_values(self):
        cases = [
            (FamilySpec("hamacher0"), 0.5, 0.5, 1.0 / 3.0),
            (FamilySpec("reciprocal_minus_x"), 0.5, 0.5, (SQRT13 - 3.0) / 2.0),
            (FamilySpec("half_product"), 0.5, 0.5, 0.125),
            (FamilySpec("half_product"), 1.0, 1.0, 0.5),
            (FamilySpec("rational", {"a": 0.5}), 1.0, 1.0, 2.0 / 3.0),
            (FamilySpec("product"), 0.3, 0.7, 0.21),
        ]
        for spec, x, y, expected in cases:
            S = make_family(spec)
            assert S(x, y) == pytest.approx(expected, abs=1e-9), spec.family

    def test_rational_closed_form(self):
        # generated operator must equal xy/(x + y - a*xy)
        for a in (0.3, 0.5, 0.7):
            S = make_family(FamilySpec("rational", {"a": a}))
            xs = np.linspace(0.05, 1.0, 20)
            X, Y = xs[:, None], xs[None, :]
            expected = X * Y / (X + Y - a * X * Y)
            np.testing.assert_allclose(S.surface(X, Y), expected, atol=1e-10)

    def test_ss_closed_form(self):
        # ((ax)^l + (ay)^l - 1)^(1/l) / a for the negative-exponent family
        a, lam = 0.5, -2.0
        S = make_family(FamilySpec("ss_sub", {"a": a, "l": lam}))
        xs = np.linspace(0.05, 1.0, 20)
        X, Y = xs[:, None], xs[None, :]
        expected = ((a * X) ** lam + (a * Y) ** lam - 1.0) ** (1.0 / lam) / a
        np.testing.assert_allclose(S.surface(X, Y), expected, atol=1e-10)

    def test_aa_sub_regenerates_stated_closed_form(self):
        # the normalized generator must reproduce
        # (1/a) * exp(-((-ln ax)^l + (-ln ay)^l)^(1/l)) on the grid
        a, lam = 0.5, 2.0
        S = make_family(FamilySpec("aa_sub", {"a": a, "l": lam}))
        xs = np.linspace(0.05, 1.0, 20)
        X, Y = xs[:, None], xs[None, :]
        expected = np.exp(
            -(((-np.log(a * X)) ** lam + (-np.log(a * Y)) ** lam) ** (1.0 / lam))
        ) / a
        np.testing.assert_allclose(S.surface(X, Y), expected, atol=1e-10)

    def test_surface_matches_textbook_oracle(self):
        for S in catalog():
            for x, y in [(0.0, 0.4), (0.3, 0.3), (0.5, 0.9), (1.0, 1.0)]:
                assert S(x, y) == pytest.approx(
                    grid_operator_oracle(S.generator, x, y), abs=1e-9), S.label


class TestClassification:
    def test_strict_members(self):
        for name in ("product", "hamacher0", "reciprocal_minus_x"):
            assert make_family(FamilySpec(name)).is_strict

    def test_proper_members(self):
        S = make_family(FamilySpec("half_product"))
        assert S.is_proper
        assert S(1.0, 1.0) < 1.0

    def test_catalog_size_and_mix(self):
        members = catalog()
        assert len(members) >= 10
        assert any(S.is_strict for S in members)
        assert any(S.is_proper for S in members)


class TestAxioms:
    @pytest.mark.parametrize("S", catalog(), ids=lambda S: S.label)
    def test_catalog_passes(self, S):
        report = check_axioms(S, GRID)
        assert report.all_pass, S.label

    def test_noncommutative_fixture_flagged(self):
        from subnorms.operators import Fixture
        bad = Fixture(fn=lambda x, y: np.asarray(x) * np.asarray(y) ** 2,
                      label="skewed")
        report = check_axioms(bad, GRID)
        assert not report.commutative.passed
        assert report.commutative.witness is not None

    def test_noncancellative_fixture_flagged(self):
        report = check_axioms(lukasiewicz_fixture(), GRID)
        assert not report.cancellative_sampled.passed

    @given(x=unit, y=unit)
    @settings(max_examples=40, deadline=None)
    def test_commutative_and_bounded_property(self, x, y):
        S = make_family(FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0}))
        assert S(x, y) == pytest.approx(S(y, x), abs=1e-12)
        assert S(x, y) <= min(x, y) + 1e-12

    @given(x=unit, y1=unit, y2=unit)
    @settings(max_examples=40, deadline=None)
    def test_monotone_property(self, x, y1, y2):
        S = make_family(FamilySpec("aa_sub", {"a": 0.5, "l": 2.0}))
        lo, hi = min(y1, y2), max(y1, y2)
        assert S(x, lo) <= S(x, hi) + 1e-12


class TestCompletionAndDual:
    def test_completion_restores_neutral_element(self):
        S = make_family(FamilySpec("half_product"))
        T = complete_to_tnorm(S)
        xs = np.linspace(0.0, 1.0, 31)
        np.testing.assert_allclose(T.surface(xs, 1.0), xs, atol=1e-12)
        np.testing.assert_allclose(T.surface(1.0, xs), xs, atol=1e-12)

    def test_completion_keeps_interior(self):
        S = make_family(FamilySpec("half_product"))
        T = complete_to_tnorm(S)
        assert T.surface(0.5, 0.5) == pytest.approx(S(0.5, 0.5), abs=1e-12)

    def test_dual_bounds_above_max(self):
        S = make_family(FamilySpec("half_product"))
        M = dual_superconorm(S)
        xs = np.linspace(0.0, 1.0, 21)
        X, Y = xs[:, None], xs[None, :]
        assert np.all(M.surface(X, Y) >= np.maximum(X, Y) - 1e-12)


class TestFixtures:
    def test_yager_nilpotent_power(self):
        T = yager_fixture(2.0)
        x, acc, n = 0.6, 0.6, 1
        while acc > 0 and n < 100:
            acc = float(T.surface(x, acc))
            n += 1
        assert acc == 0.0 and n < 100

    def test_yager_zero_region(self):
        T = yager_fixture(2.0)
        assert T(0.2, 0.2) == 0.0  # (0.8^2 + 0.8^2) >= 1
        assert T(0.9, 0.9) == pytest.approx(1.0 - math.sqrt(0.02), abs=1e-12)

    def test_lukasiewicz(self):
        T = lukasiewicz_fixture()
        assert T(0.7, 0.8) == pytest.approx(0.5)
        assert T(0.3, 0.3) == 0.0


class TestParameterDomains:
    @pytest.mark.parametrize("spec", [
        FamilySpec("rational", {"a": 1.5}),
        FamilySpec("rational", {}),
        FamilySpec("dombi_sub", {"a": 0.6, "l": -1.0}),
        FamilySpec("ss_sub", {"a": 0.5, "l": 2.0}),
        FamilySpec("aa_sub", {"a": 2.0, "l": 1.0}),
        FamilySpec("yager", {"l": 0.0}),
        FamilySpec("nonexistent", {}),
        FamilySpec("product", {"a": 3.0}),
        FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0, "lam": 9.0}),
        FamilySpec("lukasiewicz", {"l": 3.0}),
    ])
    def test_rejected(self, spec):
        with pytest.raises(ParameterError):
            make_family(spec)

    def test_family_names_cover_catalog(self):
        for S in catalog():
            assert S.generator.family in FAMILY_NAMES


class TestEvaluate:
    def test_zero_annihilates(self):
        for S in catalog()[:4]:
            assert evaluate(S, 0.0, 0.7) == 0.0
            assert evaluate(S, 0.7, 0.0) == 0.0

    def test_domain_checks(self):
        S = make_family(FamilySpec("product"))
        with pytest.raises(DomainError):
            evaluate(S, 1.2, 0.5)
        with pytest.raises(DomainError):
            evaluate(S, math.nan, 0.5)
        # a fixture called directly goes through the same checks as evaluate
        luka = lukasiewicz_fixture()
        for call in (luka, lambda x, y: evaluate(luka, x, y)):
            for x, y in ((1.2, 0.5), (0.5, -0.1)):
                with pytest.raises(DomainError, match="outside the unit square"):
                    call(x, y)
            with pytest.raises(DomainError, match="NaN argument"):
                call(math.nan, 0.5)
        assert luka(0.5, 0.75) == pytest.approx(0.25)

    def test_vector_evaluation(self):
        S = make_family(FamilySpec("product"))
        xs = np.array([0.2, 0.5, 1.0])
        np.testing.assert_allclose(evaluate(S, xs, xs), xs * xs, atol=1e-12)


class TestValidationOnConstruction:
    def test_from_generator_rejects_bad_rule(self):
        from subnorms import GeneratorValidationError, closed_form
        g = closed_form(lambda x: np.asarray(x), lambda u: u, 1.0, "rising")
        with pytest.raises(GeneratorValidationError):
            from_generator(g)
