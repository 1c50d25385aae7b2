"""Operator construction, axioms, completion, duality and the family catalog."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorms import (
    DomainError,
    FamilySpec,
    IntervalGrid,
    ParameterError,
    ToleranceProfile,
    TSubnorm,
    catalog,
    check_axioms,
    closed_form,
    complete_to_tnorm,
    dual_superconorm,
    evaluate,
    from_generator,
    lukasiewicz_fixture,
    make_family,
    numeric_inverse,
    yager_fixture,
)
from subnorms import operators
from subnorms.generators import DEFAULT_TOL, SOLVER_CHUNK, geval, ginvert, pseudo_invert
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

    @pytest.mark.parametrize("S", catalog(), ids=lambda S: S.label)
    def test_read_from_the_generator(self, S):
        # strict iff s(1) = 0 iff S(1,1) = 1; proper otherwise
        assert S.label == S.generator.label
        assert S.is_strict == (S.generator.boundary_at_one == 0) == (S(1.0, 1.0) == 1.0)
        assert S.is_proper != S.is_strict


class TestAxioms:
    @pytest.mark.parametrize("S", catalog(), ids=lambda S: S.label)
    def test_catalog_passes(self, S):
        report = check_axioms(S, GRID)
        assert report.all_pass, S.label

    def test_noncommutative_fixture_flagged(self):
        from subnorms.operators import Fixture
        bad = Fixture(fn=lambda x, y, tol: np.asarray(x) * np.asarray(y) ** 2,
                      label="skewed")
        report = check_axioms(bad, GRID)
        assert not report.commutative.passed
        assert report.commutative.witness is not None

    def test_noncancellative_fixture_flagged(self):
        report = check_axioms(lukasiewicz_fixture(), GRID)
        assert not report.cancellative_sampled.passed

    @pytest.mark.parametrize("S", [catalog()[5], lukasiewicz_fixture()],
                             ids=lambda S: S.label)
    def test_one_point_grid(self, S):
        # grid [1]: no steps to test, so monotonicity and cancellativity pass
        report = check_axioms(S, IntervalGrid.uniform(2))
        assert report.monotone.passed and report.cancellative_sampled.passed
        assert report.all_pass

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

    def test_completion_and_dual_use_the_callers_tol(self):
        # a bisecting operator answers to within inversion_tol, so the caller's
        # coarse tolerance shows in S(0.5, 0.6) and must reach both wrappers
        g = make_family(FamilySpec("rational", {"a": 0.5})).generator
        S = from_generator(numeric_inverse(g.fn, g.boundary_at_one, "rational/numeric"))
        tol = ToleranceProfile(inversion_tol=1e-7)
        at = S.surface(0.5, 0.6, tol)
        assert at == pytest.approx(0.3157894409, abs=1e-10)
        assert S.surface(0.5, 0.6) == pytest.approx(0.3157894737, abs=1e-10)
        assert complete_to_tnorm(S).surface(0.5, 0.6, tol) == at
        assert dual_superconorm(S).surface(0.5, 0.4, tol) == 1.0 - at


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

    @pytest.mark.parametrize("lam", [100.0, 1e308])
    def test_yager_large_lambda_stays_below_min(self, lam):
        # (1 - x)^lam underflows to 0 for both arguments unless scaled
        T = make_family(FamilySpec("yager", {"l": lam}))
        grid = IntervalGrid(np.unique(np.append(np.linspace(0.0, 1.0, 21)[1:], 0.9995)))
        assert check_axioms(T, grid).bounded_by_min.passed
        assert T(0.9995, 0.9995) <= 0.9995
        assert T(1.0, 1.0) == 1.0
        if lam == 1e308:  # the limit lam -> inf is min
            assert T(0.5, 0.7) == 0.5

    def test_lukasiewicz(self):
        T = lukasiewicz_fixture()
        assert T(0.7, 0.8) == pytest.approx(0.5)
        assert T(0.3, 0.3) == 0.0

    @pytest.mark.parametrize("F", [
        yager_fixture(0.7), yager_fixture(2.0), lukasiewicz_fixture(),
        complete_to_tnorm(catalog()[3]), dual_superconorm(catalog()[5])],
        ids=["yager0.7", "yager2", "lukasiewicz", "completion", "dual"])
    def test_point_matches_one_element_arrays(self, F):
        # numpy's 0-d power rounds differently from its array loops (yager(0.7)
        # at (0.6, 0.7)); a point runs on 1-element arrays and gives a float
        rng = np.random.default_rng(7)
        for x, y in rng.uniform(0.0, 1.0, size=(2000, 2)).tolist():
            got = evaluate(F, x, y)
            want = F.surface(np.array([x]), np.array([y]))[0]
            assert type(got) is float and got.hex() == float(want).hex(), (x, y)


class TestParameterDomains:
    # each rejected spec with its exact message
    REJECTED = [
        (FamilySpec("rational", {"a": 1.5}), "rational needs a in (0,1), got 1.5"),
        (FamilySpec("rational", {}), "rational requires parameter 'a'"),
        (FamilySpec("dombi_sub", {"a": 0.6, "l": -1.0}), "dombi_sub needs lambda > 0, got -1.0"),
        (FamilySpec("ss_sub", {"a": 0.5, "l": 2.0}), "ss_sub needs lambda < 0, got 2.0"),
        (FamilySpec("aa_sub", {"a": 2.0, "l": 1.0}), "aa_sub needs a in (0,1), got 2.0"),
        (FamilySpec("yager", {"l": 0.0}), "yager needs lambda > 0, got 0.0"),
        (FamilySpec("nonexistent", {}), "unknown family 'nonexistent'"),
        (FamilySpec("product", {"a": 3.0}), "product has no parameter 'a'"),
        (FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0, "lam": 9.0}),
         "dombi_sub has no parameter 'lam'"),
        (FamilySpec("lukasiewicz", {"l": 3.0}), "lukasiewicz has no parameter 'l'"),
        (FamilySpec("yager", {"l": math.inf}), "yager parameter 'l' must be finite"),
        (FamilySpec("aa_tnorm", {"l": math.inf}), "aa_tnorm parameter 'l' must be finite"),
        (FamilySpec("dombi_sub", {"a": 0.6, "l": math.inf}),
         "dombi_sub parameter 'l' must be finite"),
        (FamilySpec("ss_sub", {"a": 0.5, "l": -math.inf}), "ss_sub parameter 'l' must be finite"),
        (FamilySpec("rational", {"a": math.nan}), "rational parameter 'a' must be finite"),
        (FamilySpec("rational", {"a": "x"}), "rational parameter 'a' must be a number, got 'x'"),
        (FamilySpec("rational", {"a": None}), "rational parameter 'a' must be a number, got None"),
    ]

    @pytest.mark.parametrize("spec, message", REJECTED,
                             ids=[f"spec{i}" for i in range(len(REJECTED))])
    def test_rejected(self, spec, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
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

    def test_array_outside_the_square_rejected(self):
        S = make_family(FamilySpec("product"))
        with pytest.raises(DomainError, match="^arguments outside the unit square$"):
            evaluate(S, np.array([0.5, 1.5]), 0.5)

    def test_vector_evaluation(self):
        S = make_family(FamilySpec("product"))
        xs = np.array([0.2, 0.5, 1.0])
        np.testing.assert_allclose(evaluate(S, xs, xs), xs * xs, atol=1e-12)


def numeric_member():
    """aa_sub(a=0.5, l=2) without its closed inverse: every inversion solves."""
    g = make_family(FamilySpec("aa_sub", {"a": 0.5, "l": 2.0})).generator
    return from_generator(numeric_inverse(g.fn, g.boundary_at_one, "aa_sub/numeric"))


class TestBlockedSurface:
    """surface inverts blocks of leading-axis rows; each row must not depend on its block."""

    MEMBERS = [make_family(FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0})), numeric_member()]
    # (member, points per axis, a row of other values, operators.SOLVER_CHUNK):
    # a square from one axis inverts one triangle and mirrors it unless one
    # block covers it; a chunk of 64 runs many blocks and the mirror at n = 50
    SQUARES = [(S, 401, False, SOLVER_CHUNK) for S in MEMBERS] + [
        (S, n, other, chunk) for S in MEMBERS
        for n, other, chunk in [(1, False, SOLVER_CHUNK), (2, False, SOLVER_CHUNK),
                                (3, False, SOLVER_CHUNK), (401, True, SOLVER_CHUNK),
                                (50, False, 64)]]
    SQUARE_IDS = ["closed", "numeric"] + [
        f"{kind}-{case}" for kind in ("closed", "numeric")
        for case in ("n1", "n2", "n3", "other_row", "chunk64")]

    @pytest.mark.parametrize("S, n, other, chunk", SQUARES, ids=SQUARE_IDS)
    def test_square_matches_rows(self, S, n, other, chunk, monkeypatch):
        monkeypatch.setattr(operators, "SOLVER_CHUNK", chunk)
        ax = np.linspace(0.0, 1.0, n)
        X, Y = ax[:, None], (np.sqrt(ax) if other else ax)[None, :]
        Z = S.surface(X, Y)
        assert Z.shape == (n, n)
        np.testing.assert_array_equal(Z, np.vstack([S.surface(X[i:i + 1], Y)
                                                    for i in range(ax.size)]))
        step = max(1, n // 5)
        np.testing.assert_array_equal(Z[::step, ::step], [[S.surface(x, y) for y in Y[0, ::step]]
                                                          for x in ax[::step]])

    def test_square_inverts_one_triangle(self, monkeypatch):
        targets = []

        def counting(g, u, *args, **kwargs):
            targets.append(u.size)
            return pseudo_invert(g, u, *args, **kwargs)

        monkeypatch.setattr(operators, "pseudo_invert", counting)
        ax = np.linspace(0.0, 1.0, 401)
        numeric_member().surface(ax[:, None], ax[None, :])
        assert 0 < sum(targets) <= 0.6 * 401 ** 2

    @pytest.mark.parametrize("S", MEMBERS, ids=["closed", "numeric"])
    def test_associativity_broadcast_matches_rows(self, S):
        # the 3-D broadcast of check_axioms
        sub = np.linspace(0.0, 1.0, 12)[1:]
        A, B, C = sub[:, None, None], sub[None, :, None], sub[None, None, :]
        left = S.surface(S.surface(A, B), C)
        assert left.shape == (11, 11, 11)
        np.testing.assert_array_equal(left, np.concatenate(
            [S.surface(S.surface(A[i:i + 1], B), C) for i in range(sub.size)]))

    @pytest.mark.parametrize("S", MEMBERS, ids=["closed", "numeric"])
    @pytest.mark.parametrize("shapes", [((0, 1), (1, 5)), ((4, 1), (1, 0)), ((0,), (0,)),
                                        ((0, 1), (1, 0))])
    def test_empty_inputs_keep_their_shape(self, S, shapes):
        x, y = (np.zeros(shape) for shape in shapes)  # in the domain: (4, 1) holds values
        assert S.surface(x, y).shape == np.broadcast_shapes(*shapes)


def numeric_twins():
    """The catalog members with their closed inverses removed."""
    return [from_generator(numeric_inverse(g.fn, g.boundary_at_one, f"{g.label}/numeric"))
            for g in (S.generator for S in catalog())]


class TestSurfaceKernel:
    """surface is combine(values(x), values(y)): the definition, bit for bit."""

    MEMBERS = catalog() + numeric_twins()
    IDS = [S.label for S in MEMBERS]
    EDGE = [0.0, 5e-324, 1e-300, 1e-200, 1e-12, 1e-6, 0.3, 0.5,
            float(np.nextafter(1.0, 0.0)), 1.0]

    def assert_point_kernel_matches(self, S, tol):
        g = S.generator
        for x in self.EDGE:
            for y in self.EDGE:
                want = pseudo_invert(g, geval(g, np.array([x])) + geval(g, np.array([y])), tol)
                want = float(want[0]).hex()
                assert S.surface(x, y, tol).hex() == want, (x, y)
                assert evaluate(S, x, y, tol).hex() == want, (x, y)

    @pytest.mark.parametrize("S", MEMBERS, ids=IDS)
    def test_point_kernel_matches_array_path(self, S):
        # the point kernel restates geval's, pseudo_invert's and ginvert's rules
        # (x = 0 and NaN give inf, 1 at or below s(1), clip to [0, 1]) in float
        # form; this keeps the two copies together
        self.assert_point_kernel_matches(S, DEFAULT_TOL)

    def test_point_kernel_clips_as_the_array_path(self):
        # a closed inverse above 1, at -0.0 (np.clip keeps it), below 0 and NaN
        g = closed_form(lambda x: 4.0 * (1.0 - x), lambda u: (u - 2.0) * -np.sqrt(4.0 - u) / 2,
                        0.0, "clipped")
        S = TSubnorm(g)
        pts = [0.0, 0.3, 0.5, 0.625, 0.75, 0.9, 1.0]
        for x in pts:
            for y in pts:
                want = float(S.combine(S.values(np.array([x])), S.values(np.array([y])))[0])
                assert S.surface(x, y).hex() == want.hex(), (x, y)
        assert math.copysign(1.0, S.surface(0.75, 0.75)) == -1.0

    @pytest.mark.parametrize("S", MEMBERS[13:], ids=IDS[13:])
    def test_point_kernel_at_a_coarser_tolerance(self, S):
        # the twins' point solver keeps a bracket table per tolerance
        self.assert_point_kernel_matches(S, ToleranceProfile(inversion_tol=1e-9))

    @pytest.mark.parametrize("S", [MEMBERS[5], MEMBERS[18]], ids=["closed", "numeric"])
    @pytest.mark.parametrize("x, y", [(1, 0), (0.3, 1), (np.float64(0.3), np.float64(0.5)),
                                      (np.array(0.3), np.array(0.5))],
                             ids=["int", "int_y", "float64", "0d_array"])
    def test_point_arguments_give_a_float(self, S, x, y):
        assert type(S.surface(x, y)) is float
        assert type(evaluate(S, x, y)) is float
        assert type(S(x, y)) is float

    @pytest.mark.parametrize("S", [MEMBERS[5], MEMBERS[18]], ids=["closed", "numeric"])
    @pytest.mark.parametrize("x, y, via_evaluate, via_surface", [
        (math.nan, 0.5, "NaN argument", "argument nan outside [0, 1]"),
        (0.5, math.nan, "NaN argument", "argument nan outside [0, 1]"),
        (2.0, math.nan, "NaN argument", "argument 2.0 outside [0, 1]"),
        (1.5, 0.5, "arguments outside the unit square", "argument 1.5 outside [0, 1]"),
        (0.5, -0.1, "arguments outside the unit square", "argument -0.1 outside [0, 1]"),
        (np.float64(1.5), 0.5, "arguments outside the unit square",
         "argument np.float64(1.5) outside [0, 1]"),
        (np.array(-1.0), 0.5, "arguments outside the unit square",
         "argument array(-1.) outside [0, 1]"),
    ])
    def test_point_domain_errors(self, S, x, y, via_evaluate, via_surface):
        with pytest.raises(DomainError) as exc:
            evaluate(S, x, y)
        assert str(exc.value) == via_evaluate
        with pytest.raises(DomainError) as exc:
            S.surface(x, y)
        assert str(exc.value) == via_surface

    @pytest.mark.parametrize("S", MEMBERS, ids=IDS)
    def test_matches_unblocked_definition(self, S):
        ax = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101),
                                       np.geomspace(1e-6, 1.0, 60)]))
        X, Y = ax[:, None], ax[None, :]
        assert ax.size ** 2 > SOLVER_CHUNK  # several blocks
        g = S.generator
        np.testing.assert_array_equal(S.surface(X, Y),
                                      pseudo_invert(g, geval(g, X) + geval(g, Y)))

    @pytest.mark.parametrize("S", MEMBERS, ids=IDS)
    @pytest.mark.parametrize("invert", [pseudo_invert, ginvert])
    def test_out_matches_allocating_call(self, S, invert):
        b = S.generator.boundary_at_one
        u = np.array([b, np.nextafter(b, -np.inf), np.inf, b + 0.5, 2 * b + 3.0])
        want = invert(S.generator, u)
        out = np.full(u.shape, np.nan)
        assert invert(S.generator, u, out=out) is out
        np.testing.assert_array_equal(out, want)
        invert(S.generator, u, out=u)  # the targets' own buffer
        np.testing.assert_array_equal(u, want)

    @pytest.mark.parametrize("S", MEMBERS, ids=IDS)
    def test_two_point_call_allocates_no_block(self, S):
        # a SOLVER_CHUNK block of doubles is 128 KiB
        x, y = np.array([0.3, 0.7]), np.array([0.5, 0.9])
        S.surface(x, y)
        tracemalloc.start()
        try:
            S.surface(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024


class TestValidationOnConstruction:
    def test_from_generator_rejects_bad_rule(self):
        from subnorms import GeneratorValidationError, closed_form
        g = closed_form(lambda x: np.asarray(x), lambda u: u, 1.0, "rising")
        with pytest.raises(GeneratorValidationError):
            from_generator(g)
