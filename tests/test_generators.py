"""Generator evaluation, inversion, normalization and validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnorms import (
    DEFAULT_TOL,
    INF,
    DomainError,
    Generator,
    GeneratorValidationError,
    IntervalGrid,
    NormalizationError,
    ParameterError,
    ToleranceProfile,
    affine_shift,
    closed_form,
    evaluate,
    from_generator,
    geval,
    ginvert,
    normalize,
    numeric_inverse,
    pseudo_invert,
    validate_generator,
)
from subnorms import generators
from subnorms.generators import _bracket_invert, _invert_point, _secant
from subnorms.operators import FamilySpec, TSubnorm, catalog, family_generator


def member(family, **params):
    """The generator of one catalog family member, e.g. member("rational", a=0.5)."""
    return family_generator(FamilySpec(family, params))


# the 51 family members that, with catalog(), form the 64-member extended catalog
EXTENDED_SPECS = (
    [FamilySpec(fam, {"a": a, "l": lam})
     for fam in ("dombi_sub", "aa_sub", "log_sub")
     for a in (0.2, 0.4, 0.8) for lam in (0.3, 0.7, 1.5, 3.0)]
    + [FamilySpec("ss_sub", {"a": a, "l": lam})
       for a in (0.2, 0.4, 0.8) for lam in (-0.5, -1.5, -4.0)]
    + [FamilySpec("rational", {"a": a}) for a in (0.2, 0.4, 0.8)]
    + [FamilySpec("aa_tnorm", {"l": lam}) for lam in (0.5, 1.5, 3.0)]
)
CATALOG_GENERATORS = [S.generator for S in catalog()]


def numeric_twin_of_rational():
    """rational(0.5), s(x) = 2/x - 1, without its closed inverse."""
    return numeric_inverse(member("rational", a=0.5).fn, 1.0, "rational(a=0.5)/numeric")


def bisect_oracle(fn, target, lo=0.0, hi=1.0, iters=100):
    """Independent root bracketing for a decreasing fn; the inversion oracle."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# fn(0) is inf, finite (1e300 - 1) and NaN (0/0); geval(0) is inf all the same
ZERO_RULES = [
    member("product"),
    numeric_inverse(lambda x: 1.0 / (x + 1e-300) - 1.0, 0.0, "finite_at_0"),
    numeric_inverse(lambda x: (1.0 - x) * x / (x * x), 0.0, "nan_at_0"),
]
NAN_INPUTS = [math.nan, np.array([0.5, math.nan])]


class TestEvaluation:
    def test_zero_maps_to_exact_infinity(self):
        for g in ZERO_RULES:
            assert geval(g, 0.0) == INF, g.label
            assert math.isinf(geval(g, 0.0))
            out = geval(g, np.array([0.0, 0.5, 0.0]))
            assert out[0] == INF and out[2] == INF and math.isfinite(out[1]), g.label

    def test_boundary_at_one(self):
        assert geval(member("product"), 1.0) == 0.0
        assert geval(member("rational", a=0.5), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        g = member("hamacher0")
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        out = geval(g, xs)
        assert out[0] == INF
        np.testing.assert_allclose(out[1:], [3.0, 1.0, 0.0], atol=1e-12)

    def test_rejects_out_of_range(self):
        g = member("product")
        for bad in (-0.1, 1.1, math.nan, np.array([0.5, 1.1]), np.array([-0.1, 0.5])):
            with pytest.raises(DomainError, match="outside"):
                geval(g, bad)

    @pytest.mark.parametrize("call, message", [
        (geval, "outside"),
        (ginvert, "cannot invert NaN"),
        (pseudo_invert, "cannot pseudo-invert NaN"),
        (lambda g, v: evaluate(from_generator(g), v, 0.5), "NaN argument"),
        (lambda g, v: evaluate(from_generator(g), 0.5, v), "NaN argument"),
    ], ids=["geval", "ginvert", "pseudo_invert", "evaluate_x", "evaluate_y"])
    @pytest.mark.parametrize("bad", NAN_INPUTS, ids=["scalar", "array"])
    @pytest.mark.parametrize("g", [member("rational", a=0.5), numeric_twin_of_rational()],
                             ids=["closed", "numeric"])
    def test_nan_raises_domain_error(self, call, message, bad, g):
        with pytest.raises(DomainError, match=message):
            call(g, bad)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    @pytest.mark.parametrize("call", [geval, ginvert, pseudo_invert],
                             ids=["geval", "ginvert", "pseudo_invert"])
    @pytest.mark.parametrize("g", [member("rational", a=0.5), numeric_twin_of_rational()],
                             ids=["closed", "numeric"])
    def test_empty_arrays_keep_their_shape(self, shape, call, g):
        assert call(g, np.empty(shape)).shape == shape

    def test_infinity_saturates_under_addition(self):
        g = member("product")
        assert geval(g, 0.0) + geval(g, 0.5) == INF
        assert geval(g, 0.0) > 1e308

    def test_call_is_geval(self):
        g = member("rational", a=0.5)
        xs = np.array([0.0, 0.25, 1.0])
        assert g(0.25) == geval(g, 0.25)
        assert g(xs).tobytes() == geval(g, xs).tobytes()


class TestInversion:
    def test_closed_inverse_round_trip(self):
        g = member("rational", a=0.5)
        for u in (1.0, 1.5, 3.0, 10.0, 1e6):
            assert geval(g, ginvert(g, u)) == pytest.approx(u, rel=1e-9)

    def test_infinity_inverts_to_zero(self):
        # the second inverse, 1/(1+u) + 0*(u*u), is NaN at u = inf and where
        # u*u overflows; NaN results give 0 like inf targets
        nan_at_inf = closed_form(member("hamacher0").fn,
                                 lambda u: 1.0 / (1.0 + u) + 0.0 * (u * u), 0.0, "nan_at_inf")
        for g in (member("product"), nan_at_inf):
            assert ginvert(g, INF) == 0.0, g.label
            out = ginvert(g, np.array([INF, geval(g, 0.5), INF, 1e200]))
            assert out[0] == 0.0 and out[2] == 0.0 and out[3] == 0.0, g.label
            assert out[1] == pytest.approx(0.5, abs=1e-12)

    def test_below_range_raises(self):
        g = member("rational", a=0.5)  # s(1) = 1
        with pytest.raises(DomainError):
            ginvert(g, 0.5)

    def test_numeric_inverse_matches_oracle(self):
        # same rule as rational(0.5) without a closed inverse: s(x) = 2/x - 1
        fn = lambda x: 2.0 / np.asarray(x, dtype=float) - 1.0
        g = numeric_inverse(fn, 1.0, "bisected")
        expected = bisect_oracle(lambda x: 2.0 / x - 1.0, 3.0)
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert ginvert(g, 3.0) == pytest.approx(expected, abs=1e-9)

    def test_pseudo_inverse_clamps_below_boundary(self):
        for g in (member("rational", a=0.5), numeric_twin_of_rational(),
                  affine_shift(member("product"), 1.0, 0.3)):
            b = g.boundary_at_one
            for u in (0.5 * b, 0.0, b):  # below and at s(1)
                assert pseudo_invert(g, u) == 1.0, g.label
            np.testing.assert_array_equal(pseudo_invert(g, np.array([0.0, 0.5 * b, b])), 1.0)
            assert pseudo_invert(g, geval(g, 0.5)) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, x):
        for g in (member("product"), member("hamacher0"),
                  member("rational", a=0.3)):
            u = geval(g, x)
            assert ginvert(g, u) == pytest.approx(x, rel=1e-8, abs=1e-9)


def numeric_twin(g, fn=None):
    """The same generator with its closed inverse dropped: ginvert solves."""
    return numeric_inverse(fn or g.fn, g.boundary_at_one, g.label, g.family, g.params)


class TestNumericInversion:
    """The bracket-then-polish solver against each closed-form inverse."""

    TOL = DEFAULT_TOL.inversion_tol

    def assert_agrees(self, g, u):
        got = ginvert(numeric_twin(g), u)
        np.testing.assert_allclose(got, ginvert(g, u), rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("g", CATALOG_GENERATORS, ids=lambda g: g.label)
    def test_log_and_uniform_targets(self, g):
        xs = np.concatenate([np.geomspace(1e-12, 1.0, 400),
                             np.linspace(0.0, 1.0, 401)[1:]])
        s1 = g.boundary_at_one
        just_above = s1 + max(1.0, s1) * np.array([1e-15, 1e-12, 1e-9, 1e-6])
        self.assert_agrees(g, np.concatenate([geval(g, xs), just_above]))

    @pytest.mark.parametrize("g", CATALOG_GENERATORS, ids=lambda g: g.label)
    def test_targets_on_table_nodes(self, g):
        # dyadic points k/256 are nodes of the bracket table
        xs = np.arange(1, 257) / 256.0
        self.assert_agrees(g, geval(g, xs))
        assert ginvert(numeric_twin(g), geval(g, 0.375)) == pytest.approx(
            0.375, abs=self.TOL)

    @pytest.mark.parametrize("g", CATALOG_GENERATORS, ids=lambda g: g.label)
    def test_roots_below_twice_the_tolerance(self, g):
        xs = np.array([1e-14, 1e-13, 4e-13, 9e-13])
        self.assert_agrees(g, geval(g, xs))

    def test_chunked_targets(self):
        g = member("hamacher0")
        xs = np.random.default_rng(3).uniform(0.0, 1.0, 40_000)
        self.assert_agrees(g, geval(g, xs))

    def test_overflow_to_inf(self):
        # s overflows to inf on (0, ~0.0014): brackets with s(a) = inf
        fn = lambda x: np.exp(1.0 / x) - math.e
        g = numeric_inverse(fn, 0.0, "steep")
        u = np.array([1e-3, 10.0, 1e100, 1e300])
        np.testing.assert_allclose(ginvert(g, u), 1.0 / np.log(u + math.e),
                                   rtol=1e-12, atol=self.TOL)

    def test_generator_without_inverse_fn(self):
        # no inverse_fn given: ginvert solves numerically, like numeric_inverse
        g = member("hamacher0")
        plain = Generator(g.fn, g.boundary_at_one, "plain")
        xs = np.linspace(0.0, 1.0, 101)[1:]
        np.testing.assert_allclose(ginvert(plain, geval(g, xs)), xs,
                                   rtol=0, atol=self.TOL)

    @pytest.mark.parametrize("g", CATALOG_GENERATORS, ids=lambda g: g.label)
    def test_solver_cost(self, g):
        # a plain bisection from [0, 1] would need about 42 evaluations of s
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return g.fn(x)

        xs = np.concatenate([np.geomspace(1e-12, 1.0, 5000),
                             np.random.default_rng(0).uniform(0.0, 1.0, 5000),
                             1.0 - np.geomspace(1e-15, 1e-2, 1000)])
        u = np.maximum(geval(g, xs), g.boundary_at_one)
        got = ginvert(numeric_twin(g, counted), u)
        np.testing.assert_allclose(got, ginvert(g, u), rtol=0, atol=self.TOL)
        assert calls <= 16

    def test_inversion_at_the_tolerance_floor(self):
        # the finest accepted inversion_tol still closes every bracket
        tol = ToleranceProfile(inversion_tol=4 * np.finfo(float).eps)
        xs = np.concatenate([np.geomspace(1e-6, 0.1, 6), np.linspace(0.0, 1.0, 101)[1:]])
        for g in CATALOG_GENERATORS:
            u = geval(g, xs)
            np.testing.assert_allclose(ginvert(numeric_twin(g), u, tol), ginvert(g, u, tol),
                                       rtol=0, atol=tol.inversion_tol, err_msg=g.label)
        p = numeric_inverse(member("product").fn, 0.0, "p")
        np.testing.assert_allclose(ginvert(p, [0.7, 2.0], tol), np.exp([-0.7, -2.0]),
                                   rtol=0, atol=tol.inversion_tol)

    def assert_point_solver_agrees(self, g, us, tol=DEFAULT_TOL):
        # the float solver of one target against the array solver, bit for bit
        for u in us:
            want = float(_bracket_invert(g, np.array([u]), tol)[0]).hex()
            assert _invert_point(g, float(u), tol).hex() == want, (g.label, u)

    @pytest.mark.parametrize("g", CATALOG_GENERATORS, ids=lambda g: g.label)
    def test_point_solver_matches_array_solver(self, g):
        s1, twin = g.boundary_at_one, numeric_twin(g)
        # a subsample of test_log_and_uniform_targets, with targets just above s(1)
        xs = np.concatenate([np.geomspace(1e-12, 1.0, 25), np.linspace(0.0, 1.0, 26)[1:]])
        just_above = s1 + max(1.0, s1) * np.array([1e-15, 1e-12, 1e-9, 1e-6])
        self.assert_point_solver_agrees(twin, np.concatenate([geval(g, xs), just_above]))
        # dyadic table nodes close at their node (fb == 0)
        nodes = np.arange(1, 257, 15) / 256.0
        self.assert_point_solver_agrees(twin, geval(g, nodes))
        assert [_invert_point(twin, u, DEFAULT_TOL) for u in geval(g, nodes).tolist()] \
            == nodes.tolist()
        # roots below twice the tolerance, and the finest accepted tolerance
        self.assert_point_solver_agrees(twin, geval(g, np.array([1e-14, 1e-13, 4e-13, 9e-13])))
        floor = ToleranceProfile(inversion_tol=4 * np.finfo(float).eps)
        self.assert_point_solver_agrees(twin, geval(g, xs[::3]), floor)

    def test_point_solver_on_overflow(self):
        # s(a) = inf on the lowest brackets: the secant is NaN and the step a midpoint
        g = numeric_inverse(lambda x: np.exp(1.0 / x) - math.e, 0.0, "steep")
        us = [1e-3, 10.0, 1e100, 1e298, 1e300, 1.7e308]
        self.assert_point_solver_agrees(g, us)
        self.assert_point_solver_agrees(g, us, ToleranceProfile(inversion_tol=4 * np.finfo(float).eps))

    @pytest.mark.parametrize("a, b, fa, fb", [(0.25, 0.5, 1.0, 1.0), (0.25, 0.5, 0.0, 0.0),
                                              (0.25, 0.5, -1.0, -1.0), (0.25, 0.5, 3.0, -1.0)])
    def test_point_secant_divides_as_numpy_does(self, a, b, fa, fb):
        # fb = fa raises ZeroDivisionError in Python; the float step gives inf or NaN
        with np.errstate(all="ignore"):
            want = _secant(*(np.array([v]) for v in (a, b, fa, fb)))[0]
            got = _secant(a, b, fa, fb)
        assert float(got).hex() == float(want).hex()


# the benchmark's point axis: k/10 and three decade points near 0
POINT_AXIS = np.unique(np.concatenate([np.linspace(0.0, 1.0, 11), np.geomspace(1e-6, 1e-2, 3)]))


class TestScalarInversion:
    """A scalar target is solved in float steps, bit-identical to [u]."""

    @staticmethod
    def targets(g):
        s = geval(g, POINT_AXIS)
        b, tol = g.boundary_at_one, DEFAULT_TOL.inversion_tol
        sums = (s[:, None] + s[None, :])[np.triu_indices(s.size)]
        edges = [INF, b, np.nextafter(b, INF), b + tol, b - tol / 2, b - tol]
        return np.concatenate([s, sums, edges, [-0.0] if b == 0 else []])

    @pytest.mark.parametrize("g", CATALOG_GENERATORS + [numeric_twin(g) for g in CATALOG_GENERATORS],
                             ids=lambda g: g.label + ("/numeric" if g.inverse_fn is None else ""))
    def test_matches_the_one_element_array(self, g):
        for u in self.targets(g).tolist():
            got = ginvert(g, u)
            assert type(got) is float
            assert got.hex() == float(ginvert(g, np.array([u]))[0]).hex(), (g.label, u)

    def test_clip_and_nan_rules_of_a_closed_inverse(self):
        # values above 1, -0.0 (kept, as np.clip keeps it), below 0 and NaN
        g = closed_form(lambda x: 4.0 * (1.0 - x), lambda u: (u - 2.0) * -np.sqrt(4.0 - u) / 2,
                        0.0, "clipped")
        # an inverse that reads the sign of u = -0.0, which ties with s(1) = 0
        sign = closed_form(g.fn, lambda u: np.copysign(0.5, u), 0.0, "sign")
        for h in (g, sign):
            for u in [-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, INF]:
                assert ginvert(h, u).hex() == float(ginvert(h, np.array([u]))[0]).hex(), u
        assert [ginvert(g, u) for u in (0.0, 3.0, 5.0)] == [1.0, 0.0, 0.0]
        assert math.copysign(1.0, ginvert(g, 2.0)) == -1.0

    @pytest.mark.parametrize("g", [CATALOG_GENERATORS[5], numeric_twin_of_rational()],
                             ids=["closed", "numeric"])
    def test_domain_errors_unchanged(self, g):
        with pytest.raises(DomainError, match="cannot invert NaN"):
            ginvert(g, math.nan)
        with pytest.raises(DomainError, match="below s"):
            ginvert(g, 1.0 - 2 * DEFAULT_TOL.inversion_tol)

    def test_array_solver_never_runs(self, monkeypatch):
        def polish(*args):
            raise AssertionError("the array solver ran for a scalar target")

        g = numeric_twin_of_rational()
        want = [float(ginvert(g, np.array([u]))[0]) for u in (1.0, 1.5, 3.0, 1e6)]
        monkeypatch.setattr(generators, "_polish", polish)
        assert [ginvert(g, u) for u in (1.0, 1.5, 3.0, 1e6)] == want
        assert ginvert(g, np.float64(3.0)) == want[2]
        assert ginvert(g, np.array(3.0)) == want[2]
        with pytest.raises(AssertionError, match="array solver"):
            ginvert(g, np.array([3.0]))


class TestBracketTableCache:
    """The bracket table is evaluated once per generator and tolerance, and
    kept in the generator's cache by eps."""

    def counted_twin(self):
        g, sizes = member("rational", a=0.5), []

        def counted(x):
            sizes.append(np.size(x))
            return g.fn(x)

        return numeric_twin(g, counted), sizes

    def test_second_point_query_evaluates_no_table(self):
        twin, sizes = self.counted_twin()
        S = TSubnorm(twin)
        first = S(0.3, 0.6)
        assert max(sizes) > 256  # the table
        sizes.clear()
        assert S(0.3, 0.6) == first
        assert sizes[0] == 2 and len(sizes) > 1 and set(sizes[1:]) == {1}  # s(x), s(y), polish

    def test_cached_arrays_are_read_only(self):
        twin, _ = self.counted_twin()
        ginvert(twin, 3.0)
        (table,) = twin._cache.values()
        assert all(isinstance(arr, np.ndarray) and not arr.flags.writeable for arr in table)

    def test_tables_are_kept_per_tolerance(self):
        fine = ToleranceProfile(inversion_tol=1e-9)
        twin, _ = self.counted_twin()
        fresh, _ = self.counted_twin()
        S = TSubnorm(twin)
        S(0.3, 0.6)
        assert S.surface(0.3, 0.6, fine).hex() == TSubnorm(fresh).surface(0.3, 0.6, fine).hex()
        assert len(twin._cache) == 2

    def test_replace_starts_empty_and_equality_ignores_the_cache(self):
        twin, _ = self.counted_twin()
        other = dataclasses.replace(twin)
        ginvert(twin, 3.0)
        assert twin._cache and not other._cache
        assert twin == other and hash(twin) == hash(other)
        assert repr(twin) == repr(other)
        assert not dataclasses.replace(twin, fn=member("product").fn)._cache


class TestNormalization:
    def test_boundary_becomes_one(self):
        g = member("rational", a=0.7)  # already normalized
        scaled = affine_shift(g, 4.0, 0.0)
        assert scaled.boundary_at_one == pytest.approx(4.0)
        n = normalize(scaled)
        assert n.boundary_at_one == 1.0
        xs = np.linspace(0.05, 1.0, 30)
        np.testing.assert_allclose(geval(n, xs), geval(g, xs), rtol=1e-12)

    def test_operator_invariant_under_scaling(self):
        # grid oracle: scaling the generator must not move the surface
        from subnorms import from_generator
        g = member("rational", a=0.5)
        S = from_generator(g)
        Sc = from_generator(affine_shift(g, 7.5, 0.0))
        xs = np.linspace(0.0, 1.0, 41)
        X, Y = xs[:, None], xs[None, :]
        np.testing.assert_allclose(S.surface(X, Y), Sc.surface(X, Y), atol=1e-9)

    def test_tnorm_generator_rejects_normalization(self):
        with pytest.raises(NormalizationError):
            normalize(member("product"))

    def test_affine_shift_rejects_nonpositive_scale(self):
        with pytest.raises(ParameterError):
            affine_shift(member("product"), 0.0, 1.0)

    def test_affine_shift_rejects_negative_boundary(self):
        with pytest.raises(ParameterError, match="^shift makes s\\(1\\) negative$"):
            affine_shift(member("product"), 1.0, -1.0)

    def test_negative_boundary_rejected(self):
        with pytest.raises(ParameterError,
                           match="^boundary_at_one must be finite and >= 0$"):
            Generator(lambda x: -np.log(x), -1.0, "neg")


class TestValidation:
    def test_catalog_member_passes(self):
        validate_generator(member("rational", a=0.5))

    def test_increasing_rule_rejected(self):
        # infinite at 0, but it turns upward past its minimum at x = 0.5
        g = numeric_inverse(lambda x: 1.0 / x + 4.0 * x, 5.0, "dip")
        with pytest.raises(GeneratorValidationError,
                           match="not strictly decreasing near x = 0.5$"):
            validate_generator(g)

    def test_wrong_boundary_rejected(self):
        g = closed_form(lambda x: 1.0 / np.asarray(x, dtype=float),
                        lambda u: 1.0 / u, 7.0, "mislabeled")
        with pytest.raises(GeneratorValidationError,
                           match="s\\(1\\) = 1.0 disagrees with declared 7.0$"):
            validate_generator(g)

    def test_finite_value_at_zero_rejected(self):
        # Lukasiewicz's generator 1 - x is finite at 0: a nilpotent t-norm,
        # not a cancellative subnorm (S(0.3, 0.4) would be 0)
        g = closed_form(lambda x: 1 - x, lambda u: 1 - u, 0.0, "luka")
        with pytest.raises(GeneratorValidationError, match="s\\(0\\) must be inf"):
            validate_generator(g)

    def test_nan_at_zero_reads_inf(self):
        # 0 * ln(0) is NaN at x = 0, which geval reads as inf
        g = numeric_inverse(lambda x: (1.0 - x) / x + 0.0 * np.log(x), 0.0, "nan_at_0")
        with np.errstate(all="ignore"):
            assert np.isnan(g.fn(np.zeros(1))[0])
        validate_generator(g)

    def test_overflow_plateau_rejected(self):
        # s = inf on (0, ~0.21): inf - inf differences are NaN and compare false
        with pytest.raises(GeneratorValidationError,
                           match="s is not finite at x = 1e-06 \\(overflow plateau\\?\\)$"):
            validate_generator(member("dombi_sub", a=0.6, l=300.0))

    def test_fn_called_once_before_the_round_trip(self):
        g = member("rational", a=0.5)
        seen = []

        def fn(x):
            seen.append((type(x), np.shape(x)))
            return g.fn(x)

        validate_generator(dataclasses.replace(g, fn=fn))
        # one 81-point sample, then s on the 8 round-trip values
        assert seen == [(np.ndarray, (81,)), (np.ndarray, (8,))]

    def test_non_vectorized_fn_fails_at_zero(self):
        g = closed_form(lambda x: 5.0, lambda u: u, 0.0, "constant")
        with pytest.raises(GeneratorValidationError, match="constant: s\\(0\\) must be inf$"):
            validate_generator(g)

    def test_fn_writing_its_input_fails_loudly(self):
        # the shared sample is read-only, so it cannot be corrupted for later calls
        def fn(x):
            x *= 1.0
            return (1.0 - x) / x

        with pytest.raises(ValueError, match="read-only"):
            validate_generator(closed_form(fn, lambda u: 1.0 / (1.0 + u), 0.0, "writes"))

    @pytest.mark.parametrize("g", CATALOG_GENERATORS + [
        family_generator(spec) for spec in EXTENDED_SPECS], ids=lambda g: g.label)
    def test_extended_catalog_validates(self, g):
        validate_generator(g)

    def test_discontinuous_rule_rejected(self):
        # downward jump placed just past a sampled point so the continuity
        # probe (a 1e-6 step from each grid point) straddles it
        cut = 0.475 + 5e-7

        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= cut, 10.0 / x, 1.0 / x)

        g = numeric_inverse(fn, 1.0, "step")
        with pytest.raises(GeneratorValidationError,
                           match="discontinuity suspected near x = 0.475$"):
            validate_generator(g)

    def test_wrong_inverse_fails_round_trip(self):
        # Hamacher's generator (1 - x)/x paired with an inverse that is not its own
        g = closed_form(lambda x: (1.0 - x) / x, lambda u: 2.0 / (1.0 + u), 0.0,
                        "wrong_inverse")
        with pytest.raises(GeneratorValidationError, match="inversion round trip failed"):
            validate_generator(g)


class TestGridAndTolerances:
    def test_uniform_grid_drops_zero(self):
        grid = IntervalGrid.uniform(11)
        assert grid.points[0] > 0
        assert grid.points[-1] == 1.0
        assert grid.points.size == 10

    def test_interior_excludes_one(self):
        grid = IntervalGrid.uniform(5)
        assert np.all(grid.interior < 1.0)

    def test_random_grid_contains_one(self):
        grid = IntervalGrid.random(20, np.random.default_rng(7))
        assert grid.points[-1] == 1.0
        assert np.all(np.diff(grid.points) > 0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ParameterError):
            IntervalGrid(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ParameterError):
            IntervalGrid(np.array([0.2, 0.8]))  # missing 1

    def test_rejects_empty_grids(self):
        with pytest.raises(ParameterError, match="^grid needs at least one point$"):
            IntervalGrid(np.array([]))
        with pytest.raises(ParameterError, match="^uniform grid needs n >= 2$"):
            IntervalGrid.uniform(1)

    @pytest.mark.parametrize("pts, message", [
        ([0.5, math.nan, 1.0], "strictly increasing"),
        ([math.nan, 0.5, 1.0], "strictly increasing"),
        ([math.nan], "lie in"),
    ], ids=["middle", "first", "only"])
    def test_rejects_nan_points(self, pts, message):
        with pytest.raises(ParameterError, match=message):
            IntervalGrid(np.array(pts))

    def test_random_grid_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="n >= 1"):
            IntervalGrid.random(0, rng)
        np.testing.assert_array_equal(IntervalGrid.random(1, rng).points, [1.0])

    @pytest.mark.parametrize("grid", [
        IntervalGrid.uniform(2), IntervalGrid.uniform(101),
        IntervalGrid.random(301, np.random.default_rng(0))],
        ids=["uniform2", "uniform101", "random301"])
    def test_axis_is_points_plus_decades(self, grid):
        expected = np.unique(np.concatenate([np.geomspace(1e-6, 0.1, 6), grid.points]))
        assert grid.axis.tobytes() == expected.tobytes()
        assert not grid.axis.flags.writeable

    def test_only_points_is_an_init_field(self):
        assert [f.name for f in dataclasses.fields(IntervalGrid) if f.init] == ["points"]

    def test_tolerance_profile_ordering(self):
        with pytest.raises(ParameterError):
            ToleranceProfile(inversion_tol=1e-3, verdict_margin=1e-6)
        assert DEFAULT_TOL.verdict_margin == 1e-6
        assert [f.name for f in dataclasses.fields(ToleranceProfile)] == [
            "inversion_tol", "verdict_margin"]

    def test_margin_below_the_sampled_box_rejected(self):
        # the oracle and the criteria sample x >= 1e-6 only
        with pytest.raises(ParameterError, match="verdict_margin must be at least 1e-06"):
            ToleranceProfile(verdict_margin=float(np.nextafter(1e-6, 0.0)))
        assert ToleranceProfile(verdict_margin=1e-6) == DEFAULT_TOL

    @pytest.mark.parametrize("value", [1e-16, 1e-300, 3 * np.finfo(float).eps])
    def test_inversion_tol_below_float_spacing_rejected(self, value):
        # the solver's bracket cannot close below a few ulps of 1
        with pytest.raises(ParameterError, match="inversion_tol must be at least"):
            ToleranceProfile(inversion_tol=value)
        floor = 4 * np.finfo(float).eps
        assert ToleranceProfile(inversion_tol=floor).inversion_tol == floor

    @pytest.mark.parametrize("field", ["inversion_tol", "verdict_margin"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-6])
    def test_tolerance_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            ToleranceProfile(**{field: value})
