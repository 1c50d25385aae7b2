"""Deciding and certifying the pointwise order of t-subnorms.

A brute-force grid oracle (:func:`direct_compare`) scans the grid plus the
decade points the criteria sample near 0; d = S1 - S2 is symmetric, so it
scans one triangle of the grid in blocks of about ``SOLVER_CHUNK`` cells (the
walk ``TSubnorm.combine`` also takes on a square surface, which it mirrors),
keeps each block's extreme cells as candidates and holds O(n) memory for n
points per axis, evaluating each operand's per-axis values once per call.  Every
other test here is a criterion on the composed map h = s1 o s2^{-1}:
subadditivity of h characterizes S1 <= S2 exactly (superadditivity
S2 <= S1); linearity characterizes equality; concavity (with
h(u) <= u*h(d)/d when d = s2(1) > 0) and ratio profile h(u)/u are
sufficient certificates.  Four named criteria restate these in other
coordinates and run the same test: the generator ratio s1/s2 is the profile at
u = s2(x), the derivative ratio s1'/s2' is concavity of h, and
submultiplicative-additivity and logarithmic equality (dominance by and
equality with a strict t-norm t, through its product isomorphism w = -ln u)
are subadditivity and linearity of h = s o t^{-1}.  Every named criterion is
one row of a registry, which :func:`run_criterion` alone runs.  The public
:func:`compare` samples h once for the equality and ratio certificates and one
residual matrix of h for both directions, and records which path decided: an
incomparable verdict is settled on a 14-sample coarse matrix, and the full
matrix runs only for a one-sided verdict (or coarse witnesses that do not
reproduce).  Every matrix of h over sample pairs (compare's, the criteria's,
the Section 4 midpoint matrix) goes through one kernel that evaluates h on its
cells j >= i only and mirrors them: pair sums and midpoints commute bit for
bit.  One helper gives the verdict of both of compare's matrices; it and the
oracle read one relation table and build their (x, y, S1, S2) witnesses with
one helper, on the point kernel of each ``TSubnorm``.  compare reads its
witness coordinates off x = s2^{-1}(u) at the witness cell.

Every test on h takes the map and a grid alone.  The map's ``tol`` is the
test's tolerance.  Its sample is u = s2(x) on the grid axis with h(u) = s1(x)
(:func:`_sample`); the pair (u, x) depends on s2 alone, and without a closed
s2^{-1} it is kept in s2's cache, so compare and the criteria share it across
calls.  A proper operand's normalized generator is kept in the cache of its
generator the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .generators import (
    DEFAULT_TOL,
    Generator,
    IntervalGrid,
    ParameterError,
    ToleranceProfile,
    _unique,
    geval,
    ginvert,
    normalize,
)
from .operators import (
    FamilySpec,
    Fixture,
    Operator,
    TSubnorm,
    _triangle_rows,
    _worst,
    make_family,
)

# verdict tags
DOMINATES = "dominates"
DOMINATED = "dominated"
EQUAL = "equal"
INCOMPARABLE = "incomparable"
UNKNOWN = "unknown"

# (S1 <= S2 holds, S2 <= S1 holds) -> relation, for the oracle and the matrix
_RELATION = {(True, True): EQUAL, (True, False): DOMINATED,
             (False, True): DOMINATES, (False, False): INCOMPARABLE}

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

# Absolute verdict margin plus a float-noise allowance proportional to the
# magnitudes involved: h values reach ~1e12 near the infinity asymptote, where
# a flat 1e-6 margin would flag pure round-off as a violation.
_NOISE = 1e-9


def _slack(margin: float, *mags) -> np.ndarray:
    scale = sum(np.where(np.isfinite(m), np.abs(m), 0.0) for m in mags)
    return margin + _NOISE * scale


def _midpoint(a, b):
    return (a + b) / 2.0


# residuals r(f(c), f(u), f(v)) at the combined point c; positive entries violate
def _excess(fc, fu, fv):  # f(c) <= f(u) + f(v)
    return fc - fu - fv


def _concavity_gap(fc, fu, fv):  # (f(u) + f(v))/2 <= f(c)
    return _midpoint(fu, fv) - fc


def _convexity_gap(fc, fu, fv):  # f(c) <= (f(u) + f(v))/2
    return fc - _midpoint(fu, fv)


@lru_cache(maxsize=8)
def _triangle_cells(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, i*n + j, j*n + i) over the cells j >= i of an n x n square: the
    axis indices of each cell, its flat index and that of its mirror."""
    i, j = np.triu_indices(n)
    cells = (i, j, i * n + j, j * n + i)
    for a in cells:
        a.setflags(write=False)
    return cells


def _pair_matrix(u, f, combine) -> np.ndarray:
    """f(combine(u_i, u_j)) on all sample pairs.  combine commutes bit for bit
    (``np.add``, :func:`_midpoint`) and each value of f depends on its own
    argument alone, so f runs on the cells j >= i only and each value is
    written to (i, j) and (j, i)."""
    n = u.size
    i, j, upper, lower = _triangle_cells(n)
    fc = np.empty(n * n)
    fc[upper] = fc[lower] = f(combine(u.take(i), u.take(j)))
    return fc.reshape(n, n)


def _pair_residuals(u, fu, f, combine, residual, margin) -> tuple:
    """residual(f(combine(u_i, u_j)), f(u_i), f(u_j)) on all sample pairs and
    its allowance _slack(margin, f(u_i), f(u_j)), both on the full square."""
    FU, FV = fu[:, None], fu[None, :]
    return residual(_pair_matrix(u, f, combine), FU, FV), _slack(margin, FU, FV)


def _within(res, allow, *coords) -> tuple[bool, tuple]:
    """:func:`_worst` with NaN (inf - inf) residuals counted as satisfied."""
    return _worst(np.where(np.isnan(res), -np.inf, res), allow, *coords)


def _pair_scan(u, fu, f, combine, residual, margin) -> tuple[bool, tuple]:
    """The pairwise criterion; the witness is (u_i, u_j, residual)."""
    return _within(*_pair_residuals(u, fu, f, combine, residual, margin),
                   u[:, None], u[None, :])


def _monotone_scan(xs, r, rel, falling) -> tuple[bool, tuple]:
    """Adjacent steps of r against its direction: decreases if ``falling``.

    Each step may reach rel * max(1, |r|) at its left end; the witness is
    (x_k, x_{k+1}, step).
    """
    steps = -np.diff(r) if falling else np.diff(r)
    return _worst(steps, rel * np.maximum(1.0, np.abs(r[:-1])), xs[:-1], xs[1:])


@dataclass(frozen=True)
class ComposedMap:
    """h = s1 o s2^{-1} on [s2(1), inf]; strictly increasing, h(s2(1)) = s1(1).

    The map is the one input of every test on h: ``tol`` is the tolerance of
    each of them, and their sample of h on a grid is :func:`_sample`, whose
    (u, x = s2^{-1}(u)) is kept on the right generator s2 when s2 has no
    closed inverse, so every map with s2 on the right shares it.
    """

    lhs: Generator
    rhs: Generator
    tol: ToleranceProfile = DEFAULT_TOL

    def __call__(self, u):
        return geval(self.lhs, ginvert(self.rhs, u, self.tol))

    @property
    def domain_start(self) -> float:
        return self.rhs.boundary_at_one

    @property
    def label(self) -> str:
        return f"{self.lhs.label} o inv({self.rhs.label})"

    @property
    def both_normalized(self) -> bool:
        return self.lhs.boundary_at_one == self.rhs.boundary_at_one == 1.0


def compose(s1: Generator, s2: Generator,
            tol: ToleranceProfile = DEFAULT_TOL) -> ComposedMap:
    return ComposedMap(s1, s2, tol)


def _samples(g: Generator, grid: IntervalGrid) -> np.ndarray:
    """The finite values of s = g on ``grid.axis``, sorted and unique."""
    u = geval(g, grid.axis)
    return _unique(u[np.isfinite(u)])


def map_samples(m: ComposedMap, grid: IntervalGrid) -> np.ndarray:
    """Abscissae for criterion scans: u = s2(x) over ``grid.axis``.

    The axis is the grid plus decade points down to 1e-6, reaching
    u ~ s2(1e-6); the exact infinity branch is handled separately
    (h(inf) = inf makes subadditivity trivial).
    """
    return _samples(m.rhs, grid)


class _RhsSample:
    """The right generator's side of h on one grid and tolerance:
    u = :func:`map_samples` of g2 and x = g2^{-1}(u).  Other inverses of g2
    (the fit's median u0, concavity's d = g2(1), compare's coarse pair sums)
    are solved on first use and kept, keyed by their exact values;
    :meth:`h` reads h through them."""

    def __init__(self, g: Generator, grid: IntervalGrid, tol: ToleranceProfile):
        self.g, self.tol = g, tol
        self.u = _samples(g, grid)
        self.x = ginvert(g, self.u, tol)
        self.u.setflags(write=False)
        self.x.setflags(write=False)
        self._solved: dict = {}

    def invert(self, v):
        """g2^{-1}(v) for a float or a 1-d array v, solved once per value."""
        key = v.hex() if isinstance(v, float) else v.tobytes()
        x = self._solved.get(key)
        if x is None:
            x = self._solved[key] = ginvert(self.g, v, self.tol)
            if not isinstance(x, float):
                x.setflags(write=False)
        return x

    def h(self, g1: Generator) -> Callable:
        """h = g1 o g2^{-1} on the inverses of g2 kept here."""
        return lambda v: geval(g1, self.invert(v))


def _rhs_sample(g2: Generator, grid: IntervalGrid, tol: ToleranceProfile) -> _RhsSample:
    """g2's side of h.  Without a closed inverse it is kept in g2's cache in
    one slot, keyed by the axis values and the tolerance, so each map with g2
    on the right reuses the solves of the first."""
    if g2.inverse_fn is not None:
        return _RhsSample(g2, grid, tol)
    key = (grid.axis.tobytes(), tol)
    slot = g2._cache.get("rhs")
    if slot is None or slot[0] != key:
        slot = g2._cache["rhs"] = (key, _RhsSample(g2, grid, tol))
    return slot[1]


def _sample(m: ComposedMap,
            grid: IntervalGrid) -> tuple[np.ndarray, np.ndarray, _RhsSample]:
    """The one sample of h on ``grid``: u = :func:`map_samples` and h(u) = s1(x)
    for x = s2^{-1}(u) of the right generator's sample at ``m.tol``, which is
    returned too."""
    side = _rhs_sample(m.rhs, grid, m.tol)
    return side.u, geval(m.lhs, side.x), side


def _profile(m: ComposedMap, grid: IntervalGrid) -> tuple[np.ndarray, np.ndarray]:
    """The positive map samples u and h(u): the profile h(u)/u and growth checks."""
    u, hu, _ = _sample(m, grid)
    pos = u > 0
    return u[pos], hu[pos]


@dataclass(frozen=True)
class ComparisonVerdict:
    relation: str
    witnesses: list = field(default_factory=list)  # (x, y, lhs, rhs) tuples
    criterion: str = "direct_compare"
    margin: float = DEFAULT_TOL.verdict_margin


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    verdict: str
    worst_case: tuple | None = None  # sample point(s) + residual
    notes: str = ""
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _serialize_witness(w: tuple) -> str:
    return " ".join(f"{v:.9g}" for v in w)


def serialize_verdict(v: ComparisonVerdict) -> str:
    """Stable text record: criterion, verdict, witnesses, margin."""
    lines = [f"criterion: {v.criterion}", f"verdict: {v.relation}"]
    for w in v.witnesses:
        lines.append(f"witness: {_serialize_witness(w)}")
    lines.append(f"margin: {v.margin:g}")
    return "\n".join(lines)


def serialize_report(r: CriterionReport) -> str:
    lines = [f"criterion: {r.criterion}", f"verdict: {r.verdict}"]
    if r.worst_case is not None:
        lines.append(f"worst_case: {_serialize_witness(r.worst_case)}")
    if r.notes:
        lines.append(f"notes: {r.notes}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the oracle


def _witnesses(S1: Operator, S2: Operator, X, Y,
               tol: ToleranceProfile) -> list[tuple]:
    """[(x, y, S1(x, y), S2(x, y)), ...] at the points of the sequences X, Y,
    each taken through ``S.surface`` as a point."""
    xs = np.asarray(X, dtype=float).tolist()
    ys = np.asarray(Y, dtype=float).tolist()
    return [(x, y, float(S1.surface(x, y, tol)), float(S2.surface(x, y, tol)))
            for x, y in zip(xs, ys)]


def direct_compare(S1: Operator, S2: Operator, grid: IntervalGrid,
                   tol: ToleranceProfile = DEFAULT_TOL) -> ComparisonVerdict:
    """Pointwise scan on 0, the grid and its decade points; the ground truth.

    d = S1 - S2 is combined from each operator's per-axis values, taken once,
    on the cells j >= i of the square grid, in blocks of rows of about
    ``SOLVER_CHUNK`` cells (``operators._triangle_rows``, the walk on which
    ``TSubnorm.combine`` inverts a square surface's triangle and mirrors it),
    each reduced to its first max and min cell as it goes, so memory is O(n)
    for n points per axis.  ``np.argmax`` over the
    block maxima (``np.argmin`` over the minima) then picks the first NaN, or
    else the first extreme, as one full scan would.  A skipped cell (i, j),
    j < i, mirrors a scanned (j, i) earlier in row-major order, so the
    witnesses are the cells a full scan's argmax, argmin and argmax |d| find.
    This needs d symmetric bit for bit: S(x, y) and S(y, x) must round the
    same, as s(x) + s(y) and commutative fixture expressions do.
    """
    pts = np.concatenate([[0.0], grid.axis])
    n = pts.size
    v1, v2 = S1.values(pts), S2.values(pts)
    blocks = []  # per block: its first max and first min cell, each (d, i, j)
    for r, k in _triangle_rows(n):
        d = S1.combine(v1[r:r + k, None], v1[None, r:], tol)
        d -= S2.combine(v2[r:r + k, None], v2[None, r:], tol)
        blocks.append([(float(d.flat[c]), r + c // (n - r), r + c % (n - r))
                       for c in (int(d.argmax()), int(d.argmin()))])
    tops, lows = zip(*blocks)
    top = tops[int(np.argmax([c[0] for c in tops]))]
    low = lows[int(np.argmin([c[0] for c in lows]))]
    m = tol.verdict_margin
    relation = _RELATION[top[0] <= m, low[0] >= -m]
    # for EQUAL argmax |d|: the larger extreme, the earlier cell on a tie
    cells = {EQUAL: [min(top, low, key=lambda c: (-abs(c[0]), c[1:]))],
             DOMINATED: [low], DOMINATES: [top], INCOMPARABLE: [top, low]}[relation]
    i, j = np.array([c[1:] for c in cells]).T
    return ComparisonVerdict(relation, _witnesses(S1, S2, pts[i], pts[j], tol),
                             "direct_compare", m)


def dominated_or_equal(v: ComparisonVerdict) -> bool:
    return v.relation in (DOMINATED, EQUAL)


# ---------------------------------------------------------------------------
# criteria on the composed map


def _report(name: str, holds, wc: tuple, failure: str = "",
            **details) -> CriterionReport:
    """HOLDS, or FAILS noted with ``failure``; witness and details either way."""
    return CriterionReport(name, HOLDS if holds else FAILS, wc,
                           notes="" if holds else failure, details=details)


def subadditivity_test(m: ComposedMap, grid: IntervalGrid) -> CriterionReport:
    """h(u+v) <= h(u) + h(v) over all sample pairs; exact iff S1 <= S2."""
    u, hu, _ = _sample(m, grid)
    holds, wc = _pair_scan(u, hu, m, np.add, _excess, m.tol.verdict_margin)
    return _report("subadditivity_test", holds, wc, "superadditive pair found")


def equality_test(m: ComposedMap, grid: IntervalGrid) -> CriterionReport:
    """h is homogeneous linear (h(u) = c*u, c > 0) iff S1 = S2."""
    u, hu, side = _sample(m, grid)
    linear, wc, c = _linear_fit(side.h(m.lhs), u, hu, m.tol.verdict_margin)
    return _report("equality_test", linear, wc, c=c)


def _linear_fit(h: Callable, u, hu, margin) -> tuple[bool, tuple, float]:
    """(h = c*u with c > 0 on the samples, witness, c) for c = h(u0)/u0 at the
    median positive sample u0 (:func:`map_samples` always has one, sorted, so
    u0 is read off as ``np.median`` computes it); h(u0) is read from hu when u0
    is itself a sample (an odd count), and is the float h(u0) otherwise."""
    pos = u > 0
    up = u[pos]
    k = up.size // 2
    u0 = float(up[k] if up.size % 2 else (up[k - 1] + up[k]) / 2)
    c = float(hu[pos][k] if up.size % 2 else h(u0)) / u0
    linear, wc = _worst(np.abs(hu - c * u), margin * np.maximum(1.0, np.abs(u)), u)
    return c > 0 and linear, wc, c


def concavity_criterion(m: ComposedMap, grid: IntervalGrid) -> CriterionReport:
    """Midpoint concavity of h, plus h(u) <= u*h(d)/d when d = s2(1) > 0.

    Sufficient only: a concave h is subadditive when h(u)/u is non-increasing
    on [d, inf), which for d > 0 is the side condition (h(u) <= u on normalized
    pairs); without it a concave h can fail subadditivity (the affine-with-offset
    counterexamples).
    """
    u, hu, side = _sample(m, grid)
    concave, wc = _pair_scan(u, hu, m, _midpoint, _concavity_gap,
                             m.tol.verdict_margin)
    details = {"midpoint_concave": concave, "upper_bound_ok": None}
    notes = "midpoint concavity fails"
    side_ok = True
    d = float(m.domain_start)
    if d > 0:
        side_ok, side_wc = _worst(hu - u * (side.h(m.lhs)(d) / d),
                                  m.tol.verdict_margin * np.maximum(1.0, u), u)
        details["upper_bound_ok"] = side_ok
        if not side_ok:
            wc, notes = side_wc, "h(u) <= u*h(d)/d fails (side condition for d > 0)"
    return _report("concavity_criterion", concave and side_ok, wc, notes, **details)


_T_SAMPLES = np.array([1.0, 1.5, 2.0, 3.0, 5.0, 10.0])[:, None]  # dilations t >= 1


def quasi_homogeneity_criterion(m: ComposedMap, grid: IntervalGrid) -> CriterionReport:
    """Under convexity of h: h(t*x) <= t*h(x) for t >= 1 iff S1 <= S2."""
    t = _T_SAMPLES
    u, hu, _ = _sample(m, grid)
    convex, _ = _pair_scan(u, hu, m, _midpoint, _convexity_gap, m.tol.verdict_margin)
    if not convex:
        return CriterionReport("quasi_homogeneity_criterion", NOT_APPLICABLE,
                               notes="h is not midpoint-convex on samples")
    holds, wc = _worst(m(t * u) - t * hu, _slack(m.tol.verdict_margin, t * hu), t, u)
    return _report("quasi_homogeneity_criterion", holds, wc)


def ratio_profile_criterion(m: ComposedMap, grid: IntervalGrid) -> CriterionReport:
    """phi(u) = h(u)/u non-increasing forces S1 <= S2 (sufficient only)."""
    u, hu = _profile(m, grid)
    if u.size < 2:
        return CriterionReport("ratio_profile_criterion", NOT_APPLICABLE,
                               notes="not enough positive samples")
    holds, wc = _monotone_scan(u, hu / u, m.tol.verdict_margin, falling=False)
    return _report("ratio_profile_criterion", holds, wc, "profile increases")


# ---------------------------------------------------------------------------
# guards


def _power(op: Operator, x: float, n: int, tol: ToleranceProfile) -> tuple[float, int]:
    """(x_op^{(k)}, k): the k-fold diagonal power at k = n, or at the first k
    where it is 0."""
    acc, k = x, 1
    while acc > 0.0 and k < n:
        acc = float(op.surface(x, acc, tol))
        k += 1
    return acc, k


def nilpotent_guard(S: Operator, T_nilpotent: Fixture, grid: IntervalGrid,
                    tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """S <= T always fails for nilpotent T: some power hits 0 under T only."""
    if not getattr(T_nilpotent, "nilpotent", False):
        return CriterionReport("nilpotent_guard", NOT_APPLICABLE,
                               notes="right operand is not a nilpotent fixture")
    candidates = [0.6, 0.5, 0.8] + [float(x) for x in grid.interior[::-1]]
    for x in candidates:
        t_power, n = _power(T_nilpotent, x, 500, tol)
        if t_power > 0.0:
            continue  # fixture never vanished here; try another point
        s_power = _power(S, x, n, tol)[0]
        if s_power > tol.verdict_margin:
            return CriterionReport(
                "nilpotent_guard", FAILS, (x, float(n), s_power, 0.0),
                notes="power witness: x_T^(n) = 0 < x_S^(n)",
                details={"x": x, "n": n, "s_power": s_power})
    return CriterionReport("nilpotent_guard", NOT_APPLICABLE,
                           notes="no vanishing power found on the grid")


def proper_never_dominates_tnorm_check(
        S: TSubnorm, T: Operator, grid: IntervalGrid,
        tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """T <= S is impossible for proper S: S(x,1) < x = T(x,1) somewhere.

    T counts as a t-norm when |T(x,1) - x| <= verdict_margin on every grid
    point; otherwise the check does not apply.
    """
    if not (isinstance(S, TSubnorm) and S.is_proper):
        return CriterionReport("proper_never_dominates_tnorm_check",
                               NOT_APPLICABLE, notes="left operand not proper")
    xs, one = grid.points, np.asarray(1.0)
    if not np.all(np.abs(T.surface(xs, one, tol) - xs) <= tol.verdict_margin):
        return CriterionReport("proper_never_dominates_tnorm_check",
                               NOT_APPLICABLE, notes="right operand is not a t-norm")
    gap = xs - S.surface(xs, one, tol)
    no_gap, wc = _worst(gap, tol.verdict_margin, xs)
    if no_gap:
        return CriterionReport("proper_never_dominates_tnorm_check", FAILS, wc,
                               notes="no boundary gap found")
    x = wc[0]
    return CriterionReport(
        "proper_never_dominates_tnorm_check", HOLDS,
        (x, float(S.surface(x, 1.0, tol)), x),
        notes="boundary-row witness S(x,1) < x")


# ---------------------------------------------------------------------------
# dispatch, family scans, public compare


def _normalized(S: TSubnorm) -> Generator:
    """S's generator, normalized if S is proper.  A new normalized generator
    is built once and kept in the cache of S's generator, so its own tables
    and sample are kept too."""
    g = S.generator
    if g.boundary_at_one in (0.0, 1.0):
        return g
    n = g._cache.get("normalized")
    if n is None:
        n = g._cache["normalized"] = normalize(g)
    return n


def _section3_map(S1: TSubnorm, S2: TSubnorm, tol: ToleranceProfile) -> ComposedMap:
    """h = g1 o g2^{-1} for the generators of S1, S2, normalized if proper."""
    if not (isinstance(S1, TSubnorm) and isinstance(S2, TSubnorm)):
        raise ParameterError("named criteria need generator-backed operands")
    return compose(_normalized(S1), _normalized(S2), tol)


def _proper_over_strict(S: TSubnorm, T: TSubnorm,
                        tol: ToleranceProfile) -> ComposedMap | str:
    """h = normalize(s) o t^{-1}, or why S <= T is no strict-dominance claim."""
    if not isinstance(T, TSubnorm) or not T.is_strict:
        return "right operand is not a strict t-norm"
    if not (isinstance(S, TSubnorm) and S.is_proper):
        return "left operand is not proper"
    return compose(_normalized(S), T.generator, tol)


def _over_strict(S: TSubnorm, T: TSubnorm,
                 tol: ToleranceProfile) -> ComposedMap | str:
    """h = s o t^{-1}, or why S = T is no logarithmic-equality claim."""
    if not isinstance(T, TSubnorm) or not T.is_strict:
        return "right operand is not a strict t-norm"
    if not isinstance(S, TSubnorm):
        return "left operand has no generator"
    return compose(S.generator, T.generator, tol)


class _Criterion(NamedTuple):
    test: Callable[..., CriterionReport]  # the base test on h
    name: str  # reported name
    failure: str | None = None  # the FAILS note, or None for the test's own
    build: Callable = _section3_map  # h from (S1, S2, tol), or a NOT_APPLICABLE note


# criterion name -> row, for the claim S1 <= S2 (or S1 = S2); witnesses are in
# u = s2(x), and in w = -ln u for the strict t-norm rows
_CRITERIA = {
    "subadditivity": _Criterion(subadditivity_test, "subadditivity_test"),
    "equality": _Criterion(equality_test, "equality_test"),
    "concavity": _Criterion(concavity_criterion, "concavity_criterion"),
    "quasi_homogeneity": _Criterion(quasi_homogeneity_criterion,
                                    "quasi_homogeneity_criterion"),
    "ratio": _Criterion(ratio_profile_criterion, "ratio_criterion",
                        "generator ratio decreases"),
    "ratio_profile": _Criterion(ratio_profile_criterion, "ratio_profile_criterion"),
    "derivative_ratio": _Criterion(concavity_criterion, "derivative_ratio_criterion"),
    "strict_dominance": _Criterion(subadditivity_test, "strict_dominance_test",
                                   "submultiplicative-additivity fails",
                                   _proper_over_strict),
    "logarithmic_equality": _Criterion(equality_test, "logarithmic_equality_test",
                                       "g is not logarithmic", _over_strict),
}
CRITERION_NAMES = tuple(_CRITERIA)


def run_criterion(name: str, S1: TSubnorm, S2: TSubnorm, grid: IntervalGrid,
                  tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """Run a named order criterion for the claim S1 <= S2 (or S1 = S2)."""
    if name not in _CRITERIA:
        raise ParameterError(f"unknown criterion {name!r}")
    test, reported, failure, build = _CRITERIA[name]
    h = build(S1, S2, tol)
    if isinstance(h, str):
        return CriterionReport(reported, NOT_APPLICABLE, notes=h)
    rep = test(h, grid)
    return replace(rep, criterion=reported,
                   notes=rep.notes if rep.holds or failure is None else failure)


def family_monotonicity_scan(family: str, fixed_params: dict,
                             lambdas: list[float], criterion: str,
                             grid: IntervalGrid,
                             tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Order a one-parameter family chain and certify each adjacent pair.

    For each adjacent (lam_i, lam_{i+1}) the oracle fixes the direction and
    the named criterion is run on the dominated pair; the report records
    agreement and the overall chain direction.
    """
    if len(lambdas) < 2:
        raise ParameterError("scan needs at least two parameter values")
    members = [make_family(FamilySpec(family, {**fixed_params, "l": lam}), tol)
               for lam in lambdas]
    steps = []
    directions = set()
    for (la, Sa), (lb, Sb) in zip(zip(lambdas, members),
                                  zip(lambdas[1:], members[1:])):
        oracle = direct_compare(Sa, Sb, grid, tol)
        direction = {DOMINATED: "increasing",
                     DOMINATES: "decreasing"}.get(oracle.relation, oracle.relation)
        lo, hi = (Sb, Sa) if oracle.relation == DOMINATES else (Sa, Sb)
        report = run_criterion(criterion, lo, hi, grid, tol)
        directions.add(direction)
        steps.append({
            "pair": (la, lb),
            "oracle": oracle,
            "direction": direction,
            "criterion": report,
            "agree": report.holds and direction in ("increasing", "decreasing"),
        })
    chain = directions.pop() if len(directions) == 1 else "mixed"
    return {"family": family, "lambdas": list(lambdas),
            "chain": chain, "steps": steps}


_COARSE_STRIDE = 8  # compare's coarse matrix: every 8th map sample and the last


@lru_cache(maxsize=8)
def _coarse_samples(n: int, stride: int) -> np.ndarray:
    """The indices 0, stride, 2*stride, ... below n - 1, and n - 1."""
    idx = np.append(np.arange(0, n - 1, stride), n - 1)
    idx.setflags(write=False)
    return idx


def _matrix_verdict(S1, S2, R, allow, x, tol: ToleranceProfile) -> ComparisonVerdict:
    """compare's verdict on R = h(u_i + u_j) - h(u_i) - h(u_j) for samples u
    and x = g2^{-1}(u): S1 <= S2 iff R <= allow, S2 <= S1 iff -R <= allow.
    Witnesses (x, y, S1, S2) at (x, y) = (x_i, x_j), read from x at the
    witness cell, with S1 and S2 from their point kernels, are the tightest
    point of EQUAL, DOMINATED and DOMINATES, and one per direction for
    INCOMPARABLE; a violation without a strict S1 > S2 at its point (S2 > S1
    reversed) makes the verdict UNKNOWN."""
    X, Y = x[:, None], x[None, :]
    (below, fwd), (above, rev) = _within(R, allow, X, Y), _within(-R, allow, X, Y)
    wits = _witnesses(S1, S2, *zip(fwd[:2], rev[:2]), tol)
    relation = _RELATION[below, above]
    keep = {EQUAL: [int(rev[2] > fwd[2])], DOMINATED: [0], DOMINATES: [1],
            INCOMPARABLE: [0, 1]}[relation]
    (*_, s1f, s2f), (*_, s1r, s2r) = wits
    if (not below and s1f <= s2f) or (not above and s2r <= s1r):
        relation = UNKNOWN
    return ComparisonVerdict(relation, [wits[k] for k in keep],
                             "subadditivity_test", tol.verdict_margin)


def compare(S1: Operator, S2: Operator, grid: IntervalGrid,
            tol: ToleranceProfile = DEFAULT_TOL) -> ComparisonVerdict:
    """Public order query: equality and ratio certificates, then the exact test.

    For generator-backed operands, h = g1 o g2^{-1} (normalized pair) is sampled
    once (:func:`_sample`): u = :func:`map_samples` and x = g2^{-1}(u) depend
    on g2 alone, and hu = h(u) = g1(x).  Where g2 has no closed inverse, u, x
    and the other inverses of g2 that compare solves before the full matrix
    (the fit's median and the coarse pair sums) are kept in g2's cache for the
    next test on the same grid axis and tolerance (:class:`_RhsSample`).  The
    sample serves the equality fit, the ratio profile h(u)/u on u > 0 (the
    generator ratio g1/g2 at u = g2(x): non-increasing gives S1 <= S2,
    non-decreasing S2 <= S1) and R = h(u_i + u_j) - h(u_i) - h(u_j):
    S1 <= S2 iff R <= slack (h subadditive), S2 <= S1 iff -R <= slack (h^{-1}
    subadditive at h(u_i), h(u_j)).  Both compare the same two values, so the
    _slack(margin, h(u_i), h(u_j)) round-off allowance serves both.  The values
    h(u_i + u_j) are evaluated on the cells j >= i and mirrored
    (:func:`_pair_matrix`).  R is NaN only where h(u_i) + h(u_j) = inf
    forces h(u_i + u_j) = inf, the exact infinity branch: both hold there.
    :func:`_matrix_verdict` reads the verdict off R.

    R is first built on a coarse sample, every ``_COARSE_STRIDE``-th u and
    the last (14 of the 104 samples at ``uniform(101)``).  If both directions
    fail there and its verdict is INCOMPARABLE, that is the verdict; otherwise
    the full matrix decides, so only an incomparable verdict is settled on the
    coarse matrix.
    :class:`Fixture` operands get the oracle.
    """
    if not (isinstance(S1, TSubnorm) and isinstance(S2, TSubnorm)):
        return direct_compare(S1, S2, grid, tol)
    margin = tol.verdict_margin
    m = _section3_map(S1, S2, tol)
    u, hu, side = _sample(m, grid)
    h = side.h(m.lhs)
    if _linear_fit(h, u, hu, margin)[0]:
        return ComparisonVerdict(EQUAL, [], "equality_test", margin)
    pos = u > 0
    profile = u[pos], hu[pos] / u[pos]
    for falling, relation in ((False, DOMINATED), (True, DOMINATES)):
        if _monotone_scan(*profile, margin, falling)[0]:
            return ComparisonVerdict(relation, [], "ratio_criterion", margin)
    c = _coarse_samples(u.size, _COARSE_STRIDE)
    R, allow = _pair_residuals(u.take(c), hu.take(c), h, np.add, _excess, margin)
    if (R > allow).any() and (-R > allow).any():  # both fail; NaN holds both
        v = _matrix_verdict(S1, S2, R, allow, side.x.take(c), tol)
        if v.relation == INCOMPARABLE:
            return v
    R, allow = _pair_residuals(u, hu, m, np.add, _excess, margin)
    return _matrix_verdict(S1, S2, R, allow, side.x, tol)
