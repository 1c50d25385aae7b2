"""Deciding and certifying the pointwise order of t-subnorms.

The ground truth is a brute-force grid oracle (:func:`direct_compare`) on
the grid plus the decade points the criteria sample near 0.  Every other test
here is a criterion on the composed map h = s1 o s2^{-1}: subadditivity of h
characterizes S1 <= S2 exactly; linearity characterizes equality; concavity
(with h(u) <= u*h(d)/d when d = s2(1) > 0), generator ratio, ratio profile and
derivative ratio are sufficient certificates; submultiplicative-additivity
handles dominance by a strict t-norm through its product isomorphism.  The
public :func:`compare` runs the equality and ratio certificates first and
falls back to the oracle, recording which path decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .generators import (
    DEFAULT_TOL,
    Generator,
    IntervalGrid,
    ParameterError,
    ToleranceProfile,
    derivative,
    geval,
    ginvert,
    normalize,
)
from .operators import (
    FamilySpec,
    Fixture,
    Operator,
    TSubnorm,
    make_family,
)

# verdict tags
DOMINATES = "dominates"
DOMINATED = "dominated"
EQUAL = "equal"
INCOMPARABLE = "incomparable"
UNKNOWN = "unknown"

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


def _worst(res, allow, *coords) -> tuple[bool, tuple]:
    """The criterion kernel: every residual within its allowance, or a witness.

    Returns whether res <= allow everywhere and the witness (coords..., res)
    at the largest res - allow, first in row-major order on ties.  Each
    coordinate is an array that broadcasts against res; it is read at the
    witness index without materializing the broadcast (unit axes read 0).
    """
    gap = res - allow
    idx = np.unravel_index(int(gap.argmax()), gap.shape)
    at = [float(c[tuple(i if n > 1 else 0
                        for i, n in zip(idx[gap.ndim - c.ndim:], c.shape))])
          for c in (*coords, res)]
    return bool((res <= allow).all()), tuple(at)


def _pair_scan(u, fu, f, combine, residual, margin) -> tuple[bool, tuple]:
    """The pairwise criterion over all sample pairs (u_i, u_j).

    Checks residual(f(combine(u_i, u_j)), f(u_i), f(u_j)) against
    _slack(margin, f(u_i), f(u_j)), counting NaN (inf - inf) residuals, the
    exact infinity branch, as satisfied; the witness is (u_i, u_j, residual).
    """
    U, V = u[:, None], u[None, :]
    FU, FV = fu[:, None], fu[None, :]
    res = residual(f(combine(U, V)), FU, FV)
    return _worst(np.where(np.isnan(res), -np.inf, res), _slack(margin, FU, FV), U, V)


def _monotone_scan(xs, r, rel, falling) -> tuple[bool, tuple]:
    """Adjacent steps of r against its direction: decreases if ``falling``.

    Each step may reach rel * max(1, |r|) at its left end; the witness is
    (x_k, x_{k+1}, step).
    """
    steps = -np.diff(r) if falling else np.diff(r)
    return _worst(steps, rel * np.maximum(1.0, np.abs(r[:-1])), xs[:-1], xs[1:])


def _with_decades(grid: IntervalGrid, xs: np.ndarray) -> np.ndarray:
    """xs plus six decade points from epsilon_floor to 0.1, sorted, unique."""
    return np.unique(np.concatenate([np.geomspace(grid.epsilon_floor, 0.1, 6), xs]))


@dataclass(frozen=True)
class ComposedMap:
    """h = s1 o s2^{-1} on [s2(1), inf]; strictly increasing, h(s2(1)) = s1(1).

    Fixture maps (an explicit callable h with its domain start) share the
    same interface so the converse-failure examples can be exercised.
    """

    h: Callable[[np.ndarray], np.ndarray]
    domain_start: float
    lhs: Generator | None = None
    rhs: Generator | None = None
    label: str = "h"

    def __call__(self, u):
        return self.h(np.asarray(u, dtype=float))

    @property
    def both_normalized(self) -> bool:
        if self.lhs is not None and self.rhs is not None:
            return (self.lhs.boundary_at_one == 1.0
                    and self.rhs.boundary_at_one == 1.0)
        # fixture on [1, inf] is treated as the normalized-pair case
        return self.domain_start == 1.0


def compose(s1: Generator, s2: Generator,
            tol: ToleranceProfile = DEFAULT_TOL) -> ComposedMap:
    def h(u):
        return geval(s1, ginvert(s2, u, tol))

    return ComposedMap(h=h, domain_start=s2.boundary_at_one, lhs=s1, rhs=s2,
                       label=f"{s1.label} o inv({s2.label})")


def from_callable(h: Callable, domain_start: float, label: str = "h") -> ComposedMap:
    return ComposedMap(h=h, domain_start=domain_start, label=label)


def map_samples(m: ComposedMap, grid: IntervalGrid) -> np.ndarray:
    """Abscissae for criterion scans.

    Generator-backed maps sample u = s2(x) over the grid plus decade points
    down to epsilon_floor, reaching u ~ s2(1e-6); the exact infinity branch is
    handled separately (h(inf) = inf makes subadditivity trivial there).
    Fixture maps sample geometrically from the domain start.
    """
    if m.rhs is not None:
        u = geval(m.rhs, _with_decades(grid, grid.points))
        u = u[np.isfinite(u)]
    else:
        u = m.domain_start + np.concatenate(
            [[0.0], np.geomspace(1e-4, 1e6, 51)])
    return np.unique(u)


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


def direct_compare(S1: Operator, S2: Operator, grid: IntervalGrid,
                   tol: ToleranceProfile = DEFAULT_TOL) -> ComparisonVerdict:
    """Pointwise scan on 0, the grid and its decade points; the ground truth."""
    pts = np.concatenate([[0.0], _with_decades(grid, grid.points)])
    X, Y = pts[:, None], pts[None, :]
    d = S1.surface(X, Y, tol) - S2.surface(X, Y, tol)
    m = tol.verdict_margin
    hi, lo = float(np.max(d)), float(np.min(d))

    def witness(idx):
        i, j = np.unravel_index(idx, d.shape)
        x, y = float(pts[i]), float(pts[j])
        return (x, y, float(S1.surface(x, y, tol)), float(S2.surface(x, y, tol)))

    if hi <= m and lo >= -m:
        relation, wits = EQUAL, [witness(int(np.argmax(np.abs(d))))]
    elif hi <= m:
        relation, wits = DOMINATED, [witness(int(np.argmin(d)))]
    elif lo >= -m:
        relation, wits = DOMINATES, [witness(int(np.argmax(d)))]
    else:
        relation = INCOMPARABLE
        wits = [witness(int(np.argmax(d))), witness(int(np.argmin(d)))]
    return ComparisonVerdict(relation=relation, witnesses=wits,
                             criterion="direct_compare", margin=m)


def dominated_or_equal(v: ComparisonVerdict) -> bool:
    return v.relation in (DOMINATED, EQUAL)


# ---------------------------------------------------------------------------
# criteria on the composed map


def _report(name: str, holds, wc: tuple, failure: str = "",
            **details) -> CriterionReport:
    """HOLDS, or FAILS noted with ``failure``; witness and details either way."""
    return CriterionReport(name, HOLDS if holds else FAILS, wc,
                           notes="" if holds else failure, details=details)


def subadditivity_test(m: ComposedMap, grid: IntervalGrid,
                       tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """h(u+v) <= h(u) + h(v) over all sample pairs; exact iff S1 <= S2."""
    u = map_samples(m, grid)
    holds, wc = _pair_scan(u, m(u), m, np.add, _excess, tol.verdict_margin)
    return _report("subadditivity_test", holds, wc, "superadditive pair found")


def equality_test(m: ComposedMap, grid: IntervalGrid,
                  tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """h is homogeneous linear (h(u) = c*u, c > 0) iff S1 = S2."""
    u = map_samples(m, grid)
    hu = m(u)
    nz = u[u > 0]
    if nz.size == 0:
        return CriterionReport("equality_test", NOT_APPLICABLE,
                               notes="no nonzero sample for the fit")
    u0 = float(np.median(nz))
    c = float(m(u0)) / u0
    linear, wc = _worst(np.abs(hu - c * u),
                        tol.verdict_margin * np.maximum(1.0, np.abs(u)), u)
    return _report("equality_test", c > 0 and linear, wc, c=c)


def concavity_criterion(m: ComposedMap, grid: IntervalGrid,
                        tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """Midpoint concavity of h, plus h(u) <= u*h(d)/d when d = s2(1) > 0.

    Sufficient only: a concave h is subadditive when h(u)/u is non-increasing
    on [d, inf), which for d > 0 is the side condition (h(u) <= u on normalized
    pairs); without it a concave h can fail subadditivity (the affine-with-offset
    counterexamples).
    """
    u = map_samples(m, grid)
    hu = m(u)
    concave, wc = _pair_scan(u, hu, m, _midpoint, _concavity_gap,
                             tol.verdict_margin)
    details = {"midpoint_concave": concave, "upper_bound_ok": None}
    notes = "midpoint concavity fails"
    side_ok = True
    d = m.domain_start
    if d > 0:
        side_ok, side_wc = _worst(hu - u * (float(m(d)) / d),
                                  tol.verdict_margin * np.maximum(1.0, u), u)
        details["upper_bound_ok"] = side_ok
        if not side_ok:
            wc, notes = side_wc, "h(u) <= u*h(d)/d fails (side condition for d > 0)"
    return _report("concavity_criterion", concave and side_ok, wc, notes, **details)


def quasi_homogeneity_criterion(
        m: ComposedMap, grid: IntervalGrid,
        t_samples=(1.0, 1.5, 2.0, 3.0, 5.0, 10.0),
        tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """Under convexity of h: h(t*x) <= t*h(x) for t >= 1 iff S1 <= S2."""
    t = np.asarray(t_samples, dtype=float)[:, None]
    if t.size == 0 or np.any(t < 1):
        raise ParameterError("t samples must be non-empty and >= 1")
    u = map_samples(m, grid)
    hu = m(u)
    convex, _ = _pair_scan(u, hu, m, _midpoint, _convexity_gap, tol.verdict_margin)
    if not convex:
        return CriterionReport("quasi_homogeneity_criterion", NOT_APPLICABLE,
                               notes="h is not midpoint-convex on samples")
    holds, wc = _worst(m(t * u) - t * hu, _slack(tol.verdict_margin, t * hu), t, u)
    return _report("quasi_homogeneity_criterion", holds, wc)


def ratio_criterion(s1: Generator, s2: Generator, grid: IntervalGrid,
                    tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """s1/s2 non-decreasing on (0,1) forces S1 <= S2 (sufficient only)."""
    xs = _with_decades(grid, grid.interior)
    holds, wc = _monotone_scan(xs, geval(s1, xs) / geval(s2, xs),
                               tol.verdict_margin, falling=True)
    return _report("ratio_criterion", holds, wc, "generator ratio decreases")


def ratio_profile_criterion(m: ComposedMap, grid: IntervalGrid,
                            tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """phi(u) = h(u)/u non-increasing forces S1 <= S2 (sufficient only)."""
    u = map_samples(m, grid)
    u = u[u > 0]
    if u.size < 2:
        return CriterionReport("ratio_profile_criterion", NOT_APPLICABLE,
                               notes="not enough positive samples")
    holds, wc = _monotone_scan(u, m(u) / u, tol.verdict_margin, falling=False)
    return _report("ratio_profile_criterion", holds, wc, "profile increases")


def derivative_ratio_criterion(s1: Generator, s2: Generator, grid: IntervalGrid,
                               tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """s1'/s2' non-decreasing, plus s1*s2(1) <= s2*s1(1) when s2(1) > 0 => S1 <= S2."""
    lo = max(float(grid.points[0]), 1e-4)
    xs = grid.points[(grid.points >= lo) & (grid.points <= 1 - 1e-4)]
    if xs.size < 3:
        xs = np.linspace(0.05, 0.95, 19)
    d1 = np.array([derivative(s1, float(x), tol) for x in xs])
    d2 = np.array([derivative(s2, float(x), tol) for x in xs])
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
            and np.all(d2 != 0)):
        return CriterionReport("derivative_ratio_criterion", NOT_APPLICABLE,
                               notes="non-finite derivative samples")
    # finite differences carry more noise than closed forms; widen the slack
    holds, wc = _monotone_scan(xs, d1 / d2, 1e-4, falling=True)
    if not holds:
        return CriterionReport("derivative_ratio_criterion", FAILS, wc,
                               notes="derivative ratio decreases")
    b1, b2 = s1.boundary_at_one, s2.boundary_at_one
    if b2 > 0:
        v1, v2 = geval(s1, xs), geval(s2, xs)
        below, side_wc = _worst(
            v1 * b2 - v2 * b1, tol.verdict_margin * np.maximum(1.0, np.abs(v2)), xs)
        if not below:
            return CriterionReport(
                "derivative_ratio_criterion", FAILS, side_wc,
                notes="s1*s2(1) <= s2*s1(1) fails (side condition for s2(1) > 0)")
    return CriterionReport("derivative_ratio_criterion", HOLDS, wc)


# ---------------------------------------------------------------------------
# dominance by / equality with a strict t-norm


def _product_transport(s: Generator, t: Generator, u: np.ndarray,
                       tol: ToleranceProfile) -> np.ndarray:
    """g(u) = s(t^{-1}(-ln u)) on (0,1]; t's product isomorphism pullback."""
    with np.errstate(divide="ignore"):
        w = -np.log(u)
    return geval(s, ginvert(t, w, tol))


def strict_dominance_test(S: TSubnorm, T: TSubnorm, grid: IntervalGrid,
                          tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """S <= T iff g(u) = s(t^{-1}(-ln u)) is submultiplicative-additive."""
    if not isinstance(T, TSubnorm) or not T.is_strict:
        return CriterionReport("strict_dominance_test", NOT_APPLICABLE,
                               notes="right operand is not a strict t-norm")
    if not (isinstance(S, TSubnorm) and S.is_proper):
        return CriterionReport("strict_dominance_test", NOT_APPLICABLE,
                               notes="left operand is not proper")
    s = normalize(S.generator)
    t = T.generator
    u = _with_decades(grid, grid.points)
    holds, wc = _pair_scan(u, _product_transport(s, t, u, tol),
                           lambda w: _product_transport(s, t, w, tol),
                           np.multiply, _excess, tol.verdict_margin)
    return _report("strict_dominance_test", holds, wc,
                   "submultiplicative-additivity fails")


def logarithmic_equality_test(S: TSubnorm, T: TSubnorm, grid: IntervalGrid,
                              tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """S = T iff g(u) = s(t^{-1}(-ln u)) equals -c*ln u for some c > 0."""
    if not isinstance(T, TSubnorm) or not T.is_strict:
        return CriterionReport("logarithmic_equality_test", NOT_APPLICABLE,
                               notes="right operand is not a strict t-norm")
    if not isinstance(S, TSubnorm):
        return CriterionReport("logarithmic_equality_test", NOT_APPLICABLE,
                               notes="left operand has no generator")
    s, t = S.generator, T.generator
    u = _with_decades(grid, grid.interior)
    g = _product_transport(s, t, u, tol)
    u0 = float(np.median(u))
    c = float(_product_transport(s, t, np.asarray(u0), tol)) / (-math.log(u0))
    lnu = np.log(u)
    logarithmic, wc = _worst(np.abs(g + c * lnu),
                             tol.verdict_margin * np.maximum(1.0, np.abs(lnu)), u)
    return _report("logarithmic_equality_test", c > 0 and logarithmic,
                   wc, "g is not logarithmic", c=c)


# ---------------------------------------------------------------------------
# guards


def _power(op: Operator, x: float, n: int) -> float:
    """x_op^{(n)}: the n-fold diagonal power."""
    acc = x
    for _ in range(n - 1):
        acc = float(op.surface(x, acc))
        if acc == 0.0:
            return 0.0
    return acc


def nilpotent_guard(S: Operator, T_nilpotent: Fixture, grid: IntervalGrid,
                    tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """S <= T always fails for nilpotent T: some power hits 0 under T only."""
    if not getattr(T_nilpotent, "nilpotent", False):
        return CriterionReport("nilpotent_guard", NOT_APPLICABLE,
                               notes="right operand is not a nilpotent fixture")
    candidates = [0.6, 0.5, 0.8] + [float(x) for x in grid.interior[::-1]]
    for x in candidates:
        if not 0 < x < 1:
            continue
        acc, n = x, 1
        while acc > 0.0 and n < 500:
            acc = float(T_nilpotent.surface(x, acc))
            n += 1
        if acc > 0.0:
            continue  # fixture never vanished here; try another point
        s_power = _power(S, x, n)
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
    """T <= S is impossible for proper S: S(x,1) < x = T(x,1) somewhere."""
    if not (isinstance(S, TSubnorm) and S.is_proper):
        return CriterionReport("proper_never_dominates_tnorm_check",
                               NOT_APPLICABLE, notes="left operand not proper")
    xs = grid.points
    gap = xs - S.surface(xs, np.asarray(1.0), tol)
    no_gap, wc = _worst(gap, tol.verdict_margin, xs)
    if no_gap:
        return CriterionReport("proper_never_dominates_tnorm_check", FAILS, wc,
                               notes="no boundary gap found")
    x = wc[0]
    return CriterionReport(
        "proper_never_dominates_tnorm_check", HOLDS,
        (x, float(S.surface(x, 1.0)), x),
        notes="boundary-row witness S(x,1) < x")


# ---------------------------------------------------------------------------
# dispatch, family scans, public compare


def _section3_generator(S: TSubnorm) -> Generator:
    """The generator used by criteria: normalized for proper subnorms."""
    if not isinstance(S, TSubnorm):
        raise ParameterError("named criteria need generator-backed operands")
    g = S.generator
    return normalize(g) if g.boundary_at_one > 0 else g


def _on_generators(test):
    def run(S1, S2, grid, tol):
        return test(_section3_generator(S1), _section3_generator(S2), grid, tol=tol)
    return run


def _on_map(test):
    def run(S1, S2, grid, tol):
        m = compose(_section3_generator(S1), _section3_generator(S2), tol)
        return test(m, grid, tol=tol)
    return run


# criterion name -> runner(S1, S2, grid, tol) for the claim S1 <= S2 (or S1 = S2)
_CRITERIA = {
    "subadditivity": _on_map(subadditivity_test),
    "equality": _on_map(equality_test),
    "concavity": _on_map(concavity_criterion),
    "quasi_homogeneity": _on_map(quasi_homogeneity_criterion),
    "ratio": _on_generators(ratio_criterion),
    "ratio_profile": _on_map(ratio_profile_criterion),
    "derivative_ratio": _on_generators(derivative_ratio_criterion),
    "strict_dominance": strict_dominance_test,
    "logarithmic_equality": logarithmic_equality_test,
}
CRITERION_NAMES = tuple(_CRITERIA)


def run_criterion(name: str, S1: TSubnorm, S2: TSubnorm, grid: IntervalGrid,
                  tol: ToleranceProfile = DEFAULT_TOL) -> CriterionReport:
    """Run a named order criterion for the claim S1 <= S2 (or S1 = S2)."""
    if name not in _CRITERIA:
        raise ParameterError(f"unknown criterion {name!r}")
    return _CRITERIA[name](S1, S2, grid, tol)


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
        if oracle.relation == DOMINATED:
            direction = "increasing"
            lo, hi = Sa, Sb
        elif oracle.relation == DOMINATES:
            direction = "decreasing"
            lo, hi = Sb, Sa
        else:
            direction = oracle.relation
            lo, hi = Sa, Sb
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


def compare(S1: Operator, S2: Operator, grid: IntervalGrid,
            tol: ToleranceProfile = DEFAULT_TOL,
            criterion: str | None = None) -> ComparisonVerdict:
    """Public order query: cheap certificates first, grid oracle as fallback.

    The certificate chain is equality, then generator ratio (tried for
    S1 <= S2 and for S2 <= S1); the first that holds decides, else
    :func:`direct_compare` does.  ``criterion`` forces a single named test
    (its holds/fails outcome is reported next to the oracle verdict via the
    criterion field).
    """
    both_generated = isinstance(S1, TSubnorm) and isinstance(S2, TSubnorm)
    if criterion is not None:
        if not both_generated:
            raise ParameterError("named criteria need generator-backed operands")
        rep = run_criterion(criterion, S1, S2, grid, tol)
        oracle = direct_compare(S1, S2, grid, tol)
        return ComparisonVerdict(relation=oracle.relation,
                                 witnesses=oracle.witnesses,
                                 criterion=f"{criterion}:{rep.verdict}",
                                 margin=tol.verdict_margin)
    if both_generated:
        if run_criterion("equality", S1, S2, grid, tol).holds:
            return ComparisonVerdict(EQUAL, [], "equality_test",
                                     tol.verdict_margin)
        for lo, hi, relation in ((S1, S2, DOMINATED), (S2, S1, DOMINATES)):
            if run_criterion("ratio", lo, hi, grid, tol).holds:
                return ComparisonVerdict(relation, [], "ratio_criterion",
                                         tol.verdict_margin)
    return direct_compare(S1, S2, grid, tol)
