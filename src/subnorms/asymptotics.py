"""Growth and boundedness of composed maps: slopes A and B, linear envelopes.

For a dominated pair the ratio h(x)/x converges at infinity to its infimum
(the asymptotic slope A), and A equals lim_{t->0+} s1(t)/s2(t), classifying
the generators as infinities of lower or same order.  The small-argument
slope B bounds h above; together A*x <= h(x) <= B*x is the linear envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generators import INF, IntervalGrid, ToleranceProfile, geval
from .operators import _worst
from .ordering import (
    ComposedMap,
    CriterionReport,
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    _concavity_gap,
    _convexity_gap,
    _midpoint,
    _monotone_scan,
    _pair_matrix,
    _profile,
    _slack,
    direct_compare,
    dominated_or_equal,
    subadditivity_test,
)

_REL_TOL = 1e-3  # convergence window for the probe sequences

ORDER_LOWER = "order_lower"       # A = 0: s1 is an infinity of lower order
SAME_ORDER = "same_order"         # 0 < A < inf: same order of infinity
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SlopeEstimate:
    value: float
    converged: bool
    sequence: list = field(default_factory=list)  # (probe, ratio) pairs
    note: str = ""
    sample_infimum: float | None = None

    def serialize(self) -> str:
        lines = [f"value: {self.value:.9g}", f"converged: {self.converged}",
                 f"note: {self.note}"]
        for probe, ratio in self.sequence:
            lines.append(f"probe: {probe:.3g} ratio: {ratio:.9g}")
        return "\n".join(lines)


def _classify(value: float) -> str:
    if not math.isfinite(value):
        return UNBOUNDED
    if abs(value) <= _REL_TOL:
        return ORDER_LOWER
    return SAME_ORDER


def _probe_slope(ratio, sample_infimum: float | None = None) -> SlopeEstimate:
    """The limit of ratio(x) along x = 10^-k, k = 1..12.

    Any overflowed probe reports inf, not converged.
    """
    pairs = [(x, ratio(x)) for x in (10.0 ** -k for k in range(1, 13))]
    ratios = [r for _, r in pairs if math.isfinite(r)]
    value, converged = INF, False
    if len(ratios) == len(pairs):
        value = ratios[-1]
        converged = abs(value - ratios[-2]) <= _REL_TOL * max(1.0, abs(value))
    return SlopeEstimate(value=value, converged=converged, sequence=pairs,
                         note=_classify(value), sample_infimum=sample_infimum)


def _slope_A(m: ComposedMap, u: np.ndarray, hu: np.ndarray) -> SlopeEstimate:
    """A from its probes, with the infimum of h(u)/u over the profile (u, hu)."""
    inf_phi = float(np.min(hu / u)) if u.size else None
    return _probe_slope(lambda t: float(geval(m.lhs, t)) / float(geval(m.rhs, t)),
                        inf_phi)


def asymptotic_slope_A(m: ComposedMap, grid: IntervalGrid) -> SlopeEstimate:
    """A = lim_{x->inf} h(x)/x, estimated as lim_{t->0+} s1(t)/s2(t).

    Divergence is reported as inf with converged=False, not an error.
    """
    return _slope_A(m, *_profile(m, grid))


def small_slope_B(m: ComposedMap, grid: IntervalGrid) -> SlopeEstimate:
    """B bounding h(x) <= B*x.

    Strict-pair case (domain start 0): the limit of h(x)/x as x -> 0+.
    Normalized proper pair: the supremum of h(x)/x over samples, which the
    subadditivity bound caps at 2.
    """
    if m.domain_start == 0.0:
        return _probe_slope(lambda x: float(m(x)) / x)
    if m.both_normalized:
        return _sup_slope(*_profile(m, grid), m.tol)
    return SlopeEstimate(value=math.nan, converged=False,
                         note="not_applicable: mixed unnormalized pair")


def _sup_slope(u: np.ndarray, hu: np.ndarray, tol: ToleranceProfile) -> SlopeEstimate:
    """B of a normalized pair, sup h(u)/u over its profile (u >= s2(1) = 1)."""
    phi = hu / u
    value = float(np.max(phi))
    note = "sup over samples" + ("" if value <= 2.0 + tol.verdict_margin
                                 else "; exceeds the theoretical bound 2")
    k = int(np.argmax(phi))
    return SlopeEstimate(value=value, converged=True,
                         sequence=[(float(u[k]), value)], note=note)


def _median(a: np.ndarray) -> float:
    """``np.median`` of a 1-d array by a sort: the middle value, or the mean of
    the two middle values, and NaN if any value is NaN or a is empty (numpy
    2.4's ``np.median`` imports ``numpy.ma``, about 11 ms in a cold process)."""
    a = np.sort(a)  # NaN sorts last
    k = a.size // 2
    if not a.size or np.isnan(a[-1]):
        return math.nan
    return float(a[k] if a.size % 2 else (a[k - 1] + a[k]) / 2)


def _envelope(u: np.ndarray, hu: np.ndarray, A: float, B: float,
              tol: ToleranceProfile) -> CriterionReport:
    # positive residuals leave the envelope: below A*u or above B*u
    holds, wc = _worst(np.maximum(A * u - hu, hu - B * u),
                       tol.verdict_margin * np.maximum(1.0, u), u)
    notes = ""
    phi = hu / u
    if phi[-1] > 10.0 * _median(phi) and phi[-1] > phi[u.size // 2]:
        notes = "h(x)/x unbounded on samples; h itself is unbounded"
    return CriterionReport("linear_envelope_check", HOLDS if holds else FAILS, wc,
                           notes=notes)


def linear_envelope_check(m: ComposedMap, A: float, B: float,
                          grid: IntervalGrid) -> CriterionReport:
    """A*x <= h(x) <= B*x across samples."""
    if not (A <= B and math.isfinite(A) and math.isfinite(B)):
        return CriterionReport("linear_envelope_check", NOT_APPLICABLE,
                               notes="need finite A <= B")
    return _envelope(*_profile(m, grid), A, B, m.tol)


def section4_equivalences(m: ComposedMap, grid: IntervalGrid,
                          pair=None) -> dict[str, CriterionReport]:
    """The three growth-based order predicates, each cross-checked.

    (a) convex profile: finite asymptotic slope must coincide with the
        subadditivity verdict;
    (b) non-increasing bounded profile: forces dominance plus the A/B envelope;
    (c) concave h with sup phi <= 1: dominance iff A <= phi <= 1.

    Dominance is the subadditivity verdict, or the grid oracle's for a ``pair = (S1, S2)``.
    """
    u, hu = _profile(m, grid)
    phi = hu / u
    margin = m.tol.verdict_margin

    if pair is None:
        dominated = subadditivity_test(m, grid).holds
    else:
        dominated = dominated_or_equal(direct_compare(pair[0], pair[1], grid, m.tol))

    A_est = _slope_A(m, u, hu)

    # h once on the midpoint matrix, for the convexity of phi (slack relative
    # to |phi|) and the concavity of h; NaN residuals fail both
    W = _midpoint(u[:, None], u[None, :])
    hw = _pair_matrix(u, m, _midpoint)
    HU, HV, PU, PV = hu[:, None], hu[None, :], phi[:, None], phi[None, :]
    phi_convex, _ = _worst(_convexity_gap(hw / W, PU, PV),
                           margin * np.maximum(1.0, np.abs(PU) + np.abs(PV)))
    out: dict[str, CriterionReport] = {}

    if phi_convex:
        predicted = A_est.converged and math.isfinite(A_est.value)
        verdict = HOLDS if predicted == dominated else FAILS
        out["convex_profile"] = CriterionReport(
            "section4_convex_profile", verdict,
            notes=f"finite slope predicts dominance={predicted}, "
                  f"actual={dominated}", details={"A": A_est.value})
    else:
        out["convex_profile"] = CriterionReport(
            "section4_convex_profile", NOT_APPLICABLE,
            notes="phi not midpoint-convex on samples")

    phi_noninc, _ = _monotone_scan(u, phi, margin, falling=False)
    phi_bounded = bool(np.all(np.isfinite(phi)))
    if phi_noninc and phi_bounded:
        B = float(np.max(phi))
        env = _envelope(u, hu, min(A_est.value, B), B, m.tol)
        ok = dominated and env.holds
        out["monotone_profile"] = CriterionReport(
            "section4_monotone_profile", HOLDS if ok else FAILS,
            notes=f"dominance={dominated}, envelope={env.verdict}",
            details={"A": A_est.value, "B": B})
    else:
        out["monotone_profile"] = CriterionReport(
            "section4_monotone_profile", NOT_APPLICABLE,
            notes="phi not non-increasing and bounded")

    h_concave, _ = _worst(_concavity_gap(hw, HU, HV), _slack(margin, HU, HV))
    sup_phi = float(np.max(phi))
    if h_concave and sup_phi <= 1.0 + margin:
        A = A_est.value if math.isfinite(A_est.value) else 0.0
        enveloped = bool(np.all((phi >= A - margin) & (phi <= 1.0 + margin)))
        verdict = HOLDS if enveloped == dominated else FAILS
        out["concave_envelope"] = CriterionReport(
            "section4_concave_envelope", verdict,
            notes=f"A<=phi<=1 is {enveloped}, dominance is {dominated}",
            details={"A": A, "sup_phi": sup_phi})
    else:
        out["concave_envelope"] = CriterionReport(
            "section4_concave_envelope", NOT_APPLICABLE,
            notes="h not concave with sup phi <= 1")
    return out
