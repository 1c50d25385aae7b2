"""Continuous cancellative t-subnorms built from additive generators.

Includes the parametric family catalog (Hamacher product, rational family,
Dombi / Aczel-Alsina / Schweizer-Sklar derived subnorm families, log-power
subnorms), axiom verification on sample grids, completion to a t-norm, the
dual superconorm, and the nilpotent comparison fixtures (Lukasiewicz, Yager)
which live outside the generator class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .generators import (
    DEFAULT_TOL,
    DomainError,
    Generator,
    IntervalGrid,
    ParameterError,
    ToleranceProfile,
    closed_form,
    geval,
    pseudo_invert,
    validate_generator,
)

STRICT_TNORM = "strict_tnorm"
PROPER_SUBNORM = "proper_subnorm"

LN2 = math.log(2.0)


@dataclass(frozen=True)
class TSubnorm:
    """S(x, y) = s^{(-1)}(s(x) + s(y)) for a strictly decreasing generator s.

    Strict t-norm iff s(1) = 0; proper subnorm iff S(1,1) < 1.
    """

    generator: Generator
    classification: str
    label: str

    def surface(self, x, y, tol: ToleranceProfile = DEFAULT_TOL):
        """Vectorized evaluation without per-element domain checks."""
        g = self.generator
        u = geval(g, x) + geval(g, y)  # inf saturates, overflow promotes to inf
        return pseudo_invert(g, u, tol)

    def __call__(self, x, y):
        return evaluate(self, x, y)

    @property
    def is_strict(self) -> bool:
        return self.classification == STRICT_TNORM

    @property
    def is_proper(self) -> bool:
        return self.classification == PROPER_SUBNORM


@dataclass(frozen=True)
class Fixture:
    """A closed-form binary operator on the unit square, no generator attached.

    Used for the nilpotent comparisons (Prop. fixtures) and for completed /
    dualized operators.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    nilpotent: bool = False

    def surface(self, x, y, tol: ToleranceProfile = DEFAULT_TOL):
        return self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __call__(self, x, y):
        return evaluate(self, x, y)


Operator = TSubnorm | Fixture


def from_generator(g: Generator, tol: ToleranceProfile = DEFAULT_TOL,
                   grid: IntervalGrid | None = None) -> TSubnorm:
    """Build the induced operator after validating the generator invariants."""
    validate_generator(g, grid, tol)
    cls = STRICT_TNORM if g.boundary_at_one == 0 else PROPER_SUBNORM
    return TSubnorm(generator=g, classification=cls, label=g.label)


def evaluate(S: Operator, x, y, tol: ToleranceProfile = DEFAULT_TOL):
    """S(x, y) with domain checks; 0 whenever either argument is 0."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if np.any(np.isnan(xa)) or np.any(np.isnan(ya)):
        raise DomainError("NaN argument")
    if np.any((xa < 0) | (xa > 1)) or np.any((ya < 0) | (ya > 1)):
        raise DomainError("arguments outside the unit square")
    out = S.surface(xa, ya, tol)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    residual: float = 0.0
    witness: tuple | None = None


@dataclass(frozen=True)
class AxiomReport:
    commutative: AxiomCheck
    associative: AxiomCheck
    monotone: AxiomCheck
    bounded_by_min: AxiomCheck
    cancellative_sampled: AxiomCheck

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in (self.commutative, self.associative,
                                      self.monotone, self.bounded_by_min,
                                      self.cancellative_sampled))


def _argmax_witness(res: np.ndarray, *coords: np.ndarray) -> tuple:
    idx = np.unravel_index(int(np.argmax(res)), res.shape)
    return tuple(float(np.broadcast_to(c, res.shape)[idx]) for c in coords)


def check_axioms(S: Operator, grid: IntervalGrid,
                 tol: ToleranceProfile = DEFAULT_TOL) -> AxiomReport:
    """Test the t-subnorm axioms on all grid pairs.

    Associativity runs on a coarser 11-point sub-grid of triples to bound the
    cubic cost; the pairwise axioms use the full grid.
    """
    p = grid.points
    X, Y = p[:, None], p[None, :]
    vals = S.surface(X, Y, tol)

    comm_res = np.abs(vals - vals.T)
    comm = AxiomCheck(bool(np.max(comm_res) <= tol.verdict_margin),
                      float(np.max(comm_res)),
                      _argmax_witness(comm_res, X, Y))

    sub = np.linspace(0.0, 1.0, 12)[1:]  # 11 points in (0, 1]
    A, B, C = sub[:, None, None], sub[None, :, None], sub[None, None, :]
    left = S.surface(S.surface(A, B, tol), C, tol)
    right = S.surface(A, S.surface(B, C, tol), tol)
    assoc_res = np.abs(left - right)
    assoc = AxiomCheck(bool(np.max(assoc_res) <= tol.verdict_margin),
                       float(np.max(assoc_res)),
                       _argmax_witness(assoc_res, A, B, C))

    drop = -np.diff(vals, axis=1)  # positive entries are monotonicity violations
    mono_bad = float(np.max(drop)) if drop.size else 0.0
    mono = AxiomCheck(mono_bad <= tol.verdict_margin, max(mono_bad, 0.0),
                      _argmax_witness(drop, X, Y[:, :-1]) if drop.size else None)

    excess = vals - np.minimum(X, Y)
    bound = AxiomCheck(bool(np.max(excess) <= tol.verdict_margin),
                       float(max(np.max(excess), 0.0)),
                       _argmax_witness(excess, X, Y))

    # cancellativity <=> strict monotonicity in each variable (continuous case)
    inc = np.diff(vals, axis=1)
    flat = inc < tol.inversion_tol
    if np.any(flat):
        canc = AxiomCheck(False, float(np.min(inc)),
                          _argmax_witness(-inc, X, Y[:, :-1]))
    else:
        canc = AxiomCheck(True, float(np.min(inc)))

    return AxiomReport(comm, assoc, mono, bound, canc)


def complete_to_tnorm(S: Operator) -> Fixture:
    """Redefine the upper-right boundary to min(x, y), yielding a t-norm."""

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        boundary = (x == 1.0) | (y == 1.0)
        interior = S.surface(x, y)
        return np.where(boundary, np.minimum(x, y), interior)

    return Fixture(fn=fn, label=f"tnorm({S.label})")


def dual_superconorm(S: Operator) -> Fixture:
    """M(x, y) = 1 - S(1-x, 1-y); a t-superconorm when S is a t-subnorm."""

    def fn(x, y):
        return 1.0 - S.surface(1.0 - np.asarray(x, dtype=float),
                               1.0 - np.asarray(y, dtype=float))

    return Fixture(fn=fn, label=f"dual({S.label})")


# ---------------------------------------------------------------------------
# parametric families


@dataclass(frozen=True)
class FamilySpec:
    """Name plus parameters of a catalog family; _GENERATOR_FAMILIES lists the keys."""

    family: str
    params: dict = field(default_factory=dict)


def _need(spec: FamilySpec, keys: tuple[str, ...]) -> list[float]:
    """The spec's values for its family's declared keys, in declared order."""
    for key in spec.params:
        _require(key in keys, f"{spec.family} has no parameter '{key}'")
    for key in keys:
        _require(key in spec.params, f"{spec.family} requires parameter '{key}'")
    return [float(spec.params[key]) for key in keys]


def _require(cond: bool, msg: str):
    if not cond:
        raise ParameterError(msg)


def product_generator() -> Generator:
    return closed_form(lambda x: -np.log(x), lambda u: np.exp(-u), 0.0,
                       "product", family="product")


def hamacher0_generator() -> Generator:
    return closed_form(lambda x: (1.0 - x) / x, lambda u: 1.0 / (1.0 + u), 0.0,
                       "hamacher0", family="hamacher0")


def reciprocal_minus_x_generator() -> Generator:
    # inverse written in the catastrophic-cancellation-free form
    return closed_form(lambda x: 1.0 / x - x,
                       lambda u: 2.0 / (np.sqrt(u * u + 4.0) + u),
                       0.0, "reciprocal_minus_x", family="reciprocal_minus_x")


def aa_tnorm_generator(lam: float) -> Generator:
    _require(lam > 0, f"aa_tnorm needs lambda > 0, got {lam}")
    return closed_form(lambda x: (-np.log(x)) ** lam,
                       lambda u: np.exp(-u ** (1.0 / lam)),
                       0.0, f"aa_tnorm(l={lam:g})", family="aa_tnorm", params=(lam,))


def half_product_generator() -> Generator:
    return closed_form(lambda x: 1.0 - np.log(x) / LN2,
                       lambda u: np.exp2(1.0 - u),
                       1.0, "half_product", family="half_product")


def rational_generator(a: float) -> Generator:
    # s(x) = (1/x - a)/(1 - a), normalized; reproduces 2/x - 1 at a = 0.5
    # and 10/(3x) - 7/3 at a = 0.7, the generators of xy/(x + y - a*xy)
    _require(0 < a < 1, f"rational needs a in (0,1), got {a}")
    return closed_form(lambda x: (1.0 / x - a) / (1.0 - a),
                       lambda u: 1.0 / (u * (1.0 - a) + a),
                       1.0, f"rational(a={a:g})", family="rational", params=(a,))


def dombi_sub_generator(a: float, lam: float) -> Generator:
    _require(0 < a < 1, f"dombi_sub needs a in (0,1), got {a}")
    _require(lam > 0, f"dombi_sub needs lambda > 0, got {lam}")
    return closed_form(
        lambda x: ((1.0 / x - a) / (1.0 - a)) ** lam,
        lambda u: 1.0 / (u ** (1.0 / lam) * (1.0 - a) + a),
        1.0, f"dombi_sub(a={a:g},l={lam:g})", family="dombi_sub", params=(a, lam))


def aa_sub_generator(a: float, lam: float) -> Generator:
    # normalized form (-ln(ax))^lam / (-ln a)^lam; regenerates the stated
    # closed form (1/a) * exp(-((-ln ax)^lam + (-ln ay)^lam)^(1/lam))
    _require(0 < a < 1, f"aa_sub needs a in (0,1), got {a}")
    _require(lam > 0, f"aa_sub needs lambda > 0, got {lam}")
    la = -math.log(a)
    return closed_form(
        lambda x: (-np.log(a * x)) ** lam / la ** lam,
        lambda u: np.exp(-(u ** (1.0 / lam)) * la) / a,
        1.0, f"aa_sub(a={a:g},l={lam:g})", family="aa_sub", params=(a, lam))


def ss_sub_generator(a: float, lam: float) -> Generator:
    _require(0 < a < 1, f"ss_sub needs a in (0,1), got {a}")
    _require(lam < 0, f"ss_sub needs lambda < 0, got {lam}")
    d = 1.0 - a ** lam  # negative for lam < 0
    return closed_form(
        lambda x: (1.0 - (a * x) ** lam) / d,
        lambda u: (1.0 - u * d) ** (1.0 / lam) / a,
        1.0, f"ss_sub(a={a:g},l={lam:g})", family="ss_sub", params=(a, lam))


def log_sub_generator(a: float, lam: float) -> Generator:
    # raw (unnormalized): s(1) = (-ln a)^lam > 0 for a < 1
    _require(0 < a < 1, f"log_sub needs a in (0,1), got {a}")
    _require(lam > 0, f"log_sub needs lambda > 0, got {lam}")
    return closed_form(
        lambda x: (-np.log(a * x)) ** lam,
        lambda u: np.exp(-(u ** (1.0 / lam))) / a,
        (-math.log(a)) ** lam,
        f"log_sub(a={a:g},l={lam:g})", family="log_sub", params=(a, lam))


def yager_fixture(lam: float) -> Fixture:
    """Nilpotent Yager t-norm; comparison fixture only, no generator here."""
    _require(lam > 0, f"yager needs lambda > 0, got {lam}")

    def fn(x, y):
        return np.maximum(
            0.0, 1.0 - ((1.0 - x) ** lam + (1.0 - y) ** lam) ** (1.0 / lam))

    return Fixture(fn=fn, label=f"yager(l={lam:g})", nilpotent=True)


def lukasiewicz_fixture() -> Fixture:
    return Fixture(fn=lambda x, y: np.maximum(0.0, x + y - 1.0),
                   label="lukasiewicz", nilpotent=True)


# family name -> (parameter keys, builder taking their values in that order)
_GENERATOR_FAMILIES = {
    "product": ((), product_generator),
    "hamacher0": ((), hamacher0_generator),
    "reciprocal_minus_x": ((), reciprocal_minus_x_generator),
    "half_product": ((), half_product_generator),
    "aa_tnorm": (("l",), aa_tnorm_generator),
    "rational": (("a",), rational_generator),
    "dombi_sub": (("a", "l"), dombi_sub_generator),
    "aa_sub": (("a", "l"), aa_sub_generator),
    "ss_sub": (("a", "l"), ss_sub_generator),
    "log_sub": (("a", "l"), log_sub_generator),
}

_FIXTURE_FAMILIES = {
    "yager": (("l",), yager_fixture),
    "lukasiewicz": ((), lukasiewicz_fixture),
}

FAMILY_NAMES = tuple(_GENERATOR_FAMILIES) + tuple(_FIXTURE_FAMILIES)


def family_generator(spec: FamilySpec) -> Generator:
    """The generator of a spec; raises for the nilpotent fixture families."""
    if spec.family in _FIXTURE_FAMILIES:
        raise ParameterError(f"{spec.family} has no generator in this class")
    if spec.family not in _GENERATOR_FAMILIES:
        raise ParameterError(f"unknown family {spec.family!r}")
    keys, build = _GENERATOR_FAMILIES[spec.family]
    return build(*_need(spec, keys))


def make_family(spec: FamilySpec, tol: ToleranceProfile = DEFAULT_TOL) -> Operator:
    """Instantiate a catalog family; fixtures for the nilpotent names."""
    if spec.family in _FIXTURE_FAMILIES:
        keys, build = _FIXTURE_FAMILIES[spec.family]
        return build(*_need(spec, keys))
    return from_generator(family_generator(spec), tol)


def catalog(tol: ToleranceProfile = DEFAULT_TOL) -> list[TSubnorm]:
    """The reference members used across verification: 13 operators."""
    specs = [
        FamilySpec("product"),
        FamilySpec("hamacher0"),
        FamilySpec("reciprocal_minus_x"),
        FamilySpec("aa_tnorm", {"l": 2.0}),
        FamilySpec("half_product"),
        FamilySpec("rational", {"a": 0.5}),
        FamilySpec("rational", {"a": 0.7}),
        FamilySpec("dombi_sub", {"a": 0.6, "l": 1.0}),
        FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0}),
        FamilySpec("aa_sub", {"a": 0.5, "l": 2.0}),
        FamilySpec("ss_sub", {"a": 0.5, "l": -2.0}),
        FamilySpec("log_sub", {"a": 0.5, "l": 1.0}),
        FamilySpec("log_sub", {"a": 0.5, "l": 2.0}),
    ]
    return [make_family(s, tol) for s in specs]
