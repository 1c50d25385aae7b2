"""Continuous cancellative t-subnorms built from additive generators.

Includes the parametric family catalog (Hamacher product, rational family,
Dombi / Aczel-Alsina / Schweizer-Sklar derived subnorm families, log-power
subnorms), axiom verification on sample grids, completion to a t-norm, the
dual superconorm, and the nilpotent comparison fixtures (Lukasiewicz, Yager)
which live outside the generator class.  Both kinds give per-axis ``values``
(s(x), or x for a fixture) and ``combine`` them into S, so a caller that meets
an axis many times, as the grid oracle does, evaluates it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .generators import (
    DEFAULT_TOL,
    SOLVER_CHUNK,
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

LN2 = math.log(2.0)


class Operator:
    """The protocol: subclasses give per-axis ``values``, ``combine`` them into S,
    and evaluate ``surface(x, y)`` as ``combine(values(x), values(y))``."""

    def __call__(self, x, y):
        return evaluate(self, x, y)


@dataclass(frozen=True)
class TSubnorm(Operator):
    """S(x, y) = s^{(-1)}(s(x) + s(y)) for a strictly decreasing generator s.

    Strict t-norm iff s(1) = 0; proper subnorm iff S(1,1) < 1, i.e. s(1) > 0.
    """

    generator: Generator

    def surface(self, x, y, tol: ToleranceProfile = DEFAULT_TOL):
        """Vectorized evaluation without per-element domain checks."""
        return self.combine(self.values(x), self.values(y), tol)

    def values(self, x):
        return geval(self.generator, x)

    def combine(self, vx, vy, tol: ToleranceProfile = DEFAULT_TOL):
        """s^{(-1)}(vx + vy), inf saturating.  Blocks of leading-axis rows of about
        SOLVER_CHUNK points are summed into one reused buffer and inverted into
        the result; a lone block is inverted in the buffer itself."""
        shape = np.broadcast_shapes(np.shape(vx), np.shape(vy))
        if not shape:
            return pseudo_invert(self.generator, np.add(vx, vy), tol)
        n, rows = shape[0], max(1, SOLVER_CHUNK // max(1, math.prod(shape[1:])))
        buf = np.empty((min(rows, n),) + shape[1:])
        if rows >= n:
            return pseudo_invert(self.generator, np.add(vx, vy, out=buf), tol, out=buf)
        vx, vy = np.broadcast_arrays(vx, vy)
        out = np.empty(shape)
        for lo in range(0, n, rows):
            u = np.add(vx[lo:lo + rows], vy[lo:lo + rows], out=buf[:min(rows, n - lo)])
            pseudo_invert(self.generator, u, tol, out=out[lo:lo + rows])
        return out

    @property
    def label(self) -> str:
        return self.generator.label

    @property
    def is_strict(self) -> bool:
        return self.generator.boundary_at_one == 0

    @property
    def is_proper(self) -> bool:
        return not self.is_strict


@dataclass(frozen=True)
class Fixture(Operator):
    """A closed-form binary operator on the unit square, no generator attached.

    Used for the nilpotent comparisons (Prop. fixtures) and for completed /
    dualized operators.  ``fn`` receives the float arrays of ``values``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str
    nilpotent: bool = False

    def surface(self, x, y, tol: ToleranceProfile = DEFAULT_TOL):
        return self.combine(self.values(x), self.values(y), tol)

    def values(self, x):
        return np.asarray(x, dtype=float)

    def combine(self, vx, vy, tol: ToleranceProfile = DEFAULT_TOL):
        return self.fn(vx, vy)


def from_generator(g: Generator, tol: ToleranceProfile = DEFAULT_TOL) -> TSubnorm:
    """Build the induced operator after validating the generator invariants."""
    validate_generator(g, tol)
    return TSubnorm(g)


def evaluate(S: Operator, x, y, tol: ToleranceProfile = DEFAULT_TOL):
    """S(x, y) with domain checks; 0 whenever either argument is 0."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    low = np.minimum(xa.min(initial=0.0), ya.min(initial=0.0))  # NaN if any is
    if np.isnan(low):
        raise DomainError("NaN argument")
    if low < 0 or max(xa.max(initial=1.0), ya.max(initial=1.0)) > 1:
        raise DomainError("arguments outside the unit square")
    out = np.asarray(S.surface(xa, ya, tol))
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


def _axiom(res: np.ndarray, margin: float, *coords: np.ndarray) -> AxiomCheck:
    """Passed when max(res) <= margin; residual max(res, 0), witness at the argmax."""
    *at, worst = _worst(res, 0.0, *coords)[1]
    return AxiomCheck(worst <= margin, max(worst, 0.0), tuple(at))


def check_axioms(S: Operator, grid: IntervalGrid,
                 tol: ToleranceProfile = DEFAULT_TOL) -> AxiomReport:
    """Test the t-subnorm axioms on all grid pairs.

    Associativity runs on a coarser 11-point sub-grid of triples to bound the
    cubic cost; the pairwise axioms use the full grid.
    """
    p = grid.points
    X, Y = p[:, None], p[None, :]
    vals = S.surface(X, Y, tol)
    m = tol.verdict_margin
    comm = _axiom(np.abs(vals - vals.T), m, X, Y)

    sub = np.linspace(0.0, 1.0, 12)[1:]  # 11 points in (0, 1]
    A, B, C = sub[:, None, None], sub[None, :, None], sub[None, None, :]
    left = S.surface(S.surface(A, B, tol), C, tol)
    right = S.surface(A, S.surface(B, C, tol), tol)
    assoc = _axiom(np.abs(left - right), m, A, B, C)

    drop = -np.diff(vals, axis=1)  # positive entries are monotonicity violations
    mono = _axiom(drop, m, X, Y[:, :-1]) if drop.size else AxiomCheck(True)
    bound = _axiom(vals - np.minimum(X, Y), m, X, Y)

    # cancellativity <=> strict monotonicity in each variable (continuous case)
    # (a one-point grid has no steps: passed, as for monotonicity)
    inc = np.diff(vals, axis=1)
    canc = AxiomCheck(True)
    if inc.size:
        *at, drop = _worst(-inc, 0.0, X, Y[:, :-1])[1]
        flat = -drop < tol.inversion_tol
        canc = AxiomCheck(not flat, -drop, tuple(at) if flat else None)

    return AxiomReport(comm, assoc, mono, bound, canc)


def complete_to_tnorm(S: Operator) -> Fixture:
    """Redefine the upper-right boundary to min(x, y), yielding a t-norm."""
    return Fixture(fn=lambda x, y: np.where((x == 1.0) | (y == 1.0), np.minimum(x, y),
                                            S.surface(x, y)),
                   label=f"tnorm({S.label})")


def dual_superconorm(S: Operator) -> Fixture:
    """M(x, y) = 1 - S(1-x, 1-y); a t-superconorm when S is a t-subnorm."""
    return Fixture(fn=lambda x, y: 1.0 - S.surface(1.0 - x, 1.0 - y),
                   label=f"dual({S.label})")


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
        _require(math.isfinite(float(spec.params[key])),
                 f"{spec.family} parameter '{key}' must be finite")
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

    # the lambda-norm of (1-x, 1-y) scaled by its larger entry m, so that no
    # lambda underflows it; m >= tiny keeps 0/0 out at x = y = 1
    def fn(x, y):
        a, b = 1.0 - x, 1.0 - y
        m = np.maximum(np.maximum(a, b), np.finfo(float).tiny)
        return np.maximum(0.0, 1.0 - m * ((a / m) ** lam + (b / m) ** lam) ** (1.0 / lam))

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
