"""Continuous cancellative t-subnorms built from additive generators.

Includes axiom verification on sample grids, completion to a t-norm, the
dual superconorm, and the parametric family catalog (Hamacher product,
rational family, Dombi / Aczel-Alsina / Schweizer-Sklar derived subnorm
families, log-power subnorms).  Each family is one row of one table,
``_FAMILIES``: its parameter domains and its formulas s(x), s^{-1}(u) and
s(1).  The nilpotent comparison fixtures (Lukasiewicz, Yager), which live
outside the generator class, are rows with a ``combine`` formula instead.
One builder checks a spec's parameters against its row for every member.
Both operator kinds give per-axis ``values`` (s(x), or x for a fixture) and
``combine`` them into S, so a caller that meets an axis many times, as the
grid oracle does, evaluates it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .generators import (
    DEFAULT_TOL,
    INF,
    SOLVER_CHUNK,
    DomainError,
    Generator,
    IntervalGrid,
    ParameterError,
    ToleranceProfile,
    _invert_float,
    closed_form,
    geval,
    pseudo_invert,
    validate_generator,
)

LN2 = math.log(2.0)


def _triangle_rows(n: int):
    """The row blocks (r, k) that walk the cells j >= i of an n x n square:
    rows r to r + k - 1 over columns r to n - 1, about ``SOLVER_CHUNK`` cells
    each (one row at least)."""
    r = 0
    while r < n:
        k = min(max(1, SOLVER_CHUNK // (n - r)), n - r)
        yield r, k
        r += k


class Operator:
    """The protocol: subclasses give per-axis ``values`` and ``combine`` them
    into S, and ``surface(x, y)`` is ``combine(values(x), values(y))``.  Two
    0-d arguments are a point: it runs on 1-element arrays, as numpy's 0-d
    loops may round differently, and gives a float (a ``TSubnorm`` takes a
    point through a float kernel of the same value, and a square from one axis
    by inverting one triangle and mirroring it)."""

    def __call__(self, x, y):
        return evaluate(self, x, y)

    def surface(self, x, y, tol: ToleranceProfile = DEFAULT_TOL):
        if np.ndim(x) or np.ndim(y):
            return self.combine(self.values(x), self.values(y), tol)
        vx, vy = self.values(np.reshape(x, 1)), self.values(np.reshape(y, 1))
        return float(self.combine(vx, vy, tol)[0])


@dataclass(frozen=True)
class TSubnorm(Operator):
    """S(x, y) = s^{(-1)}(s(x) + s(y)) for a strictly decreasing generator s.

    Strict t-norm iff s(1) = 0; proper subnorm iff S(1,1) < 1, i.e. s(1) > 0.
    """

    generator: Generator
    # ordering's per-operand memo (the normalized generator, compare's right
    # operand sample), filled on first use; ==, hash and repr ignore it
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def surface(self, x, y, tol: ToleranceProfile = DEFAULT_TOL):
        """S(x, y), checking only that the arguments lie in [0, 1] (the
        DomainError of ``geval``).  Two 0-d arguments (Python or numpy scalars,
        0-d arrays) are a point and give a float; any other input gives the
        array ``combine(values(x), values(y))``.

        A point runs one float kernel: s once on the 2-element array [x, y],
        then ``geval``'s rule (x = 0 or a NaN value gives inf), u = s(x) + s(y),
        ``pseudo_invert``'s rule (1 at or below s(1)), and above it the float
        inverse of a scalar ``ginvert`` (``generators._invert_float``).  It is
        bit-identical to ``combine`` on 1-element arrays; numpy's 0-d loops may
        round differently, so s and s^{-1} still see arrays.
        """
        xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if xa.ndim or ya.ndim:
            return self.combine(self.values(x), self.values(y), tol)
        fx, fy = float(xa), float(ya)
        if not 0.0 <= fx <= 1.0:  # NaN fails
            raise DomainError(f"argument {x!r} outside [0, 1]")
        if not 0.0 <= fy <= 1.0:
            raise DomainError(f"argument {y!r} outside [0, 1]")
        g, b = self.generator, self.generator.boundary_at_one
        with np.errstate(all="ignore"):
            sx, sy = np.asarray(g.fn(np.array([fx, fy])), dtype=float).tolist()
            # geval: x = 0 or a NaN value gives inf
            u = (INF if fx == 0.0 or sx != sx else sx) + (INF if fy == 0.0 or sy != sy else sy)
            if u != u:  # inf + -inf
                raise DomainError("cannot pseudo-invert NaN")
            if u <= b:  # pseudo_invert: 1 at or below s(1)
                return 1.0
            return _invert_float(g, u, tol)

    def values(self, x):
        return geval(self.generator, x)

    def combine(self, vx, vy, tol: ToleranceProfile = DEFAULT_TOL):
        """s^{(-1)}(vx + vy), inf saturating.  Blocks of leading-axis rows of about
        SOLVER_CHUNK points are summed into one reused buffer and inverted into
        the result; a lone block is inverted in the buffer itself.

        A square of more than one block from a column and a row that hold the
        same values is symmetric bit for bit (float addition commutes and each
        inverted value depends on its target alone), so only its cells j >= i
        are inverted, on the oracle's walk (:func:`_triangle_rows`), and each
        block is also written to its mirror."""
        shape = np.broadcast_shapes(np.shape(vx), np.shape(vy))
        n, rows = shape[0], max(1, SOLVER_CHUNK // max(1, math.prod(shape[1:])))
        if rows < n and np.shape(vx) == (n, 1) and np.shape(vy) == (1, n):
            v = np.ravel(vx)
            if np.array_equal(v, np.ravel(vy)):
                return self._mirrored(v, tol)
        buf = np.empty((min(rows, n),) + shape[1:])
        if rows >= n:
            return pseudo_invert(self.generator, np.add(vx, vy, out=buf), tol, out=buf)
        vx, vy = np.broadcast_arrays(vx, vy)
        out = np.empty(shape)
        for lo in range(0, n, rows):
            u = np.add(vx[lo:lo + rows], vy[lo:lo + rows], out=buf[:min(rows, n - lo)])
            pseudo_invert(self.generator, u, tol, out=out[lo:lo + rows])
        return out

    def _mirrored(self, v: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
        """The square s^{(-1)}(v[i] + v[j]) from its cells j >= i."""
        n = v.size
        out = np.empty((n, n))
        buf = np.empty(max(SOLVER_CHUNK, n))
        for r, k in _triangle_rows(n):
            u = np.add(v[r:r + k, None], v[None, r:], out=buf[:k * (n - r)].reshape(k, n - r))
            pseudo_invert(self.generator, u, tol, out=u)
            out[r:r + k, r:] = u
            out[r + k:, r:r + k] = u[:, k:].T
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
    dualized operators.  ``fn(x, y, tol)`` receives the float arrays of
    ``values`` and the caller's tolerances.
    """

    fn: Callable[[np.ndarray, np.ndarray, ToleranceProfile], np.ndarray]
    label: str
    nilpotent: bool = False

    def values(self, x):
        return np.asarray(x, dtype=float)

    def combine(self, vx, vy, tol: ToleranceProfile = DEFAULT_TOL):
        return self.fn(vx, vy, tol)


def from_generator(g: Generator, tol: ToleranceProfile = DEFAULT_TOL) -> TSubnorm:
    """Build the induced operator after validating the generator invariants."""
    validate_generator(g, tol)
    return TSubnorm(g)


def evaluate(S: Operator, x, y, tol: ToleranceProfile = DEFAULT_TOL):
    """S(x, y) with domain checks; 0 whenever either argument is 0.  Two 0-d
    arguments are a point and give a float; other inputs give an array."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (xa.ndim or ya.ndim):
        fx, fy = float(xa), float(ya)
        if fx != fx or fy != fy:
            raise DomainError("NaN argument")
        if not (0.0 <= fx <= 1.0 and 0.0 <= fy <= 1.0):
            raise DomainError("arguments outside the unit square")
        return float(S.surface(xa, ya, tol))
    low = np.minimum(xa.min(initial=0.0), ya.min(initial=0.0))  # NaN if any is
    if np.isnan(low):
        raise DomainError("NaN argument")
    if low < 0 or max(xa.max(initial=1.0), ya.max(initial=1.0)) > 1:
        raise DomainError("arguments outside the unit square")
    return np.asarray(S.surface(xa, ya, tol))


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

    bound = _axiom(vals - np.minimum(X, Y), m, X, Y)

    # one scan of the steps along y serves monotonicity (no step drops by more
    # than the margin) and cancellativity, which for a continuous operator is
    # strict monotonicity in each variable (every step rises by inversion_tol);
    # a one-point grid has no steps and passes both
    drop = -np.diff(vals, axis=1)
    mono = canc = AxiomCheck(True)
    if drop.size:
        *at, worst = _worst(drop, 0.0, X, Y[:, :-1])[1]
        mono = AxiomCheck(worst <= m, max(worst, 0.0), tuple(at))
        flat = -worst < tol.inversion_tol
        canc = AxiomCheck(not flat, -worst, tuple(at) if flat else None)

    return AxiomReport(comm, assoc, mono, bound, canc)


def complete_to_tnorm(S: Operator) -> Fixture:
    """Redefine the upper-right boundary to min(x, y), yielding a t-norm."""
    return Fixture(fn=lambda x, y, tol: np.where((x == 1.0) | (y == 1.0), np.minimum(x, y),
                                                 S.surface(x, y, tol)),
                   label=f"tnorm({S.label})")


def dual_superconorm(S: Operator) -> Fixture:
    """M(x, y) = 1 - S(1-x, 1-y); a t-superconorm when S is a t-subnorm."""
    return Fixture(fn=lambda x, y, tol: 1.0 - S.surface(1.0 - x, 1.0 - y, tol),
                   label=f"dual({S.label})")


# ---------------------------------------------------------------------------
# parametric families


@dataclass(frozen=True)
class FamilySpec:
    """Name plus parameters of a catalog family; ``_FAMILIES`` lists the names."""

    family: str
    params: dict = field(default_factory=dict)


def _require(cond: bool, msg: str):
    if not cond:
        raise ParameterError(msg)


class _GeneratorRow(NamedTuple):
    """A generator family: its parameters, each (key, admissible test, domain
    text), then s(x, *p), s^{-1}(u, *p) and s(1; p)."""

    params: tuple
    s: Callable
    inverse: Callable
    at_one: Callable


class _FixtureRow(NamedTuple):
    """A nilpotent fixture family: its parameters and S = combine(x, y, *p)."""

    params: tuple
    combine: Callable


_A = ("a", lambda a: 0 < a < 1, "a in (0,1)")
_L = ("l", lambda lam: lam > 0, "lambda > 0")
_NEG_L = ("l", lambda lam: lam < 0, "lambda < 0")


def _yager(x, y, lam):
    # the lambda-norm of (1-x, 1-y) scaled by its larger entry m, so that no
    # lambda underflows it; m >= tiny keeps 0/0 out at x = y = 1
    a, b = 1.0 - x, 1.0 - y
    m = np.maximum(np.maximum(a, b), np.finfo(float).tiny)
    return np.maximum(0.0, 1.0 - m * ((a / m) ** lam + (b / m) ** lam) ** (1.0 / lam))


# one row per family, in the order of FAMILY_NAMES; _build makes every member
_FAMILIES = {
    "product": _GeneratorRow(
        (), lambda x: -np.log(x), lambda u: np.exp(-u), lambda: 0.0),
    "hamacher0": _GeneratorRow(
        (), lambda x: (1.0 - x) / x, lambda u: 1.0 / (1.0 + u), lambda: 0.0),
    # inverse written in the catastrophic-cancellation-free form
    "reciprocal_minus_x": _GeneratorRow(
        (), lambda x: 1.0 / x - x, lambda u: 2.0 / (np.sqrt(u * u + 4.0) + u),
        lambda: 0.0),
    "half_product": _GeneratorRow(
        (), lambda x: 1.0 - np.log(x) / LN2, lambda u: np.exp2(1.0 - u), lambda: 1.0),
    "aa_tnorm": _GeneratorRow(
        (_L,), lambda x, lam: (-np.log(x)) ** lam,
        lambda u, lam: np.exp(-u ** (1.0 / lam)), lambda lam: 0.0),
    # s(x) = (1/x - a)/(1 - a), normalized; reproduces 2/x - 1 at a = 0.5
    # and 10/(3x) - 7/3 at a = 0.7, the generators of xy/(x + y - a*xy)
    "rational": _GeneratorRow(
        (_A,), lambda x, a: (1.0 / x - a) / (1.0 - a),
        lambda u, a: 1.0 / (u * (1.0 - a) + a), lambda a: 1.0),
    "dombi_sub": _GeneratorRow(
        (_A, _L), lambda x, a, lam: ((1.0 / x - a) / (1.0 - a)) ** lam,
        lambda u, a, lam: 1.0 / (u ** (1.0 / lam) * (1.0 - a) + a), lambda a, lam: 1.0),
    # normalized form (-ln(ax))^lam / (-ln a)^lam; regenerates the stated
    # closed form (1/a) * exp(-((-ln ax)^lam + (-ln ay)^lam)^(1/lam))
    "aa_sub": _GeneratorRow(
        (_A, _L), lambda x, a, lam: (-np.log(a * x)) ** lam / (-math.log(a)) ** lam,
        lambda u, a, lam: np.exp(-(u ** (1.0 / lam)) * -math.log(a)) / a,
        lambda a, lam: 1.0),
    # 1 - a^lam is negative for lam < 0
    "ss_sub": _GeneratorRow(
        (_A, _NEG_L), lambda x, a, lam: (1.0 - (a * x) ** lam) / (1.0 - a ** lam),
        lambda u, a, lam: (1.0 - u * (1.0 - a ** lam)) ** (1.0 / lam) / a,
        lambda a, lam: 1.0),
    # raw (unnormalized): s(1) = (-ln a)^lam > 0 for a < 1
    "log_sub": _GeneratorRow(
        (_A, _L), lambda x, a, lam: (-np.log(a * x)) ** lam,
        lambda u, a, lam: np.exp(-(u ** (1.0 / lam))) / a,
        lambda a, lam: (-math.log(a)) ** lam),
    "yager": _FixtureRow((_L,), _yager),
    "lukasiewicz": _FixtureRow((), lambda x, y: np.maximum(0.0, x + y - 1.0)),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _build(spec: FamilySpec) -> tuple[_GeneratorRow | _FixtureRow, tuple, str]:
    """The spec's row, its parameter values in declared order and its label
    ``name(k=v,...)``; raises ParameterError for an unknown family or a
    parameter that is unknown, missing, not a finite number or out of domain."""
    name, given = spec.family, spec.params
    _require(name in _FAMILIES, f"unknown family {name!r}")
    row = _FAMILIES[name]
    keys = [key for key, _, _ in row.params]
    for key in given:
        _require(key in keys, f"{name} has no parameter '{key}'")
    values = []
    for key in keys:
        _require(key in given, f"{name} requires parameter '{key}'")
        try:
            v = float(given[key])
        except (TypeError, ValueError):
            raise ParameterError(
                f"{name} parameter '{key}' must be a number, got {given[key]!r}") from None
        _require(math.isfinite(v), f"{name} parameter '{key}' must be finite")
        values.append(v)
    for (key, ok, domain), v in zip(row.params, values):
        _require(ok(v), f"{name} needs {domain}, got {v}")
    args = ",".join(f"{k}={v:g}" for k, v in zip(keys, values))
    return row, tuple(values), f"{name}({args})" if keys else name


def family_generator(spec: FamilySpec) -> Generator:
    """The generator of a spec; raises for the nilpotent fixture families."""
    _require(not isinstance(_FAMILIES.get(spec.family), _FixtureRow),
             f"{spec.family} has no generator in this class")
    row, p, label = _build(spec)
    return closed_form(lambda x: row.s(x, *p), lambda u: row.inverse(u, *p),
                       row.at_one(*p), label, family=spec.family, params=p)


def make_family(spec: FamilySpec, tol: ToleranceProfile = DEFAULT_TOL) -> Operator:
    """Instantiate a catalog family; fixtures for the nilpotent names."""
    if not isinstance(_FAMILIES.get(spec.family), _FixtureRow):
        return from_generator(family_generator(spec), tol)
    row, p, label = _build(spec)
    return Fixture(lambda x, y, _tol: row.combine(x, y, *p), label, nilpotent=True)


def yager_fixture(lam: float) -> Fixture:
    """Nilpotent Yager t-norm; comparison fixture only, no generator here."""
    return make_family(FamilySpec("yager", {"l": lam}))


def lukasiewicz_fixture() -> Fixture:
    return make_family(FamilySpec("lukasiewicz"))


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
