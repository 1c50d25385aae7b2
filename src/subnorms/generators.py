"""Additive generators on [0,1] with values in the extended half-line [0, inf].

A generator is a continuous, strictly decreasing map s : [0,1] -> [s(1), inf]
with s(0) = inf.  It fully determines a continuous cancellative t-subnorm via
S(x, y) = s^{-1}(s(x) + s(y)); see :mod:`subnorms.operators`.

Infinity is the IEEE float ``inf``: it is an exact tagged state of float64
(not a large sentinel), saturates under addition and compares greater than
every finite value, which is precisely the arithmetic the codomain needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

INF = math.inf


class DomainError(ValueError):
    """Argument outside the operation's domain (or NaN)."""


class ParameterError(ValueError):
    """Constructor parameter outside its admissible range."""


class NormalizationError(ValueError):
    """Normalization requested for a generator with s(1) = 0."""


class GeneratorValidationError(ValueError):
    """A sampled generator invariant (decrease, continuity, endpoints) failed."""


EPSILON_FLOOR = 1e-6  # smallest sample abscissa: the first decade point


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d array without NaN, as ``np.unique``
    gives them: a sort, then an adjacent-difference mask (numpy 2.4's
    ``np.unique`` imports ``numpy.ma``, about 12 ms in a cold process)."""
    a = np.sort(a)
    keep = np.empty(a.size, bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass(frozen=True)
class ToleranceProfile:
    """Numeric tolerances shared across the library.

    ``verdict_margin`` bounds a difference of S for the grid oracle, and a
    residual of h = s1 o s2^{-1} (plus the relative allowance of
    ``ordering._slack``) for the criteria.  Both sample only x >= EPSILON_FLOOR;
    below it S <= min(x, y) < EPSILON_FLOOR, so a margin of at least
    EPSILON_FLOOR covers every difference they do not sample, and a smaller
    one is rejected.
    """

    inversion_tol: float = 1e-12
    verdict_margin: float = 1e-6

    def __post_init__(self):
        for name in ("inversion_tol", "verdict_margin"):
            if not 0 < getattr(self, name) < INF:  # NaN fails
                raise ParameterError(f"{name} must be finite and strictly positive")
        if not self.verdict_margin >= EPSILON_FLOOR:
            raise ParameterError(
                f"verdict_margin must be at least {EPSILON_FLOOR:g}, the smallest sampled x")
        if not self.inversion_tol >= 4 * np.finfo(float).eps:  # the solver's floor
            raise ParameterError("inversion_tol must be at least 8.9e-16 (4 ulps of 1)")
        if not self.inversion_tol < self.verdict_margin:
            raise ParameterError("inversion_tol must be smaller than verdict_margin")


DEFAULT_TOL = ToleranceProfile()
_ABS_EVAL_TOL = 1e-9  # relative agreement of s(1) with the declared boundary


@dataclass(frozen=True)
class IntervalGrid:
    """Ordered finite sample of (0, 1], always containing 1.

    ``axis`` is the read-only sample axis of the criteria and the oracle: the
    points plus the six decade points from ``EPSILON_FLOOR`` to 0.1, sorted
    and unique.
    """

    points: np.ndarray
    axis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise ParameterError("grid needs at least one point")
        if not np.all(np.diff(pts) > 0):  # NaN fails
            raise ParameterError("grid points must be strictly increasing")
        if not (pts[0] > 0 and pts[-1] <= 1):
            raise ParameterError("grid points must lie in (0, 1]")
        if pts[-1] != 1.0:
            raise ParameterError("grid must include 1")
        axis = _unique(np.concatenate([np.geomspace(EPSILON_FLOOR, 0.1, 6), pts]))
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)

    @classmethod
    def uniform(cls, n: int) -> "IntervalGrid":
        """n-point uniform grid on [0,1] with the zero endpoint dropped."""
        if n < 2:
            raise ParameterError("uniform grid needs n >= 2")
        return cls(np.linspace(0.0, 1.0, n)[1:])

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "IntervalGrid":
        """Fresh random grid in (0,1] including 1; for robustness re-checks."""
        if n < 1:
            raise ParameterError("random grid needs n >= 1")
        pts = np.sort(rng.uniform(EPSILON_FLOOR, 1.0, size=n - 1))
        pts = _unique(np.append(pts, 1.0))
        return cls(pts)

    @property
    def interior(self) -> np.ndarray:
        """Points strictly inside (0, 1)."""
        return self.points[self.points < 1.0]


@dataclass(frozen=True)
class Generator:
    """An additive generator s : [0,1] -> [s(1), inf].

    ``fn`` is called on whole arrays, x = 0 included, with floating-point
    errors suppressed, so it must be a vectorized numpy expression with no side
    effects; :func:`geval` makes x = 0 and NaN results inf.  A closed
    ``inverse_fn`` maps [s(1), inf] back to [0,1]; :func:`ginvert` makes inf
    targets and NaN results 0.  Without it s(x) = u is solved numerically.

    ``_cache`` is the state kept on s, filled on first use: the solver's
    bracket tables by eps (:func:`_table`), and for the order engine the
    normalized generator and the sample of every composed map with s on the
    right (``ordering._rhs_sample``).  ==, hash and repr ignore it, and
    ``dataclasses.replace`` starts an empty one.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    boundary_at_one: float
    label: str
    inverse_fn: Callable[[np.ndarray], np.ndarray] | None = None
    family: str | None = None
    params: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.boundary_at_one < 0 or not math.isfinite(self.boundary_at_one):
            raise ParameterError("boundary_at_one must be finite and >= 0")

    # convenience wrappers so g(x) etc. read naturally
    def __call__(self, x):
        return geval(self, x)


def _as_1d(v) -> tuple[np.ndarray, bool]:
    """``v`` as a float array of at least 1-d (numpy's 0-d loops may round
    differently), and whether it was a scalar."""
    arr = np.asarray(v, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def geval(g: Generator, x):
    """Evaluate s(x) for x in [0,1]; exactly inf at x = 0 and where ``fn`` is NaN."""
    arr, scalar = _as_1d(x)
    if not (arr.min(initial=0.0) >= 0 and arr.max(initial=1.0) <= 1):  # NaN fails
        raise DomainError(f"argument {x!r} outside [0, 1]")
    with np.errstate(all="ignore"):
        vals = np.asarray(g.fn(arr), dtype=float)
    out = np.where((arr == 0) | np.isnan(vals), INF, vals)
    return float(out[0]) if scalar else out


SOLVER_CHUNK = 16384  # targets polished together; bounds the solver's working set
_TABLE_GEOM, _TABLE_UNIFORM = 128, 256  # bracket-table nodes per end / across [0, 1]
_ILLINOIS_STEPS = 12  # after this many polish steps every other step bisects


@lru_cache(maxsize=8)
def _bracket_table(eps: float) -> np.ndarray:
    """Bracket-table abscissae: 0, then 2*eps to 1 increasing, then 1 again.

    Between the ends the nodes are uniform plus geometric towards 0, where s
    blows up, and towards 1, where s may be flat (s(x) = (-ln x)^l, l > 1,
    has s'(1) = 0).  The outer 0 and 1 are sentinels paired with s = inf and
    s = -inf: they bracket targets above s(2*eps) by [0, 2*eps] and close
    [1, 1] on targets below the computed s(1).
    """
    near0 = np.geomspace(2 * eps, 1.0, _TABLE_GEOM)
    near1 = 1.0 - np.geomspace(2 * eps, 0.5, _TABLE_GEOM)
    uniform = np.linspace(0.0, 1.0, _TABLE_UNIFORM + 1)[1:]
    inner = _unique(np.concatenate([near0, near1, uniform]))
    nodes = np.concatenate([[0.0], inner, [1.0]])
    nodes.setflags(write=False)
    return nodes


def _table(g: Generator, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only bracket table (nodes, vals = s(nodes), -vals) of ``g`` for
    eps, built on first use and kept on the generator; vals has the sentinels
    inf at node 0 and -inf at the outer node 1."""
    table = g._cache.get(eps)
    if table is None:
        nodes = _bracket_table(eps)
        vals = np.concatenate([[INF], geval(g, nodes[1:-1]), [-INF]])
        neg = -vals
        vals.setflags(write=False)
        neg.setflags(write=False)
        table = g._cache[eps] = (nodes, vals, neg)
    return table


def _secant(a, b, fa, fb):
    """The regula falsi point (a*fb - b*fa) / (fb - fa): in place on arrays, on
    floats it rebinds.  Where fb = fa a float divides as numpy does (inf or NaN)."""
    x = a * fb
    x -= b * fa
    d = fb - fa
    if isinstance(x, float) and not d:  # Python raises ZeroDivisionError
        x = np.float64(x)  # _invert_point runs under np.errstate(all="ignore")
    x /= d
    return x


def _bracket_invert(g: Generator, u: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """x with |x - s^{-1}(u)| <= inversion_tol / 2, for finite u >= s(1).

    Bracket, then polish.  s is evaluated on a fixed table of nodes once per
    generator and tolerance (the table is kept on the generator), and
    ``searchsorted`` brackets every target in it; a target above s(2*eps)
    returns eps and one equal to a table value returns its node
    (eps = inversion_tol / 2).  Every other bracket [a, b], s(a) > u >= s(b),
    is narrowed by Illinois (modified regula falsi) steps until
    b - a <= 2*eps, and its midpoint is returned.  Each iterate is kept in
    [a + eps, b - eps], so a bracket within eps of the root closes on the
    next step; where s(a) is inf (an overflow) the step is a midpoint.  After
    ``_ILLINOIS_STEPS`` steps every other step bisects, which bounds the worst
    case.  A closed bracket stays as it is, so a result depends on its target
    alone.  Targets are polished in chunks of ``SOLVER_CHUNK``; one float
    target is solved by :func:`_invert_point`, with the same result.
    """
    eps = 0.5 * tol.inversion_tol
    table = _table(g, eps)
    out = np.empty_like(u)
    for lo in range(0, u.size, SOLVER_CHUNK):
        out[lo:lo + SOLVER_CHUNK] = _polish(g, u[lo:lo + SOLVER_CHUNK], table, eps)
    return out


def _polish(g: Generator, u: np.ndarray, table: tuple, eps: float) -> np.ndarray:
    """Bracket ``u`` in the table (nodes, vals = s(nodes), -vals), then close
    every bracket."""
    nodes, vals, neg = table
    j = np.searchsorted(neg, -u)  # vals[j-1] > u >= vals[j]
    a, b = nodes[j - 1], nodes[j]
    fa, fb = vals[j - 1] - u, vals[j] - u  # fa > 0 (maybe inf) >= fb
    np.copyto(a, b, where=fb == 0)  # u on a table value: done at its node
    out = np.empty_like(u)
    idx = np.arange(u.size)
    moved_a = np.zeros(u.size, bool)
    step = 0
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            done = (b - a) <= 2 * eps
            ndone = np.count_nonzero(done)
            if ndone == idx.size:
                break
            if 2 * ndone >= idx.size:  # compact once half the active set has closed
                out[idx[done]] = 0.5 * (a[done] + b[done])
                keep = np.flatnonzero(~done)
                idx, u, a, b, fa, fb, moved_a, done = (
                    arr[keep] for arr in (idx, u, a, b, fa, fb, moved_a, done))
            if step >= _ILLINOIS_STEPS and step % 2:
                x = a + b
                x *= 0.5
            else:
                x = _secant(a, b, fa, fb)
                nan = np.isnan(x)  # inf / inf where s(a) = inf: bisect
                if nan.any():
                    x[nan] = 0.5 * (a[nan] + b[nan])
            np.maximum(x, a + eps, out=x)
            np.minimum(x, b - eps, out=x)
            np.copyto(x, b, where=done)  # s(b) <= u keeps a closed bracket as it is
            fx = geval(g, x)
            fx -= u
            high = fx > 0  # s(x) > u: the root is right of x
            low = ~high
            np.copyto(a, x, where=high)
            np.copyto(fa, fx, where=high)
            np.copyto(b, x, where=low)
            np.copyto(fb, fx, where=low)
            if step:  # Illinois: halve the value at an end kept twice in a row
                np.multiply(fb, 0.5, out=fb, where=high & moved_a)
                np.multiply(fa, 0.5, out=fa, where=low & ~moved_a)
            moved_a = high
            step += 1
    out[idx] = 0.5 * (a + b)
    return out


def _invert_point(g: Generator, u: float, tol: ToleranceProfile) -> float:
    """:func:`_bracket_invert` on one float target, in float steps.

    The same table, bracket and steps as ``_polish``; s is evaluated on a
    1-element array (numpy's 0-d loops may round differently) with ``geval``'s
    NaN rule, and Python's float arithmetic rounds as numpy's element-wise
    loops do, so the result is bit-identical to the array solver's.
    """
    eps = 0.5 * tol.inversion_tol
    nodes, vals, neg = _table(g, eps)
    j = int(neg.searchsorted(-u))  # vals[j-1] > u >= vals[j]
    a, b = float(nodes[j - 1]), float(nodes[j])
    fa, fb = float(vals[j - 1]) - u, float(vals[j]) - u
    if fb == 0:  # u on a table value: done at its node
        a = b
    moved_a = False
    step = 0
    with np.errstate(all="ignore"):
        while b - a > 2 * eps:
            if step >= _ILLINOIS_STEPS and step % 2:
                x = (a + b) * 0.5
            else:
                x = float(_secant(a, b, fa, fb))
                if x != x:  # inf / inf where s(a) = inf: bisect
                    x = 0.5 * (a + b)
            lo, hi = a + eps, b - eps  # np.maximum, then np.minimum
            if x < lo:
                x = lo
            if x > hi:
                x = hi
            fx = float(np.asarray(g.fn(np.array([x])), dtype=float)[0])
            fx = (INF if fx != fx else fx) - u  # geval: a NaN value gives inf
            high = fx > 0  # s(x) > u: the root is right of x
            if high:
                a, fa = x, fx
            else:
                b, fb = x, fx
            if step:  # Illinois: halve the value at an end kept twice in a row
                if high and moved_a:
                    fb *= 0.5
                elif not high and not moved_a:
                    fa *= 0.5
            moved_a = high
            step += 1
    return 0.5 * (a + b)


def _invert_float(g: Generator, u: float, tol: ToleranceProfile) -> float:
    """s^{-1}(u) for a float u in [s(1), inf], as ``ginvert`` gives it on [u]:
    inf gives 0; a closed inverse runs on [u], clipped to [0, 1] with NaN
    giving 0 and -0.0 kept; otherwise :func:`_invert_point` solves.  It opens
    no ``np.errstate``; callers that may reach a closed inverse open one."""
    if u == INF:
        return 0.0
    if g.inverse_fn is None:
        return _invert_point(g, u, tol)
    x = float(np.asarray(g.inverse_fn(np.array([u])), dtype=float)[0])
    return min(x, 1.0) if x >= 0.0 else 0.0


def ginvert(g: Generator, u, tol: ToleranceProfile = DEFAULT_TOL, out=None):
    """Invert s on its range [s(1), inf]; u = inf maps to 0.

    A closed ``inverse_fn`` is evaluated directly; without one, s(x) = u is
    solved to within inversion_tol / 2 by a bracketed root finder.  A given
    ``out`` (u's shape; u itself allowed) is clamped into and inverted in place.
    A scalar u is clamped as [u] (numpy's 0-d loops may round differently) and
    then inverted in float steps by :func:`_invert_float`.
    """
    arr, scalar = _as_1d(u)
    low = arr.min(initial=INF)
    if not low >= g.boundary_at_one - tol.inversion_tol:
        if np.isnan(low):
            raise DomainError("cannot invert NaN")
        raise DomainError(
            f"value {low!r} below s(1) = {g.boundary_at_one}; use pseudo_invert")
    out = np.maximum(arr, g.boundary_at_one, out=out)
    if scalar:
        with np.errstate(all="ignore"):
            return _invert_float(g, float(out[0]), tol)
    if g.inverse_fn is None:
        fin = np.isfinite(out)
        if fin.any():  # the solver's table costs hundreds of fn points
            out[fin] = _bracket_invert(g, out[fin], tol)
        out[~fin] = 0.0
    else:
        with np.errstate(all="ignore"):
            vals = np.asarray(g.inverse_fn(out), dtype=float)
        bad = out == INF
        np.clip(vals, 0.0, 1.0, out=out)  # NaN stays NaN
        np.copyto(out, 0.0, where=bad | np.isnan(out))
    return out


def pseudo_invert(g: Generator, u, tol: ToleranceProfile = DEFAULT_TOL, out=None):
    """sup{x | s(x) > u}: 1 at or below s(1), the inverse above; ``out`` as in ginvert."""
    arr, scalar = _as_1d(u)
    if np.isnan(arr.min(initial=INF)):
        raise DomainError("cannot pseudo-invert NaN")
    b = g.boundary_at_one
    at_one = arr <= b
    out = np.maximum(arr, b, out=out)
    ginvert(g, out, tol, out=out)
    np.copyto(out, 1.0, where=at_one)
    return float(out[0]) if scalar else out


def normalize(g: Generator) -> Generator:
    """Divide by s(1), yielding the unique representative with s(1) = 1.

    The induced operator is unchanged: additive generators are unique up to a
    positive multiplicative constant.
    """
    c = g.boundary_at_one
    if c == 0:
        raise NormalizationError(
            f"{g.label}: s(1) = 0 (t-norm case), no normalized representative")
    if c == 1.0:
        return g
    inv = None
    if g.inverse_fn is not None:
        inv = lambda u, _f=g.inverse_fn, _c=c: _f(u * _c)
    return Generator(
        fn=lambda x, _f=g.fn, _c=c: _f(x) / _c,
        boundary_at_one=1.0,
        label=f"{g.label}/norm",
        inverse_fn=inv,
        family=g.family,
        params=g.params,
    )


def affine_shift(g: Generator, c: float, b: float) -> Generator:
    """The generator x -> c*s(x) + b (c > 0).

    With s(1) = 1, 0 < c <= 1 and b = 1 - c the induced operator is weaker
    than the original; with s(1) = 0 and b = 1 the result generates a proper
    subnorm weaker than the original strict t-norm.
    """
    if not c > 0:
        raise ParameterError("affine shift requires c > 0")
    new_boundary = c * g.boundary_at_one + b
    if new_boundary < 0:
        raise ParameterError("shift makes s(1) negative")
    inv = None
    if g.inverse_fn is not None:
        inv = lambda u, _f=g.inverse_fn, _c=c, _b=b: _f((u - _b) / _c)
    return Generator(
        fn=lambda x, _f=g.fn, _c=c, _b=b: _c * _f(x) + _b,
        boundary_at_one=new_boundary,
        label=f"{c:g}*{g.label}+{b:g}",
        inverse_fn=inv,
        family=g.family,
        params=g.params,
    )


_XS = np.append(EPSILON_FLOOR, np.linspace(0.0, 1.0, 41)[1:])  # 1e-6, 0.025, ..., 1
# validation's one sample of s: 0, _XS, then _XS's inner points moved right by 1e-6
_VALIDATION_SAMPLE = np.concatenate([[0.0], _XS, _XS[1:-1] + EPSILON_FLOOR])
_VALIDATION_SAMPLE.setflags(write=False)


def validate_generator(g: Generator, tol: ToleranceProfile = DEFAULT_TOL) -> None:
    """Sampled invariant check; raises GeneratorValidationError on failure.

    Evaluates s once, on one fixed read-only sample, then on the round trip.
    Checks s(0) = inf, s(1) = boundary_at_one, finite values and strict
    decrease across 41 points (an overflow to inf inside (0, 1] fails),
    continuity by a 1e-6 step from each inner point, and inversion consistency.
    """
    xs = _XS
    with np.errstate(all="ignore"):  # a non-vectorized fn's scalar fills the sample
        raw = np.broadcast_to(np.asarray(g.fn(_VALIDATION_SAMPLE), dtype=float),
                              _VALIDATION_SAMPLE.shape)
    # NaN reads inf, as in geval; s(0) is fn's own value, which geval pins to inf
    at0, vals, moved = np.split(np.where(np.isnan(raw), INF, raw), [1, xs.size + 1])
    if at0[0] != INF:
        raise GeneratorValidationError(f"{g.label}: s(0) must be inf")
    v1 = float(vals[-1])
    if abs(v1 - g.boundary_at_one) > _ABS_EVAL_TOL * max(1.0, abs(v1)):
        raise GeneratorValidationError(
            f"{g.label}: s(1) = {v1} disagrees with declared {g.boundary_at_one}")
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        raise GeneratorValidationError(
            f"{g.label}: s is not finite at x = {xs[i]:.6g} (overflow plateau?)")
    if np.any(np.diff(vals) >= 0):
        i = int(np.argmax(np.diff(vals) >= 0))
        raise GeneratorValidationError(
            f"{g.label}: not strictly decreasing near x = {xs[i]:.6g}")
    # sampled continuity: a 1e-6 step must move the value by a tiny fraction
    interior, base = xs[1:-1], vals[1:-1]  # the grid points above 2e-6 and below 1
    jump = np.abs(moved - base)
    if np.any(jump > 1e-2 * np.maximum(1.0, np.abs(base))):
        worst = interior[int(np.argmax(jump))]
        raise GeneratorValidationError(
            f"{g.label}: discontinuity suspected near x = {worst:.6g}")
    # round-trip on a few range values, all finite by now
    us = vals[:8]
    back = geval(g, ginvert(g, us, tol))
    if np.any(np.abs(back - us) > 1e-6 * np.maximum(1.0, np.abs(us))):
        raise GeneratorValidationError(f"{g.label}: inversion round trip failed")


def closed_form(fn, inverse_fn, boundary_at_one, label, family=None, params=()):
    """Shorthand for a generator with both directions in closed form."""
    return Generator(fn=fn, inverse_fn=inverse_fn, boundary_at_one=boundary_at_one,
                     label=label, family=family, params=tuple(params))


def numeric_inverse(fn, boundary_at_one, label, family=None, params=()):
    """Generator with no closed inverse; :func:`ginvert` solves s(x) = u.

    The solver brackets each target on a fixed table of s values, evaluated
    once per generator and tolerance and kept on the generator, then polishes
    with safeguarded Illinois steps to within inversion_tol / 2.  A point
    query S(x, y) solves its one target in float steps, bit-identical to the
    array solver.
    """
    return Generator(fn=fn, inverse_fn=None, boundary_at_one=boundary_at_one,
                     label=label, family=family, params=tuple(params))
