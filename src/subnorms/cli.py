"""Command-line front end: eval, compare, scan, surface, verify-paper.

Every command is a thin shell around the library: the verdicts printed are
exactly the records returned by the corresponding library calls.  Exit codes
are fixed for scripting: 0 ok, 1 regression failure, 2 parse error, 3 domain
error, 4 io error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable

import numpy as np

from .generators import (
    DEFAULT_TOL,
    DomainError,
    GeneratorValidationError,
    IntervalGrid,
    ParameterError,
    ToleranceProfile,
)
from .operators import FAMILY_NAMES, FamilySpec, TSubnorm, evaluate, make_family
from .ordering import (
    CRITERION_NAMES,
    compare,
    direct_compare,
    family_monotonicity_scan,
    run_criterion,
    serialize_verdict,
)
from . import verify

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# shell-friendly aliases for the longer family names
_ALIASES = {
    "dombi": "dombi_sub",
    "aa": "aa_sub",
    "ss": "ss_sub",
    "log": "log_sub",
}


class SpecSyntaxError(ValueError):
    pass


def parse_operator_spec(text: str) -> FamilySpec:
    """Parse ``name[:key=val,...]`` into a FamilySpec.

    Grammar errors (bad syntax, unknown name, non-numeric value) raise
    SpecSyntaxError; parameter-domain violations surface later from
    ``make_family``.
    """
    name, _, tail = text.partition(":")
    name = name.strip()
    name = _ALIASES.get(name, name)
    if name not in FAMILY_NAMES:
        raise SpecSyntaxError(
            f"unknown operator {name!r}; known: {', '.join(sorted(FAMILY_NAMES))}")
    params = _key_values(tail, bool, lambda item:
                         f"bad parameter {item!r}, expected key=val") if tail else {}
    return FamilySpec(name, params)


def parse_tol(text: str | None) -> ToleranceProfile:
    """``key=val[,key=val]`` overrides on the default tolerance profile."""
    if not text:
        return DEFAULT_TOL
    fields = {f.name for f in dataclasses.fields(ToleranceProfile)}
    overrides = _key_values(text, fields.__contains__, lambda item: (
        f"bad tolerance override {item!r}; fields: {', '.join(sorted(fields))}"))
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _key_values(text: str, key_ok: Callable[[str], bool],
                bad_item: Callable[[str], str]) -> dict[str, float]:
    """``key=val[,key=val]`` as {stripped key: float(val)}.

    An item without '=' or whose key fails ``key_ok`` raises SpecSyntaxError
    with message ``bad_item(item)``; a repeated key or a non-numeric value
    raises it too.
    """
    out: dict[str, float] = {}
    for item in text.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or not key_ok(key):
            raise SpecSyntaxError(bad_item(item))
        if key in out:
            raise SpecSyntaxError(f"repeated key {key!r} in {text!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise SpecSyntaxError(f"non-numeric value in {item!r}") from None
    return out


def _operator(text: str, tol: ToleranceProfile):
    return make_family(parse_operator_spec(text), tol)


def _grid(n: int) -> IntervalGrid:
    if n < 2:
        raise SpecSyntaxError("--grid must be at least 2")
    return IntervalGrid.uniform(n)


def _check_criterion(name: str | None) -> None:
    if name is not None and name not in CRITERION_NAMES:
        raise SpecSyntaxError(
            f"unknown criterion {name!r}; known: {', '.join(CRITERION_NAMES)}")


def cmd_eval(args, tol: ToleranceProfile) -> int:
    S = _operator(args.operator, tol)
    value = evaluate(S, args.x, args.y, tol)
    print(f"{value:.12g}")
    return EXIT_OK


def cmd_compare(args, tol: ToleranceProfile) -> int:
    S1 = _operator(args.lhs, tol)
    S2 = _operator(args.rhs, tol)
    _check_criterion(args.criterion)
    grid = _grid(args.grid)
    if args.criterion is None:
        verdict = compare(S1, S2, grid, tol)
    else:  # the named test's verdict, reported next to the oracle's
        if not (isinstance(S1, TSubnorm) and isinstance(S2, TSubnorm)):
            raise ParameterError("named criteria need generator-backed operands")
        rep = run_criterion(args.criterion, S1, S2, grid, tol)
        verdict = dataclasses.replace(direct_compare(S1, S2, grid, tol),
                                      criterion=f"{args.criterion}:{rep.verdict}")
    print(serialize_verdict(verdict))
    return EXIT_OK


def cmd_scan(args, tol: ToleranceProfile) -> int:
    spec = parse_operator_spec(args.family)
    try:
        lambdas = [float(v) for v in args.lambdas.split(",")]
    except ValueError:
        raise SpecSyntaxError(f"bad --lambdas list {args.lambdas!r}") from None
    _check_criterion(args.criterion)
    grid = _grid(args.grid)
    scan = family_monotonicity_scan(spec.family, spec.params, lambdas,
                                    args.criterion, grid, tol)
    print(f"family: {scan['family']}")
    print(f"chain: {scan['chain']}")
    for step in scan["steps"]:
        la, lb = step["pair"]
        rep = step["criterion"]
        print(f"pair: {la:g} {lb:g} direction: {step['direction']} "
              f"oracle: {step['oracle'].relation} "
              f"criterion: {rep.criterion}={rep.verdict} "
              f"agree: {str(step['agree']).lower()}")
    return EXIT_OK


def cmd_surface(args, tol: ToleranceProfile) -> int:
    if args.resolution < 2:
        raise SpecSyntaxError("--resolution must be at least 2")
    S = _operator(args.operator, tol)
    axis = np.linspace(0.0, 1.0, args.resolution)
    Z = S.surface(axis[:, None], axis[None, :], tol)
    lines = ["x,y,z"]
    for i, x in enumerate(axis):
        for j, y in enumerate(axis):
            lines.append(f"{x:.9g},{y:.9g},{Z[i, j]:.9g}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_verify_paper(args, tol: ToleranceProfile) -> int:
    """The paper's checks run under the default profile, so a --tol is refused."""
    if args.tol is not None:
        raise SpecSyntaxError("verify-paper runs the paper's checks at the default "
                              "profile and takes no --tol")
    ok = verify.run_all()
    return EXIT_OK if ok else EXIT_REGRESSION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnorms",
        description="Construct generated t-subnorms and certify their order.",
        epilog="Operator specs use name[:key=val,...], e.g. rational:a=0.5, "
               "dombi:a=0.6,l=2, yager:l=2. Parameter keys: a, l.")
    parser.add_argument("--tol", default=None, metavar="KEY=VAL[,KEY=VAL]",
                        help="override tolerance profile fields, e.g. "
                             "verdict_margin=1e-4")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate S(x, y) to 12 significant digits")
    p.add_argument("operator")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="order verdict for a pair of operators")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--criterion", default=None,
                   help=f"force one of: {', '.join(CRITERION_NAMES)}")
    p.add_argument("--grid", type=int, default=101, metavar="N",
                   help="sample grid resolution (default 101)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("scan", help="order a one-parameter family chain")
    p.add_argument("family", help="family spec with fixed params, e.g. dombi:a=0.6")
    p.add_argument("--lambdas", required=True,
                   help="comma-separated values; use --lambdas=-3,-2,-1 "
                        "for negatives")
    p.add_argument("--criterion", default="subadditivity")
    p.add_argument("--grid", type=int, default=101, metavar="N")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("surface", help="emit the surface as deterministic CSV")
    p.add_argument("operator")
    p.add_argument("--resolution", type=int, required=True, metavar="N")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("verify-paper",
                       help="replay the worked-example regression suite")
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parse_tol(args.tol))
    except SpecSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ParameterError, GeneratorValidationError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
