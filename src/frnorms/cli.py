"""Command-line front end.

Subcommands expose the library over stable JSON/CSV: norms and
expectations of explicit elements, structural constants, the randomized
sharp-constant search, the reference constant table, continued-fraction
tower levels, Baire distances, and a self-test sweep.  Exit codes:
0 success, 2 validation error (machine-readable JSON error object on
stdout), 3 numerical non-convergence.

Notes on inputs: matrices arrive as {"rows", "cols", "data"} with data
a row-major list of [re, im] pairs; an irrational parameter may be given
as a decimal (--theta) or as continued-fraction terms (--cf r1,r2,...,
repeated periodically, which pins the value exactly and is the
reproducible form).  Rationality is decided operationally: the expansion
aborts if a Gauss-map remainder drops below 1e-13.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields

from .algebra import (
    AlgebraShape,
    element_from_json,
    element_norm,
    element_to_json,
    shape_from_json,
    weight_from_json,
)
from .constants import (
    empirical_sharp_constant,
    structural_constants,
    table1,
)
from .effros_shen import (
    baire_distance,
    cf_expand,
    es_constant,
    es_level,
    periodic_theta,
)
from .errors import ConvergenceError, FrnormsError, InputError
from .expectation import cond_expect, fr_norm_squared
from .fleet import run_selftest
from .subalgebra import subalgebra_from_json


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as InputError so main() can emit JSON."""

    def error(self, message):
        raise InputError(message)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def _record(obj, names=None) -> dict:
    """The named fields of a result dataclass, all of them by default, in
    declaration order."""
    if names is None:
        names = [f.name for f in fields(obj)]
    return {name: getattr(obj, name) for name in names}


# The structural constants that effros-shen reports.
_ES_STRUCTURAL = ("r", "ell", "m", "alpha", "gamma")


def _load_problem(args, need_element=False):
    sub = subalgebra_from_json(_load_json(args.subalgebra))
    if getattr(args, "algebra", None):
        shape = shape_from_json(_load_json(args.algebra))
        if shape.dims != sub.shape.dims:
            raise InputError(
                f"algebra shape {list(shape.dims)} does not match "
                f"subalgebra shape {list(sub.shape.dims)}"
            )
    weight = weight_from_json(sub.shape, _load_json(args.weights))
    element = None
    if need_element:
        element = element_from_json(_load_json(args.element))
        if element.shape.dims != sub.shape.dims:
            raise InputError(
                f"element shape {list(element.shape.dims)} does not match "
                f"subalgebra shape {list(sub.shape.dims)}"
            )
    return sub, weight, element


def _add_problem_args(p, element=False):
    p.add_argument("--algebra", help="JSON file with the ambient shape")
    p.add_argument("--subalgebra", required=True, help="subalgebra JSON file")
    p.add_argument("--weights", required=True, help="trace weight JSON file")
    if element:
        p.add_argument("--element", required=True, help="element JSON file")


def _cf_terms(text: str) -> tuple[int, ...]:
    try:
        terms = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"--cf expects comma-separated integers, got {text!r}") from exc
    if not terms or any(t < 1 for t in terms):
        raise InputError("--cf terms must be positive integers")
    return terms


def _cmd_norm(args) -> int:
    sub, weight, element = _load_problem(args, need_element=True)
    _emit(
        {
            "fr_norm_sq": fr_norm_squared(sub, weight, element),
            "op_norm": element_norm(element),
        }
    )
    return 0


def _cmd_expect(args) -> int:
    sub, weight, element = _load_problem(args, need_element=True)
    _emit(element_to_json(cond_expect(sub, weight, element)))
    return 0


def _cmd_constants(args) -> int:
    sub, weight, _ = _load_problem(args)
    _emit(_record(structural_constants(sub, weight)))
    return 0


def _cmd_search(args) -> int:
    sub, weight, _ = _load_problem(args)
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    report = empirical_sharp_constant(
        sub,
        weight,
        samples=args.samples,
        seed=args.seed,
        refine=args.refine,
    )
    _emit({**_record(report), "witness": element_to_json(report.witness)})
    return 0


def _cmd_table1(args) -> int:
    if args.samples < 0:
        raise InputError("--samples must be nonnegative")
    rows = table1(samples=args.samples, seed=args.seed, refine=args.refine)
    if args.format == "csv":
        # labels contain commas, so they need real CSV quoting
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["label", "theoretical", "empirical", "theorem"])
        for row in rows:
            emp = "" if row.empirical is None else repr(row.empirical)
            writer.writerow([row.label, repr(row.theoretical), emp, row.theorem])
    else:
        _emit([_record(row) for row in rows])
    return 0


def _cmd_effros_shen(args) -> int:
    if args.level < 2:
        raise InputError("--level must be at least 2")
    if args.cf is not None:
        theta, cf = periodic_theta(_cf_terms(args.cf), args.level)
    else:
        if not 0.0 < args.theta < 1.0:
            raise InputError("--theta must lie strictly between 0 and 1")
        theta = args.theta
        cf = cf_expand(theta, args.level)
    lev = es_level(theta, args.level, cf)
    sc = structural_constants(lev.subalgebra, lev.weight)
    _emit(
        {
            "level": lev.n,
            "shape": list(lev.shape.dims),
            "t": lev.t,
            "constant": es_constant(theta, args.level, cf),
            "structural": _record(sc, _ES_STRUCTURAL),
        }
    )
    return 0


def _cmd_baire(args) -> int:
    if len(args.cf) != 2:
        raise InputError("baire needs exactly two --cf sequences")
    x = _cf_terms(args.cf[0])
    y = _cf_terms(args.cf[1])
    _emit({"distance": baire_distance(x, y)})
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        sys.stdout.write(f"{status} {r.name}{detail}\n")
        failed += 0 if r.passed else 1
    sys.stdout.write(f"{len(results)} checks, {failed} failed\n")
    return 0 if failed == 0 else 1


def build_parser() -> _Parser:
    parser = _Parser(
        prog="frnorms",
        description="Induced norms from conditional expectations on "
        "direct sums of matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="squared induced norm and operator norm")
    _add_problem_args(p, element=True)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("expect", help="project an element onto the subalgebra")
    _add_problem_args(p, element=True)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("constants", help="structural equivalence constants")
    _add_problem_args(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("search", help="randomized sharp-constant search")
    _add_problem_args(p)
    p.add_argument("--samples", type=int, default=100000,
                   help="random unit vectors drawn per summand")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table1", help="reference constant table")
    p.add_argument("--samples", type=int, default=0,
                   help="random unit vectors drawn per row; 0 skips the "
                   "empirical column")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("effros-shen", help="continued-fraction tower level")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="irrational in (0,1)")
    group.add_argument(
        "--cf",
        help="comma-separated positive terms, repeated periodically "
        "(exact, preferred for reproducibility)",
    )
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_effros_shen)

    p = sub.add_parser("baire", help="distance between two term sequences")
    p.add_argument(
        "--cf",
        action="append",
        required=True,
        help="comma-separated positive terms; give the flag twice",
    )
    p.set_defaults(func=_cmd_baire)

    p = sub.add_parser("selftest", help="run the invariant sweep")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConvergenceError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 3
    except (FrnormsError, ValueError, IndexError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
