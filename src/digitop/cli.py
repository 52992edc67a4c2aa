"""Command-line front end.

Subcommands: check-map, classify, fix, hausdorff, fpp, search,
verify-paper.  Reports go to standard output as text or JSON (stable
key order; identical inputs give byte-identical output).  Exit codes:
0 success, 1 verification failure or counterexample under
--expect-pass, 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import fixpoint, mapkit, metric, search
from .contracts import (
    _Arith,
    check_ciric5,
    check_pair_domination,
    check_quasi,
    check_saluja,
    compatible,
    lipschitz_min,
    parv_rational_check,
    weakly_commutative,
)
from .documents import (
    DocumentError,
    ParsedDocument,
    load_document,
    serialize_document,
)
from .exact import RadicalSum, value_str
from .mapkit import (
    AffineMapZ,
    EnumerationBudgetError,
    MapValidationError,
    OrbitReport,
    continuity_violation,
    fixed_points,
)
from .space import as_point, fmt_point


def _value_json(v):
    if v is None or isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, (Fraction, RadicalSum)):
        return str(v)
    return float(v)


def _point_json(p):
    return list(p)


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` byte for byte.  A report's
    str, int, bool, None, list and str-keyed dict skip the pure-Python encoder
    that ``indent`` selects; anything else goes to ``json.dumps``, re-indented."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return repr(value)
    if value is None or type(value) is bool:
        return json.dumps(value)
    inner = indent + "  "
    if type(value) is list and value:
        rows = [inner + _json(v, inner) for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    if type(value) is dict and value and all(type(k) is str for k in value):
        rows = [f"{inner}{_json_str(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return "{\n" + ",\n".join(rows) + "\n" + indent + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(_json(payload))
    else:
        print("\n".join(lines))


def _require_map(args, parser) -> str:
    if not args.map:
        parser.error(f"{args.command} requires --map")
    return args.map


def _finite_space(doc: ParsedDocument):
    if doc.is_integer_line:
        raise DocumentError("points", "this command needs a finite space document")
    return doc.space


def _affine_report(args, payload: dict, m: AffineMapZ) -> int:
    """The fixed points of an affine map, for check-map and fix alike."""
    fx = mapkit.affine_analyze(m)
    payload["fixed_points"] = {"kind": fx.kind, "point": fx.point}
    shown = fx.kind if fx.point is None else f"{fx.kind} ({fx.point})"
    _emit(args, payload, [f"map {payload['map']}: {m}", f"fixed points: {shown}"])
    return 0


def _fixes_line(fixes) -> str:
    return "fixed points: " + (", ".join(fmt_point(p) for p in fixes) if fixes else "(none)")


# -- subcommand handlers ---------------------------------------------


def _cmd_check_map(args, parser) -> int:
    doc = load_document(args.space)
    name = _require_map(args, parser)
    m = doc.get_map(name)
    if isinstance(m, AffineMapZ):
        payload = {"command": "check-map", "map": name, "affine": {"p": m.p, "q": m.q}}
        return _affine_report(args, payload, m)
    violation = continuity_violation(m)
    fixes = fixed_points(m)
    payload = {
        "command": "check-map",
        "map": name,
        "valid": True,
        "continuous": violation is None,
        "continuity_violation": None
        if violation is None
        else [_point_json(x) for x in violation],
        "fixed_points": [_point_json(p) for p in fixes],
    }
    lines = [f"map {name}: valid self-map of {doc.image.describe()}"]
    if violation is None:
        lines.append("continuous: yes")
    else:
        x, y = violation
        lines.append(f"continuous: no (edge {fmt_point(x)} ~ {fmt_point(y)})")
    lines.append(_fixes_line(fixes))
    _emit(args, payload, lines)
    return 0


def _classify_finite_single(space, m) -> list[dict]:
    rows = []
    ar = _Arith(space)
    k = lipschitz_min(space, m)
    rows.append(
        {
            "condition": "contraction",
            "minimal_constant": _value_json(k),
            "holds_below_one": ar.below_one(k),
        }
    )
    for label, checker in (("quasi-max", check_quasi), ("five-term-max", check_ciric5)):
        c = checker(space, m, 0, minimal=True).minimal_constant
        rows.append(
            {
                "condition": label,
                "minimal_constant": _value_json(c),
                "holds_below_one": ar.below_one(c),
            }
        )
    return rows


def _classify_finite_pair(space, first, second) -> list[dict]:
    rows = []
    dom = check_pair_domination(space, first, second, 0, minimal=True)
    rows.append(
        {
            "condition": "domination-of-second-by-first",
            "minimal_constant": _value_json(dom.condition.minimal_constant),
            "no_finite_constant": dom.condition.no_finite_constant,
            "range_included": dom.range_included,
        }
    )
    sal = check_saluja(space, first, second, 0, minimal=True)
    rows.append(
        {
            "condition": "sum-bound",
            "minimal_constant": _value_json(sal.condition.minimal_constant),
            "no_finite_constant": sal.condition.no_finite_constant,
            "both_constant": sal.first_constant and sal.second_constant,
        }
    )
    wc = weakly_commutative(space, first, second)
    rows.append({"condition": "weakly-commutative", "holds": wc.holds})
    comp = compatible(space, first, second)
    rows.append({"condition": "compatible", "holds": comp.holds})
    rat = parv_rational_check(space, first, second)
    rows.append(
        {
            "condition": "rational-two-map",
            "holds_on_defined_pairs": rat.holds,
            "undefined_pairs": len(rat.undefined_pairs),
        }
    )
    return rows


def _classify_affine(doc, m, map2_name) -> list[dict]:
    if map2_name is None:
        fx = mapkit.affine_analyze(m)
        return [{"condition": "fixed-points", "kind": fx.kind, "point": fx.point}]
    g, h = m, doc.get_map(map2_name)
    included = mapkit.affine_dominates(h, g, Fraction(0)).range_included
    if g.p == 0 and h.p != 0:
        minimal, no_finite = None, True
    else:
        ratio = Fraction(0) if h.p == 0 else Fraction(abs(h.p), abs(g.p))
        minimal, no_finite = str(ratio), False
    return [
        {
            "condition": "domination-of-second-by-first",
            "minimal_constant": minimal,
            "no_finite_constant": no_finite,
            "range_included": included,
        }
    ]


def _cmd_classify(args, parser) -> int:
    doc = load_document(args.space)
    name = _require_map(args, parser)
    m = doc.get_map(name)
    if doc.is_integer_line:
        rows = _classify_affine(doc, m, args.map2)
        header = "classification on the integer line:"
    elif args.map2 is not None:
        rows = _classify_finite_pair(doc.space, m, doc.get_map(args.map2))
        header = f"classification on {doc.space.describe()}:"
    else:
        rows = _classify_finite_single(doc.space, m)
        header = f"classification on {doc.space.describe()}:"
    payload = {"command": "classify", "map": name, "conditions": rows}
    if args.map2 is not None:
        payload["map2"] = args.map2
    lines = [header]
    for row in rows:
        fields = " ".join(f"{k}={row[k]}" for k in row if k != "condition")
        lines.append(f"  {row['condition']}: {fields}")
    _emit(args, payload, lines)
    return 0


def _orbit_json(rep: OrbitReport) -> dict:
    return {
        "points": [_point_json(p) for p in rep.points],
        "kind": rep.kind,
        "settle_index": rep.settle_index,
        "value": None if rep.value is None else _point_json(rep.value),
        "period": rep.period,
    }


def _orbit_text(rep: OrbitReport) -> str:
    trail = " -> ".join(fmt_point(p) for p in rep.points)
    if rep.kind == mapkit.EVENTUALLY_CONSTANT:
        tail = f"settles at {fmt_point(rep.value)} (index {rep.settle_index})"
    elif rep.kind == mapkit.EVENTUALLY_PERIODIC:
        tail = f"eventually periodic (period {rep.period})"
    else:
        tail = "truncated before repetition"
    return f"{trail}: {tail}"


def _cmd_fix(args, parser) -> int:
    doc = load_document(args.space)
    name = _require_map(args, parser)
    m = doc.get_map(name)
    given = (("--start", args.start), ("--max-steps", args.max_steps))
    if isinstance(m, AffineMapZ):
        # The affine report runs no orbit, so it reads none of these flags.
        unread = [flag for flag, value in (*given, ("--map2", args.map2)) if value is not None]
        if unread:
            raise DocumentError("/".join(unread), "does not apply to a map of the integer line")
        return _affine_report(args, {"command": "fix", "map": name}, m)
    second = None if args.map2 is None else doc.get_map(args.map2)
    # Only the flags given can make an orbit fail; its error names them.
    flags = "/".join(flag for flag, value in given if value is not None)

    def run(start):
        try:
            if second is None:
                return mapkit.orbit(m, start, args.max_steps)
            return fixpoint.alternating_orbit(second, m, start, args.max_steps)
        except ValueError as err:
            raise DocumentError(flags, str(err)) from None

    if args.start is not None:
        start = _parse_start(args.start)
        rep = run(start)
        payload = {"command": "fix", "map": name, "orbit": _orbit_json(rep)}
        _emit(args, payload, [_orbit_text(rep)])
        return 0
    reps = [run(p) for p in doc.image.points]
    fixes = fixed_points(m)
    payload = {
        "command": "fix",
        "map": name,
        "fixed_points": [_point_json(p) for p in fixes],
        "orbits": [_orbit_json(r) for r in reps],
    }
    lines = [_fixes_line(fixes)] + [_orbit_text(r) for r in reps]
    _emit(args, payload, lines)
    return 0


def _parse_start(text: str):
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError:
        raise DocumentError("--start", f"not a point: {text!r}") from None
    try:
        return as_point(decoded)
    except TypeError as err:
        raise DocumentError("--start", str(err)) from None


def _parse_point_set(doc: ParsedDocument, text: str, flag: str):
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError:
        raise DocumentError(flag, f"not a point array: {text!r}") from None
    if not isinstance(decoded, list) or not decoded:
        raise DocumentError(flag, "expected a nonempty JSON array of points")
    try:
        pts = [as_point(v) for v in decoded]
    except TypeError as err:
        raise DocumentError(flag, str(err)) from None
    for p in pts:
        if p not in doc.image:
            raise DocumentError(flag, f"{fmt_point(p)} is not a point of the space")
    return pts


def _cmd_hausdorff(args, parser) -> int:
    doc = load_document(args.space)
    _finite_space(doc)
    first = _parse_point_set(doc, args.first, "--first")
    second = _parse_point_set(doc, args.second, "--second")
    value = metric.hausdorff(doc.space, first, second)
    payload = {"command": "hausdorff", "distance": _value_json(value)}
    _emit(args, payload, [f"hausdorff distance: {value_str(value)}"])
    return 0


def _cmd_fpp(args, parser) -> int:
    doc = load_document(args.space)
    _finite_space(doc)
    verdict = mapkit.has_fpp(doc.image, restrict_continuous=not args.all_maps)
    payload = {
        "command": "fpp",
        "restricted_to_continuous": not args.all_maps,
        "holds": verdict.holds,
        "witness": None
        if verdict.counterexample is None
        else [
            [_point_json(x), _point_json(v)]
            for x, v in zip(doc.image.points, verdict.counterexample.values)
        ],
    }
    lines = [f"fixed point property: {'holds' if verdict.holds else 'fails'}"]
    if verdict.counterexample is not None:
        lines.append(f"witness map without fixed points: {verdict.counterexample}")
    _emit(args, payload, lines)
    return 1 if (args.expect_pass and not verdict.holds) else 0


def _cmd_search(args, parser) -> int:
    grid = None
    if args.params is not None:
        if search.ASSERTIONS[args.assertion].param is None:
            raise DocumentError("--params", f"{args.assertion} takes no parameter")
        try:
            grid = tuple(Fraction(part) for part in args.params.split(","))
        except (ValueError, ZeroDivisionError) as err:
            raise DocumentError("--params", str(err)) from None
    try:
        outcome = search.find_counterexample(args.assertion, args.size_bound, grid)
    except (ValueError, EnumerationBudgetError) as err:
        # A budget stop is the size bound's; a bad value may be either flag's.
        flags = "--size-bound/--params" if grid and isinstance(err, ValueError) else "--size-bound"
        raise DocumentError(flags, str(err)) from None
    payload = {
        "command": "search",
        "assertion": outcome.assertion,
        "status": outcome.status,
        "size_bound": outcome.size_bound,
        "param_grid": [str(v) for v in outcome.param_grid],
        "stats": outcome.stats,
        "witness": None,
    }
    lines = [f"{outcome.assertion}: {outcome.status}"]
    if outcome.status == search.COUNTEREXAMPLE:
        replayed = outcome.verify()
        names = [f"M{i + 1}" for i in range(len(outcome.maps))]
        witness_doc = ParsedDocument(
            outcome.space.image.dimension,
            outcome.space.image.adjacency,
            outcome.space.metric,
            outcome.space.image,
            outcome.space,
            dict(zip(names, outcome.maps)),
        )
        payload["witness"] = {
            "document": serialize_document(witness_doc),
            "param": None if outcome.param is None else str(outcome.param),
            "replayed": replayed,
        }
        lines.append(f"space: {outcome.space.describe()}")
        for label, m in zip(names, outcome.maps):
            lines.append(f"{label}: {m}")
        if outcome.param is not None:
            lines.append(f"parameter: {outcome.param}")
        lines.append(f"replayed: {replayed}")
    for key in sorted(outcome.stats):
        lines.append(f"{key}: {outcome.stats[key]}")
    _emit(args, payload, lines)
    return 1 if (args.expect_pass and outcome.status == search.COUNTEREXAMPLE) else 0


def _cmd_verify_paper(args, parser) -> int:
    report = search.verify_paper_suite()
    _emit(args, report.as_document(), [report.render_text()])
    return 0 if report.passed else 1


# -- parser ----------------------------------------------------------


# Options that several subcommands read; each is added only where it is read.
_SHARED = {
    "--format": dict(choices=("text", "json"), default="text", help="output format"),
    "--expect-pass": dict(
        action="store_true", help="exit 1 when the verdict is a failure or counterexample"
    ),
    "--space": dict(required=True, help="space document (JSON)"),
    "--map": dict(help="name of a map in the document"),
    "--map2": dict(help="name of a second map in the document"),
}


# Built once per process, on the first main() call; each parse makes a fresh Namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="fixed-point laboratory for digital metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *shared):
        p = sub.add_parser(name, help=summary)
        for flag in ("--format", *shared):
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(handler=handler)
        return p

    command(
        "check-map",
        _cmd_check_map,
        "validate a map; report continuity and fixed points",
        "--space",
        "--map",
    )
    command(
        "classify",
        _cmd_classify,
        "minimal constants and condition verdicts for a map (or pair)",
        "--space",
        "--map",
        "--map2",
    )
    p = command(
        "fix",
        _cmd_fix,
        "iteration orbits; with --map2, the alternating scheme",
        "--space",
        "--map",
        "--map2",
    )
    p.add_argument("--max-steps", type=int, default=None, help="iteration budget for orbits")
    p.add_argument("--start", help="starting point (JSON: 3 or [1, 2])")

    p = command("hausdorff", _cmd_hausdorff, "Hausdorff distance between two subsets", "--space")
    p.add_argument("--first", required=True, help="first subset (JSON point array)")
    p.add_argument("--second", required=True, help="second subset (JSON point array)")

    p = command(
        "fpp",
        _cmd_fpp,
        "decide the fixed point property by a pruned search over all self-maps",
        "--expect-pass",
        "--space",
    )
    p.add_argument(
        "--all-maps",
        action="store_true",
        help="quantify over all self-maps, not only continuous ones",
    )

    p = command(
        "search",
        _cmd_search,
        "hunt for a counterexample to a recorded assertion",
        "--expect-pass",
    )
    p.add_argument(
        "--assertion", required=True, choices=sorted(search.ASSERTIONS), help="assertion id"
    )
    p.add_argument("--size-bound", type=int, default=3, help="largest space size")
    p.add_argument("--params", help="comma-separated rational grid, e.g. 1/4,1/2")

    command("verify-paper", _cmd_verify_paper, "run the full curated verification suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (DocumentError, MapValidationError, EnumerationBudgetError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
