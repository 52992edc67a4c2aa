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
import math
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from . import contracts, fixpoint, mapkit, metric, search
from .documents import (
    DocumentError,
    ParsedDocument,
    load_document,
    serialize_document,
)
from .exact import RadicalSum, exact_lt, value_str
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
    if v is None or isinstance(v, int):
        return v
    if isinstance(v, (Fraction, RadicalSum)):
        return str(v)
    return float(v)


# The JSON text of a scalar, by its exact type; json spells NaN and ±inf.
_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` byte for byte, with no
    call per scalar: a list or str-keyed dict writes its scalar members, and a
    list of points (lists of exact ints) every coordinate, in its own join.
    Anything else goes to ``json.dumps``, re-indented."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar:
        return scalar(value)
    inner = indent + "  "
    if kind is list and value:
        points = set(map(type, value)) == {list} and all(value)
        if points and set(map(type, chain(*value))) == {int}:
            sep = f",\n{inner}  "
            rows = [f"[\n{inner}  " + sep.join(map(repr, p)) + f"\n{inner}]" for p in value]
        else:
            rows = [s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(rows) + f"\n{indent}]"
    if kind is dict and value and set(map(type, value)) == {str}:
        rows = []
        for k in sorted(value):
            v = value[k]
            s = _SCALARS.get(type(v))
            rows.append(f"{_json_str(k)}: {s(v) if s else _json(v, inner)}")
        return f"{{\n{inner}" + f",\n{inner}".join(rows) + f"\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(args, payload: dict, lines) -> None:
    """Print the payload as JSON, or the text lines that lines() builds."""
    print(_json(payload) if args.format == "json" else "\n".join(lines()))


def _document_map(args, parser) -> tuple[ParsedDocument, str, object]:
    """The --space document, the --map name and its map: the document is
    loaded first, so its errors come before a missing --map."""
    doc = load_document(args.space)
    if not args.map:
        parser.error(f"{args.command} requires --map")
    return doc, args.map, doc.get_map(args.map)


def _finite_document(args) -> ParsedDocument:
    doc = load_document(args.space)
    if doc.is_integer_line:
        raise DocumentError("points", "this command needs a finite space document")
    return doc


def _affine_report(args, payload: dict, m: AffineMapZ) -> int:
    """The fixed points of an affine map, for check-map and fix alike."""
    fx = mapkit.affine_analyze(m)
    payload["fixed_points"] = {"kind": fx.kind, "point": fx.point}
    shown = fx.kind if fx.point is None else f"{fx.kind} ({fx.point})"
    _emit(args, payload, lambda: [f"map {payload['map']}: {m}", f"fixed points: {shown}"])
    return 0


def _fixes_line(fixes) -> str:
    return "fixed points: " + (", ".join(fmt_point(p) for p in fixes) if fixes else "(none)")


# -- subcommand handlers ---------------------------------------------


def _cmd_check_map(args, parser) -> int:
    doc, name, m = _document_map(args, parser)
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
        else [list(x) for x in violation],
        "fixed_points": [list(p) for p in fixes],
    }

    def lines():
        edge = violation and "no (edge {} ~ {})".format(*map(fmt_point, violation))
        header = f"map {name}: valid self-map of {doc.image.describe()}"
        return [header, f"continuous: {edge or 'yes'}", _fixes_line(fixes)]

    _emit(args, payload, lines)
    return 0


def _classify_finite_single(space, m) -> list[dict]:
    constants = zip(("contraction", "quasi-max", "five-term-max"), contracts.classify(space, m))
    tol = space.comparison_tolerance
    return [
        {
            "condition": label,
            "minimal_constant": _value_json(c),
            "holds_below_one": exact_lt(c, 1, tol),
        }
        for label, (c, _, _) in constants
    ]


def _classify_finite_pair(space, first, second) -> list[dict]:
    (dom, _, dom_no_finite), (sal, _, sal_no_finite), rat = contracts.classify(space, first, second)
    wc = contracts.weakly_commutative(space, first, second)
    return [
        {
            "condition": "domination-of-second-by-first",
            "minimal_constant": _value_json(dom),
            "no_finite_constant": dom_no_finite,
            "range_included": second.image_set <= first.image_set,
        },
        {
            "condition": "sum-bound",
            "minimal_constant": _value_json(sal),
            "no_finite_constant": sal_no_finite,
            "both_constant": first.is_constant and second.is_constant,
        },
        {"condition": "weakly-commutative", "holds": wc.holds},
        {"condition": "compatible", "holds": contracts.compatible(space, first, second).holds},
        {
            "condition": "rational-two-map",
            "holds_on_defined_pairs": rat.holds,
            "undefined_pairs": len(rat.undefined_pairs),
        },
    ]


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
    doc, name, m = _document_map(args, parser)
    if doc.is_integer_line:
        rows = _classify_affine(doc, m, args.map2)
    elif args.map2 is not None:
        rows = _classify_finite_pair(doc.space, m, doc.get_map(args.map2))
    else:
        rows = _classify_finite_single(doc.space, m)
    payload = {"command": "classify", "map": name, "conditions": rows}
    if args.map2 is not None:
        payload["map2"] = args.map2

    def lines():
        on = "the integer line" if doc.is_integer_line else doc.space.describe()
        text = [f"classification on {on}:"]
        for row in rows:
            fields = " ".join(f"{k}={row[k]}" for k in row if k != "condition")
            text.append(f"  {row['condition']}: {fields}")
        return text

    _emit(args, payload, lines)
    return 0


def _orbit_json(rep: OrbitReport) -> dict:
    return {
        "points": [list(p) for p in rep.points],
        "kind": rep.kind,
        "settle_index": rep.settle_index,
        "value": None if rep.value is None else list(rep.value),
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
    doc, name, m = _document_map(args, parser)
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
        _emit(args, payload, lambda: [_orbit_text(rep)])
        return 0
    reps = [run(p) for p in doc.image.points]
    fixes = fixed_points(m)
    payload = {
        "command": "fix",
        "map": name,
        "fixed_points": [list(p) for p in fixes],
        "orbits": [_orbit_json(r) for r in reps],
    }
    _emit(args, payload, lambda: [_fixes_line(fixes)] + [_orbit_text(r) for r in reps])
    return 0


def _decode(flag: str, text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # not JSON, too many digits or too deep
        raise DocumentError(flag, f"not {what}: {text!r}") from None


def _parse_start(text: str):
    try:
        return as_point(_decode("--start", text, "a point"))
    except TypeError as err:
        raise DocumentError("--start", str(err)) from None


def _parse_point_set(doc: ParsedDocument, text: str, flag: str):
    decoded = _decode(flag, text, "a point array")
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
    doc = _finite_document(args)
    first = _parse_point_set(doc, args.first, "--first")
    second = _parse_point_set(doc, args.second, "--second")
    value = metric.hausdorff(doc.space, first, second)
    payload = {"command": "hausdorff", "distance": _value_json(value)}
    _emit(args, payload, lambda: [f"hausdorff distance: {value_str(value)}"])
    return 0


def _cmd_fpp(args, parser) -> int:
    doc = _finite_document(args)
    verdict = mapkit.has_fpp(doc.image, restrict_continuous=not args.all_maps)
    payload = {
        "command": "fpp",
        "restricted_to_continuous": not args.all_maps,
        "holds": verdict.holds,
        "witness": None
        if verdict.counterexample is None
        else [
            [list(x), list(v)]
            for x, v in zip(doc.image.points, verdict.counterexample.values)
        ],
    }

    def lines():
        witness = verdict.counterexample
        shown = [] if witness is None else [f"witness map without fixed points: {witness}"]
        return [f"fixed point property: {'holds' if verdict.holds else 'fails'}", *shown]

    _emit(args, payload, lines)
    return 1 if (args.expect_pass and not verdict.holds) else 0


def _param_grid(assertion: str, text: str) -> tuple[Fraction, ...]:
    """The --params grid of an assertion that takes a parameter, each value
    in [0, 1)."""
    name = search.ASSERTIONS[assertion].param
    if name is None:
        raise DocumentError("--params", f"{assertion} takes no parameter")
    grid = []
    for part in text.split(","):
        try:
            v = Fraction(part)
        except ZeroDivisionError:
            raise DocumentError("--params", f"{part!r} has a zero denominator") from None
        except ValueError as err:
            raise DocumentError("--params", str(err)) from None
        if not 0 <= v < 1:
            raise DocumentError("--params", f"{name} grid value {part!r} outside [0, 1)")
        grid.append(v)
    return tuple(grid)


def _cmd_search(args, parser) -> int:
    grid = None if args.params is None else _param_grid(args.assertion, args.params)
    try:
        outcome = search.find_counterexample(args.assertion, args.size_bound, grid)
    except (ValueError, EnumerationBudgetError) as err:
        # The grid is checked above: a bad value or a budget stop is the size bound's.
        raise DocumentError("--size-bound", str(err)) from None
    payload = {
        "command": "search",
        "assertion": outcome.assertion,
        "status": outcome.status,
        "size_bound": outcome.size_bound,
        "param_grid": [str(v) for v in outcome.param_grid],
        "stats": outcome.stats,
        "witness": None,
    }
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

    def lines():
        text = [f"{outcome.assertion}: {outcome.status}"]
        if payload["witness"] is not None:
            text.append(f"space: {outcome.space.describe()}")
            text += [f"{label}: {m}" for label, m in zip(names, outcome.maps)]
            if outcome.param is not None:
                text.append(f"parameter: {outcome.param}")
            text.append(f"replayed: {replayed}")
        return text + [f"{key}: {outcome.stats[key]}" for key in sorted(outcome.stats)]

    _emit(args, payload, lines)
    return 1 if (args.expect_pass and outcome.status == search.COUNTEREXAMPLE) else 0


def _cmd_verify_paper(args, parser) -> int:
    report = search.verify_paper_suite()
    _emit(args, report.as_document(), lambda: [report.render_text()])
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


# Each subcommand's parser by name, filled by build_parser.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


# Built once per process, on the first main() call; each parse makes a fresh Namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="fixed-point laboratory for digital metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *shared):
        p = _COMMANDS[name] = sub.add_parser(name, help=summary)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        # The top-level parser would only pass argv[1:] to this parser.
        namespace = argparse.Namespace(command=argv[0])
        args, extra = _COMMANDS[argv[0]].parse_known_args(argv[1:], namespace)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (DocumentError, MapValidationError, EnumerationBudgetError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
