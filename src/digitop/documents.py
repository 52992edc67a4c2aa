"""Parsing and serialization of space description documents.

A document is strict JSON describing one digital metric space plus
named maps:

    {
      "dimension": 1,
      "points": [[0], [1], [2]],
      "adjacency": {"type": "cu", "u": 1},
      "metric": {"type": "lp", "p": "1"},
      "maps": [
        {"name": "T", "pairs": [[[0], [0]], [[1], [0]], [[2], [1]]]},
        {"name": "G", "affine": {"p": 1, "q": 1}}
      ]
    }

Rationals are written as "num/den" strings (bare integers allowed);
float literals are rejected in every structural field so that no
inexact number can leak into exact verdicts.  The one place floats may
appear is a map's output coordinates — they survive parsing so that
validation can reject the map while naming the offending point.

"points" may also be the string "Z", declaring the whole integer line;
such documents carry affine maps only, adjacency c1 and metric l1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .mapkit import AffineMapZ, SelfMap, validate_selfmap
from .metric import L1, DigitalMetricSpace, Lp, MetricSpec, ShortestPath
from .space import Adjacency, DigitalImage

INTEGER_LINE = "Z"


class DocumentError(ValueError):
    """A malformed document; path points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise DocumentError(path, f"missing field(s): {', '.join(sorted(missing))}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise DocumentError(path, f"unknown field(s): {', '.join(sorted(unknown))}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


def _as_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(path, 'float literals are not allowed; write "num/den"')
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise DocumentError(path, f"bad rational {value!r}: {err}") from None
    raise DocumentError(path, f"expected a rational, got {value!r}")


def _parse_point(value, dimension: int, index: int) -> tuple:
    if type(value) is list and len(value) == dimension and set(map(type, value)) == {int}:
        return tuple(value)
    path = f"points[{index}]"  # formatted only for an error
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a coordinate array, got {value!r}")
    if len(value) != dimension:
        raise DocumentError(
            path, f"expected {dimension} coordinate(s), got {len(value)}"
        )
    return tuple(_as_int(c, f"{path}[{i}]") for i, c in enumerate(value))


def _parse_metric(obj, path: str) -> MetricSpec:
    _require_keys(obj, path, {"type"}, {"p"})
    kind = obj["type"]
    if kind == "shortest_path":
        if "p" in obj:
            raise DocumentError(path, "shortest_path takes no exponent")
        return ShortestPath()
    if kind == "lp":
        if "p" not in obj:
            raise DocumentError(path, "lp metric needs an exponent p")
        p = _as_rational(obj["p"], f"{path}.p")
        try:
            return Lp(p)
        except ValueError as err:
            raise DocumentError(f"{path}.p", str(err)) from None
    raise DocumentError(f"{path}.type", f"unknown metric type {kind!r}")


@dataclass(frozen=True)
class ParsedDocument:
    """A validated document: the space plus its named maps.

    Finite documents have image/space set and finite maps; integer-line
    documents ("points": "Z") have image=None and affine maps only.
    """

    dimension: int
    adjacency: Adjacency
    metric: MetricSpec
    image: DigitalImage | None
    space: DigitalMetricSpace | None
    maps: dict[str, SelfMap | AffineMapZ]

    @property
    def is_integer_line(self) -> bool:
        return self.image is None

    def get_map(self, name: str):
        if name not in self.maps:
            known = ", ".join(sorted(self.maps)) or "(none)"
            raise DocumentError("maps", f"no map named {name!r}; document has: {known}")
        return self.maps[name]


def parse_document(obj) -> ParsedDocument:
    """Validate a decoded JSON object into a ParsedDocument."""
    _require_keys(obj, "document", {"dimension", "points", "adjacency", "metric"}, {"maps"})
    dimension = _as_int(obj["dimension"], "dimension")
    if dimension < 1:
        raise DocumentError("dimension", "must be at least 1")

    _require_keys(obj["adjacency"], "adjacency", {"type", "u"})
    if obj["adjacency"]["type"] != "cu":
        raise DocumentError("adjacency.type", "only 'cu' adjacencies are supported")
    try:
        adjacency = Adjacency(_as_int(obj["adjacency"]["u"], "adjacency.u"))
    except ValueError as err:
        raise DocumentError("adjacency.u", str(err)) from None

    metric = _parse_metric(obj["metric"], "metric")

    points = obj["points"]
    if points == INTEGER_LINE:
        return _parse_integer_line(obj, dimension, adjacency, metric)

    if not isinstance(points, list) or not points:
        raise DocumentError("points", 'expected a non-empty array of points, or "Z"')
    parsed = [_parse_point(p, dimension, i) for i, p in enumerate(points)]
    if len(set(parsed)) != len(parsed):
        raise DocumentError("points", "duplicate points")
    try:
        image = DigitalImage(parsed, adjacency)
        space = DigitalMetricSpace(image, metric)
    except ValueError as err:
        raise DocumentError("points", str(err)) from None

    maps: dict[str, SelfMap | AffineMapZ] = {}
    for i, entry in enumerate(_map_entries(obj)):
        name, mapping = _parse_map_entry(entry, f"maps[{i}]", maps, dimension, image)
        maps[name] = mapping
    return ParsedDocument(dimension, adjacency, metric, image, space, maps)


def _parse_integer_line(obj, dimension, adjacency, metric) -> ParsedDocument:
    if dimension != 1:
        raise DocumentError("dimension", 'the "Z" domain is one-dimensional')
    if adjacency.u != 1:
        raise DocumentError("adjacency.u", 'the "Z" domain uses the cu adjacency with u = 1')
    if not isinstance(metric, Lp) or metric.p != 1:
        raise DocumentError("metric", 'the "Z" domain uses the lp metric with p = 1')
    maps: dict[str, SelfMap | AffineMapZ] = {}
    for i, entry in enumerate(_map_entries(obj)):
        path = f"maps[{i}]"
        _require_keys(entry, path, {"name", "affine"})
        name = _map_name(entry, path, maps)
        _require_keys(entry["affine"], f"{path}.affine", {"p", "q"})
        maps[name] = AffineMapZ(
            _as_int(entry["affine"]["p"], f"{path}.affine.p"),
            _as_int(entry["affine"]["q"], f"{path}.affine.q"),
        )
    return ParsedDocument(dimension, adjacency, metric, None, None, maps)


def _map_entries(obj: dict) -> list:
    entries = obj.get("maps", [])
    if not isinstance(entries, list):
        raise DocumentError("maps", f"expected an array of maps, got {type(entries).__name__}")
    return entries


def _map_name(entry: dict, path: str, seen: dict) -> str:
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise DocumentError(f"{path}.name", "map name must be a non-empty string")
    if name in seen:
        raise DocumentError(f"{path}.name", f"duplicate map name {name!r}")
    return name


def _parse_map_entry(entry, path, seen, dimension, image):
    _require_keys(entry, path, {"name"}, {"pairs", "affine"})
    name = _map_name(entry, path, seen)
    if "affine" in entry:
        raise DocumentError(
            f"{path}.affine", 'affine maps are only legal on the "Z" domain'
        )
    if "pairs" not in entry:
        raise DocumentError(path, "a finite map needs a pairs table")
    pairs = entry["pairs"]
    if not isinstance(pairs, list):
        raise DocumentError(f"{path}.pairs", "expected an array of [input, output] pairs")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(
                f"{path}.pairs[{i}]", f"expected an [input, output] pair, got {pair!r}"
            )
    # Output coordinates stay raw: validation rejects non-lattice
    # values with the offending input point named.
    return name, validate_selfmap(image, pairs)


def serialize_document(doc: ParsedDocument) -> dict:
    """Canonical JSON form; parse(serialize(d)) is field-equivalent to d."""
    if isinstance(doc.metric, ShortestPath):
        metric = {"type": "shortest_path"}
    else:
        metric = {"type": "lp", "p": str(doc.metric.p)}
    out = {
        "dimension": doc.dimension,
        "points": INTEGER_LINE
        if doc.is_integer_line
        else [list(p) for p in doc.image.points],
        "adjacency": {"type": "cu", "u": doc.adjacency.u},
        "metric": metric,
        "maps": [],
    }
    for name in doc.maps:
        m = doc.maps[name]
        if isinstance(m, AffineMapZ):
            out["maps"].append({"name": name, "affine": {"p": m.p, "q": m.q}})
        else:
            out["maps"].append(
                {
                    "name": name,
                    "pairs": [[list(x), list(v)] for x, v in zip(m.domain.points, m.values)],
                }
            )
    return out


def load_document(path: str) -> ParsedDocument:
    """Read and parse a document file."""
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as err:
        raise DocumentError(path, f"cannot read: {err}") from None
    except json.JSONDecodeError as err:
        raise DocumentError(path, f"invalid JSON at line {err.lineno}: {err.msg}") from None
    except (ValueError, RecursionError) as err:  # not UTF-8, too many digits or too deep
        raise DocumentError(path, f"cannot decode: {err}") from None
    return parse_document(obj)
