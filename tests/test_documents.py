"""Document parsing, validation errors, and canonical serialization."""

import json
import sys

import pytest

from fractions import Fraction

from digitop.documents import (
    DocumentError,
    load_document,
    parse_document,
    serialize_document,
)
from digitop.mapkit import AffineMapZ, MapValidationError, SelfMap
from digitop.metric import Lp, ShortestPath
from digitop.space import as_point


def finite_doc(**overrides):
    doc = {
        "dimension": 1,
        "points": [[0], [1], [2]],
        "adjacency": {"type": "cu", "u": 1},
        "metric": {"type": "lp", "p": "1"},
        "maps": [
            {"name": "T", "pairs": [[[0], [0]], [[1], [0]], [[2], [1]]]},
        ],
    }
    doc.update(overrides)
    return doc


def line_doc(**overrides):
    doc = {
        "dimension": 1,
        "points": "Z",
        "adjacency": {"type": "cu", "u": 1},
        "metric": {"type": "lp", "p": 1},
        "maps": [{"name": "G", "affine": {"p": 1, "q": 1}}],
    }
    doc.update(overrides)
    return doc


# -- the happy paths -------------------------------------------------


def test_parse_finite_document():
    parsed = parse_document(finite_doc())
    assert parsed.dimension == 1
    assert parsed.adjacency.u == 1
    assert isinstance(parsed.metric, Lp) and parsed.metric.p == 1
    assert parsed.image.points == ((0,), (1,), (2,))
    assert not parsed.is_integer_line
    t = parsed.get_map("T")
    assert isinstance(t, SelfMap)
    assert t.values == ((0,), (0,), (1,))


def test_parse_integer_line_document():
    parsed = parse_document(line_doc())
    assert parsed.is_integer_line
    assert parsed.image is None and parsed.space is None
    g = parsed.get_map("G")
    assert isinstance(g, AffineMapZ)
    assert (g.p, g.q) == (1, 1)


def test_points_are_sorted_and_metric_p_accepts_fractions():
    doc = finite_doc(points=[[2], [0], [1]], metric={"type": "lp", "p": "3/2"})
    parsed = parse_document(doc)
    assert parsed.image.points == ((0,), (1,), (2,))
    assert parsed.metric.p == Fraction(3, 2)


def test_shortest_path_metric():
    parsed = parse_document(finite_doc(metric={"type": "shortest_path"}))
    assert isinstance(parsed.metric, ShortestPath)


def test_maps_are_optional():
    doc = finite_doc()
    del doc["maps"]
    assert parse_document(doc).maps == {}


def test_round_trip_is_canonical():
    # unsorted points and sparse pair order normalize on the way out
    doc = finite_doc(points=[[2], [0], [1]])
    first = serialize_document(parse_document(doc))
    assert first["points"] == [[0], [1], [2]]
    assert first["metric"] == {"type": "lp", "p": "1"}
    assert first["maps"][0]["pairs"] == [[[0], [0]], [[1], [0]], [[2], [1]]]
    again = serialize_document(parse_document(first))
    assert again == first


def test_round_trip_shortest_path():
    first = serialize_document(parse_document(finite_doc(metric={"type": "shortest_path"})))
    assert first["metric"] == {"type": "shortest_path"}
    parsed = parse_document(first)
    assert isinstance(parsed.metric, ShortestPath)
    assert serialize_document(parsed) == first


def test_round_trip_integer_line():
    first = serialize_document(parse_document(line_doc()))
    assert first["points"] == "Z"
    assert first["maps"] == [{"name": "G", "affine": {"p": 1, "q": 1}}]
    assert serialize_document(parse_document(first)) == first


# -- structural strictness -------------------------------------------


def test_unknown_top_level_field():
    with pytest.raises(DocumentError, match=r"document: unknown field\(s\): frobnicate"):
        parse_document(finite_doc(frobnicate=1))


def test_missing_top_level_field():
    doc = finite_doc()
    del doc["metric"]
    with pytest.raises(DocumentError, match=r"document: missing field\(s\): metric"):
        parse_document(doc)


def test_document_must_be_an_object():
    with pytest.raises(DocumentError, match="expected an object, got list"):
        parse_document([1, 2, 3])


def test_dimension_validation():
    with pytest.raises(DocumentError, match="dimension: must be at least 1"):
        parse_document(finite_doc(dimension=0))
    with pytest.raises(DocumentError, match="dimension: expected an integer"):
        parse_document(finite_doc(dimension="1"))
    with pytest.raises(DocumentError, match="expected an integer, got True"):
        parse_document(finite_doc(dimension=True))


def test_adjacency_validation():
    with pytest.raises(DocumentError, match="only 'cu' adjacencies"):
        parse_document(finite_doc(adjacency={"type": "vonNeumann", "u": 1}))
    with pytest.raises(DocumentError, match="adjacency.u"):
        parse_document(finite_doc(adjacency={"type": "cu", "u": 0}))
    with pytest.raises(DocumentError, match="adjacency: missing field"):
        parse_document(finite_doc(adjacency={"type": "cu"}))


def test_adjacency_u_must_fit_the_dimension():
    with pytest.raises(DocumentError, match="points: c2 is invalid on dimension-1"):
        parse_document(finite_doc(adjacency={"type": "cu", "u": 2}))


def test_metric_validation():
    with pytest.raises(DocumentError, match="unknown metric type 'euclid'"):
        parse_document(finite_doc(metric={"type": "euclid"}))
    with pytest.raises(DocumentError, match="lp metric needs an exponent p"):
        parse_document(finite_doc(metric={"type": "lp"}))
    with pytest.raises(DocumentError, match="shortest_path takes no exponent"):
        parse_document(finite_doc(metric={"type": "shortest_path", "p": 1}))
    with pytest.raises(DocumentError, match="metric.p"):
        parse_document(finite_doc(metric={"type": "lp", "p": "1/2"}))


@pytest.mark.parametrize("p", [True, [3]])
def test_exponent_of_the_wrong_type(p):
    with pytest.raises(DocumentError, match=r"metric\.p: expected a rational, got "):
        parse_document(finite_doc(metric={"type": "lp", "p": p}))


def test_float_exponent_rejected_with_advice():
    with pytest.raises(
        DocumentError, match='float literals are not allowed; write "num/den"'
    ):
        parse_document(finite_doc(metric={"type": "lp", "p": 1.5}))


def test_bad_rational_string():
    with pytest.raises(DocumentError, match="bad rational 'one half'"):
        parse_document(finite_doc(metric={"type": "lp", "p": "one half"}))
    with pytest.raises(DocumentError, match="bad rational '1/0'"):
        parse_document(finite_doc(metric={"type": "lp", "p": "1/0"}))


def test_points_validation():
    with pytest.raises(DocumentError, match='non-empty array of points, or "Z"'):
        parse_document(finite_doc(points=[]))
    with pytest.raises(DocumentError, match='non-empty array of points, or "Z"'):
        parse_document(finite_doc(points="Q"))
    with pytest.raises(DocumentError, match="points: duplicate points"):
        parse_document(finite_doc(points=[[0], [1], [1]]))
    with pytest.raises(DocumentError, match=r"points\[1\]: expected a coordinate array, got 1"):
        parse_document(finite_doc(points=[[0], 1]))
    with pytest.raises(DocumentError, match=r"points\[1\]: expected 1 coordinate"):
        parse_document(finite_doc(points=[[0], [1, 2]]))
    with pytest.raises(DocumentError, match=r"points\[0\]\[0\]: expected an integer"):
        parse_document(finite_doc(points=[[0.5], [1]]))
    with pytest.raises(DocumentError, match=r"points\[2\]\[1\]: expected an integer, got True"):
        parse_document(finite_doc(dimension=2, points=[[0, 0], [0, 1], [1, True]]))


# -- map entries -----------------------------------------------------


def test_map_name_validation():
    doc = finite_doc(
        maps=[
            {"name": "T", "pairs": [[[0], [0]], [[1], [0]], [[2], [1]]]},
            {"name": "T", "pairs": [[[0], [0]], [[1], [0]], [[2], [1]]]},
        ]
    )
    with pytest.raises(DocumentError, match="duplicate map name 'T'"):
        parse_document(doc)
    with pytest.raises(DocumentError, match="non-empty string"):
        parse_document(finite_doc(maps=[{"name": "", "pairs": []}]))


def test_finite_map_needs_pairs():
    with pytest.raises(DocumentError, match="a finite map needs a pairs table"):
        parse_document(finite_doc(maps=[{"name": "T"}]))
    with pytest.raises(DocumentError, match='only legal on the "Z" domain'):
        parse_document(finite_doc(maps=[{"name": "T", "affine": {"p": 1, "q": 0}}]))


def test_pairs_shape_validation():
    with pytest.raises(DocumentError, match=r"maps\[0\].pairs: expected an array"):
        parse_document(finite_doc(maps=[{"name": "T", "pairs": "nope"}]))
    with pytest.raises(DocumentError, match=r"maps\[0\].pairs\[1\]"):
        parse_document(finite_doc(maps=[{"name": "T", "pairs": [[[0], [0]], [[1]]]}]))


def test_float_outputs_reach_map_validation():
    # floats in outputs pass the parser so the validator can name the point
    doc = finite_doc(
        maps=[{"name": "F", "pairs": [[[0], [1]], [[1], [1.5]], [[2], [2]]]}]
    )
    with pytest.raises(MapValidationError) as excinfo:
        parse_document(doc)
    assert excinfo.value.kind == "non-lattice-value"
    assert excinfo.value.point == (1,)


def test_partial_and_alien_tables_are_named():
    doc = finite_doc(maps=[{"name": "F", "pairs": [[[0], [0]], [[1], [0]]]}])
    with pytest.raises(MapValidationError, match="no value for 2"):
        parse_document(doc)
    doc = finite_doc(
        maps=[{"name": "F", "pairs": [[[0], [0]], [[1], [0]], [[2], [0]], [[9], [0]]]}]
    )
    with pytest.raises(MapValidationError, match="map input 9 is not a point"):
        parse_document(doc)


@pytest.mark.parametrize("coordinate", [1.0, True], ids=repr)
def test_a_float_or_bool_coordinate_is_not_read_as_an_int(coordinate):
    # (1.0,) and (True,) equal (1,) as dict keys; neither is a lattice point.
    pairs = [[[0], [0]], [[1], [0]], [[2], [1]]]
    as_input = finite_doc(maps=[{"name": "F", "pairs": [[[coordinate], [0]], *pairs[::2]]}])
    with pytest.raises(MapValidationError) as excinfo:
        parse_document(as_input)
    assert (excinfo.value.kind, str(excinfo.value)) == (
        "unknown-point",
        f"map input [{coordinate!r}] is not a point of the image",
    )
    as_output = finite_doc(maps=[{"name": "F", "pairs": [pairs[0], [[1], [coordinate]], pairs[2]]}])
    with pytest.raises(MapValidationError) as excinfo:
        parse_document(as_output)
    assert (excinfo.value.kind, str(excinfo.value)) == (
        "non-lattice-value",
        f"map value [{coordinate!r}] at 1 is not a lattice point",
    )


def test_map_pairs_of_exact_points_skip_as_point(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return as_point(value)

    for name, module in list(sys.modules.items()):
        if name.startswith("digitop") and hasattr(module, "as_point"):
            monkeypatch.setattr(module, "as_point", counting)
    points = [[x, y] for x in range(3) for y in range(3)]
    maps = [
        {"name": "T", "pairs": [[p, p] for p in points]},
        {"name": "S", "pairs": [[p, points[(4 * k) % 9]] for k, p in enumerate(points)]},
    ]
    parse_document(finite_doc(dimension=2, points=points, maps=[]))
    without_maps = len(calls)
    parsed = parse_document(finite_doc(dimension=2, points=points, maps=maps))
    # The image's points are normalized as before; no map pair adds a call.
    assert len(calls) - without_maps == without_maps
    assert parsed.get_map("S").values[:3] == ((0, 0), (1, 1), (2, 2))


def test_get_map_lists_known_names():
    parsed = parse_document(finite_doc())
    with pytest.raises(DocumentError, match="no map named 'S'; document has: T"):
        parsed.get_map("S")


# -- the integer-line domain -----------------------------------------


def test_integer_line_constraints():
    with pytest.raises(DocumentError, match='"Z" domain is one-dimensional'):
        parse_document(line_doc(dimension=2, adjacency={"type": "cu", "u": 1}))
    with pytest.raises(DocumentError, match="lp metric with p = 1"):
        parse_document(line_doc(metric={"type": "lp", "p": 2}))
    with pytest.raises(DocumentError, match="lp metric with p = 1"):
        parse_document(line_doc(metric={"type": "shortest_path"}))


@pytest.mark.parametrize("u", [2, 3])
def test_integer_line_adjacency_must_be_c1(u):
    with pytest.raises(DocumentError, match=r'^adjacency.u: the "Z" domain uses the cu adjacency'):
        parse_document(line_doc(adjacency={"type": "cu", "u": u}))


def test_integer_line_maps_must_be_affine():
    doc = line_doc(maps=[{"name": "T", "pairs": [[[0], [0]]]}])
    with pytest.raises(DocumentError, match=r"maps\[0\]"):
        parse_document(doc)


def test_affine_coefficients_must_be_integers():
    doc = line_doc(maps=[{"name": "G", "affine": {"p": "1", "q": 0}}])
    with pytest.raises(DocumentError, match=r"maps\[0\].affine.p: expected an integer"):
        parse_document(doc)
    doc = line_doc(maps=[{"name": "G", "affine": {"p": 1, "q": 0.5}}])
    with pytest.raises(DocumentError, match=r"maps\[0\].affine.q: expected an integer"):
        parse_document(doc)


# -- file loading ----------------------------------------------------


def test_load_document_round_trip(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(finite_doc()))
    parsed = load_document(str(target))
    assert parsed.get_map("T").values == ((0,), (0,), (1,))


def test_load_document_missing_file(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_document(str(tmp_path / "absent.json"))


def test_load_document_bad_json(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text('{\n  "dimension": 1,\n  oops\n}')
    with pytest.raises(DocumentError, match="invalid JSON at line 3"):
        load_document(str(target))


def test_document_error_carries_path():
    try:
        parse_document(finite_doc(dimension=0))
    except DocumentError as err:
        assert err.path == "dimension"
    else:  # pragma: no cover
        pytest.fail("expected a DocumentError")
