"""Digital images and c_u adjacency.

The adjacency oracle used below is the definition applied by hand:
x ~ y iff x != y, every coordinate differs by at most 1, and between
1 and u coordinates differ by exactly 1.
"""

import itertools
import re
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitop.space import (
    C1,
    C2,
    Adjacency,
    DigitalImage,
    adjacent,
    as_point,
    components,
    digital_interval,
    fmt_point,
    is_connected,
    is_path,
)


def brute_adjacent(x, y, u):
    if x == y:
        return False
    deltas = [abs(a - b) for a, b in zip(x, y)]
    if any(d > 1 for d in deltas):
        return False
    return sum(d == 1 for d in deltas) <= u


# -- point normalization ---------------------------------------------


def test_as_point_accepts_ints_and_iterables():
    assert as_point(3) == (3,)
    assert as_point((1, 2)) == (1, 2)
    assert as_point([1, 2]) == (1, 2)


@pytest.mark.parametrize("bad", [True, 1.5, "3", (1, 2.0), (1, True), None])
def test_as_point_rejects_non_lattice(bad):
    with pytest.raises(TypeError):
        as_point(bad)


def _as_point_before_list_fast_path(value):
    """as_point as it was before its list fast path, kept verbatim as the oracle."""
    if isinstance(value, tuple) and all(
        isinstance(c, int) and not isinstance(c, bool) for c in value
    ):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    if isinstance(value, typing.Iterable) and not isinstance(value, (str, bytes)):
        coords = tuple(value)
        if all(isinstance(c, int) and not isinstance(c, bool) for c in coords):
            return coords
    raise TypeError(f"not a lattice point: {value!r}")


def _outcome(normalize, make):
    try:
        return "point", normalize(make())
    except TypeError as err:
        # Two generators differ only in the address their reprs show.
        return "TypeError", re.sub(r" at 0x[0-9a-f]+", " at ADDRESS", str(err))


AS_POINT_INPUTS = {
    "int": lambda: 3,
    "negative int": lambda: -7,
    "bool": lambda: True,
    "float": lambda: 1.0,
    "None": lambda: None,
    "tuple": lambda: (1, 2),
    "empty tuple": lambda: (),
    "tuple with a bool": lambda: (1, False),
    "tuple with a float": lambda: (1, 2.0),
    "nested tuple": lambda: ((1,), 2),
    "list": lambda: [1, 2],
    "empty list": lambda: [],
    "one-element list": lambda: [5],
    "nested list": lambda: [[1], [2]],
    "list with a bool": lambda: [1, True],
    "list of bools": lambda: [False],
    "list with a float": lambda: [0, 1.5],
    "list with a string": lambda: [1, "2"],
    "string": lambda: "12",
    "empty string": lambda: "",
    "bytes": lambda: b"\x01\x02",
    "dict": lambda: {1: 2, 3: 4},
    "dict of strings": lambda: {"a": 1},
    "generator": lambda: (c for c in (1, 2)),
    "generator with a bool": lambda: (c for c in (1, True)),
    "range": lambda: range(3),
    "set": lambda: {4},
    "frozenset with a float": lambda: frozenset({1.5}),
}


@pytest.mark.parametrize("name", sorted(AS_POINT_INPUTS))
def test_as_point_matches_its_form_before_the_list_fast_path(name):
    make = AS_POINT_INPUTS[name]
    assert _outcome(as_point, make) == _outcome(_as_point_before_list_fast_path, make)


def test_fmt_point():
    assert fmt_point((7,)) == "7"
    assert fmt_point((1, -2)) == "(1, -2)"


# -- adjacency -------------------------------------------------------


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Adjacency(0)
    assert str(C1) == "c1"
    assert str(C2) == "c2"


def test_c1_on_line():
    assert adjacent((0,), (1,), C1)
    assert not adjacent((0,), (2,), C1)
    assert not adjacent((0,), (0,), C1)


def test_c1_vs_c2_in_plane():
    # c_1 is 4-adjacency, c_2 is 8-adjacency
    assert adjacent((0, 0), (0, 1), C1)
    assert not adjacent((0, 0), (1, 1), C1)
    assert adjacent((0, 0), (1, 1), C2)
    assert not adjacent((0, 0), (2, 1), C2)


def test_adjacent_agrees_with_definition_on_3d_window():
    pts = list(itertools.product((0, 1, 2), repeat=3))
    for u in (1, 2, 3):
        for x in pts:
            for y in pts:
                assert adjacent(x, y, u) == brute_adjacent(x, y, u), (x, y, u)


def test_adjacent_rejects_dimension_mismatch_and_bad_u():
    with pytest.raises(ValueError):
        adjacent((0,), (0, 1), C1)
    with pytest.raises(ValueError):
        adjacent((0,), (1,), 2)  # u exceeds dimension


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(1, 2),
)
def test_adjacency_is_symmetric_irreflexive(x, y, u):
    assert adjacent(x, y, u) == adjacent(y, x, u)
    assert not adjacent(x, x, u)


# -- image construction ----------------------------------------------


def test_image_sorts_and_dedupes():
    img = DigitalImage([(2,), (0,), (1,), (0,)])
    assert img.points == ((0,), (1,), (2,))
    assert len(img) == 3
    assert (1,) in img and (5,) not in img


def test_image_accepts_bare_int_shorthand():
    assert DigitalImage([0, 1, 2]).points == ((0,), (1,), (2,))


def test_image_validation():
    with pytest.raises(ValueError):
        DigitalImage([])
    with pytest.raises(ValueError):
        DigitalImage([(0,), (0, 1)])  # mixed dimensions
    with pytest.raises(ValueError):
        DigitalImage([(0,), (1,)], C2)  # c2 needs dimension >= 2


def test_describe():
    assert digital_interval(0, 2).describe() == "3 point(s) in Z^1 with c1"
    grid = DigitalImage(itertools.product((0, 1), repeat=2), C2)
    assert grid.describe() == "4 point(s) in Z^2 with c2"


def test_neighbors_and_edges_on_square():
    grid = DigitalImage(itertools.product((0, 1), repeat=2), C1)
    assert grid.neighbors((0, 0)) == ((0, 1), (1, 0))
    assert list(grid.edges()) == [
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    ]
    # under c2 the diagonals join in
    grid8 = DigitalImage(grid.points, C2)
    assert len(list(grid8.edges())) == 6


def test_neighbors_rejects_outside_point():
    with pytest.raises(ValueError):
        digital_interval(0, 2).neighbors((9,))


def test_neighbors_normalises_its_argument():
    # an int is 1-D shorthand and a list a JSON point, as in distance and orbit
    line = digital_interval(0, 3)
    assert line.neighbors(1) == line.neighbors([1]) == line.neighbors((1,)) == ((0,), (2,))
    with pytest.raises(ValueError, match=r"point 7 not in image"):
        line.neighbors(7)
    with pytest.raises(ValueError, match=r"not in image"):
        line.neighbors([7])


def test_neighbor_table_offset_and_scan_paths_agree():
    # small images use the all-pairs scan, large ones the offset walk;
    # both must produce the same graph
    pts = [(i, j) for i in range(4) for j in range(4)]
    big = DigitalImage(pts, C2)  # 16 points > 3^2 - 1 = 8 -> offsets
    small = DigitalImage(pts[:6], C2)  # scan
    for p in small.points:
        direct = tuple(q for q in small.points if adjacent(p, q, C2))
        assert small.neighbors(p) == direct
    for p in big.points:
        direct = tuple(q for q in big.points if adjacent(p, q, C2))
        assert big.neighbors(p) == direct


# -- intervals, connectivity, paths ----------------------------------


def test_digital_interval():
    img = digital_interval(-1, 2)
    assert img.points == ((-1,), (0,), (1,), (2,))
    assert is_connected(img)
    with pytest.raises(ValueError):
        digital_interval(3, 1)


def test_components_split_on_gap():
    img = DigitalImage([0, 1, 3, 4, 7])
    assert components(img) == (
        ((0,), (1,)),
        ((3,), (4,)),
        ((7,),),
    )
    assert not is_connected(img)


def test_diagonal_pair_connectivity_depends_on_u():
    pts = [(0, 0), (1, 1)]
    assert not is_connected(DigitalImage(pts, C1))
    assert is_connected(DigitalImage(pts, C2))


def test_is_path():
    img = digital_interval(0, 3)
    ok = is_path(img, [0, 1, 2, 3])
    assert ok == (True, 3, None)
    bad = is_path(img, [0, 2, 3])
    assert bad.ok is False and bad.first_bad_index == 0
    assert is_path(img, [1]) == (True, 0, None)
    with pytest.raises(ValueError):
        is_path(img, [])
    with pytest.raises(ValueError):
        is_path(img, [0, 9])


@given(st.sets(st.integers(-8, 8), min_size=1, max_size=9))
def test_interval_like_components_match_gap_count(xs):
    # on a 1-D c1 image, components are exactly the maximal runs of
    # consecutive integers
    img = DigitalImage(sorted(xs))
    runs = 1 + sum(
        1 for a, b in itertools.pairwise(sorted(xs)) if b - a > 1
    )
    assert len(components(img)) == runs
