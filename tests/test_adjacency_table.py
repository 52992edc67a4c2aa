"""The position-indexed neighbour table against point-level references.

Every adjacency question (neighbours, edges, components, shortest-path
hop counts, the continuity witness) reads ``DigitalImage.neighbor_indices``.
The references below ask the public ``adjacent`` about every pair of
points, with plain loops over the points.

Inputs: every image of ``small_connected_images(5)`` (intervals, and grids
under c1 and c2), plus non-rectangular, 3-D and disconnected images on
both sides of the offset-walk / all-pairs-scan choice; every self-map of
the images with at most 4 points.
"""

import itertools

import pytest

from digitop import mapkit, space
from digitop.mapkit import SelfMap, continuity_violation, enumerate_selfmaps, is_continuous
from digitop.metric import SHORTEST_PATH, DigitalMetricSpace
from digitop.search import small_connected_images
from digitop.space import C1, C2, DigitalImage, adjacent, components, is_connected

CUBE = list(itertools.product(range(3), repeat=3))
SQUARE = list(itertools.product(range(2), repeat=2))
EXTRA = [
    DigitalImage([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)], C1),  # an L
    DigitalImage([(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)], C2),  # a plus
    DigitalImage([(0, 0), (1, 1), (2, 2), (2, 0)], C2),  # a diagonal chain
    DigitalImage([(i, j) for i in range(4) for j in range(4) if (i + j) % 3], C1),
    DigitalImage([(i, j) for i in range(4) for j in range(4) if (i + j) % 3], C2),
    DigitalImage([(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)], 1),
    DigitalImage([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)], 2),
    DigitalImage([(0, 0, 0), (1, 1, 1)], 3),
    *(DigitalImage(CUBE, u) for u in (1, 2, 3)),  # 27 points: the offset walk
    DigitalImage([p for p in CUBE if sum(p) != 3], 1),
    DigitalImage([0, 1, 3, 4, 7]),  # disconnected
    DigitalImage([0, 2]),
    DigitalImage([(0, 0), (1, 1)], C1),
    DigitalImage([(0, 0), (0, 1), (5, 5), (5, 6), (6, 5), (9, 0), (9, 1), (9, 2), (8, 9)], C1),
    DigitalImage([(0, 0), (0, 1), (5, 5), (5, 6), (6, 5), (9, 0), (9, 1), (9, 2), (8, 9)], C2),
]
IMAGES = [*small_connected_images(5), *EXTRA]
SMALL = [img for img in IMAGES if len(img) <= 4]


def ids(img):
    return f"{img.describe()}: {img.points}"


def ref_neighbors(img, p):
    return tuple(q for q in img.points if adjacent(p, q, img.adjacency))


def ref_hops(img, source):
    """Hop counts from source, one round per hop; unreachable points absent."""
    dist, frontier, hop = {source: 0}, [source], 0
    while frontier:
        hop += 1
        frontier = [
            q
            for q in img.points
            if q not in dist and any(adjacent(p, q, img.adjacency) for p in frontier)
        ]
        dist.update(dict.fromkeys(frontier, hop))
    return dist


def ref_components(img):
    blocks = []
    for p in img.points:
        if not any(p in block for block in blocks):
            blocks.append(tuple(sorted(ref_hops(img, p))))
    return tuple(blocks)


def ref_violation(f):
    img, value = f.domain, f.as_dict()
    for x, y in itertools.combinations(img.points, 2):
        if adjacent(x, y, img.adjacency):
            fx, fy = value[x], value[y]
            if fx != fy and not adjacent(fx, fy, img.adjacency):
                return (x, y)
    return None


def test_both_table_branches_are_covered():
    offsets = [len(img) > 3 ** img.dimension - 1 for img in IMAGES]
    assert any(offsets) and not all(offsets)
    assert any(len(img) > 8 for img in IMAGES if img.dimension == 2)


@pytest.mark.parametrize("img", IMAGES, ids=ids)
def test_neighbors_edges_and_components(img):
    for p in img.points:
        assert img.neighbors(p) == ref_neighbors(img, p)
    pairs = itertools.combinations(img.points, 2)
    assert list(img.edges()) == [(x, y) for x, y in pairs if adjacent(x, y, img.adjacency)]
    assert components(img) == ref_components(img)


@pytest.mark.parametrize("img", IMAGES, ids=ids)
def test_neighbor_indices_and_hops(img):
    for i, p in enumerate(img.points):
        assert img.neighbor_indices[i] == tuple(map(img.index.__getitem__, ref_neighbors(img, p)))
        reached = ref_hops(img, p)
        assert img.hops(i) == {img.index[q]: h for q, h in reached.items()}


@pytest.mark.parametrize("img", IMAGES, ids=ids)
def test_shortest_path_distances(img):
    if not is_connected(img):
        with pytest.raises(ValueError, match="connected image"):
            DigitalMetricSpace(img, SHORTEST_PATH)
        return
    sp = DigitalMetricSpace(img, SHORTEST_PATH)
    for i, p in enumerate(img.points):
        reached = ref_hops(img, p)
        for j, q in enumerate(img.points):
            assert sp.distance(p, q) == sp.index_distance(i, j) == reached[q]


@pytest.mark.parametrize("img", SMALL, ids=ids)
def test_continuity_witness_for_every_map(img):
    for f in enumerate_selfmaps(img):
        assert continuity_violation(f) == ref_violation(f), f
        assert is_continuous(f) == (ref_violation(f) is None)


def test_continuity_asks_no_point_map_and_no_adjacency(monkeypatch):
    maps = [
        SelfMap(DigitalImage(CUBE, 2), tuple(reversed(CUBE))),
        SelfMap(DigitalImage(CUBE, 1), (CUBE[-1], *CUBE[1:-1], CUBE[0])),
        SelfMap(DigitalImage([0, 1, 2]), ((0,), (2,), (1,))),
        SelfMap(DigitalImage(SQUARE, C1), (SQUARE[0], SQUARE[3], SQUARE[0], SQUARE[0])),
    ]
    for f in maps:
        list(f.domain.edges())  # the table is built once, outside the count
        f.indices
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(original)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SelfMap, "__call__", counted(SelfMap.__call__))
    monkeypatch.setattr(space, "adjacent", counted(space.adjacent))
    monkeypatch.setattr(mapkit, "adjacent", counted(space.adjacent), raising=False)
    verdicts = [continuity_violation(f) for f in maps]
    assert verdicts == [None, ((0, 0, 0), (0, 0, 1)), ((0,), (1,)), ((0, 0), (0, 1))]
    assert calls == []
