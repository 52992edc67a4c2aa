"""The checkers' pair scans against the full scan of every ordered pair.

contracts._keys reads a symmetric row on the pairs i <= j only, and
parv_rational_check finds its undefined pairs from each x's one
candidate y = T(x).  The references below read all n^2 ordered pairs in
lexicographic order, as the checkers did before; the results must be
equal, order included, on every map and map pair of the small images.
"""

import itertools

import pytest

from digitop import contracts
from digitop.mapkit import enumerate_selfmaps
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.search import enumerate_map_pairs, small_connected_images

ROWS = {
    "contraction": contracts.CONTRACTION,
    "strict-contraction": contracts.STRICT_CONTRACTION,
    "kannan": contracts.KANNAN,
    "quasi": contracts.QUASI,
    "five-term": contracts.FIVE_TERM,
    "domination": contracts.DOMINATION,
    "sum-bound": contracts.SUM_BOUND,
    "rational": contracts.RATIONAL,
}
TWO_MAP_ROWS = {"domination", "sum-bound", "rational"}


def spaces(size_bound: int) -> list:
    images = small_connected_images(size_bound)
    return [DigitalMetricSpace(img, m) for img in images for m in (L1, L2, SHORTEST_PATH, Lp(3))]


SPACES = spaces(3)
# One-map rows also on the 4-point interval and the 2x2 grid under c1 and
# c2, whose pairs tie in more ways; a 4-point space has 65,536 map pairs.
CASES = [(space, name) for space in SPACES for name in ROWS] + [
    (space, name) for space in spaces(4)[len(SPACES) :] for name in ROWS if name not in TWO_MAP_ROWS
]


def full_keys(space, cond, *maps) -> dict:
    table = sum((contracts._positions(space, f) for f in maps), ())
    extra = (len(space),) * (len(maps) - 1)
    keys = {}
    for i, j in itertools.product(range(len(space)), repeat=2):
        keys.setdefault(cond.terms(space.rank, *extra, table, i, j), (i, j))
    return keys


def instances(space, name):
    if name in TWO_MAP_ROWS:
        return enumerate_map_pairs(space.image)
    return ((f,) for f in enumerate_selfmaps(space.image))


@pytest.mark.parametrize(
    "space, name", CASES, ids=[f"{space.describe()}-{name}" for space, name in CASES]
)
def test_the_keys_are_those_of_every_ordered_pair(space, name):
    cond = ROWS[name]
    for maps in instances(space, name):
        (keys,) = contracts._keys(space, (cond,), *maps)
        expected = full_keys(space, cond, *maps)
        assert list(keys.items()) == list(expected.items()), [str(f) for f in maps]


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.describe())
def test_the_undefined_rational_pairs_are_those_of_every_ordered_pair(space):
    pts = space.points
    for t, s in enumerate_map_pairs(space.image):
        tv, sv = t.indices, s.indices
        pairs = itertools.product(range(len(space)), repeat=2)
        expected = tuple((pts[x], pts[y]) for x, y in pairs if sv[y] == x and tv[x] == y)
        assert contracts.parv_rational_check(space, t, s).undefined_pairs == expected
