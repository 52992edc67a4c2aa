"""The level order of a space and the work it saves.

Every checker compares integer levels, the positions of a space's
distinct distances in ascending order, and decides each inequality
between levels once per space.  These tests pin the three properties
that rests on, and count the exact comparisons an exhaustive search
still makes.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from digitop import contracts, exact, fixpoint, metric
from digitop.contracts import check_ciric5
from digitop.mapkit import SelfMap
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.search import EXHAUSTED, find_counterexample, small_connected_images
from digitop.space import C1, C2, DigitalImage

GRID3 = [(i, j) for i in range(3) for j in range(3)]
SPACES = [
    DigitalMetricSpace(img, m)
    for img in small_connected_images(5)
    for m in (L1, L2, SHORTEST_PATH)
] + [DigitalMetricSpace(DigitalImage(GRID3, adj), Lp(3)) for adj in (C1, C2)]
L2_SPACES = [DigitalMetricSpace(img, L2) for img in small_connected_images(12)] + [
    DigitalMetricSpace(DigitalImage(GRID3, adj), L2) for adj in (C1, C2)
]
COEFFICIENTS = tuple(Fraction(c) for c in ("0", "1/4", "1/3", "1/2", "3/4", "1", "3/2", "2"))


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_level_order(space):
    levels, rank, tol = space.levels, space.rank, space.comparison_tolerance
    for lower, upper in zip(levels, levels[1:]):
        assert lower < upper if tol is not None else exact.compare(lower, upper) < 0
    n = len(space)
    # The levels are the distinct distances, no more (shortest path's too).
    assert set(levels) == {space.index_distance(i, j) for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            value = levels[rank[i][j]]
            assert value == space.index_distance(i, j)
            assert type(value) is type(space.index_distance(i, j))
    # A per-base cap of the levels meeting lhs <= coeff * base needs the
    # levels that meet it to be a prefix.
    tol, ranks = space.comparison_tolerance, range(len(levels))
    for coeff in COEFFICIENTS:
        for base in ranks:
            verdicts = [contracts._bound(tol, levels, (lhs, base), (coeff,)) for lhs in ranks]
            assert verdicts == sorted(verdicts, reverse=True), (coeff, base)


def counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of exact.compare, where contracts and metric look it up,
    and of RadicalSum.sign."""
    calls = Counter()
    for module in (contracts, metric):
        monkeypatch.setattr(module, "compare", counting(calls, "compare", exact.compare))
    monkeypatch.setattr(exact.RadicalSum, "sign", counting(calls, "sign", exact.RadicalSum.sign))
    return calls


def test_an_exhaustive_search_decides_few_comparisons(calls):
    outcome = find_counterexample("five-term-fixed-point", 4)
    assert outcome.status == EXHAUSTED
    assert outcome.stats["instances_scanned"] > 1000
    assert 0 < calls["compare"] < 1000
    assert calls["sign"] < calls["compare"]


def test_a_repeated_check_decides_nothing_new(calls):
    sp = DigitalMetricSpace(DigitalImage([(0, 0), (0, 1), (1, 0), (1, 1)], C1), L2)
    f = SelfMap(sp.image, ((0, 1), (1, 1), (0, 0), (1, 0)))
    first = check_ciric5(sp, f, Fraction(3, 4), minimal=False)
    assert calls["compare"] > 0
    calls.clear()
    assert check_ciric5(sp, f, Fraction(3, 4), minimal=False) == first
    assert calls["compare"] == 0 and calls["sign"] == 0


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_the_distance_matrix_is_filled_once(space, monkeypatch):
    """The first index_distance computes the whole matrix; the level order
    and the checkers then compute no distance."""
    calls = Counter()
    distance = DigitalMetricSpace.distance
    monkeypatch.setattr(DigitalMetricSpace, "distance", counting(calls, "distance", distance))
    fresh = DigitalMetricSpace(space.image, space.metric)
    n = len(fresh)
    fresh.index_distance(0, 0)
    assert calls["distance"] <= n * n
    calls.clear()
    pts = fresh.points
    f = SelfMap(fresh.image, pts[1:] + pts[:1])
    g = SelfMap.constant(fresh.image, pts[-1])
    assert fresh.levels and fresh.rank
    contracts.check_quasi(fresh, f, Fraction(1, 2))
    contracts.weakly_commutative(fresh, f, g)
    contracts.parv_rational_check(fresh, f, g)
    fixpoint.banach_verify(fresh, g)
    assert calls["distance"] == 0


@pytest.mark.parametrize("space", L2_SPACES, ids=repr)
def test_l2_levels_sort_by_their_squares_with_no_sign_decided(space, calls):
    fresh = DigitalMetricSpace(space.image, L2)
    levels, rank = fresh.levels, fresh.rank
    assert calls["sign"] == calls["compare"] == 0
    n = len(fresh)
    values = (fresh.index_distance(i, j) for i, j in itertools.product(range(n), repeat=2))
    assert levels == tuple(sorted(dict.fromkeys(values)))
    assert all(levels[rank[i][j]] == fresh.index_distance(i, j) for i in range(n) for j in range(n))
