"""contracts._keys reads several rows from one call, against one row at a time.

parent_keys below is the one-row reading checked before: one walk per
row over the pairs in lexicographic order, i <= j for a symmetric row
and every ordered pair for an across row.  _keys must give each row's
dict, items and order, whether it reads the row alone or beside others,
and the rows of ``digitop classify`` must be what the per-row checkers
give.
"""

from functools import partial
from itertools import combinations_with_replacement, product

import pytest

from digitop import cli, contracts
from digitop.exact import exact_lt
from digitop.mapkit import enumerate_selfmaps
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.search import enumerate_map_pairs, small_connected_images

ONE_MAP = (
    contracts.CONTRACTION,
    contracts.STRICT_CONTRACTION,
    contracts.KANNAN,
    contracts.QUASI,
    contracts.FIVE_TERM,
)
TWO_MAP = (contracts.DOMINATION, contracts.SUM_BOUND, contracts.RATIONAL)
CLASSIFY_ONE = (contracts.CONTRACTION, contracts.QUASI, contracts.FIVE_TERM)
CLASSIFY_TWO = TWO_MAP
METRICS = (L1, L2, SHORTEST_PATH, Lp(3))


def spaces(size_bound: int) -> list:
    images = small_connected_images(size_bound)
    return [DigitalMetricSpace(img, m) for img in images for m in METRICS]


SPACES = spaces(3)
# The one-map rows also on the 4-point images, whose pairs tie in more ways.
LARGER = spaces(4)[len(SPACES) :]


def parent_keys(space, cond, *maps) -> dict:
    table = sum((contracts._positions(space, f) for f in maps), ())
    key = partial(cond.terms, space.rank, *(len(space),) * (len(maps) - 1), table)
    ks, keys = range(len(space)), {}
    pairs = product(ks, ks) if cond.across else combinations_with_replacement(ks, 2)
    for i, j in pairs:
        keys.setdefault(key(i, j), (i, j))
    return keys


def items(dicts) -> list:
    return [list(d.items()) for d in dicts]


def assert_rows_match(space, rows, *maps):
    want = [parent_keys(space, cond, *maps) for cond in rows]
    assert items(contracts._keys(space, rows, *maps)) == items(want), [str(f) for f in maps]
    for cond, keys in zip(rows, want):
        assert items(contracts._keys(space, (cond,), *maps)) == items([keys])


def per_row_single(space, m) -> list:
    """The one-map classify rows, each from its own checker call."""
    labels = ("contraction", "quasi-max", "five-term-max")
    constants = [contracts.lipschitz_min(space, m)]
    constants += [contracts.minimal_constant(space, c, m)[0] for c in CLASSIFY_ONE[1:]]
    tol = space.comparison_tolerance
    return [
        {
            "condition": label,
            "minimal_constant": cli._value_json(c),
            "holds_below_one": exact_lt(c, 1, tol),
        }
        for label, c in zip(labels, constants)
    ]


def per_row_pair(space, first, second) -> list:
    """The two-map classify rows, each from its own checker call."""
    dom, _, dom_no_finite = contracts.minimal_constant(space, contracts.DOMINATION, first, second)
    sal, _, sal_no_finite = contracts.minimal_constant(space, contracts.SUM_BOUND, first, second)
    rat = contracts.parv_rational_check(space, first, second)
    return [
        {
            "condition": "domination-of-second-by-first",
            "minimal_constant": cli._value_json(dom),
            "no_finite_constant": dom_no_finite,
            "range_included": second.image_set <= first.image_set,
        },
        {
            "condition": "sum-bound",
            "minimal_constant": cli._value_json(sal),
            "no_finite_constant": sal_no_finite,
            "both_constant": first.is_constant and second.is_constant,
        },
        {
            "condition": "weakly-commutative",
            "holds": contracts.weakly_commutative(space, first, second).holds,
        },
        {"condition": "compatible", "holds": contracts.compatible(space, first, second).holds},
        {
            "condition": "rational-two-map",
            "holds_on_defined_pairs": rat.holds,
            "undefined_pairs": len(rat.undefined_pairs),
        },
    ]


@pytest.mark.parametrize("space", SPACES + LARGER, ids=lambda space: space.describe())
def test_one_map_rows_read_together_are_each_row_alone(space):
    for f in enumerate_selfmaps(space.image):
        assert_rows_match(space, ONE_MAP, f)
        assert_rows_match(space, CLASSIFY_ONE, f)
        want = tuple(contracts.minimal_constant(space, c, f) for c in CLASSIFY_ONE)
        assert contracts.classify(space, f) == want
        assert cli._classify_finite_single(space, f) == per_row_single(space, f)


@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.describe())
def test_two_map_rows_read_together_are_each_row_alone(space):
    for g, h in enumerate_map_pairs(space.image):
        assert_rows_match(space, TWO_MAP, g, h)
        want = (
            contracts.minimal_constant(space, contracts.DOMINATION, g, h),
            contracts.minimal_constant(space, contracts.SUM_BOUND, g, h),
            contracts.parv_rational_check(space, g, h),
        )
        assert contracts.classify(space, g, h) == want
        assert cli._classify_finite_pair(space, g, h) == per_row_pair(space, g, h)


def test_rows_of_both_kinds_read_together():
    # A symmetric row beside an across row reads only its own pairs.
    space = SPACES[-2]  # the 3-point interval under shortest path
    for g, h in enumerate_map_pairs(space.image):
        assert_rows_match(space, (contracts.RATIONAL, contracts.DOMINATION), g, h)
