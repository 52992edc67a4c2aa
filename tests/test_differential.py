"""Every public checker against a definition-level reference.

The references below quantify over ordered pairs with plain loops over
the public ``space.distance`` and decide each comparison with
``exact.compare`` under the space's tolerance.  Minimal constants follow
the documented selection rule: the first pair reaching the largest
ratio, decided by ``exact.compare`` in the exact regimes and by plain
``>`` on mpf values in the general l_p regime, with an int/int ratio
kept as a Fraction.

Inputs: every self-map of every image of small_connected_images(4),
with each map paired with itself and with its mirror in enumeration
order for the two-map conditions; every pair of the 27 self-maps of
[0,2]_Z for the two-map conditions, every one of the 256 self-maps of the 2x2 c_1 grid for the
single-map conditions, under l_1, l_2, shortest path and l_3.  Those
spaces have at most 4 levels, so a minimal constant weighs almost every
key there; the 3x3 grid under c_1 and c_2 and the 9-point interval,
under the same four metrics, have up to 12 and take seeded random maps
and pairs, with constant maps (every lhs 0, so the keys tie at 0) and
pairs with a constant dominating or bounding map (no finite constant).
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from digitop.contracts import (
    check_banach,
    check_ciric5,
    check_kannan,
    check_pair_domination,
    check_quasi,
    check_saluja,
    compatible,
    lipschitz_min,
    parv_rational_check,
    weakly_commutative,
)
from digitop import exact
from digitop.fixpoint import banach_verify
from digitop.mapkit import SelfMap, enumerate_selfmaps
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.search import enumerate_map_pairs, small_connected_images
from digitop.space import C1, C2, DigitalImage, digital_interval

METRICS = (L1, L2, SHORTEST_PATH, Lp(3))
HALF = Fraction(1, 2)
COEFFICIENTS = (Fraction(0), Fraction(3, 4))
KANNAN = ((Fraction(0), Fraction(0)), (Fraction(1, 8), Fraction(1, 4)), (Fraction(3, 8), Fraction(0)))


def distances(space):
    """space.distance, asked once per ordered pair of points."""
    seen = {}

    def d(x, y):
        if (x, y) not in seen:
            seen[x, y] = space.distance(x, y)
        return seen[x, y]

    return d


@lru_cache(maxsize=None)
def compare(a, b, tol=None) -> int:
    """exact.compare, asked once per operand pair: distance values repeat."""
    return exact.compare(a, b, tol)


def larger(a, b, tol) -> bool:
    return a > b if tol is not None else compare(a, b) > 0


def biggest(values, tol):
    best = values[0]
    for v in values[1:]:
        if larger(v, best, tol):
            best = v
    return best


def ratio(lhs, base):
    if isinstance(lhs, int) and isinstance(base, int):
        return Fraction(lhs, base)
    return lhs / base


def violation(space, rows, coeff):
    """First pair of the rows (pair, lhs, base) with lhs > coeff * base."""
    tol = space.comparison_tolerance
    return next((pair for pair, lhs, base in rows if compare(lhs, base * coeff, tol) > 0), None)


def reference(space, rows, coeff):
    """Verdict and minimal constant of lhs <= coeff * base over the rows,
    in pair order."""
    tol = space.comparison_tolerance
    worst = best = None
    no_finite = False
    for pair, lhs, base in rows:
        if compare(0, base, tol) < 0:
            r = ratio(lhs, base)
            if best is None or larger(r, best, tol):
                best, worst = r, pair
        elif compare(0, lhs, tol) < 0:
            no_finite = True
    constant = None if no_finite else (Fraction(0) if best is None else best)
    return violation(space, rows, coeff), constant, no_finite, worst


def ordered_pairs(space):
    return [(x, y) for x in space.points for y in space.points]


def banach_rows(space, d, f):
    return [((x, y), d(f(x), f(y)), d(x, y)) for x, y in ordered_pairs(space)]


def max_term_rows(space, d, t, five):
    tol = space.comparison_tolerance
    rows = []
    for x, y in ordered_pairs(space):
        terms = [d(x, y), d(x, t(x)), d(y, t(y))]
        if five:
            terms += [d(x, t(y)), d(t(x), y)]
        rows.append(((x, y), d(t(x), t(y)), biggest(terms, tol)))
    return rows


def same_value(a, b) -> bool:
    return type(a) is type(b) and a == b


def assert_matches(report, expected):
    witness, constant, no_finite, _ = expected
    assert report.holds == (witness is None)
    assert report.witness == witness
    assert same_value(report.minimal_constant, constant), (report.minimal_constant, constant)
    assert report.no_finite_constant == no_finite


def spaces(img):
    return [DigitalMetricSpace(img, metric) for metric in METRICS]


def assert_single_map_checkers(space, d, f):
    tol = space.comparison_tolerance
    rows = banach_rows(space, d, f)
    ref = reference(space, rows, HALF)
    assert_matches(check_banach(space, f, HALF), ref)
    assert same_value(lipschitz_min(space, f), ref[1])

    hypothesis = banach_verify(space, f).hypothesis
    holds = compare(ref[1], 1, tol) < 0
    assert hypothesis.holds == holds
    assert hypothesis.witness == (None if holds else ref[3])
    assert same_value(hypothesis.minimal_constant, ref[1])

    for checker, five in ((check_quasi, False), (check_ciric5, True)):
        rows_t = max_term_rows(space, d, f, five)
        assert_matches(checker(space, f, HALF), reference(space, rows_t, HALF))
        for r in COEFFICIENTS:
            fast = checker(space, f, r, minimal=False)
            assert fast.witness == violation(space, rows_t, r)
            assert fast.minimal_constant is None

    for a, b in KANNAN:
        expected = None
        for x, y in ordered_pairs(space):
            tx, ty = f(x), f(y)
            rhs = (d(x, tx) + d(y, ty)) * a + (d(x, ty) + d(tx, y)) * b
            if compare(d(tx, ty), rhs, tol) > 0:
                expected = (x, y)
                break
        rep = check_kannan(space, f, a, b)
        assert (rep.holds, rep.witness, rep.minimal_constant) == (expected is None, expected, None)


@pytest.mark.parametrize("space", spaces(DigitalImage([(0, 0), (0, 1), (1, 0), (1, 1)], C1)), ids=str)
def test_single_map_checkers_match_the_reference(space):
    d = distances(space)
    for f in enumerate_selfmaps(space.image):
        assert_single_map_checkers(space, d, f)


@pytest.mark.parametrize(
    "space", [sp for img in small_connected_images(4) for sp in spaces(img)], ids=str
)
def test_every_checker_matches_the_pair_scan_on_every_small_map(space):
    """Each report reads the map's distinct level keys, each with its first
    pair, not every pair: it must still name the least failing pair and
    the first pair reaching the minimal constant."""
    d = distances(space)
    maps = list(enumerate_selfmaps(space.image))
    for f in maps:
        assert_single_map_checkers(space, d, f)
    for g, h in zip(maps, maps[::-1]):
        assert_map_pair_checkers(space, d, g, h)
        assert_map_pair_checkers(space, d, g, g)


def assert_map_pair_checkers(space, d, g, h):
    tol = space.comparison_tolerance
    pts = space.points
    pairs = ordered_pairs(space)
    rows = [((x, y), d(h(x), h(y)), d(g(x), g(y))) for x, y in pairs]
    dom = check_pair_domination(space, g, h, HALF)
    assert_matches(dom.condition, reference(space, rows, HALF))
    assert dom.range_included == (set(h.values) <= set(g.values))
    for rho in COEFFICIENTS:
        fast = check_pair_domination(space, g, h, rho, minimal=False).condition
        assert fast.witness == violation(space, rows, rho)
        assert (fast.minimal_constant, fast.no_finite_constant) == (None, False)

    rows = [((x, y), d(g(x), g(y)) + d(h(x), h(y)), d(h(x), h(y))) for x, y in pairs]
    sal = check_saluja(space, g, h, HALF)
    assert_matches(sal.condition, reference(space, rows, HALF))
    assert sal.first_constant == (len(set(g.values)) == 1)
    assert sal.second_constant == (len(set(h.values)) == 1)
    fast = check_saluja(space, g, h, HALF, minimal=False).condition
    assert fast.witness == violation(space, rows, HALF)

    t, s = g, h
    undefined, witness = [], None
    for x, y in pairs:
        denom = d(x, s(y)) + d(y, t(x))
        if compare(0, denom, tol) >= 0:
            undefined.append((x, y))
            continue
        numer = d(x, t(x)) * d(x, s(y)) + d(y, s(y)) * d(y, t(x))
        if witness is None and compare(d(t(x), s(y)) * denom, numer, tol) > 0:
            witness = (x, y)
    rat = parv_rational_check(space, t, s)
    assert (rat.holds, rat.witness) == (witness is None, witness)
    assert rat.undefined_pairs == tuple(undefined)
    assert (rat.minimal_constant, rat.no_finite_constant) == (None, False)

    weak = next(
        ((x,) for x in pts if compare(d(s(t(x)), t(s(x))), d(s(x), t(x)), tol) > 0), None
    )
    rep = weakly_commutative(space, s, t)
    assert (rep.holds, rep.witness) == (weak is None, weak)

    clash = next(((x,) for x in pts if s(x) == t(x) and s(t(x)) != t(s(x))), None)
    rep = compatible(space, s, t)
    assert (rep.holds, rep.witness) == (clash is None, clash)


@pytest.mark.parametrize("space", spaces(digital_interval(0, 2)), ids=str)
def test_two_map_checkers_match_the_reference(space):
    d = distances(space)
    for g, h in enumerate_map_pairs(space.image):
        assert_map_pair_checkers(space, d, g, h)


GRID3 = [(i, j) for i in range(3) for j in range(3)]
MANY_LEVELS = [
    space
    for img in (DigitalImage(GRID3, C1), DigitalImage(GRID3, C2), digital_interval(0, 8))
    for space in spaces(img)
]


def seeded_maps(space, count, seed):
    """count random self-maps of the space, then its constant maps."""
    rng, pts = random.Random(seed), space.points
    drawn = [SelfMap(space.image, tuple(rng.choice(pts) for _ in pts)) for _ in range(count)]
    return drawn + [SelfMap.constant(space.image, p) for p in pts[:: len(pts) // 2]]


@pytest.mark.parametrize("space", MANY_LEVELS, ids=str)
def test_single_map_checkers_match_the_reference_on_many_levels(space):
    d = distances(space)
    for f in seeded_maps(space, 24, 17):
        assert_single_map_checkers(space, d, f)


@pytest.mark.parametrize("space", MANY_LEVELS, ids=str)
def test_two_map_checkers_match_the_reference_on_many_levels(space):
    d = distances(space)
    maps = seeded_maps(space, 8, 29)
    rng = random.Random(41)
    drawn = [tuple(rng.sample(maps, 2)) for _ in range(24)]
    # A constant first map faces a moving second one: domination and the
    # sum bound then have no finite constant.
    edge = [(maps[-1], maps[0]), (maps[0], maps[-1]), (maps[-2], maps[-1])]
    for g, h in drawn + edge:
        assert_map_pair_checkers(space, d, g, h)
    assert check_pair_domination(space, *edge[0], HALF).condition.no_finite_constant
    assert check_saluja(space, *edge[1], HALF).condition.no_finite_constant
