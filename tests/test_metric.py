"""Metrics on digital images.

Metric axioms are checked exhaustively on every space up to six points
drawn from a fixed pool; distance oracles are worked by hand (or with
a float cross-check where the regime is inexact anyway).
"""

import itertools
import tracemalloc
from fractions import Fraction
from functools import cmp_to_key

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitop.exact import RadicalSum, compare, sqrt_exact
from digitop.metric import (
    L1,
    L2,
    LP_FLOAT_TOLERANCE,
    SHORTEST_PATH,
    DigitalMetricSpace,
    Lp,
    ShortestPath,
    discreteness_certificate,
    hausdorff,
)
from digitop.search import small_connected_images
from digitop.space import C1, C2, DigitalImage, digital_interval


def interval_space(a, b, metric=L1):
    return DigitalMetricSpace(digital_interval(a, b), metric)


# -- metric specs ----------------------------------------------------


def test_lp_validation_and_str():
    assert str(L1) == "l1"
    assert str(L2) == "l2"
    assert str(Lp(Fraction(3, 2))) == "l3/2"
    assert str(SHORTEST_PATH) == "shortest_path"
    with pytest.raises(ValueError):
        Lp(Fraction(1, 2))


def test_space_construction_guards():
    with pytest.raises(TypeError):
        DigitalMetricSpace(digital_interval(0, 1), "l1")
    # shortest-path needs connectivity
    gap = DigitalImage([0, 2])
    with pytest.raises(ValueError):
        DigitalMetricSpace(gap, SHORTEST_PATH)
    assert DigitalMetricSpace(gap, L1).distance(0, 2) == 2


def test_describe():
    assert (
        interval_space(0, 2).describe() == "3 point(s) in Z^1 with c1, metric l1"
    )


def test_comparison_tolerance_regimes():
    img = digital_interval(0, 1)
    assert DigitalMetricSpace(img, L1).comparison_tolerance is None
    assert DigitalMetricSpace(img, L2).comparison_tolerance is None
    assert DigitalMetricSpace(img, SHORTEST_PATH).comparison_tolerance is None
    assert (
        DigitalMetricSpace(img, Lp(3)).comparison_tolerance == LP_FLOAT_TOLERANCE
    )


# -- distance values -------------------------------------------------


def test_l1_is_integer():
    sp = DigitalMetricSpace(DigitalImage([(0, 0), (2, 3)]), L1)
    d = sp.distance((0, 0), (2, 3))
    assert d == 5 and isinstance(d, int)


def test_l2_is_exact_radical():
    sp = DigitalMetricSpace(DigitalImage([(0, 0), (1, 1), (3, 4)]), L2)
    assert sp.distance((0, 0), (1, 1)) == sqrt_exact(2)
    assert isinstance(sp.distance((0, 0), (1, 1)), RadicalSum)
    d = sp.distance((0, 0), (3, 4))
    assert d == 5 and isinstance(d, int)  # 3-4-5 triangle collapses to int


def test_shortest_path_counts_hops():
    # an L-shaped c1 tromino: corner to tip is 2 hops though l1 says 2 as well;
    # remove the corner's shortcut by using the diagonal under c2
    sp = DigitalMetricSpace(
        DigitalImage([(0, 0), (0, 1), (1, 1)], C1), SHORTEST_PATH
    )
    assert sp.distance((0, 0), (1, 1)) == 2
    sp8 = DigitalMetricSpace(
        DigitalImage([(0, 0), (0, 1), (1, 1)], C2), SHORTEST_PATH
    )
    assert sp8.distance((0, 0), (1, 1)) == 1


def test_shortest_path_on_interval_equals_l1():
    sp = interval_space(-3, 3, SHORTEST_PATH)
    for x in sp.points:
        for y in sp.points:
            assert sp.distance(x, y) == abs(x[0] - y[0])


def test_general_lp_matches_float_formula():
    sp = DigitalMetricSpace(DigitalImage([(0, 0), (1, 2)]), Lp(3))
    d = sp.distance((0, 0), (1, 2))
    assert abs(float(d) - (1 + 2**3) ** (1 / 3)) < 1e-12


def test_large_integer_exponent_builds_no_power_in_ints():
    # 2 ** (10**8) has 10**8 + 1 bits, far past the 40-digit working
    # precision: the norm goes to fsum without building that int.
    sp = DigitalMetricSpace(DigitalImage([(0,), (2,)]), Lp(10**8))
    tracemalloc.start()
    try:
        d = sp.distance((0,), (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with mpmath.workdps(40):
        exponent = mpmath.mpf(10**8)
        want = mpmath.power(mpmath.fsum([mpmath.power(2, exponent)]), 1 / exponent)
    assert d._mpf_ == want._mpf_
    assert peak < 2**20


def test_distance_rejects_outside_points():
    sp = interval_space(0, 2)
    with pytest.raises(ValueError):
        sp.distance(0, 9)


# -- metric axioms, exhaustively on small spaces ---------------------

AXIOM_POOL_1D = [(-2,), (0,), (1,), (3,)]
AXIOM_POOL_2D = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]


def _axiom_spaces():
    for pool, adjacencies in ((AXIOM_POOL_1D, (C1,)), (AXIOM_POOL_2D, (C1, C2))):
        for size in range(1, min(len(pool), 4) + 1):
            for chosen in itertools.combinations(pool, size):
                for adj in adjacencies:
                    img = DigitalImage(chosen, adj)
                    for metric in (L1, L2, Lp(3), SHORTEST_PATH):
                        if isinstance(metric, ShortestPath):
                            try:
                                yield DigitalMetricSpace(img, metric)
                            except ValueError:
                                continue  # disconnected: metric undefined
                        else:
                            yield DigitalMetricSpace(img, metric)


def test_metric_axioms_exhaustive():
    checked = 0
    for sp in _axiom_spaces():
        tol = sp.comparison_tolerance
        pts = sp.points
        for x in pts:
            assert sp.distance(x, x) == 0
            for y in pts:
                dxy = sp.distance(x, y)
                if x != y:
                    assert compare(dxy, 0, tol) > 0, (sp.describe(), x, y)
                assert compare(dxy, sp.distance(y, x), tol) == 0
                for z in pts:
                    lhs = sp.distance(x, z)
                    rhs = dxy + sp.distance(y, z)
                    assert compare(lhs, rhs, tol) <= 0, (sp.describe(), x, y, z)
        checked += 1
    assert checked > 100  # the sweep actually covered something


# -- uniform discreteness --------------------------------------------


def test_discreteness_certificates():
    assert discreteness_certificate(interval_space(0, 5)).epsilon == 1
    assert discreteness_certificate(interval_space(4, 4)).epsilon == 1
    diag = DigitalMetricSpace(DigitalImage([(0, 0), (1, 1), (2, 2)], C2), L2)
    assert discreteness_certificate(diag).epsilon == sqrt_exact(2)
    cube = DigitalMetricSpace(DigitalImage([(0, 0), (1, 1)], C2), Lp(3))
    eps = discreteness_certificate(cube).epsilon
    assert abs(float(eps) - 2 ** (1 / 3)) < 1e-12


@given(st.sets(st.integers(-10, 10), min_size=2, max_size=6))
def test_certificate_is_a_true_lower_bound(xs):
    sp = DigitalMetricSpace(DigitalImage(sorted(xs)), L1)
    eps = discreteness_certificate(sp).epsilon
    assert eps >= 1  # integer points on the line are at least 1 apart
    for x, y in itertools.combinations(sp.points, 2):
        assert sp.distance(x, y) >= eps


# -- level order -----------------------------------------------------


@pytest.mark.parametrize("metric", [L1, L2, SHORTEST_PATH], ids=str)
def test_levels_follow_compare(metric):
    # plain sorted() on exact values is the order exact.compare decides
    for image in small_connected_images(5):
        space = DigitalMetricSpace(image, metric)
        values = {space.distance(x, y) for x in space.points for y in space.points}
        assert space.levels == tuple(sorted(values, key=cmp_to_key(compare)))


# -- hausdorff distance ----------------------------------------------


def test_hausdorff_oracle_on_interval():
    sp = interval_space(0, 3)
    # A = {0, 3}, B = {1}: directed A->B = max(1, 2) = 2; B->A = 1
    assert hausdorff(sp, [0, 3], [1]) == 2
    assert hausdorff(sp, [1], [0, 3]) == 2  # symmetric
    assert hausdorff(sp, [0, 1, 2, 3], [0, 1, 2, 3]) == 0


def test_hausdorff_l2_oracle():
    sp = DigitalMetricSpace(DigitalImage([(0, 0), (1, 1), (2, 0)], C2), L2)
    # {(0,0)} vs {(1,1),(2,0)}: forward min = sqrt2, backward max(sqrt2, 2) = 2
    assert hausdorff(sp, [(0, 0)], [(1, 1), (2, 0)]) == 2


def test_hausdorff_validation():
    sp = interval_space(0, 3)
    with pytest.raises(ValueError):
        hausdorff(sp, [], [0])
    with pytest.raises(ValueError):
        hausdorff(sp, [0], [9])


@pytest.mark.parametrize("metric", (L1, L2, Lp(3)), ids=str)
def test_hausdorff_reads_only_the_pairs_it_asks(metric, monkeypatch):
    """Validated once, each pair read without distance's checks, and
    under l_p no distance matrix built: a small question on a large
    image stays small."""
    img = DigitalImage([(i, j) for i in range(30) for j in range(30)])
    expected = DigitalMetricSpace(img, metric).distance((0, 0), (29, 29))
    sp = DigitalMetricSpace(img, metric)
    calls = []
    monkeypatch.setattr(DigitalMetricSpace, "distance", lambda *args: calls.append(args))
    assert hausdorff(sp, [(0, 0), (3, 4)], [(29, 29)]) == expected
    assert calls == [] and "_matrix" not in vars(sp)


def brute_hausdorff(sp, a, b):
    directed = lambda src, dst: max(
        min(sp.distance(x, y) for y in dst) for x in src
    )
    return max(directed(a, b), directed(b, a))


@given(
    st.sets(st.integers(0, 6), min_size=1, max_size=4),
    st.sets(st.integers(0, 6), min_size=1, max_size=4),
)
def test_hausdorff_matches_brute_force(a, b):
    sp = interval_space(0, 6)
    expected = brute_hausdorff(sp, [(x,) for x in a], [(y,) for y in b])
    assert hausdorff(sp, [(x,) for x in a], [(y,) for y in b]) == expected


def test_hausdorff_zero_iff_equal_sets():
    sp = interval_space(0, 4)
    assert hausdorff(sp, [1, 2], [2, 1]) == 0
    assert hausdorff(sp, [1, 2], [1, 2, 3]) == 1
