"""Each space evaluates its l_p norm once per coordinate-gap vector.

The distance matrix and ``distance`` both read one memo of norms keyed by
the gap vector (|x_i - y_i| in coordinate order).  These tests pin that
every value it gives is the value, type and, for an mpf, the exact bits
of the l_p formula applied pair by pair, and count the evaluations.
"""

import itertools
from collections import Counter

import mpmath
import pytest

from digitop import metric
from digitop.exact import sqrt_exact
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.search import small_connected_images
from digitop.space import C1, C2, DigitalImage

GRID3 = [(i, j) for i in range(3) for j in range(3)]
CUBE = list(itertools.product(range(2), repeat=3))
NEGATIVE = [(-2, -1), (-1, -1), (-1, 0), (0, 0), (1, 0), (1, 1)]
IMAGES = (
    list(small_connected_images(5))
    + [DigitalImage(GRID3, adj) for adj in (C1, C2)]
    + [DigitalImage(CUBE, C1), DigitalImage(NEGATIVE, C1)]
)
METRICS = (L1, L2, Lp(3), Lp(4), Lp("3/2"), SHORTEST_PATH)
# Under l3 the gap 10**50 cubed passes the 40-digit working precision.
BEYOND_PRECISION = DigitalMetricSpace(DigitalImage([(0,), (10**50,)], C1), Lp(3))
SPACES = [DigitalMetricSpace(img, m) for img in IMAGES for m in METRICS] + [BEYOND_PRECISION]


def pairwise_distance(space, x, y):
    """The l_p formula pair by pair, and hop counts for shortest path."""
    if space.metric == SHORTEST_PATH:
        return space.image.hops(space.image.index[x])[space.image.index[y]]
    p = space.metric.p
    if p == 1:
        return sum(abs(a - b) for a, b in zip(x, y))
    if p == 2:
        return sqrt_exact(sum((a - b) ** 2 for a, b in zip(x, y)))
    with mpmath.workdps(40):
        exponent = mpmath.mpf(p.numerator) / p.denominator
        total = mpmath.fsum(
            mpmath.power(abs(a - b), exponent) for a, b in zip(x, y)
        )
        return mpmath.power(total, 1 / exponent)


def assert_identical(got, want):
    assert type(got) is type(want)
    assert got == want
    if isinstance(want, mpmath.mpf):
        assert got._mpf_ == want._mpf_


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_every_value_is_the_pairwise_formula(space):
    fresh = DigitalMetricSpace(space.image, space.metric)
    pts = fresh.points
    for (i, x), (j, y) in itertools.product(enumerate(pts), repeat=2):
        want = pairwise_distance(fresh, x, y)
        assert_identical(fresh.index_distance(i, j), want)
        assert_identical(fresh.distance(x, y), want)
        assert_identical(fresh.distance(list(x), list(y)), want)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_distance_before_the_matrix_gives_the_same_values(space):
    fresh = DigitalMetricSpace(space.image, space.metric)
    pts = fresh.points
    asked = {(x, y): fresh.distance(x, y) for x in pts for y in pts}
    for (i, x), (j, y) in itertools.product(enumerate(pts), repeat=2):
        assert_identical(asked[x, y], pairwise_distance(fresh, x, y))
        assert fresh.index_distance(i, j) is asked[x, y]


@pytest.mark.parametrize("space", [s for s in SPACES if s.metric != SHORTEST_PATH], ids=repr)
def test_each_gap_vector_is_evaluated_once(space, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(metric, "sqrt_exact", counting("sqrt_exact", sqrt_exact))
    monkeypatch.setattr(mpmath, "power", counting("power", mpmath.power))
    fresh = DigitalMetricSpace(space.image, space.metric)
    pts = fresh.points
    gaps = {tuple(abs(a - b) for a, b in zip(x, y)) for x in pts for y in pts}
    fresh.index_distance(0, 0)
    for x, y in itertools.product(pts, repeat=2):
        fresh.distance(x, y)
    metric.hausdorff(fresh, pts[:1], pts)
    p = fresh.metric.p
    if p == 1:
        assert calls == Counter()
    elif p == 2:
        assert calls == Counter(sqrt_exact=len(gaps))
    else:
        # An integer p sums a gap vector's powers in ints and takes one
        # power for the root, while the sum fits the working precision;
        # otherwise one power per coordinate and one for the root.
        with mpmath.workdps(40):
            prec = mpmath.mp.prec

        def powers(g):
            if p.denominator == 1 and sum(c**p.numerator for c in g).bit_length() <= prec:
                return 1
            return fresh.image.dimension + 1

        assert calls == Counter(power=sum(map(powers, gaps)))
        if p.denominator > 1:
            assert calls == Counter(power=len(gaps) * (fresh.image.dimension + 1))
