"""The level verdicts and the descent estimate against Fraction scaling.

Exact regimes decide lhs <= c * base as den(c) * lhs <= num(c) * base, and
Kannan's bound and the descent estimate with all denominators cleared.
Each is compared here with the direct form, the coefficient a Fraction
multiplying the distance, on every level key of each space; the tolerance
regimes (l_3, l_{3/2}) keep the mpf scaling, compared with it as written
below.  Kannan's bound decided on one key for a whole grid of (a, b), as
the suite's sweep asks for it, is compared with the bound tuple by tuple,
and the one-coefficient bound for a whole grid, as a search asks for it,
value by value.
"""

import itertools
from fractions import Fraction

import mpmath
import pytest

from digitop import contracts, fixpoint, search
from digitop.contracts import ConditionReport, _bound, _kannan
from digitop.exact import compare
from digitop.mapkit import EVENTUALLY_CONSTANT, enumerate_selfmaps, fixed_points
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.space import C1, C2, DigitalImage, digital_interval

GRID3 = DigitalImage([(i, j) for i in range(3) for j in range(3)], C1)
SPACES = [
    DigitalMetricSpace(digital_interval(0, 4), metric) for metric in (L1, L2, SHORTEST_PATH)
] + [
    DigitalMetricSpace(GRID3, L1),
    DigitalMetricSpace(GRID3, L2),
    DigitalMetricSpace(GRID3, SHORTEST_PATH),
    DigitalMetricSpace(DigitalImage(GRID3.points, C2), SHORTEST_PATH),
    DigitalMetricSpace(GRID3, Lp(3)),
    DigitalMetricSpace(GRID3, Lp(Fraction(3, 2))),
]
COEFFICIENTS = tuple(Fraction(c) for c in ("0", "1/8", "1/3", "49/100", "9/20", "3/4"))
# The pairs check_kannan admits, a + b < 1/2.
KANNAN_PAIRS = [(a, b) for a in COEFFICIENTS for b in COEFFICIENTS if a + b < Fraction(1, 2)]


def scaled(space, coeff: Fraction, value):
    """coeff * value: a Fraction product, or the tolerance regime's mpf."""
    if space.comparison_tolerance is None:
        return coeff * value
    return mpmath.mpf(coeff.numerator) * value / coeff.denominator


def at_most(space, lhs, rhs) -> bool:
    return compare(lhs, rhs, space.comparison_tolerance) <= 0


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_bound_verdicts_match_fraction_scaling(space):
    levels, tol = space.levels, space.comparison_tolerance
    ranks = range(len(levels))
    # (lhs level, base level), and Saluja's (pair of lhs levels, base level).
    keys = list(itertools.product(ranks, ranks))
    keys += [((j, k), b) for j, k, b in itertools.product(ranks, ranks, ranks)]
    for coeff, (lhs, base) in itertools.product(COEFFICIENTS, keys):
        value = levels[lhs] if isinstance(lhs, int) else levels[lhs[0]] + levels[lhs[1]]
        expected = at_most(space, value, scaled(space, coeff, levels[base]))
        assert _bound(tol, levels, (lhs, base), (coeff,)) == expected, (coeff, lhs, base)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_bound_grid_verdicts_match_each_value(space):
    """A key decided for a whole grid at once, as a search asks for it:
    bit c of its mask is the verdict under grid[c] alone, in any order and
    with a value repeated."""
    levels, tol = space.levels, space.comparison_tolerance
    ranks = range(len(levels))
    grid = COEFFICIENTS[::-1] + COEFFICIENTS[2:4]
    for key in itertools.product(ranks, ranks):
        mask = _bound(tol, levels, key, grid)
        assert [mask >> c & 1 for c in range(len(grid))] == [
            _bound(tol, levels, key, (coeff,)) for coeff in grid
        ], key
        assert mask >> len(grid) == 0


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_kannan_verdicts_match_fraction_scaling(space):
    levels, tol = space.levels, space.comparison_tolerance
    ranks = range(len(levels))
    ascending = list(itertools.combinations_with_replacement(ranks, 2))
    # coeff * (d + d') by coefficient and ascending pair of levels.
    term = {
        (c, pair): scaled(space, c, levels[pair[0]] + levels[pair[1]])
        for c in COEFFICIENTS
        for pair in ascending
    }
    for (a, b), xy, uw in itertools.product(KANNAN_PAIRS, ascending, ascending):
        rhs = term[a, xy] + term[b, uw]
        for lhs in ranks:
            expected = at_most(space, levels[lhs], rhs)
            assert _kannan(tol, levels, (lhs, *xy, *uw), ((a, b),)) == expected, (a, b, lhs)


GRID_IMAGES = [digital_interval(0, 4), GRID3, DigitalImage(GRID3.points, C2)]
GRID_METRICS = [L1, L2, SHORTEST_PATH, Lp(3), Lp(Fraction(3, 2))]
GRIDS = {
    "suite": search._KANNAN_GRID,
    # Out of order, with a repeat: both copies of a tuple get the same bit.
    "shuffled": tuple(
        (Fraction(a), Fraction(b))
        for a, b in (("1/4", "1/8"), ("0", "49/100"), ("1/8", "1/8"), ("9/20", "0"), ("1/8", "1/8"))
    ),
}


def kannan_keys(space) -> list:
    """Every Kannan key of the space: the keys of all (x, y, Tx, Ty), with
    Ty = Tx when y = x, in the order of the levels."""
    n, keys = len(space), set()
    for i, j, ti, tj in itertools.product(range(len(space)), repeat=4):
        if i != j or ti == tj:
            values = [0] * n
            values[i], values[j] = ti, tj
            keys.add(contracts._kannan_terms(space.rank, values, i, j))
    return sorted(keys)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize(
    "img, metric",
    list(itertools.product(GRID_IMAGES, GRID_METRICS)),
    ids=[str(DigitalMetricSpace(i, m)) for i, m in itertools.product(GRID_IMAGES, GRID_METRICS)],
)
def test_grid_verdicts_match_the_bound_under_each_tuple(img, metric, grid):
    """Every Kannan key of the space, decided for the whole grid at once
    through the space's memo: bit c of its mask is the direct scaling
    under grid[c], and the verdict check_kannan's one-tuple grid gives."""
    space = DigitalMetricSpace(img, metric)  # fresh: no memo from elsewhere
    levels, tol = space.levels, space.comparison_tolerance
    masks = contracts.verdicts(space, contracts.KANNAN, grid)
    for key in kannan_keys(space):
        lhs, x, y, u, w = (levels[k] for k in key)
        rhs = [scaled(space, a, x + y) + scaled(space, b, u + w) for a, b in grid]
        direct = [at_most(space, lhs, r) for r in rhs]
        mask = masks[key]
        assert [mask >> c & 1 for c in range(len(grid))] == direct, key
        assert [_kannan(tol, levels, key, (ab,)) for ab in grid] == direct, key
        assert mask >> len(grid) == 0


def test_the_descent_constant_matches_fraction_arithmetic():
    for a, b in KANNAN_PAIRS:
        assert fixpoint.kannan_descent_constant(a, b) == (a + b) / (1 - (a + b))


def reference_detail(space, f, big_a: Fraction) -> str:
    """_confirm's detail with the estimate d(x_n, x_{n+1}) <= A^n * d(x_0, x_1)
    scaled directly; "" when every orbit settles and descends."""
    (p,) = fixed_points(f)
    d = space.distance
    for rep in f.picard_orbits[0]:
        pts = rep.points
        if rep.kind != EVENTUALLY_CONSTANT or rep.value != p:
            return f"orbit from {rep.start[0]} does not settle at {p[0]}"
        for n in range(len(pts) - 2):
            if not at_most(space, d(pts[n], pts[n + 1]), scaled(space, big_a**n, d(*pts[:2]))):
                return f"descent estimate fails at step {n} from {rep.start[0]}"
    return ""


@pytest.mark.parametrize("metric", [L1, L2, Lp(3), Lp(Fraction(3, 2))], ids=str)
def test_the_descent_estimate_matches_fraction_scaling(metric, monkeypatch):
    """Every map with one fixed point on a 4-point interval, its hypothesis
    claimed, so that the estimate decides the conclusion wherever the
    orbits settle."""
    monkeypatch.setattr(fixpoint, "check_kannan", lambda *args: ConditionReport(holds=True))
    space = DigitalMetricSpace(digital_interval(0, 3), metric)
    outcomes = set()
    for f in enumerate_selfmaps(space.image):
        if len(fixed_points(f)) != 1:
            continue
        for a, b in KANNAN_PAIRS:
            rep = fixpoint.kannan_verify(space, f, a, b)
            detail = reference_detail(space, f, fixpoint.kannan_descent_constant(a, b))
            assert (rep.conclusion, rep.detail) == (
                (fixpoint.REFUTES, detail) if detail else (fixpoint.CONFIRMS, "")
            ), (str(f), a, b)
            outcomes.add(detail.split(" ")[0])
    assert outcomes == {"", "orbit", "descent"}


def test_check_kannan_admits_exactly_the_open_triangle():
    sp = DigitalMetricSpace(digital_interval(0, 1), L1)
    f = next(enumerate_selfmaps(sp.image))  # constant: every admitted pair holds
    on_the_edge = [(Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 6))]
    on_the_edge += [(Fraction(49, 100), Fraction(1, 100)), (0, Fraction(1, 2)), (1, 0)]
    for a, b in on_the_edge:
        with pytest.raises(ValueError, match="a \\+ b < 1/2"):
            contracts.check_kannan(sp, f, a, b)
    with pytest.raises(ValueError, match="nonnegative"):
        contracts.check_kannan(sp, f, Fraction(-1, 8), Fraction(1, 8))
    for a, b in KANNAN_PAIRS + [(Fraction(49, 100), Fraction(1, 101)), ("1/3", 0)]:
        assert contracts.check_kannan(sp, f, a, b).holds
