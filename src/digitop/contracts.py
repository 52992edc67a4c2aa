"""Evaluators for the contractive-type conditions studied here.

Every check quantifies over ordered pairs (x, y), diagonal included,
and reports the lexicographically least violation.  Each pairwise
condition is one row, a Condition: terms gives a pair's level key on a
table of value positions, and rule decides a key under every
coefficient of a grid, in the space's memo (verdicts).  A check asks one
or both of two questions of a map, and both read one table, _keys: the
map's distinct level keys, each with its first pair.  _witness finds the
least failing pair, the first pair of the first failing key, and
minimal_constant the least constant that would make the condition hold,
with the first pair reaching it.  Checks run on canonical point
positions and the levels of the space's distances, so each map must be
a self-map of the space's own points.  On spaces whose distances are
exact (word metric, taxicab, Euclidean) the verdicts are exact; for
other exponents the space's comparison tolerance applies and reports
carry exact=False.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from typing import Callable, NamedTuple

from .exact import compare, exact_div, scale
from .mapkit import SelfMap
from .metric import DigitalMetricSpace
from .space import Point


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    witness holds the quantified variables at the first failure: a pair
    (x, y) for two-variable conditions, a single point (x,) for
    one-variable ones.  minimal_constant is the least parameter value
    that would make the condition hold, when that is a single-parameter
    question; no_finite_constant marks maps where some pair has zero
    right-hand side against a positive left-hand side, so no constant
    works.  undefined_pairs lists pairs where the condition's expression
    itself is undefined (only the rational two-map form produces these).
    """

    holds: bool
    witness: tuple[Point, ...] | None = None
    minimal_constant: object = None
    no_finite_constant: bool = False
    undefined_pairs: tuple[tuple[Point, Point], ...] = ()
    exact: bool = True

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    @property
    def ill_defined(self) -> bool:
        return bool(self.undefined_pairs)


class PairDominationReport(NamedTuple):
    condition: ConditionReport
    range_included: bool


class ConstancyReport(NamedTuple):
    condition: ConditionReport
    first_constant: bool
    second_constant: bool


def _fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _unit_fraction(value, name: str) -> Fraction:
    q = _fraction(value)
    if not 0 <= q.numerator < q.denominator:  # denominators are positive
        raise ValueError(f"{name} must satisfy 0 <= {name} < 1, got {q}")
    return q


def _positions(space: DigitalMetricSpace, f: SelfMap) -> tuple[int, ...]:
    """f's values as positions in the space's table; f must be a self-map
    of the space's image (its points and adjacency)."""
    if f.domain != space.image:
        raise ValueError("the map's domain is not the space's point set")
    return f.indices


class Condition(NamedTuple):
    """A pairwise condition.  terms(rank, [n,] v, i, j) is the level key
    of the pair of positions (i, j) on a table v of value positions, one
    map's or two maps' (the first's n, then the second's); rule(tol,
    levels, key, grid) decides a key under every coefficient of grid, tol
    being the space's comparison tolerance (None when exact): a mask whose
    bit c is the verdict under grid[c], or, for a rule that reads no
    coefficient, one bool.  An across row's key for (i, j) reads the first
    map at i and the second at j only, and is not symmetric; any other
    row's key is symmetric in (i, j)."""

    terms: Callable
    rule: Callable
    across: bool = False


class _Verdicts(dict):
    """rule(tol, levels, key, grid) by level key, decided on first use."""

    def __init__(self, space: DigitalMetricSpace, rule: Callable, grid: tuple):
        super().__init__()
        self.tol, self.levels = space.comparison_tolerance, space.levels
        self.rule, self.grid = rule, grid

    def __missing__(self, key):
        verdict = self[key] = self.rule(self.tol, self.levels, key, self.grid)
        return verdict


def verdicts(space: DigitalMetricSpace, cond: Condition, grid: tuple) -> _Verdicts:
    """The space's memo of cond's verdicts under grid, by level key, made
    on first use.  The space keeps a list of memos per rule, so the
    conditions that share a rule share them, and a grid is found by
    equality: no coefficient is hashed (a Fraction hashes in Python)."""
    memos = space.verdicts.setdefault(cond.rule, [])
    for memo in memos:
        if memo.grid == grid:
            return memo
    memos.append(memo := _Verdicts(space, cond.rule, grid))
    return memo


def _lhs(levels: tuple, key):
    """The distance of a level, or the sum of a pair of levels' distances."""
    return levels[key] if isinstance(key, int) else levels[key[0]] + levels[key[1]]


def _bound(tol, levels: tuple, key, grid: tuple) -> int:
    """lhs <= coeff * base, keyed by (lhs key, base level), under every
    coeff of grid: bit c of the mask is the verdict under grid[c].  Exact
    regimes scale nothing: the coefficient's denominator is cleared."""
    lhs, base, mask = _lhs(levels, key[0]), levels[key[1]], 0
    if tol is None:
        for c, coeff in enumerate(grid):
            if compare(coeff.denominator * lhs, coeff.numerator * base, tol) <= 0:
                mask |= 1 << c
    else:
        for c, coeff in enumerate(grid):
            if compare(lhs, scale(coeff, base), tol) <= 0:
                mask |= 1 << c
    return mask


def _strictly_below(tol, levels: tuple, key, grid: tuple) -> bool:
    """Banach's k < 1 on a contraction key: d(fx, fy) below d(x, y), or
    x = y.  Levels ascend, so their indices decide it, with no coefficient."""
    return key[0] < key[1] or key[1] == 0


def _kannan(tol, levels: tuple, key, grid: tuple) -> int:
    """Kannan's inequality lhs <= a * (x + y) + b * (u + w) by its five
    levels, each sum's two ascending, under every (a, b) of grid: bit c
    of the mask is the verdict under grid[c].  No coefficient changes the
    three sums, so they are built once for the whole grid."""
    lhs, x, y, u, w = (levels[k] for k in key)
    xy, uw, mask = x + y, u + w, 0
    for c, (a, b) in enumerate(grid):
        if tol is None:
            da, db = a.denominator, b.denominator
            holds = compare(da * db * lhs, a.numerator * db * xy + b.numerator * da * uw, tol) <= 0
        else:
            holds = compare(lhs, scale(a, xy) + scale(b, uw), tol) <= 0
        mask |= holds << c
    return mask


def _rational_bound(tol, levels: tuple, key, grid: tuple) -> bool:
    """The rational bound cross-multiplied, by its five levels
    d(Tx,Sy), d(x,Sy), d(y,Tx), d(x,Tx), d(y,Sy), with no coefficient; it
    holds vacuously where it is undefined, its denominator's two levels
    being 0."""
    if not (key[1] or key[2]):
        return True
    lhs, x_sy, y_tx, x_tx, y_sy = (levels[k] for k in key)
    return compare(lhs * (x_sy + y_tx), x_tx * x_sy + y_sy * y_tx, tol) <= 0


def _witness(space: DigitalMetricSpace, keys: dict, holds) -> tuple[Point, Point] | None:
    """The least pair, in lexicographic order with the diagonal, whose
    level key fails holds[key]: the first pair of the first failing key of
    _keys, since a key's first pair comes before its others.  None when
    every pair holds."""
    for key, (i, j) in keys.items():
        if not holds[key]:
            return space.points[i], space.points[j]
    return None


def _dominates(key, other) -> bool:
    """Whether key's ratio beats other's for certain: every lhs level at
    least other's, over a base level no larger (ratios with positive lhs;
    levels ascend, so a distinct key's ratio is strictly larger)."""
    (lhs, base), (lhs_o, base_o) = key, other
    if isinstance(lhs, int):
        return base <= base_o and lhs >= lhs_o
    return base <= base_o and lhs[0] >= lhs_o[0] and lhs[1] >= lhs_o[1]


def _constant(space: DigitalMetricSpace, keys: dict) -> tuple:
    """(constant, worst, no_finite) of the _keys (lhs key, base level).

    constant is the largest lhs / base over pairs with positive base (0
    when there are none) and worst the first pair reaching it; no_finite
    marks a pair with zero base against a positive lhs, which leaves
    constant None.  Positivity is read from level indices, level 0 being
    the only zero distance.  Only the keys no other key dominates are
    weighed, each once with its first pair; a zero lhs ties at 0, so the
    first key with one stands for them all.
    """
    front, zero, no_finite = [], None, False
    for key in keys:
        if key[0] in (0, (0, 0)):
            if zero is None and key[1]:
                zero = key
        elif not key[1]:
            no_finite = True
        elif not any(_dominates(f, key) for f in front):
            front = [f for f in front if not _dominates(key, f)]
            front.append(key)  # front keeps the keys' first-seen order
    if not front and zero is not None:
        front = [zero]  # every positive base faces a zero lhs: all tie at 0
    levels = space.levels
    best, worst = None, None
    for key in front:
        ratio = exact_div(_lhs(levels, key[0]), levels[key[1]])
        if best is None or ratio > best:
            best, worst = ratio, tuple(space.points[k] for k in keys[key])
    constant = None if no_finite else (Fraction(0) if best is None else best)
    return constant, worst, no_finite


def _report(space: DigitalMetricSpace, witness, constant=None) -> ConditionReport:
    """A pairwise condition's report: its witness and, if sought, its _constant."""
    value, _, no_finite = constant or (None, None, False)
    return ConditionReport(
        holds=witness is None,
        witness=witness,
        minimal_constant=value,
        no_finite_constant=no_finite,
        exact=space.comparison_tolerance is None,
    )


# Level keys by pair of positions (i, j), shared by the checkers and the
# searches: (lhs key, base level), Kannan's five levels with each sum's
# two ascending, or the rational bound's five.  v is a map's table of value
# positions; a two-map table is the first map's n followed by the second's.


def _contraction_terms(rank, v, i, j):
    return rank[v[i]][v[j]], rank[i][j]


def _kannan_terms(rank, v, i, j):
    ti, tj = v[i], v[j]
    x, y, u, w = rank[i][ti], rank[j][tj], rank[i][tj], rank[ti][j]
    return rank[ti][tj], min(x, y), max(x, y), min(u, w), max(u, w)


def _quasi_terms(rank, v, i, j):
    ri = rank[i]
    return rank[v[i]][v[j]], max(ri[j], ri[v[i]], rank[j][v[j]])


def _ciric5_terms(rank, v, i, j):
    ti, tj = v[i], v[j]
    ri, rti = rank[i], rank[ti]
    return rti[tj], max(ri[j], ri[ti], rank[j][tj], ri[tj], rti[j])


def _domination_terms(rank, n, v, i, j):
    return rank[v[n + i]][v[n + j]], rank[v[i]][v[j]]


def _saluja_terms(rank, n, v, u, q):
    base = rank[v[n + u]][v[n + q]]
    return (rank[v[u]][v[q]], base), base


def _rational_terms(rank, n, v, x, y):
    tx, sy = v[x], v[n + y]
    rx, ry = rank[x], rank[y]
    return rank[tx][sy], rx[sy], ry[tx], rx[tx], ry[sy]


# One row per pairwise condition; the bound rows share _bound's verdicts.
CONTRACTION = Condition(_contraction_terms, _bound)
STRICT_CONTRACTION = Condition(_contraction_terms, _strictly_below)
KANNAN = Condition(_kannan_terms, _kannan)
QUASI = Condition(_quasi_terms, _bound)
FIVE_TERM = Condition(_ciric5_terms, _bound)
DOMINATION = Condition(_domination_terms, _bound)
SUM_BOUND = Condition(_saluja_terms, _bound)
RATIONAL = Condition(_rational_terms, _rational_bound, across=True)


@lru_cache(maxsize=32)
def _pairs(n: int, across: bool) -> tuple:
    """The pairs a row reads on n positions (i <= j unless across), in order, and their i, j."""
    ks = range(n)
    pairs = tuple(product(ks, ks) if across else combinations_with_replacement(ks, 2))
    return pairs, tuple(i for i, _ in pairs), tuple(j for _, j in pairs)


def _keys(space: DigitalMetricSpace, rows, *maps: SelfMap) -> list[dict]:
    """Each row's distinct level keys on the table of one map, or two (the first's positions,
    then the second's), each with its first pair (i, j) in lexicographic order with the diagonal
    (a symmetric row reads i <= j only, where it lies), by one C-level map over _pairs per row."""
    table = sum((_positions(space, f) for f in maps), ())
    fixed = (space.rank, *(len(space),) * (len(maps) - 1), table)
    found = [{} for _ in rows]
    for cond, keys in zip(rows, found):
        pairs, first, second = _pairs(len(space), cond.across)
        deque(map(keys.setdefault, map(partial(cond.terms, *fixed), first, second), pairs), 0)
    return found


def minimal_constant(space: DigitalMetricSpace, cond: Condition, *maps: SelfMap) -> tuple:
    """(constant, worst, no_finite) of a bound row on maps: the least
    coefficient under which it holds, the first pair reaching it, and
    whether no coefficient does (_constant)."""
    return _constant(space, _keys(space, (cond,), *maps)[0])


def _check(
    space: DigitalMetricSpace, cond: Condition, grid: tuple, minimal: bool, *maps: SelfMap
) -> ConditionReport:
    """The pairwise checkers' one body: cond's report on maps under a grid
    of one coefficient (or none), with its _constant if minimal."""
    (keys,) = _keys(space, (cond,), *maps)
    constant = _constant(space, keys) if minimal else None
    return _report(space, _witness(space, keys, verdicts(space, cond, grid)), constant)


def check_banach(space: DigitalMetricSpace, f: SelfMap, k, minimal: bool = True) -> ConditionReport:
    """d(fx, fy) <= k * d(x, y) over all ordered pairs."""
    return _check(space, CONTRACTION, (_unit_fraction(k, "k"),), minimal, f)


def lipschitz_min(space: DigitalMetricSpace, f: SelfMap):
    """Least k with d(fx, fy) <= k * d(x, y) everywhere; 0 on singletons."""
    return minimal_constant(space, CONTRACTION, f)[0]


def check_kannan(space: DigitalMetricSpace, t: SelfMap, a, b) -> ConditionReport:
    """d(Tx, Ty) <= a*[d(x,Tx) + d(y,Ty)] + b*[d(x,Ty) + d(Tx,y)].

    The two coefficients must be nonnegative with a + b < 1/2.  No
    minimal constant is reported: the parameter space is the triangle
    {a, b >= 0, a + b < 1/2}, not a half-line.
    """
    a, b = _fraction(a), _fraction(b)
    if a.numerator < 0 or b.numerator < 0:
        raise ValueError("coefficients must be nonnegative")
    da, db = a.denominator, b.denominator
    if 2 * (a.numerator * db + b.numerator * da) >= da * db:
        raise ValueError(f"need a + b < 1/2, got {a + b}")
    return _check(space, KANNAN, ((a, b),), False, t)


def check_quasi(space: DigitalMetricSpace, t: SelfMap, r, minimal: bool = True) -> ConditionReport:
    """d(Tx, Ty) <= r * max{d(x,y), d(x,Tx), d(y,Ty)}."""
    return _check(space, QUASI, (_unit_fraction(r, "r"),), minimal, t)


def check_ciric5(space: DigitalMetricSpace, t: SelfMap, r, minimal: bool = True) -> ConditionReport:
    """d(Tx, Ty) <= r * max of the five point/image distances."""
    return _check(space, FIVE_TERM, (_unit_fraction(r, "r"),), minimal, t)


def check_pair_domination(
    space: DigitalMetricSpace, g: SelfMap, h: SelfMap, rho, minimal: bool = True
) -> PairDominationReport:
    """d(Hx, Hy) <= rho * d(Gx, Gy) for all pairs, plus H(X) subset of G(X)."""
    report = _check(space, DOMINATION, (_unit_fraction(rho, "rho"),), minimal, g, h)
    return PairDominationReport(report, h.image_set <= g.image_set)


def check_saluja(
    space: DigitalMetricSpace, j: SelfMap, k: SelfMap, xi, minimal: bool = True
) -> ConstancyReport:
    """d(Ju, Jq) + d(Ku, Kq) <= xi * d(Ku, Kq) for all ordered pairs.

    With xi < 1 the inequality forces both maps constant (subtract the
    K-term: (1 - xi) * d(Ku, Kq) <= -d(Ju, Jq) <= 0), so the report also
    states each map's constancy.
    """
    report = _check(space, SUM_BOUND, (_unit_fraction(xi, "xi"),), minimal, j, k)
    return ConstancyReport(report, j.is_constant, k.is_constant)


def parv_rational_check(space: DigitalMetricSpace, t: SelfMap, s: SelfMap) -> ConditionReport:
    """The rational two-map bound
    d(Tx, Sy) <= [d(x,Tx)d(x,Sy) + d(y,Sy)d(y,Tx)] / [d(x,Sy) + d(y,Tx)].

    Pairs with zero denominator are collected as undefined; in
    particular every common fixed point p makes (p, p) undefined, which
    is the structural flaw this check exposes.  The verdict quantifies
    over the defined pairs only, by cross-multiplication (the
    denominator is positive there), so no division is ever performed;
    it is decided once per five-level key in the space's memo.
    """
    return _rational_report(space, *_keys(space, (RATIONAL,), t, s), t, s)


def _rational_report(space: DigitalMetricSpace, keys: dict, t: SelfMap, s: SelfMap):
    report = _report(space, _witness(space, keys, verdicts(space, RATIONAL, ())))
    pts, tv, sv = space.points, t.indices, s.indices
    # Undefined where d(x, Sy) = d(y, Tx) = 0, that is Tx = y and Sy = x:
    # each x has one candidate y.
    undefined = tuple((pts[x], pts[y]) for x, y in enumerate(tv) if sv[y] == x)
    return dataclasses.replace(report, undefined_pairs=undefined)


def classify(space: DigitalMetricSpace, *maps: SelfMap) -> tuple:
    """``digitop classify``'s minimal constants and rational report, from one _keys call."""
    if len(maps) == 1:
        keys = _keys(space, (CONTRACTION, QUASI, FIVE_TERM), *maps)
        return tuple(_constant(space, k) for k in keys)
    dom, sal, rational = _keys(space, (DOMINATION, SUM_BOUND, RATIONAL), *maps)
    return _constant(space, dom), _constant(space, sal), _rational_report(space, rational, *maps)


def weakly_commutative(space: DigitalMetricSpace, s: SelfMap, t: SelfMap) -> ConditionReport:
    """d(S(T(x)), T(S(x))) <= d(Sx, Tx) for every point x."""
    tol = space.comparison_tolerance
    d, sv, tv = space.index_distance, _positions(space, s), _positions(space, t)
    for x, point in enumerate(space.points):
        if compare(d(sv[tv[x]], tv[sv[x]]), d(sv[x], tv[x]), tol) > 0:
            return ConditionReport(holds=False, witness=(point,), exact=tol is None)
    return ConditionReport(holds=True, exact=tol is None)


def compatible(space: DigitalMetricSpace, s: SelfMap, t: SelfMap) -> ConditionReport:
    """Finite-space reduction of compatibility: S and T commute at every
    coincidence point.

    The limit form (d(STx_n, TSx_n) -> 0 whenever Sx_n and Tx_n share a
    limit) collapses on a uniformly discrete space: convergent sequences
    are eventually constant, so the quantifier only ever reaches points
    with Sx = Tx, and "distance tends to 0" means equality there.
    """
    sv, tv = _positions(space, s), _positions(space, t)
    for x, point in enumerate(space.points):
        if sv[x] == tv[x] and sv[tv[x]] != tv[sv[x]]:
            return ConditionReport(holds=False, witness=(point,), exact=True)
    return ConditionReport(holds=True, exact=True)
