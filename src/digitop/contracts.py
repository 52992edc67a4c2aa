"""Evaluators for the contractive-type conditions studied here.

Every check quantifies over ordered pairs (x, y), diagonal included,
and reports the lexicographically least violation.  A pairwise
condition asks one or both of two questions of a map: _witness finds
that least failing pair, and _constant the least constant that would
make the condition hold, with the first pair reaching it.  Checks run on
canonical point positions and the levels of the space's distances, so
each map must be a self-map of the space's own points.  On spaces whose
distances are exact (word metric, taxicab, Euclidean) the verdicts are
exact; for other exponents the space's comparison tolerance applies and
reports carry exact=False.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

import mpmath

from .exact import compare, exact_div
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


class _Arith:
    """Comparison and scaling bound to one space's exactness regime."""

    def __init__(self, space: DigitalMetricSpace):
        self.tol = space.comparison_tolerance

    @property
    def exact(self) -> bool:
        return self.tol is None

    def le(self, a, b) -> bool:
        return compare(a, b, self.tol) <= 0

    def positive(self, a) -> bool:
        return compare(0, a, self.tol) < 0

    def below_one(self, a) -> bool:
        return compare(a, 1, self.tol) < 0

    def scale(self, coeff: Fraction, value):
        if self.tol is None:
            return coeff * value
        return mpmath.mpf(coeff.numerator) * value / coeff.denominator


def _positions(space: DigitalMetricSpace, f: SelfMap) -> tuple[int, ...]:
    """f's values as positions in the space's table; f must be a self-map
    of the space's image (its points and adjacency)."""
    if f.domain != space.image:
        raise ValueError("the map's domain is not the space's point set")
    return f.indices


class _Verdicts(dict):
    """rule(ar, levels, key, *coeffs) by level key, decided on first use."""

    def __init__(self, space: DigitalMetricSpace, rule: Callable, coeffs: tuple):
        super().__init__()
        self.ar, self.levels, self.rule, self.coeffs = _Arith(space), space.levels, rule, coeffs

    def __missing__(self, key):
        verdict = self[key] = self.rule(self.ar, self.levels, key, *self.coeffs)
        return verdict


def _verdicts(space: DigitalMetricSpace, rule: Callable, *coeffs) -> _Verdicts:
    """The space's memo of rule under these coefficients, made on first use."""
    key = (rule, *coeffs)
    memo = space.verdicts.get(key)
    if memo is None:
        memo = space.verdicts[key] = _Verdicts(space, rule, coeffs)
    return memo


def _lhs(levels: tuple, key):
    """The distance of a level, or the sum of a pair of levels' distances."""
    return levels[key] if isinstance(key, int) else levels[key[0]] + levels[key[1]]


def _bound(ar: _Arith, levels: tuple, key, coeff: Fraction) -> bool:
    """lhs <= coeff * base, keyed by (lhs key, base level)."""
    return ar.le(_lhs(levels, key[0]), ar.scale(coeff, levels[key[1]]))


def _kannan_bound(ar: _Arith, levels: tuple, key, a: Fraction, b: Fraction) -> bool:
    """Kannan's inequality by its five levels, each sum's two ascending."""
    lhs, x, y, u, w = (levels[k] for k in key)
    return ar.le(lhs, ar.scale(a, x + y) + ar.scale(b, u + w))


def _witness(space: DigitalMetricSpace, terms: Callable, holds) -> tuple[Point, Point] | None:
    """The first pair of canonical positions (i, j), in lexicographic order
    with the diagonal, whose level key terms(i, j) fails holds[key]; None
    when every pair holds."""
    pts = space.points
    for i, j in itertools.product(range(len(pts)), repeat=2):
        if not holds[terms(i, j)]:
            return pts[i], pts[j]
    return None


def _constant(space: DigitalMetricSpace, terms: Callable) -> tuple:
    """(constant, worst, no_finite) of keys terms(i, j) = (lhs key, base level).

    constant is the largest lhs / base over pairs with positive base (0
    when there are none) and worst the first pair reaching it; no_finite
    marks a pair with zero base against a positive lhs, which leaves
    constant None.  Each distinct key is weighed once, with its first pair.
    """
    pts = space.points
    first: dict = {}
    for i, j in itertools.product(range(len(pts)), repeat=2):
        first.setdefault(terms(i, j), (pts[i], pts[j]))
    ar, levels = _Arith(space), space.levels
    best, worst, no_finite = None, None, False
    for (lhs_key, base_level), pair in first.items():
        lhs, base = _lhs(levels, lhs_key), levels[base_level]
        if ar.positive(base):
            ratio = exact_div(lhs, base)
            if best is None or ratio > best:
                best, worst = ratio, pair
        elif ar.positive(lhs):
            no_finite = True
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
# searches' narrowing: (lhs key, base level), or Kannan's five
# levels with each sum's two ascending.  v is a map's table of value
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


def check_banach(space: DigitalMetricSpace, f: SelfMap, k, minimal: bool = True) -> ConditionReport:
    """d(fx, fy) <= k * d(x, y) over all ordered pairs."""
    k = _unit_fraction(k, "k")
    terms = partial(_contraction_terms, space.rank, _positions(space, f))
    constant = _constant(space, terms) if minimal else None
    return _report(space, _witness(space, terms, _verdicts(space, _bound, k)), constant)


def lipschitz_min(space: DigitalMetricSpace, f: SelfMap):
    """Least k with d(fx, fy) <= k * d(x, y) everywhere; 0 on singletons."""
    terms = partial(_contraction_terms, space.rank, _positions(space, f))
    return _constant(space, terms)[0]


def check_kannan(space: DigitalMetricSpace, t: SelfMap, a, b) -> ConditionReport:
    """d(Tx, Ty) <= a*[d(x,Tx) + d(y,Ty)] + b*[d(x,Ty) + d(Tx,y)].

    The two coefficients must be nonnegative with a + b < 1/2.  No
    minimal constant is reported: the parameter space is the triangle
    {a, b >= 0, a + b < 1/2}, not a half-line.
    """
    a, b = _fraction(a), _fraction(b)
    if a < 0 or b < 0:
        raise ValueError("coefficients must be nonnegative")
    if a + b >= Fraction(1, 2):
        raise ValueError(f"need a + b < 1/2, got {a + b}")
    terms = partial(_kannan_terms, space.rank, _positions(space, t))
    return _report(space, _witness(space, terms, _verdicts(space, _kannan_bound, a, b)))


def check_quasi(space: DigitalMetricSpace, t: SelfMap, r, minimal: bool = True) -> ConditionReport:
    """d(Tx, Ty) <= r * max{d(x,y), d(x,Tx), d(y,Ty)}."""
    r = _unit_fraction(r, "r")
    terms = partial(_quasi_terms, space.rank, _positions(space, t))
    constant = _constant(space, terms) if minimal else None
    return _report(space, _witness(space, terms, _verdicts(space, _bound, r)), constant)


def check_ciric5(space: DigitalMetricSpace, t: SelfMap, r, minimal: bool = True) -> ConditionReport:
    """d(Tx, Ty) <= r * max of the five point/image distances."""
    r = _unit_fraction(r, "r")
    terms = partial(_ciric5_terms, space.rank, _positions(space, t))
    constant = _constant(space, terms) if minimal else None
    return _report(space, _witness(space, terms, _verdicts(space, _bound, r)), constant)


def check_pair_domination(
    space: DigitalMetricSpace, g: SelfMap, h: SelfMap, rho, minimal: bool = True
) -> PairDominationReport:
    """d(Hx, Hy) <= rho * d(Gx, Gy) for all pairs, plus H(X) subset of G(X)."""
    rho = _unit_fraction(rho, "rho")
    table = _positions(space, g) + _positions(space, h)
    terms = partial(_domination_terms, space.rank, len(space), table)
    constant = _constant(space, terms) if minimal else None
    report = _report(space, _witness(space, terms, _verdicts(space, _bound, rho)), constant)
    return PairDominationReport(report, h.image_set <= g.image_set)


def check_saluja(
    space: DigitalMetricSpace, j: SelfMap, k: SelfMap, xi, minimal: bool = True
) -> ConstancyReport:
    """d(Ju, Jq) + d(Ku, Kq) <= xi * d(Ku, Kq) for all ordered pairs.

    With xi < 1 the inequality forces both maps constant (subtract the
    K-term: (1 - xi) * d(Ku, Kq) <= -d(Ju, Jq) <= 0), so the report also
    states each map's constancy.
    """
    xi = _unit_fraction(xi, "xi")
    table = _positions(space, j) + _positions(space, k)
    terms = partial(_saluja_terms, space.rank, len(space), table)
    constant = _constant(space, terms) if minimal else None
    report = _report(space, _witness(space, terms, _verdicts(space, _bound, xi)), constant)
    return ConstancyReport(report, j.is_constant, k.is_constant)


def parv_rational_check(space: DigitalMetricSpace, t: SelfMap, s: SelfMap) -> ConditionReport:
    """The rational two-map bound
    d(Tx, Sy) <= [d(x,Tx)d(x,Sy) + d(y,Sy)d(y,Tx)] / [d(x,Sy) + d(y,Tx)].

    Pairs with zero denominator are collected as undefined; in
    particular every common fixed point p makes (p, p) undefined, which
    is the structural flaw this check exposes.  The verdict quantifies
    over the defined pairs only, by cross-multiplication (the
    denominator is positive there), so no division is ever performed.
    """
    ar = _Arith(space)
    d, tv, sv = space.index_distance, _positions(space, t), _positions(space, s)
    pts = space.points
    witness = None
    undefined = []
    for x, y in itertools.product(range(len(pts)), repeat=2):
        dx_sy = d(x, sv[y])
        dy_tx = d(y, tv[x])
        denom = dx_sy + dy_tx
        if not ar.positive(denom):
            undefined.append((pts[x], pts[y]))
            continue
        numer = d(x, tv[x]) * dx_sy + d(y, sv[y]) * dy_tx
        if witness is None and not ar.le(d(tv[x], sv[y]) * denom, numer):
            witness = (pts[x], pts[y])
    return ConditionReport(
        holds=witness is None,
        witness=witness,
        undefined_pairs=tuple(undefined),
        exact=ar.exact,
    )


def weakly_commutative(space: DigitalMetricSpace, s: SelfMap, t: SelfMap) -> ConditionReport:
    """d(S(T(x)), T(S(x))) <= d(Sx, Tx) for every point x."""
    ar = _Arith(space)
    d, sv, tv = space.index_distance, _positions(space, s), _positions(space, t)
    for x, point in enumerate(space.points):
        if not ar.le(d(sv[tv[x]], tv[sv[x]]), d(sv[x], tv[x])):
            return ConditionReport(holds=False, witness=(point,), exact=ar.exact)
    return ConditionReport(holds=True, exact=ar.exact)


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
