"""Evaluators for the contractive-type conditions studied here.

Every check quantifies over ordered pairs (x, y), diagonal included,
and reports the lexicographically least violation.  Checks run on
canonical point positions and the space's distance table, so each map
must be a self-map of the space's own points.  On spaces whose
distances are exact (word metric, taxicab, Euclidean) the verdicts are
exact; for other exponents the space's comparison tolerance applies and
reports carry exact=False.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath

from .exact import compare, exact_div, exact_max
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


def _unit_fraction(value, name: str) -> Fraction:
    q = Fraction(value)
    if not 0 <= q < 1:
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

    def greater(self, a, b) -> bool:
        """The order that picks maxima: exact in the exact regimes, plain
        ``>`` on mpf values in the general l_p regime (no tolerance)."""
        if self.tol is None:
            return compare(a, b) > 0
        return a > b

    def scale(self, coeff: Fraction, value):
        if self.tol is None:
            return coeff * value
        return mpmath.mpf(coeff.numerator) * value / coeff.denominator

    def max(self, values):
        if self.tol is None:
            return exact_max(values)
        return max(values)


def _positions(space: DigitalMetricSpace, f: SelfMap) -> tuple[int, ...]:
    """f's values as positions in the space's table."""
    if f.domain.points != space.points:
        raise ValueError("the map's domain is not the space's point set")
    return f.indices


class _Scan(NamedTuple):
    """One pass of lhs <= coeff * base over all ordered pairs.

    witness is the first violating pair; constant is the largest
    lhs / base over pairs with positive base (0 when there are none) and
    worst the first pair reaching it; no_finite marks a pair with zero
    base against a positive lhs, which leaves constant None.
    """

    witness: tuple[Point, Point] | None
    constant: object
    worst: tuple[Point, Point] | None
    no_finite: bool

    def report(self, space: DigitalMetricSpace) -> ConditionReport:
        return ConditionReport(
            holds=self.witness is None,
            witness=self.witness,
            minimal_constant=self.constant,
            no_finite_constant=self.no_finite,
            exact=space.comparison_tolerance is None,
        )


def _scan(space: DigitalMetricSpace, terms: Callable, coeff, minimal: bool = True) -> _Scan:
    """The pairwise evaluator behind every single-coefficient condition.

    terms(i, j) gives (lhs, base) for the pair of canonical positions
    (i, j); pairs run in lexicographic order, diagonal included.  With
    coeff None only the constant is sought; with minimal False the scan
    stops at the first violation and seeks no constant.
    """
    ar = _Arith(space)
    pts = space.points
    witness = best = worst = None
    no_finite = False
    for i, j in itertools.product(range(len(pts)), repeat=2):
        lhs, base = terms(i, j)
        if coeff is not None and witness is None and not ar.le(lhs, ar.scale(coeff, base)):
            witness = (pts[i], pts[j])
            if not minimal:
                break
        if minimal:
            if ar.positive(base):
                ratio = exact_div(lhs, base)
                if best is None or ar.greater(ratio, best):
                    best, worst = ratio, (pts[i], pts[j])
            elif ar.positive(lhs):
                no_finite = True
    if not minimal or no_finite:
        constant = None
    else:
        constant = Fraction(0) if best is None else best
    return _Scan(witness, constant, worst, no_finite)


def _contraction_terms(space: DigitalMetricSpace, f: SelfMap) -> Callable:
    """(d(fx, fy), d(x, y)) by position."""
    d, v = space.index_distance, _positions(space, f)
    return lambda i, j: (d(v[i], v[j]), d(i, j))


def check_banach(space: DigitalMetricSpace, f: SelfMap, k, minimal: bool = True) -> ConditionReport:
    """d(fx, fy) <= k * d(x, y) over all ordered pairs."""
    k = _unit_fraction(k, "k")
    return _scan(space, _contraction_terms(space, f), k, minimal).report(space)


def lipschitz_min(space: DigitalMetricSpace, f: SelfMap):
    """Least k with d(fx, fy) <= k * d(x, y) everywhere; 0 on singletons."""
    return _scan(space, _contraction_terms(space, f), None).constant


def check_kannan(space: DigitalMetricSpace, t: SelfMap, a, b) -> ConditionReport:
    """d(Tx, Ty) <= a*[d(x,Tx) + d(y,Ty)] + b*[d(x,Ty) + d(Tx,y)].

    The two coefficients must be nonnegative with a + b < 1/2.  No
    minimal constant is reported: the parameter space is the triangle
    {a, b >= 0, a + b < 1/2}, not a half-line.
    """
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        raise ValueError("coefficients must be nonnegative")
    if a + b >= Fraction(1, 2):
        raise ValueError(f"need a + b < 1/2, got {a + b}")
    ar = _Arith(space)
    d, v = space.index_distance, _positions(space, t)
    pts = space.points
    for i, j in itertools.product(range(len(pts)), repeat=2):
        ti, tj = v[i], v[j]
        rhs = ar.scale(a, d(i, ti) + d(j, tj)) + ar.scale(b, d(i, tj) + d(ti, j))
        if not ar.le(d(ti, tj), rhs):
            return ConditionReport(holds=False, witness=(pts[i], pts[j]), exact=ar.exact)
    return ConditionReport(holds=True, exact=ar.exact)


def check_quasi(space: DigitalMetricSpace, t: SelfMap, r, minimal: bool = True) -> ConditionReport:
    """d(Tx, Ty) <= r * max{d(x,y), d(x,Tx), d(y,Ty)}."""
    r = _unit_fraction(r, "r")
    ar, d, v = _Arith(space), space.index_distance, _positions(space, t)

    def terms(i, j):
        return d(v[i], v[j]), ar.max((d(i, j), d(i, v[i]), d(j, v[j])))

    return _scan(space, terms, r, minimal).report(space)


def check_ciric5(space: DigitalMetricSpace, t: SelfMap, r, minimal: bool = True) -> ConditionReport:
    """d(Tx, Ty) <= r * max of the five point/image distances."""
    r = _unit_fraction(r, "r")
    ar, d, v = _Arith(space), space.index_distance, _positions(space, t)

    def terms(i, j):
        ti, tj = v[i], v[j]
        return d(ti, tj), ar.max((d(i, j), d(i, ti), d(j, tj), d(i, tj), d(ti, j)))

    return _scan(space, terms, r, minimal).report(space)


def check_pair_domination(
    space: DigitalMetricSpace, g: SelfMap, h: SelfMap, rho, minimal: bool = True
) -> PairDominationReport:
    """d(Hx, Hy) <= rho * d(Gx, Gy) for all pairs, plus H(X) subset of G(X)."""
    rho = _unit_fraction(rho, "rho")
    if g.domain != h.domain:
        raise ValueError("both maps must share one domain")
    d, gv, hv = space.index_distance, _positions(space, g), _positions(space, h)
    scan = _scan(space, lambda i, j: (d(hv[i], hv[j]), d(gv[i], gv[j])), rho, minimal)
    return PairDominationReport(scan.report(space), h.image_set <= g.image_set)


def check_saluja(
    space: DigitalMetricSpace, j: SelfMap, k: SelfMap, xi, minimal: bool = True
) -> ConstancyReport:
    """d(Ju, Jq) + d(Ku, Kq) <= xi * d(Ku, Kq) for all ordered pairs.

    With xi < 1 the inequality forces both maps constant (subtract the
    K-term: (1 - xi) * d(Ku, Kq) <= -d(Ju, Jq) <= 0), so the report also
    states each map's constancy.
    """
    xi = _unit_fraction(xi, "xi")
    if j.domain != k.domain:
        raise ValueError("both maps must share one domain")
    d, jv, kv = space.index_distance, _positions(space, j), _positions(space, k)

    def terms(u, q):
        base = d(kv[u], kv[q])
        return d(jv[u], jv[q]) + base, base

    scan = _scan(space, terms, xi, minimal)
    return ConstancyReport(scan.report(space), j.is_constant, k.is_constant)


def parv_rational_check(space: DigitalMetricSpace, t: SelfMap, s: SelfMap) -> ConditionReport:
    """The rational two-map bound
    d(Tx, Sy) <= [d(x,Tx)d(x,Sy) + d(y,Sy)d(y,Tx)] / [d(x,Sy) + d(y,Tx)].

    Pairs with zero denominator are collected as undefined; in
    particular every common fixed point p makes (p, p) undefined, which
    is the structural flaw this check exposes.  The verdict quantifies
    over the defined pairs only, by cross-multiplication (the
    denominator is positive there), so no division is ever performed.
    """
    if t.domain != s.domain:
        raise ValueError("both maps must share one domain")
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
    if s.domain != t.domain:
        raise ValueError("both maps must share one domain")
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
    if s.domain != t.domain:
        raise ValueError("both maps must share one domain")
    for x in space.image.points:
        if s(x) == t(x) and s(t(x)) != t(s(x)):
            return ConditionReport(holds=False, witness=(x,), exact=True)
    return ConditionReport(holds=True, exact=True)
