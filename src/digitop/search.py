"""Counterexample hunts over small spaces, plus the curated suite that
re-derives every headline verdict of this laboratory at desk scale.

Each searchable assertion binds a hypothesis predicate (from contracts)
to a conclusion predicate on the maps' value positions.  A search scans a
fixed, deterministic universe — digital intervals and small rectangular
grids, under the taxicab, Euclidean, and word metrics — and either
returns the first hypothesis-true/conclusion-false witness or an
exhaustion certificate.  SearchOutcome.verify() replays a witness: it
runs the public checker and the conclusion on the witness's SelfMaps,
not the narrowing that found them, but on the search's own space, so the
space's levels are read again.  The checker decides its verdicts in the
space's memo for its one parameter value, not in the memo for the whole
grid that the search filled; only the rational form, which has no
parameter, reads the memo its search filled.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from . import contracts, fixpoint, mapkit
from .contracts import DOMINATION, FIVE_TERM, QUASI, SUM_BOUND
from .mapkit import (
    EnumerationBudgetError,
    Lanes,
    SelfMap,
    _check_budget,
    enumerate_selfmaps,
    enumerate_tables,
    validate_selfmap,
)
from .metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, MetricSpec
from .space import C1, C2, Adjacency, DigitalImage, digital_interval

DEFAULT_PARAM_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

COUNTEREXAMPLE = "counterexample"
EXHAUSTED = "exhausted"


def enumerate_map_pairs(img: DigitalImage) -> Iterator[tuple[SelfMap, SelfMap]]:
    """All ordered pairs of self-maps, lexicographic by value tables."""
    _check_budget(len(img), 2)
    maps = list(enumerate_selfmaps(img))
    return itertools.product(maps, maps)


def _strictly_increasing_1d(f: SelfMap) -> bool:
    vals = [v[0] for v in f.values]
    return all(a < b for a, b in zip(vals, vals[1:]))


def _common_fix(n: int, t, start: int = 0) -> int:
    """The first position from start that every map of the table t fixes,
    or n if none does.  t[k - n] is the last map's entry k: the second
    map's, or with one map its own."""
    for k in range(start, n):
        if t[k] == k == t[k - n]:
            return k
    return n


def _unique_common_fix(n: int, t) -> bool:
    p = _common_fix(n, t)
    return p < n and _common_fix(n, t, p + 1) == n


def _has_common_fix(n: int, t) -> bool:
    return _common_fix(n, t) < n


def _compatible(n: int, t) -> bool:
    """The maps commute at every coincidence point (contracts.compatible)."""
    return all(t[x] != t[n + x] or t[t[n + x]] == t[n + t[x]] for x in range(n))


def _alternating_limits_are_unique_common_fix(n: int, t) -> bool:
    """Every accumulation point of every interleaved orbit x, Tx, STx, ...
    is the one common fixed point p: each orbit reaches p, where it stays,
    within the 2n steps that exhaust its (position, turn) states."""
    if not _unique_common_fix(n, t):
        return False
    ends = range(n)
    for _ in range(n):  # two steps: T, then S
        ends = [t[n + t[x]] for x in ends]
    return set(ends) == {_common_fix(n, t)}


@dataclass(frozen=True)
class _Assertion:
    """A searchable claim: hypothesis, conclusion, and what prunes its search."""

    key: str
    arity: int
    param: str | None
    hypothesis: Callable
    concludes: Callable  # (n, t) on a table of value positions, map after map
    # The checker's row.  With one, the narrowing decides the whole
    # hypothesis: every complete table enumerated is hypothesis-true.
    condition: contracts.Condition | None = None
    # Without one, the hypothesis (space, t) on each table of value positions.
    holds_on: Callable | None = None
    within: bool = False  # the second map's values lie among the first's
    increasing: bool = False  # each map's entries rise (on intervals only)
    one_dimensional_only: bool = False

    def conclusion(self, space: DigitalMetricSpace, maps) -> bool:
        """The conclusion on self-maps of the space."""
        table = sum((contracts._positions(space, f) for f in maps), ())
        return self.concludes(len(space), table)


def _narrow(space: DigitalMetricSpace, arity: int, cond, grid: tuple, within: bool, lanes: Lanes):
    """narrow(t, k) for enumerate_tables from a checker's row and the
    space's memo of its verdicts under grid: each later entry j of the
    last map keeps, in each of the domains' lanes, the values for which
    (k, j) holds there (each condition is symmetric; (i, i) has lhs 0;
    Lanes.holding).  With within, the second map's values lie among the
    first's.  Rows are kept by (k, t[k]) until the first map changes."""
    n, first = len(space), (arity - 1) * len(space)
    key = functools.partial(cond.terms, space.rank, *(n,) * (arity - 1))
    holds = contracts.verdicts(space, cond, grid)
    rows, full, held = {}, lanes.every((1 << n) - 1), lanes.holding()

    def narrow(t, k):
        if k == first - 1:  # the first map is complete: its rows go stale
            rows.clear()
            if within:
                image = sum(1 << v for v in set(t[:first]))
                return [(j, lanes.every(image)) for j in range(first, len(t))]
        if k < first:
            return ()
        row = rows.get(k * n + t[k])
        if row is None:
            row = rows[k * n + t[k]] = []
            s, q = t[: k + 1] + [0] * (len(t) - k - 1), k - first
            for j in range(k + 1, len(s)):
                mask = 0
                for w in range(n):
                    s[j] = w
                    mask |= held[holds[key(s, q, j - first)]] << w
                if mask != full:  # a full mask narrows nothing
                    row.append((j, mask))
        return row

    return narrow


def _hyp_quasi(space, maps, r):
    return contracts.check_quasi(space, maps[0], r, minimal=False).holds


def _hyp_five_term(space, maps, r):
    return contracts.check_ciric5(space, maps[0], r, minimal=False).holds


def _hyp_dominated(space, maps, rho):
    g, h = maps
    return contracts.check_pair_domination(space, g, h, rho, minimal=False).condition.holds


def _hyp_dominated_with_range(space, maps, rho):
    g, h = maps
    rep = contracts.check_pair_domination(space, g, h, rho, minimal=False)
    return rep.condition.holds and rep.range_included


def _hyp_dominated_monotone(space, maps, rho):
    g, h = maps
    if not (_strictly_increasing_1d(g) and _strictly_increasing_1d(h)):
        return False
    return _hyp_dominated_with_range(space, maps, rho)


def _hyp_sum_bound(space, maps, xi):
    j, k = maps
    if not contracts.weakly_commutative(space, j, k).holds:
        return False
    return contracts.check_saluja(space, j, k, xi, minimal=False).condition.holds


def _hyp_rational(space, maps, _param):
    t, s = maps
    return contracts.parv_rational_check(space, t, s).holds


ASSERTIONS: dict[str, _Assertion] = {
    a.key: a
    for a in (
        _Assertion("quasi-fixed-point", 1, "r", _hyp_quasi, _has_common_fix, QUASI),
        _Assertion("five-term-fixed-point", 1, "r", _hyp_five_term, _has_common_fix, FIVE_TERM),
        _Assertion(
            "dominated-common-fix-with-range",
            2,
            "rho",
            _hyp_dominated_with_range,
            _unique_common_fix,
            DOMINATION,
            within=True,
        ),
        _Assertion(
            "dominated-common-fix", 2, "rho", _hyp_dominated, _unique_common_fix, DOMINATION
        ),
        _Assertion(
            "dominated-monotone-compatible",
            2,
            "rho",
            _hyp_dominated_monotone,
            _compatible,
            DOMINATION,
            increasing=True,
            one_dimensional_only=True,
        ),
        _Assertion("sum-bound-common-fix", 2, "xi", _hyp_sum_bound, _has_common_fix, SUM_BOUND),
        _Assertion(
            "rational-alternating-common-fix",
            2,
            None,
            _hyp_rational,
            _alternating_limits_are_unique_common_fix,
            # Looked up per call, so the rule can be wrapped or counted.
            holds_on=lambda space, t: contracts._rational_holds(space, t),
        ),
    )
}


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one assertion hunt.

    status "counterexample" carries the witness space/maps/param;
    "exhausted" certifies that no hypothesis-true/conclusion-false
    instance exists in the scanned universe.
    """

    assertion: str
    status: str
    size_bound: int
    param_grid: tuple[Fraction, ...]
    space: DigitalMetricSpace | None = None
    maps: tuple[SelfMap, ...] = ()
    param: Fraction | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == COUNTEREXAMPLE and not self.maps:
            raise ValueError("a counterexample must carry its witness maps")

    def verify(self) -> bool:
        """Replay the witness: the assertion's checker and conclusion on its
        maps, on the search's own space and so through the same levels, with
        the checker's memo for the witness's one parameter value (not the
        search's memo for the whole grid).  Exhaustions verify trivially."""
        if self.status != COUNTEREXAMPLE:
            return True
        spec = ASSERTIONS[self.assertion]
        return spec.hypothesis(self.space, self.maps, self.param) and not spec.conclusion(
            self.space, self.maps
        )


@functools.cache
def _scan_image(a: int, b: int, adj: Adjacency) -> DigitalImage:
    """The a x b grid in Z^2 under adj, or if b is 0 the interval [0, a-1]_Z."""
    return DigitalImage([(i, j) for i in range(a) for j in range(b)] if b else range(a), adj)


def _table_class(a: int, b: int, adj: Adjacency, metric: MetricSpec) -> tuple:
    """The key of the space _scan_image(a, b, adj) under metric, named
    before any distance is built: scan spaces with equal keys have equal
    distance tables (tolerance, levels and rank), so they give equal
    results.  On an interval l1, l2 and the word metric are all |i - j|.
    On a full grid l1 and l2 read no adjacency and the c1 word metric is
    l1, so each grid has three classes under _METRICS: l1 (with the c1
    word metric), l2 and the c2 word metric.  Any other metric, such as
    an l_p decided with a tolerance, is its own class.  The metrics of
    _METRICS are told apart by identity, which costs a search no Fraction
    comparison.  This holds only for the scan universe: on other images
    these metrics need not agree."""
    if metric is SHORTEST_PATH:
        return a, b, "l1" if not b or adj.u == 1 else "c2 word"
    if metric is L1 or metric is L2:
        return a, b, "l2" if b and metric is L2 else "l1"
    return a, b, metric


def _scan_shapes(size_bound: int, one_dimensional_only: bool) -> Iterator[tuple]:
    """The deterministic scan universe as _scan_image's (a, b, adj), lazily
    (a search the budget stops builds no later image): intervals
    [0, n-1]_Z, then grids in Z^2 under c_1 and c_2."""
    yield from ((n, 0, C1) for n in range(1, size_bound + 1))
    if not one_dimensional_only:
        for a in range(2, size_bound + 1):
            for b in range(a, size_bound // a + 1):
                yield from ((a, b, adj) for adj in (C1, C2))


def small_connected_images(size_bound: int, one_dimensional_only: bool = False):
    """The scan universe of find_counterexample, as a tuple."""
    shapes = _scan_shapes(size_bound, one_dimensional_only)
    return tuple(itertools.starmap(_scan_image, shapes))


_METRICS: tuple[MetricSpec, ...] = (L1, L2, SHORTEST_PATH)


def _per_table(combos, work: Callable) -> Iterator:
    """work(space) for each (shape, metric) pair of combos, in order and
    lazily: the first pair of each _table_class builds its space on
    _scan_image(*shape) and runs work; each later pair of that class
    builds nothing and yields the stored result again.  The store lasts as
    long as the iteration, so a caller that stops builds no later space."""
    done = {}
    for shape, metric in combos:
        key = _table_class(*shape, metric)
        if key not in done:
            done[key] = work(DigitalMetricSpace(_scan_image(*shape), metric))
        yield done[key]


def _maps(img: DigitalImage, table) -> tuple[SelfMap, ...]:
    """The self-maps of img whose value positions are table, map after map."""
    n, values = len(img), [img.points[v] for v in table]
    return tuple(SelfMap(img, tuple(values[a : a + n])) for a in range(0, len(values), n))


def _sweep(space, arity: int, cond=None, grid=(), within=False, increasing=False, lanes=None):
    """Each table of value positions of `arity` maps in product order, one
    list filled in place: all, or with a row cond those whose last map's
    pairs hold under grid (_narrow) in some lane.  lanes, an empty
    mapkit.Lanes of n-bit lanes, receives the domains, so that its sets
    give each table's lanes; without it there is one lane.  With increasing, each entry is pinned to
    its own position, since a strictly increasing self-map of a finite
    interval is the identity.  A budget error names the space."""
    n = len(space)
    domains = Lanes() if lanes is None else lanes
    if increasing:
        domains += [domains.every(1 << k % n) for k in range(arity * n)]
    else:
        domains += [domains.every((1 << n) - 1)] * (arity * n)
    narrow = _narrow(space, arity, cond, grid, within, domains) if cond else lambda t, k: ()
    try:
        yield from enumerate_tables(domains, narrow)
    except EnumerationBudgetError as err:
        raise EnumerationBudgetError(f"{space.describe()}: {err}") from None


def _hits(lanes: Lanes, counts: dict, at) -> int:
    """The hits at the grid positions whose lanes are at, from the count of
    tables by their set of lanes."""
    hits = 0
    for held, k in counts.items():
        m = lanes.size(held)
        for c in at:
            if c < m:
                hits += k
    return hits


def _param_lanes(name: str, raw) -> tuple[tuple, tuple, list]:
    """A search's parameter grid as Fractions (a Fraction is kept, any
    other value converted), its distinct values loosest first (the lanes'
    values) and each grid position's lane.  Checked, deduplicated and
    ordered on numerators and denominators: no Fraction is hashed or
    compared."""
    grid = tuple(map(contracts._fraction, raw))
    if not grid:
        raise ValueError("parameter grid must not be empty")
    for v in grid:
        if not 0 <= v.numerator < v.denominator:  # denominators are positive
            raise ValueError(f"{name} grid value {v} outside [0, 1)")
    pairs = [(v.numerator, v.denominator) for v in grid]
    distinct = dict(zip(pairs, grid))
    scale = math.lcm(*(den for _, den in distinct))
    order = sorted(distinct, key=lambda q: q[0] * (scale // q[1]), reverse=True)
    lane = {q: k for k, q in enumerate(order)}
    return grid, tuple(map(distinct.__getitem__, order)), [lane[q] for q in pairs]


def find_counterexample(assertion: str, size_bound: int = 3, param_grid=None) -> SearchOutcome:
    """Scan every space/metric/parameter/map combination up to
    size_bound for a hypothesis-true, conclusion-false instance.

    Map tables run depth first in lexicographic order, each entry's values
    narrowed by the hypothesis's pairs with the entries before it;
    instances_scanned counts the tables skipped too.  Every table
    enumerated is hypothesis-true: only the rational form, which narrows
    nothing, decides its hypothesis per table, on the table itself.  Only
    a witness becomes SelfMaps.

    One enumeration per space and metric serves the whole grid: a bound
    lhs <= r * base holding under r holds under every larger r, so the
    grid's values, loosest first, are nested lanes (mapkit.Lanes), and a
    table's lanes give its hits at every grid position.  After a
    conclusion-false table at position p only earlier positions stay live.
    verify() replays a witness through the checker's memo for its one
    value, not the grid memo the search filled.  The spaces of one
    _table_class (on an interval, all three metrics) are built and
    enumerated once (_per_table): a later one builds no distances and
    adds the first one's instances and hits, which had no witness, since
    a witness ends the search in the space where it is found.

    Deterministic: the first witness in (space, grid position, table)
    order is returned.  Raises EnumerationBudgetError, naming the space,
    if one enumeration would assign more than mapkit.ENUM_BUDGET entries,
    and ValueError for unknown assertions, out-of-range parameters, or
    size_bound < 1.
    """
    spec = ASSERTIONS.get(assertion)
    if spec is None:
        known = ", ".join(sorted(ASSERTIONS))
        raise ValueError(f"unknown assertion {assertion!r}; expected one of: {known}")
    if size_bound < 1:
        raise ValueError("size_bound must be at least 1")
    if spec.param is None:
        grid: tuple[Fraction | None, ...] = (None,)
        values, lane = grid, [0]
    else:
        raw = DEFAULT_PARAM_GRID if param_grid is None else param_grid
        grid, values, lane = _param_lanes(spec.param, raw)
    concludes, holds_on = spec.concludes, spec.holds_on
    pruned = (spec.condition, values, spec.within, spec.increasing)

    def scan(space):
        """The space's instances scanned and hypothesis hits, and its
        witness (space, t, position) or None: a witness ends the scan."""
        n = len(space)
        lanes = Lanes((), n, len(values))
        tables = _sweep(space, spec.arity, *pruned, lanes)
        # Tables by their set of lanes.  Past a witness at position p, past
        # is the set of the lanes before the loosest lane of an earlier
        # position: a table whose set is no larger holds at no earlier
        # position.
        counts, p, witness, past = dict.fromkeys(lanes.upto[1:], 0), len(grid), None, 0
        for t in tables:
            if holds_on and not holds_on(space, t) or (held := lanes.sets[-2]) <= past:
                continue
            counts[held] += 1
            if not concludes(n, t):
                # The first position it holds at: only earlier ones can
                # still hold an earlier witness.
                m = lanes.size(held)
                p = next(c for c in range(p) if lane[c] < m)
                witness = list(t), _hits(lanes, counts, lane[p : p + 1])
                if not p:
                    break
                past = lanes.upto[min(lane[:p])]
        size = n ** (spec.arity * n)
        if witness is None:
            return len(grid) * size, _hits(lanes, counts, lane), None
        t, seen = witness
        rank = functools.reduce(lambda r, v: r * n + v, t)
        return p * size + rank + 1, _hits(lanes, counts, lane[:p]) + seen, (space, t, p)

    scanned = hits = spaces = 0
    status, found = EXHAUSTED, {}
    combos = itertools.product(_scan_shapes(size_bound, spec.one_dimensional_only), _METRICS)
    for space_scanned, space_hits, witness in _per_table(combos, scan):
        spaces += 1
        scanned += space_scanned
        hits += space_hits
        if witness is not None:
            space, t, p = witness
            status = COUNTEREXAMPLE
            found = {"space": space, "maps": _maps(space.image, t), "param": grid[p]}
            break
    return SearchOutcome(
        assertion,
        status,
        size_bound,
        tuple(v for v in grid if v is not None),
        **found,
        stats={
            "instances_scanned": scanned,
            "hypothesis_hits": hits,
            "space_metric_combinations": spaces,
        },
    )


# --------------------------------------------------------------------
# The curated verification suite.


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    passed: bool
    evidence: dict


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple[SuiteEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_document(self) -> dict:
        return {
            "report": "verification-suite",
            "passed": self.passed,
            "entries": [
                {"name": e.name, "passed": e.passed, "evidence": e.evidence}
                for e in self.entries
            ],
        }

    def render_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"{'PASS' if e.passed else 'FAIL'}  {e.name}")
            for key in sorted(e.evidence):
                lines.append(f"      {key}: {e.evidence[key]}")
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}  overall "
            f"({sum(1 for e in self.entries if e.passed)}/{len(self.entries)} entries)"
        )
        return "\n".join(lines)


_TALLY = {
    fixpoint.CONFIRMS: "confirmed",
    fixpoint.HYPOTHESIS_FAILS: "hypothesis_failed",
    fixpoint.REFUTES: "refuted",
}


def _theorem_sweep(name: str, combos, cond, grid: tuple, verify: Callable) -> SuiteEntry:
    """Tally verify(space, f, *coeffs) over every self-map f of each space
    of combos, (shape, metric) pairs, for each coefficient tuple of grid,
    cond's row deciding the hypothesis: bit c of a key's verdict holds
    under grid[c].  One enumeration per space keeps the maps whose every
    pair holds for some tuple; each leaf is verified, as one SelfMap,
    under the tuples that hold on all its pairs, in grid order.  Every
    (table, tuple) left out fails the hypothesis.  Each _table_class is
    built and enumerated once (_per_table): a later pair of the class
    adds the first one's tally again."""

    def sweep(space):
        n, rank, terms = len(space), space.rank, cond.terms
        holds = contracts.verdicts(space, cond, grid)
        tally = dict.fromkeys(_TALLY.values(), 0)
        for t in _sweep(space, 1, cond, grid):
            mask = (1 << len(grid)) - 1
            for i, j in itertools.product(range(n), repeat=2):
                mask &= holds[terms(rank, t, i, j)]
            if not mask:
                continue
            f = _maps(space.image, t)
            for c, coeffs in enumerate(grid):
                if mask >> c & 1:
                    tally[_TALLY[verify(space, *f, *coeffs).conclusion]] += 1
        tally["hypothesis_failed"] += n**n * len(grid) - sum(tally.values())
        return tally

    counts = dict.fromkeys(_TALLY.values(), 0)
    for tally in _per_table(combos, sweep):
        for key, k in tally.items():
            counts[key] += k
    return SuiteEntry(name, counts["refuted"] == 0, counts)


def _suite_contraction(combos) -> SuiteEntry:
    # The grid is one empty tuple, so the memo's bools are one-bit masks.
    name, cond = "contraction-theorem-exhaustive", contracts.STRICT_CONTRACTION
    return _theorem_sweep(name, combos, cond, ((),), fixpoint.banach_verify)


_EIGHTHS = tuple(Fraction(i, 8) for i in range(4))
_KANNAN_GRID = tuple((a, b) for a in _EIGHTHS for b in _EIGHTHS if a + b < Fraction(1, 2))


def _suite_two_coefficient(combos, grid=_KANNAN_GRID) -> SuiteEntry:
    name = "two-coefficient-theorem-exhaustive"

    def verify(space, t, a, b):
        # The mask decided the hypothesis: check_kannan's report, had it run.
        return fixpoint._kannan_conclusion(space, t, contracts._report(space, None), a, b)

    return _theorem_sweep(name, combos, contracts.KANNAN, grid, verify)


def _probe_entry(name: str, assertion: str) -> SuiteEntry:
    outcome = find_counterexample(assertion, size_bound=3)
    evidence = {"status": outcome.status, **outcome.stats}
    if outcome.status == COUNTEREXAMPLE:
        evidence["space"] = outcome.space.describe()
        evidence["maps"] = [str(m) for m in outcome.maps]
        if outcome.param is not None:
            evidence["param"] = str(outcome.param)
    return SuiteEntry(name, outcome.verify(), evidence)


def _suite_affine_counterexample() -> SuiteEntry:
    h = mapkit.AffineMapZ(0, 0)
    g = mapkit.AffineMapZ(1, 1)
    domination = mapkit.affine_dominates(h, g, Fraction(1, 2))
    fix_g = mapkit.affine_analyze(g)
    identity_fails = not mapkit.affine_dominates(
        mapkit.AffineMapZ(1, 0), mapkit.AffineMapZ(1, 0), Fraction(1, 2)
    ).dominates
    ok = (
        domination.dominates
        and domination.range_included
        and fix_g.kind == "none"
        and identity_fails
    )
    return SuiteEntry(
        "affine-domination-counterexample",
        ok,
        {
            "dominates": domination.dominates,
            "range_included": domination.range_included,
            "fixed_points_of_dominating_map": fix_g.kind,
        },
    )


def _suite_compatibility() -> SuiteEntry:
    img = digital_interval(0, 1)
    space = DigitalMetricSpace(img, L1)
    s = SelfMap(img, ((1,), (1,)))
    t = SelfMap(img, ((1,), (0,)))
    broken = contracts.compatible(space, s, t)
    trivial = contracts.compatible(space, t, t)
    ok = (not broken.holds) and broken.witness == ((0,),) and trivial.holds
    return SuiteEntry(
        "compatibility-coincidence-reduction",
        ok,
        {
            "noncompatible_witness": "0",
            "self_pair_compatible": trivial.holds,
        },
    )


def _suite_rational_ill_definedness() -> SuiteEntry:
    img = digital_interval(0, 1)
    space = DigitalMetricSpace(img, L1)
    ident = SelfMap.identity(img)
    rep = contracts.parv_rational_check(space, ident, ident)
    diagonal = tuple((p, p) for p in img.points)
    outcome = find_counterexample("rational-alternating-common-fix", size_bound=2)
    ok = (
        rep.ill_defined
        and rep.undefined_pairs == diagonal
        and outcome.status == COUNTEREXAMPLE
        and outcome.verify()
    )
    evidence = {
        "identity_pair_undefined_pairs": len(rep.undefined_pairs),
        "counterexample_status": outcome.status,
    }
    if outcome.status == COUNTEREXAMPLE:
        evidence["counterexample_maps"] = [str(m) for m in outcome.maps]
        evidence["counterexample_space"] = outcome.space.describe()
    return SuiteEntry("rational-condition-ill-definedness", ok, evidence)


def _suite_sum_bound_constancy(combos, xi=Fraction(1, 2)) -> SuiteEntry:
    # The narrowing checks the bound on every pair: it admits exactly the
    # pairs meeting it.  Each _table_class is swept once (_per_table).
    def sweep(space):
        n, count, constant = len(space), 0, True
        for t in _sweep(space, 2, SUM_BOUND, (xi,)):
            count += 1
            constant &= len(set(t[:n])) == len(set(t[n:])) == 1
        return count, constant

    counts, constants = zip(*_per_table(combos, sweep))
    pairs, all_constant = sum(counts), all(constants)
    img = digital_interval(0, 1)
    space = DigitalMetricSpace(img, L2)
    j = SelfMap.constant(img, 0)
    k = SelfMap.constant(img, 1)
    constructed = contracts.check_saluja(space, j, k, xi)
    no_common = not ASSERTIONS["sum-bound-common-fix"].conclusion(space, (j, k))
    ok = all_constant and constructed.condition.holds and no_common
    return SuiteEntry(
        "sum-bound-forces-constancy",
        ok,
        {
            "pairs_satisfying_bound": pairs,
            "all_satisfying_pairs_constant": all_constant,
            "constant_pair_common_fixed_points": 0 if no_common else 1,
        },
    )


def _suite_non_integer_rejection() -> SuiteEntry:
    img = digital_interval(0, 4)
    raw = [(t, t // 2 + 1 if t % 2 == 0 else t / 2 + 1) for t in range(5)]
    try:
        validate_selfmap(img, raw)
    except mapkit.MapValidationError as err:
        ok = err.kind == "non-lattice-value" and err.point == (1,)
        return SuiteEntry(
            "non-integer-map-rejection", ok, {"rejection": str(err), "kind": err.kind}
        )
    return SuiteEntry(
        "non-integer-map-rejection", False, {"rejection": "map was wrongly accepted"}
    )


def _suite_fpp() -> SuiteEntry:
    verdicts = {}
    ok = True
    for n in (1, 2, 3):
        img = digital_interval(0, n - 1)
        verdict = mapkit.has_fpp(img, restrict_continuous=True)
        verdicts[f"size_{n}"] = verdict.holds
        if verdict.holds != (n == 1):
            ok = False
        if n == 2 and (
            verdict.counterexample is None
            or verdict.counterexample.values != ((1,), (0,))
        ):
            ok = False
    return SuiteEntry("fpp-only-singletons", ok, verdicts)


def verify_paper_suite() -> SuiteReport:
    """Run every curated entry, in a fixed order, and collect verdicts.

    Deterministic: two runs produce identical reports.  Failures are
    report content, never exceptions.
    """
    intervals = list(itertools.product(((3, 0, C1), (4, 0, C1)), _METRICS))
    return SuiteReport(
        (
            _suite_contraction(intervals),
            _suite_two_coefficient(intervals),
            _probe_entry("quasi-fixed-point-probe", "quasi-fixed-point"),
            _probe_entry("five-term-fixed-point-probe", "five-term-fixed-point"),
            _suite_affine_counterexample(),
            _suite_compatibility(),
            _suite_rational_ill_definedness(),
            _suite_sum_bound_constancy(itertools.product(_scan_shapes(3, True), _METRICS)),
            _suite_non_integer_rejection(),
            _suite_fpp(),
        )
    )
