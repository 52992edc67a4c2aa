"""The suite's exhaustive sweeps against the product loops they replaced.

The sweeps walk int tables depth first, verify only the maps their
hypothesis prefix admits, and count each pruned table as a hypothesis
failure.  The loops below are the earlier ones: every self-map (or pair)
from the product enumerators goes through the verifier.  Whole suite
entries must agree, on more spaces and coefficients than the suite uses.
Work counts pin that the suite verifies only hypothesis-true maps,
builds and enumerates one space per table class for a whole coefficient
grid, decides each Kannan key once for the whole grid, hands each
hypothesis-true map straight to the conclusion step once, with all its
hypothesis-true tuples, and builds each verified map and its orbits once
per distance table.  Each report so tallied is the one kannan_verify
gives on a fresh space and map.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from digitop import contracts, fixpoint, mapkit, search
from digitop.mapkit import SelfMap, enumerate_selfmaps
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.search import (
    _KANNAN_GRID,
    _METRICS,
    SuiteEntry,
    _scan_image,
    _suite_contraction,
    _suite_sum_bound_constancy,
    _suite_two_coefficient,
    enumerate_map_pairs,
    verify_paper_suite,
)
from digitop.space import C1, C2, digital_interval

# The intervals of 1 to 4 points and the 2x2 grid under c1 and c2, as
# (shape, metric) pairs of the scan universe.
SHAPES = [(n, 0, C1) for n in range(1, 5)] + [(2, 2, C1), (2, 2, C2)]
CASES = list(itertools.product(SHAPES, _METRICS))
KANNAN_GRIDS = {
    "suite": _KANNAN_GRID,
    "other": (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 5), Fraction(1, 4)),
        (Fraction(0), Fraction(49, 100)),
        (Fraction(9, 20), Fraction(0)),
    ),
    # Out of order, with a repeat: the loop verifies a repeated tuple twice.
    "shuffled": (
        (Fraction(1, 4), Fraction(1, 8)),
        (Fraction(0), Fraction(3, 8)),
        (Fraction(1, 8), Fraction(1, 8)),
        (Fraction(0), Fraction(0)),
        (Fraction(1, 8), Fraction(1, 8)),
    ),
}
# The tolerance regime, on the images of at most 3 points.
KANNAN_CASES = CASES + [(shape, Lp(3)) for shape in SHAPES if len(_scan_image(*shape)) <= 3]


def fresh(shape, metric):
    """A new space each time, so a sweep and a loop share no memo."""
    return DigitalMetricSpace(_scan_image(*shape), metric)


def ids(cases):
    return [fresh(shape, metric).describe() for shape, metric, *_ in cases]


def product_loop(spaces, verify_all) -> dict:
    counts = {"confirmed": 0, "hypothesis_failed": 0, "refuted": 0}
    for space in spaces:
        for f in enumerate_selfmaps(space.image):
            for rep in verify_all(space, f):
                if rep.conclusion == fixpoint.CONFIRMS:
                    counts["confirmed"] += 1
                elif rep.conclusion == fixpoint.HYPOTHESIS_FAILS:
                    counts["hypothesis_failed"] += 1
                else:
                    counts["refuted"] += 1
    return counts


def contraction_loop(spaces) -> SuiteEntry:
    counts = product_loop(spaces, lambda space, f: [fixpoint.banach_verify(space, f)])
    return SuiteEntry("contraction-theorem-exhaustive", counts["refuted"] == 0, counts)


def two_coefficient_loop(spaces, grid) -> SuiteEntry:
    counts = product_loop(
        spaces, lambda space, f: [fixpoint.kannan_verify(space, f, a, b) for a, b in grid]
    )
    return SuiteEntry("two-coefficient-theorem-exhaustive", counts["refuted"] == 0, counts)


def common_fixed_points(f, g) -> tuple:
    return tuple(p for p, u, v in zip(f.domain.points, f.values, g.values) if p == u == v)


def sum_bound_loop(spaces, xi) -> SuiteEntry:
    holding = 0
    all_constant = True
    for space in spaces:
        for j, k in enumerate_map_pairs(space.image):
            rep = contracts.check_saluja(space, j, k, xi, minimal=False)
            if rep.condition.holds:
                holding += 1
                if not (j.is_constant and k.is_constant):
                    all_constant = False
    img = digital_interval(0, 1)
    space = DigitalMetricSpace(img, L2)
    j = SelfMap.constant(img, 0)
    k = SelfMap.constant(img, 1)
    constructed = contracts.check_saluja(space, j, k, xi)
    no_common = not common_fixed_points(j, k)
    ok = all_constant and constructed.condition.holds and no_common
    return SuiteEntry(
        "sum-bound-forces-constancy",
        ok,
        {
            "pairs_satisfying_bound": holding,
            "all_satisfying_pairs_constant": all_constant,
            "constant_pair_common_fixed_points": 0 if no_common else 1,
        },
    )


@pytest.mark.parametrize("shape, metric", CASES, ids=ids(CASES))
def test_the_contraction_sweep_matches_the_product_loop(shape, metric):
    assert _suite_contraction([(shape, metric)]) == contraction_loop([fresh(shape, metric)])


def recording(calls: list):
    """fixpoint._kannan_conclusions, appending (map values, tuples,
    reports) to calls."""
    conclusions = fixpoint._kannan_conclusions

    def recorded(space, t, hypothesis, tuples):
        reports = conclusions(space, t, hypothesis, tuples)
        calls.append((t.values, list(tuples), reports))
        return reports

    return recorded


@pytest.mark.parametrize("grid", KANNAN_GRIDS.values(), ids=KANNAN_GRIDS.keys())
@pytest.mark.parametrize("shape, metric", KANNAN_CASES, ids=ids(KANNAN_CASES))
def test_the_two_coefficient_sweep_matches_the_product_loop(shape, metric, grid, monkeypatch):
    looped = two_coefficient_loop([fresh(shape, metric)], grid)
    space = fresh(shape, metric)
    admitted = [
        f.values
        for f in enumerate_selfmaps(space.image)
        if any(contracts.check_kannan(space, f, a, b).holds for a, b in grid)
    ]
    calls, conclusions = Counter(), []
    name = "kannan_verify"
    monkeypatch.setattr(fixpoint, name, counting(calls, name, getattr(fixpoint, name)))
    monkeypatch.setattr(fixpoint, "_kannan_conclusions", recording(conclusions))
    assert _suite_two_coefficient([(shape, metric)], grid) == looped
    # One conclusion call per hypothesis-true map, in table order, covering
    # its hypothesis-true tuples; none is decided again by kannan_verify.
    hits = looped.evidence["confirmed"] + looped.evidence["refuted"]
    assert not calls
    assert [values for values, _, _ in conclusions] == admitted
    assert sum(len(tuples) for _, tuples, _ in conclusions) == hits


@pytest.mark.parametrize("grid", KANNAN_GRIDS.values(), ids=KANNAN_GRIDS.keys())
@pytest.mark.parametrize("shape, metric", KANNAN_CASES, ids=ids(KANNAN_CASES))
def test_each_tallied_report_is_kannan_verify_on_a_fresh_space(shape, metric, grid, monkeypatch):
    conclusions = []
    monkeypatch.setattr(fixpoint, "_kannan_conclusions", recording(conclusions))
    entry = _suite_two_coefficient([(shape, metric)], grid)
    monkeypatch.undo()
    tallied = [
        (values, a, b, report)
        for values, tuples, reports in conclusions
        for (a, b), report in zip(tuples, reports, strict=True)
    ]
    assert len(tallied) == entry.evidence["confirmed"] + entry.evidence["refuted"]
    for values, a, b, report in tallied:
        space = fresh(shape, metric)
        f = SelfMap(space.image, values)
        assert report == fixpoint.kannan_verify(space, f, a, b), (values, a, b)


# The loop takes about a second per coefficient for the 65,536 pairs of a
# 4-point space, so the other coefficients stop at 3 points.
SUM_BOUND_CASES = [(shape, metric, Fraction(1, 2)) for shape, metric in CASES] + [
    (shape, metric, xi)
    for shape, metric in CASES
    if len(_scan_image(*shape)) < 4
    for xi in (Fraction(1, 3), Fraction(9, 10))
]


@pytest.mark.parametrize(
    "shape, metric, xi",
    SUM_BOUND_CASES,
    ids=[f"{name}-{xi}" for name, (*_, xi) in zip(ids(SUM_BOUND_CASES), SUM_BOUND_CASES)],
)
def test_the_sum_bound_sweep_matches_the_product_loop(shape, metric, xi):
    swept = _suite_sum_bound_constancy([(shape, metric)], xi)
    assert swept == sum_bound_loop([fresh(shape, metric)], xi)


# The suite's intervals, and the 2x2 grid under c1 and c2 and each scan
# metric: l1 does not read the adjacency, nor l2, and under c1 the word
# metric is l1, while l1 and l2 rank every pair alike on different levels.
INTERVALS = list(itertools.product(SHAPES[2:4], _METRICS))
SUM_BOUND_INTERVALS = list(itertools.product(SHAPES[:3], _METRICS))
SQUARES = CASES[-6:]
SWEEPS = {"contraction": _suite_contraction, "two-coefficient": _suite_two_coefficient}


@pytest.mark.parametrize("pairs", (INTERVALS, SQUARES), ids=("intervals", "squares"))
@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
def test_a_theorem_sweep_is_the_sum_of_its_spaces_swept_alone(sweep, pairs):
    # Pairs of one table class are swept once: the tally must be what
    # sweeping each pair on its own adds up to.
    alone = [sweep([pair]) for pair in pairs]
    total = Counter()
    for entry in alone:
        total.update(entry.evidence)
    entry = sweep(pairs)
    assert entry.evidence == dict(total)
    assert entry.passed == all(e.passed for e in alone)


@pytest.mark.parametrize("pairs", (SUM_BOUND_INTERVALS, SQUARES), ids=("intervals", "squares"))
def test_the_sum_bound_entry_is_the_sum_of_its_spaces_swept_alone(pairs):
    alone = [_suite_sum_bound_constancy([pair]).evidence for pair in pairs]
    entry = _suite_sum_bound_constancy(pairs)
    assert entry.evidence == {
        "pairs_satisfying_bound": sum(e["pairs_satisfying_bound"] for e in alone),
        "all_satisfying_pairs_constant": all(e["all_satisfying_pairs_constant"] for e in alone),
        "constant_pair_common_fixed_points": 0,
    }


def test_the_suite_builds_one_space_per_table_class(monkeypatch):
    made = []

    def counted(img, metric):
        made.append((len(img), metric))
        return DigitalMetricSpace(img, metric)

    monkeypatch.setattr(search, "DigitalMetricSpace", counted)
    # An interval's three metrics are one class: one space per interval.
    assert _suite_contraction(INTERVALS).passed and len(made) == 2
    assert _suite_two_coefficient(INTERVALS).passed and len(made) == 4
    # Three swept, and the constructed pair's 2-point space under l2.
    assert _suite_sum_bound_constancy(SUM_BOUND_INTERVALS).passed
    assert made[4:] == [(1, L1), (2, L1), (3, L1), (2, L2)]
    # The two theorem sweeps' 2 spaces each, the sum-bound entry's 4, the
    # two probes' 3 each and 4 for the other entries.  A space per pair
    # built 26.
    made.clear()
    assert verify_paper_suite().passed
    assert len(made) == 18


def counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_the_suite_verifies_only_hypothesis_true_maps(monkeypatch):
    calls, per_sweep = Counter(), {}
    for module, name in (
        (search.fixpoint, "kannan_verify"),
        (search.fixpoint, "banach_verify"),
        (search.contracts, "check_saluja"),
        (search.fixpoint, "_kannan_conclusions"),
        (search.fixpoint, "_confirm"),
        (search, "enumerate_tables"),
        (mapkit, "_iterate"),
        (SelfMap, "__post_init__"),
    ):
        monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
    # The sweep reads the Kannan row, which holds its functions: count them there.
    row = contracts.KANNAN
    counted = row._replace(
        terms=counting(calls, "_kannan_terms", row.terms), rule=counting(calls, "_kannan", row.rule)
    )
    monkeypatch.setattr(contracts, "KANNAN", counted)
    sweep = search._theorem_sweep

    def counted_sweep(name, spaces, *args):
        before = calls["enumerate_tables"]
        entry = sweep(name, spaces, *args)
        per_sweep[name] = (len(spaces), calls["enumerate_tables"] - before)
        return entry

    monkeypatch.setattr(search, "_theorem_sweep", counted_sweep)
    report = verify_paper_suite()
    assert report.passed
    evidence = {e.name: e.evidence for e in report.entries}
    # The product loops made 8,490 kannan_verify and 849 banach_verify
    # calls.  The sweep's masks decide the two-coefficient hypotheses, so
    # only the conclusion step runs, once per hypothesis-true map of each
    # distinct distance table, under all its hypothesis-true tuples.  The
    # six interval spaces have two tables: l1, l2 and the word metric agree
    # on an interval.  Each space swept made 246 conclusion steps and 21
    # banach_verify calls, the confirmed counts, which stay; one conclusion
    # step per hypothesis-true (map, tuple) made 82.  Each conclusion call
    # and banach_verify scans its map's fixed points and orbits once: one
    # scan per (map, tuple) made 89.
    assert calls["kannan_verify"] == 0
    assert calls["_kannan_conclusions"] == 11
    assert evidence["two-coefficient-theorem-exhaustive"]["confirmed"] == 246
    assert calls["banach_verify"] == 7
    assert evidence["contraction-theorem-exhaustive"]["confirmed"] == 21
    assert calls["_confirm"] == 18
    # The prefix decides the bound on every pair it admits: only the
    # constructed pair is checked.
    assert calls["check_saluja"] == 1
    # The 82 two-coefficient verifications fall on 11 tables of value
    # positions of the two distance tables: each sweep builds a SelfMap once
    # per table of positions and distance table, and each map runs its
    # orbits once.  Each space swept made 63 SelfMaps and 198 orbits; a map
    # per verification and every orbit per verification 276 and 969.
    assert calls["__post_init__"] == 27
    assert calls["_iterate"] == 66
    # One enumeration per distinct distance table for the whole coefficient
    # grid: one per space made 6 + 6, one per space and tuple 6 + 60.
    assert per_sweep == {
        "contraction-theorem-exhaustive": (6, 2),
        "two-coefficient-theorem-exhaustive": (6, 2),
    }
    # The key count is exact: the narrowing reads 123 keys, and the leaves
    # none, since each leaf's lanes name its tuples.  The 11 leaves (3 of 3
    # points, 8 of 4) reading their pairs i <= j made 98 more, 221 in all,
    # and their n^2 pairs 278.  Each space swept made 834, one enumeration
    # per space and tuple 6,996.
    assert calls["_kannan_terms"] == 123
    # Each of the two tables' 53 distinct Kannan keys the narrowing reads
    # is decided once, for the whole grid.  The five diagonal keys, lhs
    # d(Tx, Tx) = 0, hold under every tuple and are never read; the leaves
    # reading them made 58.  Each space swept made 174, and deciding each
    # key under each of the ten tuples 1,740.
    assert calls["_kannan"] == 53


@pytest.mark.parametrize("metric", [L1, L2, Lp(3), SHORTEST_PATH], ids=str)
def test_a_map_runs_its_orbits_once_across_coefficients(metric, monkeypatch):
    img, values = digital_interval(0, 3), ((0,), (0,), (0,), (1,))
    grid = [pair for pairs in KANNAN_GRIDS.values() for pair in pairs]
    calls = Counter()
    monkeypatch.setattr(mapkit, "_iterate", counting(calls, "_iterate", mapkit._iterate))
    space, shared = DigitalMetricSpace(img, metric), SelfMap(img, values)
    reports = [fixpoint.kannan_verify(space, shared, a, b) for a, b in grid]
    assert calls["_iterate"] == len(img)
    assert {r.conclusion for r in reports} == {fixpoint.CONFIRMS, fixpoint.HYPOTHESIS_FAILS}
    fresh_reports = [
        fixpoint.kannan_verify(DigitalMetricSpace(img, metric), SelfMap(img, values), a, b)
        for a, b in grid
    ]
    assert reports == fresh_reports
