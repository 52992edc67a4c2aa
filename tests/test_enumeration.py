"""The forward-checking table enumerator, the narrowings built on it, and
the work they save.

A narrowing may only remove values that no wanted table takes; the
exactness tests check against brute force that the complete tables left
are exactly the wanted ones, so the searches, the suite sweeps and
has_fpp check no hypothesis at a leaf.  Each narrowing runs on copies of
the table with junk past the entry just assigned, so one that reads ahead
fails.  The work counts pin how much the narrowing skips and what the
budget counts, with no timing asserts.
"""

import dataclasses
import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest

from digitop import contracts, fixpoint, mapkit, search
from digitop.mapkit import (
    EnumerationBudgetError,
    SelfMap,
    enumerate_tables,
    fixed_points,
    has_fpp,
    is_continuous,
)
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace
from digitop.search import (
    _KANNAN_GRID,
    ASSERTIONS,
    COUNTEREXAMPLE,
    DEFAULT_PARAM_GRID,
    EXHAUSTED,
    find_counterexample,
    small_connected_images,
    verify_paper_suite,
)
from digitop.space import C1, C2, DigitalImage, digital_interval


def free(t, k):
    return ()


def test_an_unnarrowed_search_visits_the_product_in_order():
    tables = [tuple(t) for t in enumerate_tables([0b111] * 4, free)]
    assert tables == list(itertools.product(range(3), repeat=4))
    # Values come lowest bit first from each domain.
    tables = [tuple(t) for t in enumerate_tables([0b101, 0b110], free)]
    assert tables == list(itertools.product((0, 2), (1, 2)))


def test_a_narrowed_away_subtree_is_never_visited(monkeypatch):
    visited = []

    def narrow(t, k):
        visited.append(tuple(t[: k + 1]))
        if t[: k + 1] == [0]:
            return [(1, 0b01)]  # after a leading 0, entry 1 is 0
        if t[: k + 1] == [1]:
            return [(1, 0b11), (2, 0b00)]  # entry 2 has no value left
        return ()

    def run():
        return [tuple(t) for t in enumerate_tables([0b11] * 3, narrow)]

    assert run() == [(0, 0, 0), (0, 0, 1)]
    assert visited == [(0,), (0, 0), (1,)]
    # Each assignment is one node, the abandoned (1,) included: 2 + 1 + 2.
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 5)
    assert run() == [(0, 0, 0), (0, 0, 1)]
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 4)
    with pytest.raises(EnumerationBudgetError, match="budget of 4 "):
        run()


def reading_no_entry_past_k(narrow):
    """narrow, handed a copy of each table with junk past entry k."""
    return lambda t, k: narrow(t[: k + 1] + [None] * (len(t) - k - 1), k)


def junk_fed(domains, narrow):
    return enumerate_tables(domains, reading_no_entry_past_k(narrow))


def table_maps(img, table, arity):
    """The maps of a table of value positions, one map after the other."""
    n, pts = len(img), img.points
    starts = range(0, arity * n, n)
    return tuple(SelfMap(img, tuple(pts[v] for v in table[a : a + n])) for a in starts)


@pytest.fixture
def swept(monkeypatch):
    """The tables search._sweep gives, its narrowing fed junk past k."""
    monkeypatch.setattr(search, "enumerate_tables", junk_fed)

    def tables(space, arity, *pruned):
        return [tuple(t) for t in search._sweep(space, arity, *pruned)]

    return tables


SPACES = [
    DigitalMetricSpace(img, metric)
    for img in small_connected_images(3)
    for metric in (L1, L2, SHORTEST_PATH)
]


@pytest.mark.parametrize("space", SPACES, ids=repr)
@pytest.mark.parametrize("assertion", sorted(ASSERTIONS))
def test_each_narrowing_leaves_exactly_the_hypothesis_true_tables(assertion, space, swept):
    spec = ASSERTIONS[assertion]
    n = len(space)
    tables = list(itertools.product(range(n), repeat=spec.arity * n))
    maps = [table_maps(space.image, t, spec.arity) for t in tables]
    # The rational form has no parameter: its search's grid is (None,).
    for value in DEFAULT_PARAM_GRID if spec.param else (None,):
        wanted = [t for t, m in zip(tables, maps) if spec.hypothesis(space, m, value)]
        pruned = (spec.condition, (value,), spec.within, spec.increasing)
        assert swept(space, spec.arity, *pruned) == wanted


# The suite's theorem sweeps run on the intervals of 3 and 4 points; the
# former are among SPACES already.
THEOREM_SPACES = SPACES + [
    DigitalMetricSpace(digital_interval(0, 3), metric) for metric in (L1, L2, SHORTEST_PATH)
]


def self_maps(space):
    n = len(space)
    tables = list(itertools.product(range(n), repeat=n))
    return tables, [table_maps(space.image, t, 1)[0] for t in tables]


@pytest.mark.parametrize("space", THEOREM_SPACES, ids=repr)
def test_the_contraction_narrowing_leaves_exactly_the_hypothesis_true_maps(space, swept):
    tables, maps = self_maps(space)
    wanted = [t for t, f in zip(tables, maps) if fixpoint.banach_verify(space, f).hypothesis.holds]
    assert swept(space, 1, contracts.STRICT_CONTRACTION, ((),)) == wanted


@pytest.mark.parametrize("space", THEOREM_SPACES, ids=repr)
@pytest.mark.parametrize("a, b", _KANNAN_GRID + ((Fraction(1, 5), Fraction(1, 4)),), ids=str)
def test_the_kannan_narrowing_leaves_exactly_the_hypothesis_true_maps(space, a, b, swept):
    tables, maps = self_maps(space)
    wanted = [t for t, f in zip(tables, maps) if contracts.check_kannan(space, f, a, b).holds]
    assert swept(space, 1, contracts.KANNAN, ((a, b),)) == wanted


@pytest.fixture
def enumerated(monkeypatch):
    """Every table has_fpp's enumeration gives, its narrowing fed junk past k."""
    tables = []

    def exhaustive(domains, narrow):
        tables[:] = [tuple(t) for t in enumerate_tables(domains, reading_no_entry_past_k(narrow))]
        return iter(tables)

    monkeypatch.setattr(mapkit, "enumerate_tables", exhaustive)
    return tables


@pytest.mark.parametrize("restrict_continuous", (True, False), ids=("continuous", "all-maps"))
@pytest.mark.parametrize("img", small_connected_images(4), ids=lambda img: img.describe())
def test_has_fpp_leaves_exactly_the_fixed_point_free_maps(img, restrict_continuous, enumerated):
    n = len(img)
    wanted = []
    for t in itertools.product(range(n), repeat=n):
        (f,) = table_maps(img, t, 1)
        if not fixed_points(f) and (is_continuous(f) or not restrict_continuous):
            wanted.append(t)
    verdict = has_fpp(img, restrict_continuous)
    assert enumerated == wanted
    assert verdict.holds == (not wanted)


def summary(outcome):
    space = outcome.space and outcome.space.describe()
    return outcome.status, space, [f.values for f in outcome.maps], outcome.param, outcome.stats


@pytest.mark.parametrize("assertion", sorted(ASSERTIONS))
def test_no_search_narrowing_reads_an_entry_past_k(assertion, monkeypatch):
    expected = summary(find_counterexample(assertion, 4))
    monkeypatch.setattr(search, "enumerate_tables", junk_fed)
    assert summary(find_counterexample(assertion, 4)) == expected


def test_no_suite_narrowing_reads_an_entry_past_k(monkeypatch):
    expected = verify_paper_suite()
    monkeypatch.setattr(search, "enumerate_tables", junk_fed)
    assert verify_paper_suite() == expected


def counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_the_monotone_exhaustion_decides_few_tables(monkeypatch):
    calls = Counter()
    check = contracts.check_pair_domination
    monkeypatch.setattr(contracts, "check_pair_domination", counting(calls, "domination", check))
    outcome = find_counterexample("dominated-monotone-compatible", 4)
    assert outcome.status == EXHAUSTED
    assert outcome.stats["instances_scanned"] == 596_538
    assert outcome.stats["hypothesis_hits"] == 9
    assert calls["domination"] == 0


@pytest.mark.parametrize("assertion", sorted(ASSERTIONS))
def test_each_search_enumerates_only_hypothesis_true_tables(assertion, monkeypatch):
    spec, seen, sweep = ASSERTIONS[assertion], [], search._sweep

    def recorded(space, *args):
        for t in sweep(space, *args):
            seen.append((space, tuple(t)))
            yield t

    monkeypatch.setattr(search, "_sweep", recorded)
    grid = (Fraction(3, 4),) if spec.param else None
    find_counterexample(assertion, 3, grid)
    assert seen
    for space, t in seen:
        maps = table_maps(space.image, t, spec.arity)
        assert spec.hypothesis(space, maps, grid and grid[0]), (space.describe(), t)


def test_the_rational_search_builds_maps_only_for_its_witness(monkeypatch):
    calls = Counter()
    build = SelfMap.__post_init__
    monkeypatch.setattr(SelfMap, "__post_init__", counting(calls, "build", build))
    outcome = find_counterexample("rational-alternating-common-fix", 5)
    assert outcome.status == COUNTEREXAMPLE and outcome.stats["hypothesis_hits"] > 1
    assert calls["build"] == len(outcome.maps) == 2


def test_the_budget_counts_every_entry_a_search_assigns(monkeypatch):
    # The largest enumeration of this search assigns 15 entries, on the
    # 3-point interval; the first to need them is under l_1.
    expected = find_counterexample("five-term-fixed-point", 3)
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 15)
    assert find_counterexample("five-term-fixed-point", 3) == expected
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 14)
    space = DigitalMetricSpace(digital_interval(0, 2), L1).describe()
    with pytest.raises(EnumerationBudgetError, match=re.escape(space + ": ")):
        find_counterexample("five-term-fixed-point", 3)


def test_the_budget_counts_every_entry_of_one_enumeration_for_the_whole_grid(monkeypatch):
    # Out of order: the 3-point l1 space's one enumeration for both values
    # assigns the 15 entries of the looser one.
    grid = (Fraction(3, 4), Fraction(1, 4))
    expected = find_counterexample("five-term-fixed-point", 3, grid)
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 15)
    assert find_counterexample("five-term-fixed-point", 3, grid) == expected
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 14)
    space = DigitalMetricSpace(digital_interval(0, 2), L1).describe()
    with pytest.raises(EnumerationBudgetError, match=re.escape(space + ": ")):
        find_counterexample("five-term-fixed-point", 3, grid)


PARAMETERISED = [key for key, spec in ASSERTIONS.items() if spec.param is not None]


@pytest.mark.parametrize("size_bound", (4, 5))
@pytest.mark.parametrize("assertion", PARAMETERISED)
def test_a_search_enumerates_each_space_once_for_the_whole_grid(assertion, size_bound, monkeypatch):
    calls = Counter()
    tables = counting(calls, "enumerate_tables", enumerate_tables)
    monkeypatch.setattr(search, "enumerate_tables", tables)
    outcome = find_counterexample(assertion, size_bound)
    # One enumeration per distinct distance table among the spaces reached:
    # one per space made 21 at size bound 5 (18 at 4), and one per space
    # and grid value three times as many.
    spec = ASSERTIONS[assertion]
    images = small_connected_images(size_bound, spec.increasing)
    spaces = [DigitalMetricSpace(img, m) for img in images for m in (L1, L2, SHORTEST_PATH)]
    reached = spaces[: outcome.stats["space_metric_combinations"]]
    tables = {(sp.comparison_tolerance, sp.levels, sp.rank) for sp in reached}
    assert calls["enumerate_tables"] == len(tables) < len(reached)


def test_a_search_computes_each_level_key_of_a_row_once(monkeypatch):
    calls = Counter()
    spec = ASSERTIONS["quasi-fixed-point"]
    terms = counting(calls, "terms", spec.condition.terms)
    counted = dataclasses.replace(spec, condition=spec.condition._replace(terms=terms))
    monkeypatch.setitem(ASSERTIONS, "quasi-fixed-point", counted)
    assert find_counterexample("quasi-fixed-point", 5).status == EXHAUSTED
    # The 21 spaces have 8 distinct tables, each enumerated once.  One
    # enumeration per space computed 1,707 keys, and one per space and
    # grid value 5,121.
    assert calls["terms"] == 665


@pytest.mark.parametrize(
    "assertion, size_bound, hits",
    (("quasi-fixed-point", 9, 444_469), ("five-term-fixed-point", 8, 505_698)),
)
def test_searches_past_the_old_budget_exhaust(assertion, size_bound, hits):
    # The largest enumerations assign 113,201 entries (quasi, the 9-point
    # interval) and 94,130 (five-term): both were budget errors before
    # forward checking.
    outcome = find_counterexample(assertion, size_bound)
    assert outcome.status == EXHAUSTED
    assert outcome.stats["hypothesis_hits"] == hits


def test_a_search_builds_only_the_images_it_reaches(monkeypatch):
    # No size cap: a large size bound costs only the images scanned before
    # the budget stops the search.
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 100)
    search._scan_image.cache_clear()
    with pytest.raises(EnumerationBudgetError, match="^5 point"):
        find_counterexample("quasi-fixed-point", 1000)
    assert search._scan_image.cache_info().currsize == 5


@pytest.mark.parametrize(
    "img",
    (
        *small_connected_images(6),
        digital_interval(0, 6),
        *(DigitalImage([(i, j) for i in range(3) for j in range(3)], adj) for adj in (C1, C2)),
        digital_interval(0, 11),
    ),
    ids=lambda img: img.describe(),
)
@pytest.mark.parametrize("restrict_continuous", (True, False), ids=("continuous", "all-maps"))
def test_has_fpp_answers_after_at_most_n_entries_assigned(img, restrict_continuous, monkeypatch):
    # Past the product budget too: 7**7 tables and more.
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", len(img))
    verdict = has_fpp(img, restrict_continuous)
    assert verdict.holds == (len(img) == 1)
    if not verdict.holds:
        assert not fixed_points(verdict.counterexample)
        assert is_continuous(verdict.counterexample) or not restrict_continuous


def test_has_fpp_builds_few_maps(monkeypatch):
    calls = Counter()
    post_init = SelfMap.__post_init__
    monkeypatch.setattr(mapkit.SelfMap, "__post_init__", counting(calls, "selfmap", post_init))
    violation = mapkit.continuity_violation
    monkeypatch.setattr(mapkit, "continuity_violation", counting(calls, "continuity", violation))
    img = DigitalImage([(i, j) for i in range(2) for j in range(3)], C2)
    verdict = has_fpp(img)
    assert not verdict.holds
    assert verdict.counterexample.values[:2] == ((0, 1), (0, 0))
    # The first admitted table is the witness: one map, no re-check.
    assert calls["selfmap"] == 1
    assert calls["continuity"] == 0
