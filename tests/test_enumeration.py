"""The depth-first table enumerator, its prefix constraints, and the work
it saves.

A prefix constraint may only reject a prefix that no wanted table
completes; the soundness tests check that against brute force over every
completion.  The assertions' and the FPP constraints are exact as well:
the complete tables they admit are the wanted ones, so the searches
check no hypothesis at a leaf.  The work counts pin how much the pruning
skips and what the budget counts, with no timing asserts.
"""

import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest

from digitop import contracts, fixpoint, mapkit, search
from digitop.mapkit import (
    EnumerationBudgetError,
    SelfMap,
    _fpp_prefix,
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
    _contraction_prefix,
    _kannan_prefix,
    find_counterexample,
    small_connected_images,
)
from digitop.space import C2, DigitalImage, digital_interval


def test_an_accepting_search_visits_the_product_in_order():
    tables = [tuple(t) for t in enumerate_tables(3, 4, lambda table, k: True)]
    assert tables == list(itertools.product(range(3), repeat=4))


def test_a_rejected_prefix_loses_its_whole_subtree():
    visited = []

    def accept(table, k):
        visited.append(tuple(table[: k + 1]))
        return table[:2] != [0, 1]

    tables = [tuple(t) for t in enumerate_tables(2, 3, accept)]
    assert tables == [t for t in itertools.product(range(2), repeat=3) if t[:2] != (0, 1)]
    assert (0, 1, 0) not in visited and (0, 1, 1) not in visited


def table_maps(img, table, arity):
    """The maps of a table of value positions, one map after the other."""
    n, pts = len(img), img.points
    starts = range(0, arity * n, n)
    return tuple(SelfMap(img, tuple(pts[v] for v in table[a : a + n])) for a in starts)


def assert_sound(accept, n, length, wanted):
    """Every prefix accept rejects has no completion that `wanted` holds on."""
    prefixes = {table[:m] for table in wanted for m in range(1, length + 1)}
    for m in range(1, length + 1):
        for prefix in itertools.product(range(n), repeat=m):
            # Entries past the prefix are junk: the constraint must not read them.
            table = list(prefix) + [n] * (length - m)
            if not accept(table, m - 1):
                assert prefix not in prefixes, prefix


PRUNED = [key for key, spec in ASSERTIONS.items() if spec.terms is not None]
SPACES = [
    DigitalMetricSpace(img, metric)
    for img in small_connected_images(3)
    for metric in (L1, L2, SHORTEST_PATH)
]


@pytest.mark.parametrize("space", SPACES, ids=repr)
@pytest.mark.parametrize("assertion", PRUNED)
def test_prefix_constraints_reject_no_hypothesis_true_table(assertion, space):
    spec = ASSERTIONS[assertion]
    n = len(space)
    length = spec.arity * n
    tables = list(itertools.product(range(n), repeat=length))
    maps = [table_maps(space.image, t, spec.arity) for t in tables]
    for value in DEFAULT_PARAM_GRID:
        wanted = [t for t, m in zip(tables, maps) if spec.hypothesis(space, m, value)]
        accept = spec.prefix(space, value)
        assert_sound(accept, n, length, wanted)
        # Exact as well as sound, so the searches need no hypothesis check
        # at the leaves (copied, since the enumerator reuses its list).
        assert [tuple(t) for t in enumerate_tables(n, length, accept)] == wanted


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
def test_the_contraction_prefix_rejects_no_hypothesis_true_map(space):
    tables, maps = self_maps(space)
    wanted = [t for t, f in zip(tables, maps) if fixpoint.banach_verify(space, f).hypothesis.holds]
    assert_sound(_contraction_prefix(space), len(space), len(space), wanted)


@pytest.mark.parametrize("space", THEOREM_SPACES, ids=repr)
@pytest.mark.parametrize("a, b", _KANNAN_GRID + ((Fraction(1, 5), Fraction(1, 4)),), ids=str)
def test_the_kannan_prefix_rejects_no_hypothesis_true_map(space, a, b):
    tables, maps = self_maps(space)
    wanted = [t for t, f in zip(tables, maps) if contracts.check_kannan(space, f, a, b).holds]
    assert_sound(_kannan_prefix(space, a, b), len(space), len(space), wanted)


@pytest.mark.parametrize("restrict_continuous", (True, False), ids=("continuous", "all-maps"))
@pytest.mark.parametrize("img", small_connected_images(4), ids=lambda img: img.describe())
def test_fpp_prefix_rejects_no_fixed_point_free_map(img, restrict_continuous):
    n = len(img)
    wanted = []
    for t in itertools.product(range(n), repeat=n):
        (f,) = table_maps(img, t, 1)
        if not fixed_points(f) and (is_continuous(f) or not restrict_continuous):
            wanted.append(t)
    accept = _fpp_prefix(img, restrict_continuous)
    assert_sound(accept, n, n, wanted)
    # Exact as well as sound: the complete tables it admits are the wanted
    # ones (copied, since the enumerator reuses its list).
    assert [tuple(t) for t in enumerate_tables(n, n, accept)] == wanted


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


def test_only_the_rational_search_checks_its_hypothesis_per_table(monkeypatch):
    calls = Counter()
    for name in ("check_quasi", "check_ciric5", "parv_rational_check"):
        monkeypatch.setattr(contracts, name, counting(calls, name, getattr(contracts, name)))
    assert find_counterexample("quasi-fixed-point", 4).status == EXHAUSTED
    assert find_counterexample("five-term-fixed-point", 4).status == EXHAUSTED
    assert calls["check_quasi"] == calls["check_ciric5"] == 0
    assert find_counterexample("rational-alternating-common-fix", 2).status == COUNTEREXAMPLE
    assert calls["parv_rational_check"] >= 1


def test_the_budget_counts_every_entry_a_search_tries(monkeypatch):
    # The largest enumerations of this search, on the 3-point interval with
    # r = 1/2 or 3/4, try 27 entries; the first is under l_1 with r = 1/2.
    expected = find_counterexample("five-term-fixed-point", 3)
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 27)
    assert find_counterexample("five-term-fixed-point", 3) == expected
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 26)
    space = DigitalMetricSpace(digital_interval(0, 2), L1).describe()
    with pytest.raises(EnumerationBudgetError, match=re.escape(space + ": ")):
        find_counterexample("five-term-fixed-point", 3)


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
        digital_interval(0, 6),
        DigitalImage([(i, j) for i in range(3) for j in range(3)], C2),
        digital_interval(0, 11),
    ),
    ids=lambda img: img.describe(),
)
@pytest.mark.parametrize("restrict_continuous", (True, False), ids=("continuous", "all-maps"))
def test_has_fpp_answers_past_the_product_budget(img, restrict_continuous):
    verdict = has_fpp(img, restrict_continuous)
    assert not verdict.holds
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
