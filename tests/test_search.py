"""Counterexample hunts and the curated verification suite.

The expected witnesses below were computed by this package's own
exhaustive scans and then checked by hand:

  * second-map-dominated pairs: G = const 0, H = const 1 satisfy the
    domination inequality (left side always 0) yet share no fixed point
  * with the range requirement added, the first witness becomes
    G = swap, H = const 0 — H's range {0} sits inside G's range {0,1},
    but G has no fixed point at all
  * the rational two-map condition: T = S = swap is vacuously fine on
    the two defined pairs, while the alternating orbits oscillate and
    no common fixed point exists
  * the sum-bound pair: two distinct constant maps satisfy the bound
    (both sides 0) with no common fixed point

The exhausted outcomes (three-term max, five-term max, monotone
compatibility) agree with the theory: both max conditions with a
constant below 1 force a fixed point on a finite space, and the only
strictly increasing self-map of a finite interval is the identity.
"""

import itertools
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractions import Fraction

from digitop import search
from digitop.mapkit import EnumerationBudgetError, SelfMap
from digitop.metric import DigitalMetricSpace, Lp
from digitop.search import (
    ASSERTIONS,
    COUNTEREXAMPLE,
    DEFAULT_PARAM_GRID,
    EXHAUSTED,
    SearchOutcome,
    enumerate_map_pairs,
    find_counterexample,
    small_connected_images,
    verify_paper_suite,
)
from digitop.space import digital_interval


# -- enumeration plumbing --------------------------------------------


def test_pair_enumeration_counts():
    assert len(list(enumerate_map_pairs(digital_interval(0, 0)))) == 1
    assert len(list(enumerate_map_pairs(digital_interval(0, 1)))) == 16
    assert len(list(enumerate_map_pairs(digital_interval(0, 2)))) == 729


def test_pair_enumeration_budget():
    # 4 points: (4^4)^2 = 65536 is exactly the ceiling; 5 points exceed it
    list(enumerate_map_pairs(digital_interval(0, 3)))
    with pytest.raises(EnumerationBudgetError):
        enumerate_map_pairs(digital_interval(0, 4))


def test_scan_universe_shapes():
    assert [len(i) for i in small_connected_images(3)] == [1, 2, 3]
    bound4 = small_connected_images(4)
    assert [len(i) for i in bound4] == [1, 2, 3, 4, 4, 4]
    assert {str(i.adjacency) for i in bound4[-2:]} == {"c1", "c2"}
    assert bound4[-1].dimension == 2
    only_line = small_connected_images(4, one_dimensional_only=True)
    assert all(i.dimension == 1 for i in only_line)


# -- find_counterexample validation ----------------------------------


def test_unknown_assertion_rejected():
    with pytest.raises(ValueError, match="unknown assertion"):
        find_counterexample("nonsense")


def test_size_bound_range():
    with pytest.raises(ValueError):
        find_counterexample("quasi-fixed-point", size_bound=0)
    # No size cap.  Only the identity pair is strictly rising, and it meets
    # rho < 1 only on the one-point interval, under 3 metrics x 3 parameters.
    outcome = find_counterexample("dominated-monotone-compatible", size_bound=5)
    assert outcome.status == EXHAUSTED
    assert outcome.stats["instances_scanned"] == 88_487_163
    assert outcome.stats["hypothesis_hits"] == 9


def test_param_grid_validation():
    with pytest.raises(ValueError):
        find_counterexample("quasi-fixed-point", param_grid=[Fraction(3, 2)])
    with pytest.raises(ValueError):
        find_counterexample("quasi-fixed-point", param_grid=[])
    # Any value Fraction takes is converted; the outcome carries Fractions.
    for value, expected in (("1/4", Fraction(1, 4)), (0, Fraction(0)), (0.25, Fraction(1, 4))):
        o = find_counterexample("dominated-common-fix", size_bound=2, param_grid=[value])
        assert o.status == COUNTEREXAMPLE
        assert o.param_grid == (expected,) and type(o.param) is Fraction
        assert o.param == expected
    for value, shown in ((Fraction(-1, 4), "-1/4"), (Fraction(1), "1"), (True, "1")):
        message = f"r grid value {shown} outside [0, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_counterexample("quasi-fixed-point", param_grid=[Fraction(1, 2), value])
    # A duplicated, unsorted grid has its sorted copy's lanes; with 1/4 first
    # in both, the witness, its value and the counts are the same, on a
    # witness search and on an exhaustion.
    grid = (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), Fraction(3, 4))
    for assertion in ("dominated-common-fix", "quasi-fixed-point"):
        a = find_counterexample(assertion, 4, grid)
        b = find_counterexample(assertion, 4, sorted(grid))
        assert a.param_grid == grid and b.param_grid == tuple(sorted(grid))
        assert (a.status, a.param, a.stats) == (b.status, b.param, b.stats)
        assert [m.values for m in a.maps] == [m.values for m in b.maps]


@given(st.lists(st.fractions(min_value=0, max_value=Fraction(999, 1000)), min_size=1))
def test_the_grid_lanes_order_the_distinct_values_loosest_first(grid):
    values = tuple(sorted(set(grid), reverse=True))
    assert search._param_lanes("r", grid) == (
        tuple(grid),
        values,
        [values.index(v) for v in grid],
    )


def test_outcome_invariant():
    with pytest.raises(ValueError):
        SearchOutcome("quasi-fixed-point", COUNTEREXAMPLE, 2, DEFAULT_PARAM_GRID)


# -- table classes -----------------------------------------------------


@pytest.mark.parametrize(
    "size_bound, spaces, classes", ((3, 9, 3), (4, 18, 7), (5, 21, 8), (9, 51, 21))
)
def test_scan_spaces_share_a_table_class_exactly_when_their_tables_are_equal(
    size_bound, spaces, classes
):
    shapes = list(search._scan_shapes(size_bound, False))
    assert tuple(itertools.starmap(search._scan_image, shapes)) == small_connected_images(
        size_bound
    )
    named, tables = keys_and_tables(shapes, search._METRICS)
    # One partition: as many classes as tables, and as many of either as
    # (class, table) pairs.
    assert len(named) == spaces
    assert len(set(named)) == len(set(tables)) == len(set(zip(named, tables))) == classes


def keys_and_tables(shapes, metrics) -> tuple[list, list]:
    """Each scan space's _table_class and its distance table: all a search
    or a sweep reads of a space besides its points."""
    named, tables = [], []
    for shape, m in itertools.product(shapes, metrics):
        space = DigitalMetricSpace(search._scan_image(*shape), m)
        named.append(search._table_class(*shape, m))
        tables.append((space.comparison_tolerance, space.levels, space.rank))
    return named, tables


@pytest.mark.parametrize("size_bound, keys, distinct", ((3, 9, 6), (4, 17, 13), (5, 20, 15)))
def test_a_tolerance_metric_is_its_own_table_class(size_bound, keys, distinct):
    # Equal keys mean equal tables; each l_p beyond l1 and l2 is keyed
    # apart, so the keys split more finely than the tables do.
    shapes = search._scan_shapes(size_bound, False)
    metrics = (*search._METRICS, Lp(3), Lp(Fraction(3, 2)))
    named, tables = keys_and_tables(shapes, metrics)
    assert len(set(named)) == len(set(zip(named, tables))) == keys
    assert len(set(tables)) == distinct


@pytest.mark.parametrize(
    "assertion, status, built, spaces",
    (("dominated-common-fix", COUNTEREXAMPLE, 2, 4), ("quasi-fixed-point", EXHAUSTED, 8, 21)),
)
def test_a_search_builds_one_space_per_table_class(assertion, status, built, spaces, monkeypatch):
    made = []

    def counted(img, metric):
        made.append((img, metric))
        return DigitalMetricSpace(img, metric)

    monkeypatch.setattr(search, "DigitalMetricSpace", counted)
    outcome = find_counterexample(assertion, 5)
    assert outcome.status == status
    assert len(made) == built
    assert outcome.stats["space_metric_combinations"] == spaces


# -- frozen search outcomes ------------------------------------------


def test_registry_keys():
    assert sorted(ASSERTIONS) == [
        "dominated-common-fix",
        "dominated-common-fix-with-range",
        "dominated-monotone-compatible",
        "five-term-fixed-point",
        "quasi-fixed-point",
        "rational-alternating-common-fix",
        "sum-bound-common-fix",
    ]


def test_dominated_pair_counterexample():
    o = find_counterexample("dominated-common-fix", size_bound=2)
    assert o.status == COUNTEREXAMPLE
    assert [m.values for m in o.maps] == [((0,), (0,)), ((1,), (1,))]
    assert o.param == Fraction(1, 4)
    assert o.space.describe() == "2 point(s) in Z^1 with c1, metric l1"
    assert o.stats == {
        "instances_scanned": 13,
        "hypothesis_hits": 11,
        "space_metric_combinations": 4,
    }
    assert o.verify()


def test_dominated_with_range_counterexample():
    o = find_counterexample("dominated-common-fix-with-range", size_bound=2)
    assert o.status == COUNTEREXAMPLE
    # G is the swap (no fixed point anywhere), H the constant 0
    assert [m.values for m in o.maps] == [((1,), (0,)), ((0,), (0,))]
    assert o.verify()


def test_rational_alternating_counterexample():
    o = find_counterexample("rational-alternating-common-fix", size_bound=2)
    assert o.status == COUNTEREXAMPLE
    assert [m.values for m in o.maps] == [((1,), (0,)), ((1,), (0,))]
    assert o.param is None
    assert o.verify()


def test_sum_bound_counterexample():
    o = find_counterexample("sum-bound-common-fix", size_bound=2)
    assert o.status == COUNTEREXAMPLE
    assert [m.values for m in o.maps] == [((0,), (0,)), ((1,), (1,))]
    assert o.verify()


def test_max_condition_probes_exhaust():
    for key in ("quasi-fixed-point", "five-term-fixed-point"):
        o = find_counterexample(key, size_bound=2)
        assert o.status == EXHAUSTED, key
        assert o.stats == {
            "instances_scanned": 45,
            "hypothesis_hits": 27,
            "space_metric_combinations": 6,
        }
        # hits are exactly the constant maps plus the singleton identity:
        # 1 map * 9 regimes + 2 constants * 9 regimes
        assert o.stats["hypothesis_hits"] == 27


def test_monotone_compatibility_exhausts():
    o = find_counterexample("dominated-monotone-compatible", size_bound=3)
    assert o.status == EXHAUSTED
    # strictly increasing on a finite interval means identity, and the
    # identity pair only passes domination on the singleton space
    assert o.stats["hypothesis_hits"] == 9


def test_search_is_deterministic():
    a = find_counterexample("dominated-common-fix", size_bound=2)
    b = find_counterexample("dominated-common-fix", size_bound=2)
    assert a.status == b.status
    assert [m.values for m in a.maps] == [m.values for m in b.maps]
    assert a.param == b.param and a.stats == b.stats


def test_verify_rejects_a_fabricated_witness():
    img = digital_interval(0, 1)
    ident = SelfMap.identity(img)
    from digitop.metric import DigitalMetricSpace

    fake = SearchOutcome(
        "dominated-common-fix",
        COUNTEREXAMPLE,
        2,
        DEFAULT_PARAM_GRID,
        space=DigitalMetricSpace(img),
        maps=(ident, ident),
        param=Fraction(1, 4),
    )
    assert not fake.verify()  # the identity pair never satisfies domination


def test_custom_param_grid_changes_the_scan():
    # with rho = 0 only exactly-collapsing pairs pass; the witness is the same
    o = find_counterexample("dominated-common-fix", size_bound=2, param_grid=[0])
    assert o.status == COUNTEREXAMPLE
    assert o.param == 0
    assert o.param_grid == (0,)


@pytest.fixture
def selfmaps_built(monkeypatch):
    """A counter of the SelfMaps constructed while the test runs."""
    built = Counter()
    check = SelfMap.__post_init__

    def counted(f):
        built["maps"] += 1
        check(f)

    monkeypatch.setattr(SelfMap, "__post_init__", counted)
    return built


@pytest.mark.parametrize(
    "assertion, size_bound, status, maps",
    [
        ("quasi-fixed-point", 5, EXHAUSTED, 0),
        ("five-term-fixed-point", 5, EXHAUSTED, 0),
        ("dominated-monotone-compatible", 4, EXHAUSTED, 0),
        ("dominated-common-fix", 5, COUNTEREXAMPLE, 2),
        ("dominated-common-fix-with-range", 5, COUNTEREXAMPLE, 2),
        ("sum-bound-common-fix", 5, COUNTEREXAMPLE, 2),
    ],
)
def test_narrowed_searches_build_self_maps_only_for_the_witness(
    assertion, size_bound, status, maps, selfmaps_built
):
    # Conclusions are decided on value positions; a SelfMap is built only
    # for the witness a counterexample carries.
    assert find_counterexample(assertion, size_bound).status == status
    assert selfmaps_built["maps"] == maps


# -- the curated suite -----------------------------------------------

EXPECTED_SUITE_ORDER = [
    "contraction-theorem-exhaustive",
    "two-coefficient-theorem-exhaustive",
    "quasi-fixed-point-probe",
    "five-term-fixed-point-probe",
    "affine-domination-counterexample",
    "compatibility-coincidence-reduction",
    "rational-condition-ill-definedness",
    "sum-bound-forces-constancy",
    "non-integer-map-rejection",
    "fpp-only-singletons",
]


@pytest.fixture(scope="module")
def suite():
    return verify_paper_suite()


def test_suite_entries_and_overall(suite):
    assert [e.name for e in suite.entries] == EXPECTED_SUITE_ORDER
    assert all(e.passed for e in suite.entries), [
        e.name for e in suite.entries if not e.passed
    ]
    assert suite.passed


def test_suite_headline_evidence(suite):
    by_name = {e.name: e.evidence for e in suite.entries}
    assert by_name["contraction-theorem-exhaustive"]["refuted"] == 0
    assert by_name["two-coefficient-theorem-exhaustive"]["refuted"] == 0
    assert by_name["quasi-fixed-point-probe"]["status"] == EXHAUSTED
    assert by_name["five-term-fixed-point-probe"]["status"] == EXHAUSTED
    assert by_name["affine-domination-counterexample"]["dominates"] is True
    assert (
        by_name["affine-domination-counterexample"]["fixed_points_of_dominating_map"]
        == "none"
    )
    assert by_name["sum-bound-forces-constancy"]["all_satisfying_pairs_constant"]
    assert by_name["non-integer-map-rejection"]["kind"] == "non-lattice-value"
    assert by_name["fpp-only-singletons"] == {
        "size_1": True,
        "size_2": False,
        "size_3": False,
    }


def test_suite_exhaustive_entry_counts(suite):
    by_name = {e.name: e.evidence for e in suite.entries}
    # 27 + 256 maps, three metrics each: 849 verifier runs per theorem
    first = by_name["contraction-theorem-exhaustive"]
    assert sum(first.values()) == 3 * (27 + 256)
    second = by_name["two-coefficient-theorem-exhaustive"]
    assert sum(second.values()) == 3 * (27 + 256) * 10  # ten legal (a, b) pairs


def test_suite_document_matches_the_recorded_golden(suite):
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "suite.json"
    expected = json.loads(golden.read_text())["verify-paper"]
    assert json.dumps(suite.as_document(), indent=2, sort_keys=True) == expected


def test_suite_is_deterministic(suite):
    again = verify_paper_suite()
    assert again.as_document() == suite.as_document()
    assert again.render_text() == suite.render_text()


def test_suite_text_rendering(suite):
    text = suite.render_text()
    lines = text.splitlines()
    assert lines[0].startswith("PASS  contraction-theorem-exhaustive")
    assert lines[-1] == "PASS  overall (10/10 entries)"
    assert text.count("PASS") >= 11
