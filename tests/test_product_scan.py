"""The pruned searches against the plain product scan.

The reference below is the scan the searches replace: every map table
from ``itertools.product`` over ``enumerate_selfmaps``, in lexicographic
order, each one counted and decided by the assertion's hypothesis and
conclusion.  The searches must return the same outcome, down to the
witness maps, the parameter and every count in ``stats``; ``has_fpp``
must return the same verdict and the same witness as a scan of every
self-map.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from digitop.mapkit import enumerate_selfmaps, fixed_points, has_fpp, is_continuous
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace
from digitop.search import (
    ASSERTIONS,
    COUNTEREXAMPLE,
    DEFAULT_PARAM_GRID,
    EXHAUSTED,
    find_counterexample,
    small_connected_images,
)

GRIDS = {
    "default-grid": DEFAULT_PARAM_GRID,
    "other-grid": (Fraction(0), Fraction(1, 3), Fraction(9, 10)),
    # Grids need not ascend, and a repeated value is scanned again.
    "descending": (Fraction(3, 4), Fraction(1, 4)),
    "repeated": (Fraction(1, 4), Fraction(1, 4)),
    "unsorted": (Fraction(1, 2), Fraction(0), Fraction(3, 4)),
}


def product_scan(assertion, size_bound, grid):
    """(status, param, map values, space description, stats) of a scan
    of every table."""
    spec = ASSERTIONS[assertion]
    values = (None,) if spec.param is None else grid
    scanned = hits = spaces = 0
    for img in small_connected_images(size_bound, spec.increasing):
        maps = list(enumerate_selfmaps(img))
        for metric in (L1, L2, SHORTEST_PATH):
            space = DigitalMetricSpace(img, metric)
            spaces += 1
            for value in values:
                for instance in itertools.product(maps, repeat=spec.arity):
                    scanned += 1
                    if not spec.hypothesis(space, instance, value):
                        continue
                    hits += 1
                    if not spec.conclusion(space, instance):
                        stats = {
                            "instances_scanned": scanned,
                            "hypothesis_hits": hits,
                            "space_metric_combinations": spaces,
                        }
                        witness = [m.values for m in instance]
                        return COUNTEREXAMPLE, value, witness, space.describe(), stats
    stats = {
        "instances_scanned": scanned,
        "hypothesis_hits": hits,
        "space_metric_combinations": spaces,
    }
    return EXHAUSTED, None, [], None, stats


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("size_bound", (1, 2, 3, 4))
@pytest.mark.parametrize("assertion", sorted(ASSERTIONS))
def test_search_matches_the_product_scan(assertion, size_bound, grid):
    outcome = find_counterexample(assertion, size_bound, grid)
    space = None if outcome.space is None else outcome.space.describe()
    found = (outcome.status, outcome.param, [m.values for m in outcome.maps], space, outcome.stats)
    assert found == product_scan(assertion, size_bound, grid)


# The searches' own claims fail, if at all, at every grid value at once.
# These conclusions fail on some tables that only looser values admit, so
# a search can meet a conclusion-false table at a later grid position
# before one at an earlier position.
PLANTED = {
    "image-not-two-points": lambda n, t: len(set(t)) != 2,
    "image-not-three-points": lambda n, t: len(set(t)) != 3,
    "first-entry-not-2": lambda n, t: t[0] != 2,
}
PLANTED_GRIDS = {
    "default-grid": DEFAULT_PARAM_GRID,
    "unsorted": (Fraction(1, 2), Fraction(0), Fraction(3, 4)),
    "repeated": (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(0)),
}


@pytest.mark.parametrize("grid", PLANTED_GRIDS.values(), ids=PLANTED_GRIDS.keys())
@pytest.mark.parametrize("concludes", PLANTED.values(), ids=PLANTED.keys())
@pytest.mark.parametrize("size_bound", (3, 4))
def test_a_planted_conclusion_matches_the_product_scan(size_bound, concludes, grid, monkeypatch):
    spec = dataclasses.replace(ASSERTIONS["quasi-fixed-point"], key="planted", concludes=concludes)
    monkeypatch.setitem(ASSERTIONS, spec.key, spec)
    test_search_matches_the_product_scan(spec.key, size_bound, grid)


def fpp_scan(img, restrict_continuous):
    for f in enumerate_selfmaps(img):
        if restrict_continuous and not is_continuous(f):
            continue
        if not fixed_points(f):
            return False, f.values
    return True, None


@pytest.mark.parametrize("restrict_continuous", (True, False), ids=("continuous", "all-maps"))
@pytest.mark.parametrize("img", small_connected_images(6), ids=lambda img: img.describe())
def test_has_fpp_matches_the_product_scan(img, restrict_continuous):
    verdict = has_fpp(img, restrict_continuous)
    witness = None if verdict.counterexample is None else verdict.counterexample.values
    assert (verdict.holds, witness) == fpp_scan(img, restrict_continuous)
