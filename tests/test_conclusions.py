"""Each assertion's conclusion on value positions against its definition on points.

Searches decide a conclusion on the table of value positions the
enumeration yields (the first map's entries, then the second's).  The
definitions below read the maps point by point instead: fixed points by
comparing each point with its images, compatibility through
contracts.compatible, and the alternating conclusion through the
interleaved orbits and their accumulation points.
"""

import itertools

import pytest

from digitop import contracts, fixpoint, mapkit
from digitop.mapkit import SelfMap
from digitop.metric import DigitalMetricSpace
from digitop.search import ASSERTIONS, small_connected_images


def common_fixed_points(maps) -> list:
    return [p for p in maps[0].domain.points if all(f(p) == p for f in maps)]


def alternating_limits_are_the_unique_common_fix(space, maps) -> bool:
    t, s = maps
    common = common_fixed_points(maps)
    limits = set()
    for x0 in space.points:
        limits.update(mapkit.accumulation_points(fixpoint.alternating_orbit(s, t, x0)))
    return len(common) == 1 and limits == set(common)


DEFINITIONS = {
    "quasi-fixed-point": lambda space, maps: bool(common_fixed_points(maps)),
    "five-term-fixed-point": lambda space, maps: bool(common_fixed_points(maps)),
    "dominated-common-fix-with-range": lambda space, maps: len(common_fixed_points(maps)) == 1,
    "dominated-common-fix": lambda space, maps: len(common_fixed_points(maps)) == 1,
    "dominated-monotone-compatible": lambda space, maps: contracts.compatible(space, *maps).holds,
    "sum-bound-common-fix": lambda space, maps: bool(common_fixed_points(maps)),
    "rational-alternating-common-fix": alternating_limits_are_the_unique_common_fix,
}

SMALL = small_connected_images(3)
SIZE_FOUR = [img for img in small_connected_images(4) if len(img) == 4]


def test_every_assertion_has_a_definition():
    assert DEFINITIONS.keys() == ASSERTIONS.keys()


def verdicts(assertion, images, instances) -> set:
    """Both forms' verdicts on each instances(maps) of each image; they must agree."""
    spec, definition = ASSERTIONS[assertion], DEFINITIONS[assertion]
    seen = set()
    for img in images:
        space, n = DigitalMetricSpace(img), len(img)
        for maps in instances(list(mapkit.enumerate_selfmaps(img)), spec.arity):
            want = definition(space, maps)
            table = [v for f in maps for v in f.indices]
            assert spec.concludes(n, table) == want, [str(f) for f in maps]
            assert spec.conclusion(space, maps) == want
            seen.add(want)
    return seen


@pytest.mark.parametrize("assertion", sorted(ASSERTIONS))
def test_each_conclusion_matches_its_definition_on_every_small_instance(assertion):
    seen = verdicts(assertion, SMALL, lambda maps, arity: itertools.product(maps, repeat=arity))
    assert seen == {True, False}


def each_map(maps, arity):
    """Each map alone, or in both orders with itself, the identity and each
    constant map."""
    if arity == 1:
        yield from ((f,) for f in maps)
        return
    partners = [f for f in maps if f.is_constant or f == SelfMap.identity(f.domain)]
    for f in maps:
        for g in (f, *partners):
            yield from ((f, g), (g, f))


@pytest.mark.parametrize("assertion", sorted(ASSERTIONS))
def test_each_conclusion_matches_its_definition_on_every_size_four_map(assertion):
    assert verdicts(assertion, SIZE_FOUR, each_map) == {True, False}
