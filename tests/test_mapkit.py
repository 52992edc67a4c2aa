"""Self-maps: validation, continuity, orbits, enumeration, affine maps.

Worked oracles in this file:
  * halving map on [0,7]: 7 -> 3 -> 1 -> 0, settles at index 3
  * the swap on a two-point interval is the canonical fixed-point-free
    continuous witness
  * x -> 2x + 1 on Z fixes exactly -1
"""

import dataclasses
import functools
import itertools
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitop import mapkit
from digitop.mapkit import (
    ENUM_BUDGET,
    EVENTUALLY_CONSTANT,
    EVENTUALLY_PERIODIC,
    TRUNCATED,
    AffineMapZ,
    EnumerationBudgetError,
    MapValidationError,
    OrbitReport,
    SelfMap,
    accumulation_points,
    affine_analyze,
    affine_dominates,
    compose,
    continuity_violation,
    enumerate_selfmaps,
    enumerate_tables,
    fixed_points,
    has_fpp,
    is_continuous,
    orbit,
    validate_selfmap,
)
from digitop.search import small_connected_images
from digitop.space import C1, C2, DigitalImage, components, digital_interval, fmt_point

I2 = digital_interval(0, 1)
I4 = digital_interval(0, 3)


def make(img, mapping):
    return SelfMap.from_dict(img, mapping)


# -- SelfMap basics --------------------------------------------------


def test_from_dict_call_and_str():
    f = make(I4, {0: 0, 1: 0, 2: 1, 3: 1})
    assert f(2) == (1,)
    assert f((3,)) == (1,)
    assert str(f) == "{0->0, 1->0, 2->1, 3->1}"
    assert f.as_dict() == {(0,): (0,), (1,): (0,), (2,): (1,), (3,): (1,)}


def test_constant_and_identity():
    c = SelfMap.constant(I4, 2)
    assert c.is_constant and c.image_set == {(2,)}
    ident = SelfMap.identity(I4)
    assert not ident.is_constant
    assert fixed_points(ident) == I4.points
    assert fixed_points(c) == ((2,),)


def test_selfmap_rejects_values_outside_image():
    with pytest.raises(ValueError):
        SelfMap(I2, ((0,), (7,)))
    with pytest.raises(ValueError):
        SelfMap(I2, ((0,),))  # wrong table length


@pytest.mark.parametrize("img", small_connected_images(3), ids=str)
def test_a_map_fills_its_positions_at_construction(img):
    outside = tuple(c + 100 for c in img.points[0])
    message = f"map value {fmt_point(outside)} outside the image"
    for t in itertools.product(range(len(img)), repeat=len(img)):
        values = tuple(img.points[i] for i in t)
        f = SelfMap(img, values)
        assert "indices" in vars(f)  # filled before any read
        assert f.indices == tuple(img.index[v] for v in f.values) == t
        g = SelfMap._at_positions(img, t)
        assert g == f and hash(g) == hash(f) and g.indices == t
        assert repr(g) == repr(f) and "indices" not in repr(f)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.indices = t
        with pytest.raises(ValueError, match=re.escape(message)):
            SelfMap(img, values[:-1] + (outside,))


def test_from_dict_rejects_partial_and_unknown():
    with pytest.raises(MapValidationError) as err:
        make(I4, {0: 0, 1: 1})
    assert err.value.kind == "partial" and err.value.point == (2,)
    with pytest.raises(MapValidationError) as err:
        make(I2, {0: 0, 1: 1, 9: 0})
    assert err.value.kind == "unknown-point"


def test_compose():
    f = make(I4, {0: 1, 1: 2, 2: 3, 3: 3})
    g = make(I4, {0: 0, 1: 0, 2: 1, 3: 2})
    fg = compose(f, g)
    assert fg.values == tuple((f(g(x))) for x in I4.points)
    with pytest.raises(ValueError):
        compose(SelfMap.identity(I2), SelfMap.identity(I4))


# -- raw-table validation --------------------------------------------


def test_validate_selfmap_accepts_good_table():
    f = validate_selfmap(I2, [(0, 1), (1, 0)])
    assert f.values == ((1,), (0,))


def test_validate_reports_each_kind_with_offender():
    cases = [
        ([(9, 0), (0, 0), (1, 0)], "unknown-point", (9,)),
        ([("x", 0)], "unknown-point", None),
        ([(0, 0), (0, 1), (1, 0)], "duplicate", (0,)),
        ([(0, 0.5), (1, 0)], "non-lattice-value", (0,)),
        ([(0, 9), (1, 0)], "value-outside-domain", (0,)),
        ([(0, 0)], "partial", (1,)),
    ]
    for raw, kind, point in cases:
        with pytest.raises(MapValidationError) as err:
            validate_selfmap(I2, raw)
        assert err.value.kind == kind, raw
        assert err.value.point == point, raw


def test_validate_reports_first_offender_in_input_order():
    # both a float value and a duplicate are present; the float comes first
    with pytest.raises(MapValidationError) as err:
        validate_selfmap(I2, [(0, 1.5), (0, 0), (1, 0)])
    assert err.value.kind == "non-lattice-value"


def test_validate_halving_flaw_names_first_odd_input():
    # t -> t/2 + 1 with true division leaves 1.5 at t = 1
    img = digital_interval(0, 4)
    raw = [((t,), (t // 2 + 1,) if t % 2 == 0 else t / 2 + 1) for t in range(5)]
    with pytest.raises(MapValidationError) as err:
        validate_selfmap(img, raw)
    assert err.value.kind == "non-lattice-value"
    assert err.value.point == (1,)
    assert "1.5" in str(err.value)


# -- continuity ------------------------------------------------------


def test_continuity_examples():
    assert is_continuous(make(I4, {0: 0, 1: 0, 2: 1, 3: 1}))
    jump = make(I4, {0: 0, 1: 3, 2: 2, 3: 3})
    assert continuity_violation(jump) == ((0,), (1,))
    assert not is_continuous(jump)


def test_continuity_depends_on_adjacency():
    # mapping a c1 edge onto a diagonal: discontinuous under c1, fine under c2
    sq = [(0, 0), (0, 1), (1, 0), (1, 1)]
    f4 = make(DigitalImage(sq, C1), {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (1, 0), (1, 1): (1, 1)})
    f8 = make(DigitalImage(sq, C2), {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (1, 0), (1, 1): (1, 1)})
    assert not is_continuous(f4)
    assert is_continuous(f8)


def all_connected_subsets(img):
    pts = img.points
    for size in range(1, len(pts) + 1):
        for chosen in itertools.combinations(pts, size):
            sub = DigitalImage(chosen, img.adjacency)
            if len(components(sub)) == 1:
                yield chosen


def preserves_connectedness(f):
    img = f.domain
    for subset in all_connected_subsets(img):
        image = {f(x) for x in subset}
        if len(components(DigitalImage(image, img.adjacency))) != 1:
            return False
    return True


@pytest.mark.parametrize(
    "img",
    [
        digital_interval(0, 2),
        digital_interval(0, 3),
        DigitalImage(itertools.product((0, 1), repeat=2), C1),
        DigitalImage(itertools.product((0, 1), repeat=2), C2),
    ],
    ids=["interval3", "interval4", "square-c1", "square-c2"],
)
def test_edge_continuity_equals_connectedness_preservation(img):
    # the two classical formulations agree, map by map
    for f in enumerate_selfmaps(img):
        assert is_continuous(f) == preserves_connectedness(f), str(f)


# -- orbits ----------------------------------------------------------


def test_orbit_halving_map():
    img = digital_interval(0, 7)
    half = SelfMap(img, tuple(((x[0] // 2),) for x in img.points))
    rep = orbit(half, 7)
    assert rep.points == ((7,), (3,), (1,), (0,), (0,))
    assert rep.kind == EVENTUALLY_CONSTANT
    assert rep.settle_index == 3
    assert rep.value == (0,)
    assert rep.start == (7,)


def test_orbit_periodic():
    swap = make(I2, {0: 1, 1: 0})
    rep = orbit(swap, 0)
    assert rep.kind == EVENTUALLY_PERIODIC
    assert rep.period == 2
    assert accumulation_points(rep) == ((0,), (1,))


def test_orbit_truncation_under_tight_budget():
    img = digital_interval(0, 2)
    cycle = make(img, {0: 1, 1: 2, 2: 0})
    rep = orbit(cycle, 0, max_steps=2)
    assert rep.kind == TRUNCATED
    with pytest.raises(ValueError):
        accumulation_points(rep)
    assert orbit(cycle, 0).kind == EVENTUALLY_PERIODIC  # default budget suffices


def test_orbit_validation():
    swap = make(I2, {0: 1, 1: 0})
    with pytest.raises(ValueError):
        orbit(swap, 9)
    with pytest.raises(ValueError):
        orbit(swap, 0, max_steps=0)


def test_orbit_report_consistency_guard():
    with pytest.raises(ValueError):
        OrbitReport(((0,), (1,)), EVENTUALLY_CONSTANT, settle_index=0, value=(0,))
    with pytest.raises(ValueError, match="needs settle_index and value"):
        OrbitReport(((0,),), EVENTUALLY_CONSTANT, settle_index=0)
    with pytest.raises(ValueError):
        OrbitReport(((0,),), EVENTUALLY_PERIODIC, period=1)
    with pytest.raises(ValueError):
        OrbitReport(((0,),), "mystery")


@given(st.integers(2, 5), st.data())
def test_default_budget_never_truncates(n, data):
    img = digital_interval(0, n - 1)
    values = data.draw(
        st.tuples(*[st.integers(0, n - 1) for _ in range(n)])
    )
    f = SelfMap(img, tuple((v,) for v in values))
    start = data.draw(st.integers(0, n - 1))
    rep = orbit(f, start)
    assert rep.kind != TRUNCATED
    # tail really is what the classification says
    if rep.kind == EVENTUALLY_CONSTANT:
        assert f(rep.value) == rep.value
    else:
        cycle = rep.points[-rep.period :]
        assert f(cycle[-1]) == cycle[0]


# -- enumeration and the fixed point property ------------------------


def test_enumeration_counts_and_order():
    assert len(list(enumerate_selfmaps(digital_interval(0, 0)))) == 1
    maps2 = list(enumerate_selfmaps(I2))
    assert len(maps2) == 4
    assert [m.values for m in maps2] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    assert len(list(enumerate_selfmaps(digital_interval(0, 2)))) == 27


def test_enumeration_budget():
    assert 6**6 <= ENUM_BUDGET < 7**7  # six points is the product scan's ceiling
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_selfmaps(digital_interval(0, 6)))


def seeded_narrow(seed, length):
    """A narrowing of tables of this length that reads only t[:k + 1]: for
    each prefix, random rows (often none) with random masks, empty ones
    included."""

    def narrow(t, k):
        rng = random.Random(f"{seed}:{t[: k + 1]}")
        if rng.random() < 0.5:
            return ()
        return [(j, rng.randrange(8)) for j in range(k + 1, length) if rng.random() < 0.6]

    return narrow


def forward_checking_reference(domains, narrow):
    """(leaves, nodes) of forward checking as first stated: every node copies
    its domains and abandons its subtree if any later domain is empty."""
    leaves, nodes = [], 0

    def visit(t, doms):
        nonlocal nodes
        k = len(t)
        for v in (v for v in range(8) if doms[k] >> v & 1):
            nodes += 1
            if k == len(doms) - 1:
                leaves.append((*t, v))
                continue
            dom = list(doms)
            for j, mask in narrow([*t, v], k):
                dom[j] &= mask
            if all(dom[k + 1 :]):
                visit([*t, v], dom)

    visit([], domains)
    return leaves, nodes


@given(st.lists(st.integers(0, 7), min_size=1, max_size=4), st.integers(0, 99))
def test_forward_checking_matches_the_copying_reference(domains, seed):
    narrow = seeded_narrow(seed, len(domains))
    leaves, nodes = forward_checking_reference(domains, narrow)

    def run(budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mapkit, "ENUM_BUDGET", budget)
            return [tuple(t) for t in enumerate_tables(domains, narrow)]

    assert run(nodes) == leaves  # the same leaves, in order, within nodes
    if nodes:
        with pytest.raises(EnumerationBudgetError):
            run(nodes - 1)


def nested_lanes(domains, seed, count):
    """count lanes over 3-bit domains: lane c's domains and rows are lane
    c - 1's ANDed with draws of seed + c, so each lane is a subset of the
    one before.  Returns each lane's plain domains and narrowing, and the
    packed Lanes with their narrowing."""
    rng = random.Random(seed)
    plain = [list(domains)]
    for _ in range(1, count):
        plain.append([d & rng.randrange(8) for d in plain[-1]])
    draws = [seeded_narrow(seed + c, len(domains)) for c in range(count)]

    def lane(c):
        def narrow(t, k):
            rows = {}
            for draw in draws[: c + 1]:
                for j, mask in draw(t, k):
                    rows[j] = rows.get(j, 7) & mask
            return sorted(rows.items())

        return narrow

    narrows = [lane(c) for c in range(count)]

    def packed(t, k):
        rows = [dict(narrow(t, k)) for narrow in narrows]
        later = sorted(set().union(*rows))
        return [(j, sum(row.get(j, 7) << 3 * c for c, row in enumerate(rows))) for j in later]

    lanes = [sum(d << 3 * c for c, d in enumerate(ds)) for ds in zip(*plain)]
    return plain, narrows, mapkit.Lanes(lanes, 3, count), packed


@given(st.lists(st.integers(0, 7), min_size=1, max_size=4), st.integers(0, 99), st.integers(1, 3))
def test_lanes_carry_nested_narrowings_through_one_enumeration(domains, seed, count):
    plain, narrows, lanes, packed = nested_lanes(domains, seed, count)
    tables = [[tuple(t) for t in enumerate_tables(*pair)] for pair in zip(plain, narrows)]
    _, nodes = forward_checking_reference(plain[0], narrows[0])

    def run(budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mapkit, "ENUM_BUDGET", budget)
            return [(tuple(t), lanes.sets[-2]) for t in enumerate_tables(lanes, packed)]

    # Lane 0's tables and nodes, each table with the lanes that take it.
    found = run(nodes)
    assert [t for t, _ in found] == tables[0]
    for t, held in found:
        assert held == sum(1 << 3 * c for c in range(count) if t in tables[c]), t
    if nodes:
        with pytest.raises(EnumerationBudgetError):
            run(nodes - 1)


def independent_lanes(length, seed, count):
    """count constraints over 3-bit domains of this length, each its own
    draw of domains and narrowing (of seed + c), and lane 0 their union.
    Returns each constraint's plain domains and narrowing, lane 0's, and
    the packed Lanes, lane 0 first, with their narrowing."""
    rng = random.Random(seed)
    plain = [[rng.randrange(8) for _ in range(length)] for _ in range(count)]
    draws = [seeded_narrow(seed + c, length) for c in range(count)]

    def rows(t, k):
        """Each narrowed later entry with its mask in lane 0, then in each
        constraint's lane (a row without the entry leaves all 3 bits)."""
        drawn = [dict(draw(t, k)) for draw in draws]
        for j in sorted(set().union(*drawn)):
            masks = [row.get(j, 7) for row in drawn]
            yield j, [functools.reduce(operator.or_, masks), *masks]

    def union(t, k):
        return [(j, masks[0]) for j, masks in rows(t, k)]

    def packed(t, k):
        return [(j, sum(m << 3 * c for c, m in enumerate(masks))) for j, masks in rows(t, k)]

    domains = [[functools.reduce(operator.or_, ds), *ds] for ds in zip(*plain)]
    lanes = [sum(d << 3 * c for c, d in enumerate(ds)) for ds in domains]
    return plain, draws, ([ds[0] for ds in domains], union), mapkit.Lanes(lanes, 3, count), packed


@given(st.integers(1, 4), st.integers(0, 99), st.integers(1, 3))
def test_lanes_carry_independent_narrowings_through_one_enumeration(length, seed, count):
    plain, narrows, union, lanes, packed = independent_lanes(length, seed, count)
    tables = [[tuple(t) for t in enumerate_tables(*pair)] for pair in zip(plain, narrows)]
    found = [(tuple(t), lanes.sets[-2]) for t in enumerate_tables(lanes, packed)]
    # Lane 0's tables, each with the constraints whose own enumeration
    # yields it: its lanes name them.
    assert [t for t, _ in found] == [tuple(t) for t in enumerate_tables(*union)]
    for t, held in found:
        assert lanes.constraints(held) == [c for c in range(count) if t in tables[c]], t
        assert held.bit_count() - 1 == len(lanes.constraints(held))
    assert {t for ts in tables for t in ts} <= {t for t, _ in found}


def test_holding_sends_verdict_bit_c_to_lane_c_plus_1():
    lanes, lane = mapkit.Lanes((), 3, 4), [1 << 3 * c for c in range(5)]
    held = lanes.holding()
    # A bool is one constraint's verdict.
    assert held[False] == 0 and held[True] == lane[0] | lane[1]
    # Nested masks: the m loosest constraints, lanes 0 to m.
    for m in range(1, 5):
        assert held[(1 << m) - 1] == sum(lane[: m + 1])
    # Any mask: each bit's lane, and lane 0 if any holds.
    for verdict in range(1, 16):
        met = [c for c in range(4) if verdict >> c & 1]
        assert held[verdict] == lane[0] + sum(lane[c + 1] for c in met)
        assert lanes.constraints(held[verdict]) == met
    assert lanes.every(5) == sum(5 * bit for bit in lane)


def test_fpp_holds_only_on_singleton():
    assert has_fpp(digital_interval(0, 0)) == (True, None)
    verdict = has_fpp(I2)
    assert verdict.holds is False
    assert verdict.counterexample.values == ((1,), (0,))  # the swap, 1 - x
    verdict3 = has_fpp(digital_interval(0, 2))
    assert verdict3.holds is False
    assert fixed_points(verdict3.counterexample) == ()
    assert is_continuous(verdict3.counterexample)


def test_fpp_unrestricted_quantifier():
    verdict = has_fpp(I2, restrict_continuous=False)
    assert verdict.holds is False  # swap is continuous anyway on two points
    assert verdict.counterexample.values == ((1,), (0,))


# -- affine maps over the integers -----------------------------------


def test_affine_validation_and_repr():
    with pytest.raises(ValueError):
        AffineMapZ(1.0, 0)
    with pytest.raises(ValueError):
        AffineMapZ(1, True)
    m = AffineMapZ(2, 1)
    assert m(3) == 7
    assert str(m) == "x -> 2*x + 1"


@pytest.mark.parametrize(
    "p, q, kind, point",
    [
        (1, 0, "all", None),
        (1, 5, "none", None),
        (0, 4, "single", 4),
        (2, 1, "single", -1),
        (2, 0, "single", 0),
        (3, 1, "none", None),  # 1/(1-3) is not an integer
        (-1, 0, "single", 0),
        (-1, 3, "none", None),  # 3/2 not an integer
    ],
)
def test_affine_fixed_points(p, q, kind, point):
    fx = affine_analyze(AffineMapZ(p, q))
    assert (fx.kind, fx.point) == (kind, point)
    if kind == "single":
        assert AffineMapZ(p, q)(point) == point


def test_affine_fixed_points_agree_with_window_scan():
    for p in range(-3, 4):
        for q in range(-3, 4):
            fx = affine_analyze(AffineMapZ(p, q))
            window = [x for x in range(-50, 51) if p * x + q == x]
            if fx.kind == "all":
                assert len(window) == 101
            elif fx.kind == "none":
                assert window == []
            else:
                assert window == [fx.point]


def test_affine_domination_flagship_pair():
    h = AffineMapZ(0, 0)
    g = AffineMapZ(1, 1)
    rep = affine_dominates(h, g, Fraction(1, 2))
    assert rep == (True, True)
    # the dominating map still has no fixed point
    assert affine_analyze(g).kind == "none"


def test_affine_domination_rejects_bad_rho():
    with pytest.raises(ValueError):
        affine_dominates(AffineMapZ(0, 0), AffineMapZ(1, 0), 1)
    with pytest.raises(ValueError):
        affine_dominates(AffineMapZ(0, 0), AffineMapZ(1, 0), Fraction(-1, 2))


def test_affine_domination_matches_window_brute_force():
    rho = Fraction(1, 2)
    window = range(-12, 13)
    for hp, hq, gp, gq in itertools.product(range(-2, 3), repeat=4):
        h, g = AffineMapZ(hp, hq), AffineMapZ(gp, gq)
        rep = affine_dominates(h, g, rho)
        # metric inequality: a violation, if any, already occurs at |x-y| = 1
        window_ok = all(
            abs(h(x) - h(y)) <= rho * abs(g(x) - g(y))
            for x in (0,)
            for y in (1,)
        )
        assert rep.dominates == window_ok, (h, g)
        # range inclusion over a window, solved directly
        if gp == 0:
            window_incl = all(h(x) == gq for x in window)
        else:
            window_incl = all((h(x) - gq) % gp == 0 for x in window)
        assert rep.range_included == window_incl, (h, g)
