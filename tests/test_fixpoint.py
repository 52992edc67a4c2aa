"""Theorem verifiers, alternating iteration, stability.

The two verifiers are exercised three ways: spec-level oracles on tiny
maps, one nonconstant contraction built on an unevenly spaced image
(where k_min < 1 without forcing constancy), and exhaustive sweeps
confirming that no self-map of a small space ever produces a
"refutes_assertion" verdict — those theorems are true, and the sweep
is the strongest desk-scale statement of that.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitop.fixpoint import (
    CONFIRMS,
    HYPOTHESIS_FAILS,
    REFUTES,
    StabilityVerdict,
    TheoremReport,
    alternating_orbit,
    banach_verify,
    kannan_descent_constant,
    kannan_verify,
    t_stability_verdict,
)
from digitop.contracts import ConditionReport
from digitop.mapkit import (
    EVENTUALLY_CONSTANT,
    EVENTUALLY_PERIODIC,
    TRUNCATED,
    SelfMap,
    enumerate_selfmaps,
    orbit,
)
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace
from digitop.search import small_connected_images
from digitop.space import C1, C2, DigitalImage, digital_interval

S2 = DigitalMetricSpace(digital_interval(0, 1), L1)
S3 = DigitalMetricSpace(digital_interval(0, 2), L1)
S4 = DigitalMetricSpace(digital_interval(0, 3), L1)


def themap(sp, mapping):
    return SelfMap.from_dict(sp.image, mapping)


# -- report invariants -----------------------------------------------


def test_theorem_report_guards():
    hyp = ConditionReport(holds=True)
    with pytest.raises(ValueError):
        TheoremReport(hyp, "confirmed")  # unknown label
    with pytest.raises(ValueError):
        TheoremReport(hyp, CONFIRMS)  # missing fixed point
    bad_hyp = ConditionReport(holds=False, witness=((0,), (1,)))
    with pytest.raises(ValueError):
        TheoremReport(bad_hyp, REFUTES)


def test_stability_verdict_guard():
    with pytest.raises(ValueError):
        StabilityVerdict((0,), True, deviating_orbit=orbit(SelfMap.identity(S2.image), 0))


# -- contraction theorem ---------------------------------------------


def test_banach_constant_map_confirms():
    rep = banach_verify(S3, SelfMap.constant(S3.image, 1))
    assert rep.conclusion == CONFIRMS
    assert rep.fixed_point == (1,) and rep.unique
    assert rep.hypothesis.minimal_constant == 0
    assert all(o.kind == EVENTUALLY_CONSTANT for o in rep.orbits)


def test_banach_identity_hypothesis_fails():
    rep = banach_verify(S2, SelfMap.identity(S2.image))
    assert rep.conclusion == HYPOTHESIS_FAILS
    assert rep.hypothesis.minimal_constant == 1


def test_banach_halving_map_hypothesis_fails_despite_fixed_point():
    half = themap(S4, {0: 0, 1: 0, 2: 1, 3: 1})
    rep = banach_verify(S4, half)
    assert rep.conclusion == HYPOTHESIS_FAILS  # the (1,2) pair gives ratio 1
    assert rep.hypothesis.minimal_constant == 1


def test_banach_nonconstant_contraction_on_uneven_image():
    # on {0,1,10,11} the map 0,1 -> 0 and 10,11 -> 1 contracts:
    # distances within a cluster drop to 0, across clusters 10 -> 1
    img = DigitalImage([0, 1, 10, 11])
    sp = DigitalMetricSpace(img, L1)
    f = themap(sp, {0: 0, 1: 0, 10: 1, 11: 1})
    rep = banach_verify(sp, f)
    assert rep.conclusion == CONFIRMS
    assert rep.hypothesis.minimal_constant == Fraction(1, 9)  # pair (1,10)
    assert rep.fixed_point == (0,)


BANACH_SWEEP = [
    DigitalMetricSpace(digital_interval(0, n), m)
    for n in range(0, 4)
    for m in (L1, SHORTEST_PATH)
] + [
    DigitalMetricSpace(DigitalImage(itertools.product((0, 1), repeat=2), adj), m)
    for adj in (C1, C2)
    for m in (L1, L2, SHORTEST_PATH)
]


@pytest.mark.parametrize("sp", BANACH_SWEEP, ids=lambda s: s.describe())
def test_banach_never_refutes(sp):
    for f in enumerate_selfmaps(sp.image):
        assert banach_verify(sp, f).conclusion != REFUTES, str(f)


def test_banach_descent_inequality_reported_orbits():
    img = DigitalImage([0, 1, 10, 11])
    sp = DigitalMetricSpace(img, L1)
    f = themap(sp, {0: 0, 1: 0, 10: 1, 11: 1})
    rep = banach_verify(sp, f)
    k = rep.hypothesis.minimal_constant
    for o in rep.orbits:
        for n in range(len(o.points) - 2):
            step = sp.distance(o.points[n + 1], o.points[n + 2])
            assert step <= k * sp.distance(o.points[n], o.points[n + 1])


# -- two-coefficient theorem -----------------------------------------


def test_kannan_constant_confirms():
    rep = kannan_verify(S3, SelfMap.constant(S3.image, 2), 0, 0)
    assert rep.conclusion == CONFIRMS
    assert rep.fixed_point == (2,)


def test_kannan_identity_hypothesis_fails():
    rep = kannan_verify(S2, SelfMap.identity(S2.image), Fraction(1, 5), Fraction(1, 5))
    assert rep.conclusion == HYPOTHESIS_FAILS


def test_kannan_collapse_map_confirms():
    rep = kannan_verify(S2, themap(S2, {0: 0, 1: 0}), Fraction(1, 5), Fraction(1, 5))
    assert rep.conclusion == CONFIRMS
    assert rep.fixed_point == (0,)


def test_kannan_descent_constant():
    assert kannan_descent_constant(0, 0) == 0
    assert kannan_descent_constant(Fraction(1, 5), Fraction(1, 5)) == Fraction(2, 3)
    assert kannan_descent_constant(Fraction(1, 4), 0) == Fraction(1, 3)


@pytest.mark.parametrize(
    "mapping, unique, detail",
    [
        ({0: 0, 1: 1, 2: 2}, False, "expected exactly one fixed point, found 3"),
        ({0: 0, 1: 2, 2: 1}, True, "orbit from 1 does not settle at 0"),
        ({0: 0, 1: 0, 2: 1}, True, "descent estimate fails at step 1 from 2"),
    ],
)
def test_a_conclusion_that_fails_is_refuted_with_its_reason(monkeypatch, mapping, unique, detail):
    # The theorem is true, so only a hypothesis claimed without checking
    # reaches these branches: with a = b = 0, A = 0 allows no second step.
    monkeypatch.setattr("digitop.fixpoint.check_kannan", lambda *args: ConditionReport(holds=True))
    rep = kannan_verify(S3, themap(S3, mapping), 0, 0)
    assert (rep.conclusion, rep.unique, rep.detail) == (REFUTES, unique, detail)
    assert rep.fixed_point is None and len(rep.orbits) == 3


KANNAN_GRID = [
    (Fraction(0), Fraction(0)),
    (Fraction(1, 5), Fraction(1, 5)),
    (Fraction(1, 4), Fraction(0)),
    (Fraction(0), Fraction(2, 5)),
    (Fraction(3, 10), Fraction(1, 10)),
]


@pytest.mark.parametrize(
    "sp",
    [S2, S3, S4, DigitalMetricSpace(DigitalImage(itertools.product((0, 1), repeat=2), C2), L2)],
    ids=lambda s: s.describe(),
)
def test_kannan_never_refutes(sp):
    for f in enumerate_selfmaps(sp.image):
        for a, b in KANNAN_GRID:
            rep = kannan_verify(sp, f, a, b)
            assert rep.conclusion != REFUTES, (str(f), a, b)
            if rep.conclusion == CONFIRMS:
                # unique fixed point, every orbit settles there
                assert rep.unique and all(
                    o.kind == EVENTUALLY_CONSTANT and o.value == rep.fixed_point
                    for o in rep.orbits
                )


# -- alternating iteration -------------------------------------------


def test_alternating_same_map_matches_picard_classification():
    for mapping in ({0: 0, 1: 0, 2: 1}, {0: 1, 1: 2, 2: 0}, {0: 2, 1: 1, 2: 0}):
        f = themap(S3, mapping)
        for start in S3.points:
            plain = orbit(f, start)
            doubled = alternating_orbit(f, f, start)
            assert doubled.kind == plain.kind
            if plain.kind == EVENTUALLY_CONSTANT:
                assert doubled.value == plain.value


def test_alternating_constant_settles_after_one_step():
    c = SelfMap.constant(S3.image, 2)
    rep = alternating_orbit(c, c, 0)
    assert rep.kind == EVENTUALLY_CONSTANT
    assert rep.settle_index == 1
    assert rep.value == (2,)


def test_alternating_swap_then_identity_cycles():
    # T = 1-x at even steps, S = identity at odd: 0,1,1,0,0,1,1,...
    t = themap(S2, {0: 1, 1: 0})
    s = SelfMap.identity(S2.image)
    rep = alternating_orbit(s, t, 0)
    assert rep.kind == EVENTUALLY_PERIODIC
    assert rep.period == 4
    assert rep.points[:5] == ((0,), (1,), (1,), (0,), (0,))


def test_alternating_shared_swap_has_point_period_two():
    t = themap(S2, {0: 1, 1: 0})
    rep = alternating_orbit(t, t, 0)
    assert rep.kind == EVENTUALLY_PERIODIC
    assert rep.period == 2  # states cycle with period 2 as well here


def test_alternating_validation():
    t = themap(S2, {0: 1, 1: 0})
    with pytest.raises(ValueError):
        alternating_orbit(t, SelfMap.identity(S3.image), 0)
    with pytest.raises(ValueError):
        alternating_orbit(t, t, 9)
    with pytest.raises(ValueError):
        alternating_orbit(t, t, 0, max_steps=0)
    assert alternating_orbit(t, t, 0, max_steps=1).kind == TRUNCATED


@given(st.data())
def test_alternating_default_budget_never_truncates(data):
    n = data.draw(st.integers(2, 4))
    img = digital_interval(0, n - 1)
    draw_map = lambda: SelfMap(
        img, tuple((data.draw(st.integers(0, n - 1)),) for _ in range(n))
    )
    s, t = draw_map(), draw_map()
    start = data.draw(st.integers(0, n - 1))
    rep = alternating_orbit(s, t, start)
    assert rep.kind != TRUNCATED
    # the recorded points really are the interleaved iteration
    for i in range(len(rep.points) - 1):
        step = t if i % 2 == 0 else s
        assert rep.points[i + 1] == step(rep.points[i])


def _settled(pts, period):
    """The report fields of a tail that repeats with this point period."""
    if period > 1:
        return EVENTUALLY_PERIODIC, None, None, period
    settle = min(k for k in range(len(pts)) if all(p == pts[-1] for p in pts[k:]))
    return EVENTUALLY_CONSTANT, settle, pts[-1], None


def _reference_picard(f, x, budget):
    """Point by point: stop at the first point seen before."""
    pts = [x]
    for _ in range(len(f.domain) + 1 if budget is None else budget):
        x = f(x)
        if x in pts:
            return (tuple(pts + [x]), *_settled(pts + [x], len(pts) - pts.index(x)))
        pts.append(x)
    return tuple(pts), TRUNCATED, None, None, None


def _reference_alternating(s, t, x, budget):
    """Point by point, T then S: stop at the first (point, parity) seen
    before; the period is the least rotation of the cycle's points."""
    pts, states = [x], [(x, 0)]
    for step in range(2 * len(t.domain) + 2 if budget is None else budget):
        x = (t if step % 2 == 0 else s)(x)
        pts.append(x)
        if (x, (step + 1) % 2) in states:
            cycle = pts[states.index((x, (step + 1) % 2)) : -1]
            period = next(p for p in range(1, len(cycle) + 1) if cycle == cycle[p:] + cycle[:p])
            return (tuple(pts), *_settled(pts, period))
        states.append((x, (step + 1) % 2))
    return tuple(pts), TRUNCATED, None, None, None


def _fields(rep):
    return rep.points, rep.kind, rep.settle_index, rep.value, rep.period


def test_orbits_match_point_level_reference_loops():
    """Every map and every pair of maps of the scan images of up to 3
    points, from every start, under the default budget and budgets 1-3."""
    for img in small_connected_images(3):
        maps = list(enumerate_selfmaps(img))
        for x, budget in itertools.product(img.points, (None, 1, 2, 3)):
            for f in maps:
                assert _fields(orbit(f, x, budget)) == _reference_picard(f, x, budget)
            for s, t in itertools.product(maps, maps):
                expected = _reference_alternating(s, t, x, budget)
                assert _fields(alternating_orbit(s, t, x, budget)) == expected


# -- stability -------------------------------------------------------


def test_stability_constant_map():
    c = SelfMap.constant(S3.image, 1)
    verdict = t_stability_verdict(S3, c, 1)
    assert verdict.all_orbits_converge
    assert verdict.deviating_orbit is None


def test_stability_identity_fails_away_from_target():
    ident = SelfMap.identity(S2.image)
    verdict = t_stability_verdict(S2, ident, 0)
    assert not verdict.all_orbits_converge
    assert verdict.deviating_orbit.start == (1,)
    assert verdict.deviating_orbit.value == (1,)


def test_stability_funnel_map():
    t = themap(S3, {0: 0, 1: 0, 2: 1})
    verdict = t_stability_verdict(S3, t, 0)
    assert verdict.all_orbits_converge


def test_stability_requires_fixed_target():
    t = themap(S3, {0: 0, 1: 0, 2: 1})
    with pytest.raises(ValueError):
        t_stability_verdict(S3, t, 2)


def test_stability_refuses_a_target_outside_the_space():
    t = themap(S3, {0: 0, 1: 0, 2: 1})
    with pytest.raises(ValueError, match="9 is not a point of the space"):
        t_stability_verdict(S3, t, 9)


def test_stability_refuses_a_map_of_another_space():
    with pytest.raises(ValueError, match="domain is not the space's point set"):
        t_stability_verdict(S3, SelfMap.constant(S4.image, 0), 0)
