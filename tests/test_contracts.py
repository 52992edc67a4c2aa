"""Contractive-type condition evaluators.

Hand-worked oracles (all on small digital intervals unless noted):

  * identity, two points, coefficients a = b = 1/5:
      d(T0,T1) = 1 vs a*0 + b*(1+1) = 2/5  -> fails at (0,1)
  * the swap x -> 1-x, a = 3/10, b = 1/10:
      1 vs 3/10*(1+1) + 1/10*(0+0) = 3/5   -> fails
  * the swap under the three-term max, r = 9/10:
      1 vs 9/10 * max{1,1,1}               -> fails
  * five-term max adds d(x,Ty), d(Tx,y) = 0, 0 -> still fails
"""

import itertools
from fractions import Fraction

import pytest

from digitop import contracts
from digitop.contracts import (
    ConditionReport,
    check_banach,
    check_ciric5,
    check_kannan,
    check_pair_domination,
    check_quasi,
    check_saluja,
    compatible,
    lipschitz_min,
    parv_rational_check,
    weakly_commutative,
)
from digitop.mapkit import SelfMap, enumerate_selfmaps
from digitop.metric import L1, L2, DigitalMetricSpace, Lp
from digitop.space import C1, C2, DigitalImage, digital_interval

HALF = Fraction(1, 2)


def space(n, metric=L1):
    return DigitalMetricSpace(digital_interval(0, n - 1), metric)


def themap(sp, mapping):
    return SelfMap.from_dict(sp.image, mapping)


S2 = space(2)
S3 = space(3)
SWAP2 = themap(S2, {0: 1, 1: 0})
ID2 = SelfMap.identity(S2.image)
ID3 = SelfMap.identity(S3.image)


# -- report plumbing -------------------------------------------------


def test_failing_report_requires_witness():
    with pytest.raises(ValueError):
        ConditionReport(holds=False)
    rep = ConditionReport(holds=False, witness=((0,), (1,)))
    assert not rep.ill_defined


def test_parameter_range_validation():
    with pytest.raises(ValueError):
        check_banach(S2, ID2, 1)
    with pytest.raises(ValueError):
        check_quasi(S2, ID2, -Fraction(1, 2))
    with pytest.raises(ValueError):
        check_kannan(S2, ID2, Fraction(1, 4), Fraction(1, 4))  # a + b = 1/2
    with pytest.raises(ValueError):
        check_kannan(S2, ID2, -Fraction(1, 10), 0)
    with pytest.raises(ValueError):
        check_saluja(S2, ID2, ID2, 1)


def test_pair_checks_require_shared_domain():
    other = SelfMap.identity(S3.image)
    for fn in (weakly_commutative, compatible, parv_rational_check):
        with pytest.raises(ValueError):
            fn(S3, other, ID2)


def test_checks_require_a_map_of_the_space():
    shifted = SelfMap.identity(digital_interval(5, 6))
    for check in (
        lambda f: check_banach(S2, f, HALF),
        lambda f: lipschitz_min(S2, f),
        lambda f: check_kannan(S2, f, 0, 0),
        lambda f: check_quasi(S2, f, HALF),
        lambda f: check_pair_domination(S2, f, f, HALF),
        lambda f: weakly_commutative(S2, f, f),
        lambda f: compatible(S2, f, f),
    ):
        with pytest.raises(ValueError, match="not the space's point set"):
            check(shifted)


def test_checks_require_the_spaces_adjacency():
    # The same four points under c1: a map of that image is not a map of
    # the c2 space, in either place of a pair.
    grid = list(itertools.product((0, 1), repeat=2))
    sp = DigitalMetricSpace(DigitalImage(grid, C2), L1)
    own, alien = SelfMap.identity(sp.image), SelfMap.identity(DigitalImage(grid))
    singles = (
        lambda f: check_banach(sp, f, HALF),
        lambda f: lipschitz_min(sp, f),
        lambda f: check_kannan(sp, f, 0, 0),
        lambda f: check_quasi(sp, f, HALF),
        lambda f: check_ciric5(sp, f, HALF),
    )
    pairs = (
        lambda f, g: check_pair_domination(sp, f, g, HALF),
        lambda f, g: check_saluja(sp, f, g, HALF),
        lambda f, g: parv_rational_check(sp, f, g),
        lambda f, g: weakly_commutative(sp, f, g),
        lambda f, g: compatible(sp, f, g),
    )
    calls = [(check, (alien,), (own,)) for check in singles]
    calls += [(check, maps, (own, own)) for check in pairs for maps in ((alien, own), (own, alien))]
    for check, maps, good in calls:
        check(*good)
        with pytest.raises(ValueError, match="not the space's point set"):
            check(*maps)


# -- banach ----------------------------------------------------------


def test_lipschitz_min_oracles():
    assert lipschitz_min(S3, SelfMap.constant(S3.image, 0)) == 0
    assert lipschitz_min(S3, ID3) == 1
    near = themap(S3, {0: 0, 1: 0, 2: 1})
    assert lipschitz_min(S3, near) == 1  # the pair (1,2) forces ratio 1/1
    sp4 = space(4)
    half = themap(sp4, {0: 0, 1: 0, 2: 1, 3: 1})
    assert lipschitz_min(sp4, half) == 1
    assert lipschitz_min(space(1), SelfMap.identity(space(1).image)) == 0


def test_banach_witness_is_lex_least():
    rep = check_banach(S3, ID3, HALF)
    assert not rep.holds
    assert rep.witness == ((0,), (1,))
    assert rep.minimal_constant == 1


def test_banach_minimal_constant_is_tight():
    sp = space(4)
    for f in enumerate_selfmaps(sp.image):
        k = lipschitz_min(sp, f)
        if k >= 1:
            continue
        assert check_banach(sp, f, k).holds
        if k > 0:
            assert not check_banach(sp, f, k * Fraction(9, 10)).holds


def test_banach_exact_flag_follows_metric():
    assert check_banach(S2, SWAP2, 0, minimal=False).exact
    inexact = DigitalMetricSpace(digital_interval(0, 1), Lp(3))
    f = SelfMap.constant(inexact.image, 0)
    assert not check_banach(inexact, f, 0, minimal=False).exact


# -- kannan ----------------------------------------------------------


def test_kannan_constant_holds_at_zero():
    assert check_kannan(S3, SelfMap.constant(S3.image, 1), 0, 0).holds


def test_kannan_identity_two_points():
    rep = check_kannan(S2, ID2, Fraction(1, 5), Fraction(1, 5))
    assert not rep.holds
    assert rep.witness == ((0,), (1,))


def test_kannan_swap_counterexample():
    rep = check_kannan(S2, SWAP2, Fraction(3, 10), Fraction(1, 10))
    assert not rep.holds


def test_kannan_borderline_coefficient_pair_accepted():
    # a = 0, b = 2/5: identity needs d(x,y) <= 2/5 * 2 d(x,y) -> fails;
    # but the swap: d(T0,T1)=1, b*[d(0,T1)+d(T0,1)] = 2/5*(0+0) -> fails too
    assert not check_kannan(S2, ID2, 0, Fraction(2, 5)).holds
    assert not check_kannan(S2, SWAP2, 0, Fraction(2, 5)).holds


# -- quasi and five-term max -----------------------------------------


def test_quasi_oracles():
    assert check_quasi(S2, SelfMap.constant(S2.image, 0), 0).holds
    rep = check_quasi(S2, ID2, Fraction(9, 10))
    assert not rep.holds and rep.witness == ((0,), (1,))
    assert not check_quasi(S2, SWAP2, Fraction(9, 10)).holds


def test_five_term_oracles():
    assert check_ciric5(S2, SelfMap.constant(S2.image, 1), 0).holds
    # for the swap the two extra terms vanish, so the verdict matches quasi
    rep = check_ciric5(S2, SWAP2, Fraction(9, 10))
    assert not rep.holds


def test_minimal_constants_of_swap():
    assert check_quasi(S2, SWAP2, 0).minimal_constant == 1
    assert check_ciric5(S2, SWAP2, 0).minimal_constant == 1
    half3 = themap(S3, {0: 0, 1: 0, 2: 1})
    # quasi terms at (1,2): max{1, 1, 1} = 1, lhs 1 -> ratio 1; at (0,2):
    # max{2, 0, 1} = 2, lhs 1 -> 1/2; minimal over pairs is still 1
    assert check_quasi(S3, half3, 0).minimal_constant == 1
    # the five-term max sees d(x,Ty) = d(0,1) and d(Tx,y): at (1,2)
    # max{1, 1, 1, d(1,1)=0, d(0,2)=2} = 2 -> ratio 1/2
    assert check_ciric5(S3, half3, 0).minimal_constant == HALF


def test_condition_hierarchy_exhaustive():
    # banach(r) => quasi(r) => five-term(r): the max only grows
    sp = space(4)
    grid = (Fraction(1, 4), HALF, Fraction(3, 4))
    for f in enumerate_selfmaps(sp.image):
        for r in grid:
            b = check_banach(sp, f, r, minimal=False).holds
            q = check_quasi(sp, f, r, minimal=False).holds
            c5 = check_ciric5(sp, f, r, minimal=False).holds
            assert (not b or q) and (not q or c5), (str(f), r)


def test_hierarchy_on_euclidean_grid():
    img = DigitalImage(itertools.product((0, 1), repeat=2), C2)
    sp = DigitalMetricSpace(img, L2)
    for f in enumerate_selfmaps(img):
        if check_quasi(sp, f, HALF, minimal=False).holds:
            assert check_ciric5(sp, f, HALF, minimal=False).holds


# -- pair domination -------------------------------------------------


def test_domination_constant_h_always_holds():
    g = themap(S3, {0: 2, 1: 0, 2: 1})
    h = SelfMap.constant(S3.image, 1)
    rep = check_pair_domination(S3, g, h, Fraction(1, 4))
    assert rep.condition.holds
    assert rep.condition.minimal_constant == 0
    assert rep.range_included  # {1} inside {0,1,2}


def test_domination_self_pair_fails():
    rep = check_pair_domination(S2, SWAP2, SWAP2, HALF)
    assert not rep.condition.holds
    assert rep.condition.witness == ((0,), (1,))
    # minimal constant for h = g is exactly 1, which is outside [0, 1)
    assert rep.condition.minimal_constant == 1


def test_domination_no_finite_constant():
    g = SelfMap.constant(S2.image, 0)
    rep = check_pair_domination(S2, g, SWAP2, HALF)
    assert not rep.condition.holds
    assert rep.condition.no_finite_constant
    assert rep.condition.minimal_constant is None


def test_domination_range_verdict_is_independent():
    # H's range escapes G's range even though the inequality holds
    g = themap(S3, {0: 0, 1: 0, 2: 0})
    h = SelfMap.constant(S3.image, 2)
    rep = check_pair_domination(S3, g, h, Fraction(1, 4))
    assert rep.condition.holds and not rep.range_included


# -- sum-bound (two-map) condition -----------------------------------


def test_sum_bound_constant_pair_holds():
    j = SelfMap.constant(S2.image, 0)
    k = SelfMap.constant(S2.image, 1)
    rep = check_saluja(S2, j, k, HALF)
    assert rep.condition.holds
    assert rep.first_constant and rep.second_constant


def test_sum_bound_identity_pairs_fail():
    j = SelfMap.constant(S2.image, 0)
    rep = check_saluja(S2, j, ID2, Fraction(9, 10))
    assert not rep.condition.holds
    assert rep.condition.witness == ((0,), (1,))
    rep2 = check_saluja(S2, ID2, ID2, Fraction(9, 10))
    assert not rep2.condition.holds


def test_sum_bound_holds_implies_both_constant_exhaustive():
    maps = list(enumerate_selfmaps(S3.image))
    passing = 0
    for j in maps:
        for k in maps:
            rep = check_saluja(S3, j, k, HALF, minimal=False)
            if rep.condition.holds:
                passing += 1
                assert j.is_constant and k.is_constant, (str(j), str(k))
    assert passing == 9  # 3 constants for J x 3 constants for K


def test_sum_bound_passing_set_is_xi_independent():
    # a passing pair is a constant pair, which passes at every legal xi
    maps = list(enumerate_selfmaps(S2.image))
    for xi in (0, Fraction(1, 4), Fraction(9, 10)):
        passing = {
            (j.values, k.values)
            for j in maps
            for k in maps
            if check_saluja(S2, j, k, xi, minimal=False).condition.holds
        }
        assert passing == {
            (j.values, k.values)
            for j in maps
            for k in maps
            if j.is_constant and k.is_constant
        }


# -- rational two-map condition --------------------------------------


def test_rational_identity_pair_is_undefined_on_diagonal():
    rep = parv_rational_check(S2, ID2, ID2)
    assert rep.ill_defined
    assert rep.undefined_pairs == (((0,), (0,)), ((1,), (1,)))


def test_rational_constant_pair_undefined_at_its_value():
    c = SelfMap.constant(S2.image, 1)
    rep = parv_rational_check(S2, c, c)
    assert (((1,), (1,))) in rep.undefined_pairs


def test_rational_mixed_pair_fully_defined():
    # T = identity, S = swap: every denominator is at least 1
    rep = parv_rational_check(S2, ID2, SWAP2)
    assert not rep.ill_defined
    # at (0,0): lhs*denom = d(0,S0)*1 = 1, numer = 0 -> violated
    assert not rep.holds
    assert rep.witness == ((0,), (0,))


def test_rational_shared_fixed_point_forces_undefined_diagonal():
    s = themap(S2, {0: 0, 1: 0})
    t = themap(S2, {0: 0, 1: 1})
    rep = parv_rational_check(S2, t, s)
    assert ((0,), (0,)) in rep.undefined_pairs


def test_rational_shared_fixed_point_undefined_exhaustive():
    maps = list(enumerate_selfmaps(S3.image))
    for t in maps:
        for s in maps:
            shared = [
                p for p in S3.image.points if t(p) == p and s(p) == p
            ]
            rep = parv_rational_check(S3, t, s)
            for p in shared:
                assert (p, p) in rep.undefined_pairs


# -- weak commutativity and compatibility ----------------------------


def test_weakly_commutative_trivial_cases():
    assert weakly_commutative(S2, SWAP2, SWAP2).holds
    assert weakly_commutative(S2, ID2, SWAP2).holds
    c0 = SelfMap.constant(S2.image, 0)
    c1 = SelfMap.constant(S2.image, 1)
    assert weakly_commutative(S2, c0, c1).holds


def test_weakly_commutative_failure_witness():
    s = themap(S2, {0: 1, 1: 1})
    t = themap(S2, {0: 1, 1: 0})
    rep = weakly_commutative(S2, s, t)
    assert not rep.holds
    assert rep.witness == ((0,),)


def test_compatible_spec_pair():
    s = themap(S2, {0: 1, 1: 1})
    t = themap(S2, {0: 1, 1: 0})
    rep = compatible(S2, s, t)
    assert not rep.holds
    assert rep.witness == ((0,),)
    assert compatible(S2, SWAP2, SWAP2).holds


def test_weak_commutativity_implies_compatibility_exhaustive():
    # at a coincidence point the weak bound reads d(STx,TSx) <= 0
    maps = list(enumerate_selfmaps(S3.image))
    seen_nontrivial = 0
    for s in maps:
        for t in maps:
            if weakly_commutative(S3, s, t).holds:
                comp = compatible(S3, s, t)
                assert comp.holds, (str(s), str(t))
                seen_nontrivial += 1
    assert seen_nontrivial > 27  # beyond the diagonal s = t


# -- isometry invariance ---------------------------------------------


def reflect(sp, f):
    """Conjugate a self-map of [0,n-1] by the isometry x -> (n-1) - x."""
    n = len(sp.image)
    phi = lambda p: ((n - 1) - p[0],)
    return SelfMap(sp.image, tuple(phi(f(phi(p))) for p in sp.image.points))


@pytest.mark.parametrize(
    "mapping",
    [
        {0: 0, 1: 0, 2: 1},
        {0: 2, 1: 1, 2: 0},
        {0: 1, 1: 1, 2: 1},
        {0: 1, 1: 2, 2: 0},
    ],
)
def test_verdicts_invariant_under_reflection(mapping):
    f = themap(S3, mapping)
    g = reflect(S3, f)
    r = Fraction(3, 5)
    assert lipschitz_min(S3, f) == lipschitz_min(S3, g)
    assert check_quasi(S3, f, r).holds == check_quasi(S3, g, r).holds
    assert check_ciric5(S3, f, r).holds == check_ciric5(S3, g, r).holds
    assert (
        check_kannan(S3, f, Fraction(1, 5), Fraction(1, 5)).holds
        == check_kannan(S3, g, Fraction(1, 5), Fraction(1, 5)).holds
    )


# -- maps across spaces, and early stops -----------------------------


def test_a_map_checked_on_two_spaces_gets_each_space_s_reports():
    """One SelfMap checked on two spaces of its image, l1 then l2, under two
    conditions, Kannan's then the three-term max, gets the report a fresh
    map on a fresh space gets each time.  On the 3x3 grid the two metrics
    rank distances differently, so anything kept by the map alone would
    answer the second space with the first one's levels."""
    img = DigitalImage([(i, j) for i in range(3) for j in range(3)], C1)
    values = ((2, 2), (2, 0), (1, 2), (2, 2), (2, 0), (1, 0), (1, 2), (0, 0), (1, 1))
    shared, spaces = SelfMap(img, values), [DigitalMetricSpace(img, m) for m in (L1, L2)]
    reports = {}
    for check, coeffs in ((check_kannan, (Fraction(3, 8), 0)), (check_quasi, (Fraction(3, 4),))):
        for sp in spaces:
            fresh = check(DigitalMetricSpace(img, sp.metric), SelfMap(img, values), *coeffs)
            reports[check, sp.metric] = check(sp, shared, *coeffs)
            assert reports[check, sp.metric] == fresh, (check.__name__, sp)
    assert reports[check_kannan, L1].witness != reports[check_kannan, L2].witness
    assert reports[check_quasi, L1].minimal_constant != reports[check_quasi, L2].minimal_constant


def test_the_verdict_memo_is_found_by_grid_equality_without_hashing(monkeypatch):
    """The five bound rows share one memo per grid: an equal grid of other
    Fraction objects finds it, another grid or rule does not, and no
    look-up hashes a coefficient."""
    sp, c = space(3), contracts
    memo = c.verdicts(sp, c.QUASI, (HALF, Fraction(1, 4)))
    hashed = []
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or 0)
    for row in (c.CONTRACTION, c.QUASI, c.FIVE_TERM, c.DOMINATION, c.SUM_BOUND):
        assert c.verdicts(sp, row, (Fraction(2, 4), Fraction(1, 4))) is memo
    assert c.verdicts(sp, c.QUASI, (HALF,)) is not memo
    kannan = c.verdicts(sp, c.KANNAN, ((HALF, Fraction(1, 4)),))
    assert kannan is not memo
    assert c.verdicts(sp, c.KANNAN, ((Fraction(1, 2), Fraction(1, 4)),)) is kannan
    assert hashed == []
