"""The per-map conclusion step against the per-(map, tuple) step it replaced.

The reference below is the earlier conclusion step, run once per map and
descent bound: a scan of Fix(f), then the orbit from every point in
order, each required to settle at the unique fixed point and to meet the
bound, the first failure named.  fixpoint._confirm now scans a map once
for all its bounds, and fixpoint._kannan_conclusions checks each distinct
descent constant once for all its tuples; every report must be the one
the reference gives, on every self-map of the small intervals, the
hypothesis forced true so that the conclusion is decided on every map.
"""

from fractions import Fraction

import pytest
from test_suite_sweeps import KANNAN_GRIDS

from digitop import contracts, fixpoint
from digitop.exact import exact_le, exact_lt, scale
from digitop.fixpoint import CONFIRMS, HYPOTHESIS_FAILS, REFUTES, TheoremReport
from digitop.mapkit import EVENTUALLY_CONSTANT, SelfMap, enumerate_selfmaps, fixed_points
from digitop.metric import L1, L2, SHORTEST_PATH, DigitalMetricSpace, Lp
from digitop.space import digital_interval, fmt_point


def reference_confirm(space, f, hypothesis, descends, label) -> TheoremReport:
    if not hypothesis.holds:
        return TheoremReport(hypothesis, HYPOTHESIS_FAILS)
    fixes = fixed_points(f)
    orbits, walks = f.picard_orbits
    if len(fixes) != 1:
        return TheoremReport(
            hypothesis,
            REFUTES,
            unique=False,
            orbits=orbits,
            detail=f"expected exactly one fixed point, found {len(fixes)}",
        )
    p = fixes[0]
    for rep, seq in zip(orbits, walks):
        if not (rep.kind == EVENTUALLY_CONSTANT and rep.value == p):
            detail = f"orbit from {fmt_point(rep.start)} does not settle at {fmt_point(p)}"
        else:
            step = next((n for n in range(len(seq) - 2) if not descends(seq, n)), None)
            if step is None:
                continue
            detail = f"descent {label} fails at step {step} from {fmt_point(rep.start)}"
        return TheoremReport(hypothesis, REFUTES, unique=True, orbits=orbits, detail=detail)
    return TheoremReport(hypothesis, CONFIRMS, fixed_point=p, unique=True, orbits=orbits)


def banach_descent(space, k_min):
    tol, d = space.comparison_tolerance, space.index_distance

    def descends(seq, n):
        return exact_le(d(seq[n + 1], seq[n + 2]), k_min * d(seq[n], seq[n + 1]), tol)

    return descends


def reference_banach(space, f) -> TheoremReport:
    constant = contracts.minimal_constant(space, contracts.CONTRACTION, f)
    k_min, worst, _ = constant
    tol = space.comparison_tolerance
    hypothesis = contracts._report(space, None if exact_lt(k_min, 1, tol) else worst, constant)
    return reference_confirm(space, f, hypothesis, banach_descent(space, k_min), "inequality")


def reference_kannan(space, t, hypothesis, a, b) -> TheoremReport:
    tol, d = space.comparison_tolerance, space.index_distance
    big_a = (a + b) / (1 - (a + b))
    p, q = big_a.numerator, big_a.denominator

    def descends(seq, n):
        if tol is None:
            return exact_le(q**n * d(seq[n], seq[n + 1]), p**n * d(seq[0], seq[1]))
        return exact_le(d(seq[n], seq[n + 1]), scale(big_a**n, d(seq[0], seq[1])), tol)

    return reference_confirm(space, t, hypothesis, descends, "estimate")


def fields(report: TheoremReport) -> tuple:
    return report.conclusion, report.fixed_point, report.unique, report.orbits, report.detail


METRICS = [L1, L2, SHORTEST_PATH, Lp(3)]
# Every tuple of the suite's grid and of the sweep tests' grids, repeats
# included, in one list: each map is concluded once under all of them.
TUPLES = [pair for grid in KANNAN_GRIDS.values() for pair in grid]


@pytest.mark.parametrize("metric", METRICS, ids=str)
@pytest.mark.parametrize("n", range(1, 6))
def test_the_per_map_conclusions_match_the_per_tuple_step(n, metric):
    """The 5-point interval has 3,125 maps; each is concluded under the
    forced hypothesis, so maps with no, several or one fixed point, with
    orbits that settle or not, all reach the descent scans."""
    space = DigitalMetricSpace(digital_interval(0, n - 1), metric)
    forced = contracts._report(space, None)
    seen = set()
    for f in enumerate_selfmaps(space.image):
        reports = fixpoint._kannan_conclusions(space, f, forced, TUPLES)
        assert len(reports) == len(TUPLES)
        for (a, b), report in zip(TUPLES, reports):
            expected = reference_kannan(space, f, forced, a, b)
            assert fields(report) == fields(expected), (str(f), a, b)
            seen.add(report.detail.split(" ")[0])
        k_min = contracts.minimal_constant(space, contracts.CONTRACTION, f)[0]
        descends = banach_descent(space, k_min)
        (report,) = fixpoint._confirm(space, f, forced, [descends], "inequality")
        expected = reference_confirm(space, f, forced, descends, "inequality")
        assert fields(report) == fields(expected), str(f)
        assert fields(fixpoint.banach_verify(space, f)) == fields(reference_banach(space, f))
    # Past one point every kind of report is met: confirmed (""), several
    # or no fixed points, an orbit that does not settle, a descent failure.
    if n > 2:
        assert seen == {"", "expected", "orbit", "descent"}


def test_an_earlier_orbits_descent_failure_is_named_before_a_later_orbit_that_does_not_settle():
    # The orbit from 1 runs 1, 3, 0 and settles, but d(3, 0) = 3 exceeds
    # A * d(1, 3) = 2/3; the orbit from 2 cycles between 2 and 4.
    space = DigitalMetricSpace(digital_interval(0, 4), L1)
    f = SelfMap(space.image, ((0,), (3,), (4,), (0,), (2,)))
    forced = contracts._report(space, None)
    eighth = Fraction(1, 8)
    (report,) = fixpoint._kannan_conclusions(space, f, forced, [(eighth, eighth)])
    assert report.conclusion == REFUTES
    assert report.detail == "descent estimate fails at step 1 from 1"
    assert report.orbits[2].kind != EVENTUALLY_CONSTANT
    assert report == reference_kannan(space, f, forced, eighth, eighth)
