"""Iteration engine: Picard runs, contraction theorem verifiers, the
alternating two-map scheme, and the stability verdict.

The two theorem verifiers confirm their conclusions by brute force: a
full fixed-point scan, and the Picard orbit from every start, each of
which must settle at the unique fixed point.  Along each orbit they also
re-check the proof's descent inequality, so a passing report holds both
the conclusion and the estimate the proof derives it from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import contracts
from .contracts import ConditionReport, _positions, check_kannan
from .exact import exact_le, exact_lt, scale
from .mapkit import EVENTUALLY_CONSTANT, OrbitReport, SelfMap, _iterate, fixed_points
from .metric import DigitalMetricSpace
from .space import Point, as_point, fmt_point

CONFIRMS = "confirms_theorem"
REFUTES = "refutes_assertion"
HYPOTHESIS_FAILS = "hypothesis_fails"


@dataclass(frozen=True)
class TheoremReport:
    """Verdict on one theorem instance.

    conclusion is "confirms_theorem" (hypothesis and conclusion both
    verified), "refutes_assertion" (hypothesis true, conclusion false —
    a genuine counterexample), or "hypothesis_fails" (nothing claimed).
    """

    hypothesis: ConditionReport
    conclusion: str
    fixed_point: Point | None = None
    unique: bool = False
    orbits: tuple[OrbitReport, ...] = ()
    detail: str = ""

    def __post_init__(self):
        if self.conclusion not in (CONFIRMS, REFUTES, HYPOTHESIS_FAILS):
            raise ValueError(f"unknown conclusion {self.conclusion!r}")
        if self.conclusion == CONFIRMS and self.fixed_point is None:
            raise ValueError("a confirming report must name the fixed point")
        if self.conclusion == REFUTES and not self.hypothesis.holds:
            raise ValueError("a refutation requires the hypothesis to hold")


@dataclass(frozen=True)
class StabilityVerdict:
    """Whether every Picard orbit settles at the given fixed point."""

    target: Point
    all_orbits_converge: bool
    deviating_orbit: OrbitReport | None = None

    def __post_init__(self):
        if self.all_orbits_converge != (self.deviating_orbit is None):
            raise ValueError("verdict and deviating orbit disagree")


def _settles_at(report: OrbitReport, p: Point) -> bool:
    return report.kind == EVENTUALLY_CONSTANT and report.value == p


def _confirm(
    space: DigitalMetricSpace, f: SelfMap, hypothesis: ConditionReport, bounds, label: str
) -> list[TheoremReport]:
    """The shared conclusion check of both theorem verifiers, a report per
    descent bound from one scan of Fix(f) and of the orbit from every point
    (run once per map).  Each orbit must settle at the unique fixed point
    and meet each bound descends(seq, n) along the positions seq it walked,
    for n in range(len(seq) - 2); a report names the first failure in orbit
    order.  The contraction bound compares steps n and n + 1, so that range
    covers it; the displacement estimate bounds step n alone, and the step
    it leaves out is the settled orbit's last, d(p, p) = 0, which every
    nonnegative bound meets."""
    if not hypothesis.holds:
        return [TheoremReport(hypothesis, HYPOTHESIS_FAILS)] * len(bounds)
    fixes = fixed_points(f)
    orbits, walks = f.picard_orbits
    if len(fixes) != 1:
        detail = f"expected exactly one fixed point, found {len(fixes)}"
        return [TheoremReport(hypothesis, REFUTES, orbits=orbits, detail=detail)] * len(bounds)
    p = fixes[0]
    settled = next((k for k, rep in enumerate(orbits) if not _settles_at(rep, p)), len(orbits))
    refutes = partial(TheoremReport, hypothesis, REFUTES, unique=True, orbits=orbits)
    # The report of a bound that holds along every orbit before `settled`.
    descended = TheoremReport(hypothesis, CONFIRMS, fixed_point=p, unique=True, orbits=orbits)
    if settled < len(orbits):
        start = fmt_point(orbits[settled].start)
        descended = refutes(detail=f"orbit from {start} does not settle at {fmt_point(p)}")

    def report(descends) -> TheoremReport:
        for rep, seq in zip(orbits[:settled], walks):
            step = next((n for n in range(len(seq) - 2) if not descends(seq, n)), None)
            if step is not None:
                start = fmt_point(rep.start)
                return refutes(detail=f"descent {label} fails at step {step} from {start}")
        return descended

    return [report(descends) for descends in bounds]


def banach_verify(space: DigitalMetricSpace, f: SelfMap) -> TheoremReport:
    """The contraction theorem: a map with Lipschitz constant below 1
    has a unique fixed point, reached by every Picard orbit.

    The hypothesis check computes the minimal constant, and a failing
    hypothesis names the first pair reaching it; the conclusion is
    confirmed by scanning Fix(f), running all orbits, and re-checking
    the proof's descent inequality d(x_{n+1}, x_{n+2}) <= k * d(x_n, x_{n+1}).
    """
    tol, d = space.comparison_tolerance, space.index_distance
    constant = contracts.minimal_constant(space, contracts.CONTRACTION, f)
    k_min, worst, _ = constant
    hypothesis = contracts._report(space, None if exact_lt(k_min, 1, tol) else worst, constant)

    def descends(seq, n):
        return exact_le(d(seq[n + 1], seq[n + 2]), k_min * d(seq[n], seq[n + 1]), tol)

    return _confirm(space, f, hypothesis, [descends], "inequality")[0]


def _descent_ratio(a, b) -> tuple[int, int]:
    """kannan_descent_constant(a, b) in lowest terms, as two ints."""
    a, b = contracts._fraction(a), contracts._fraction(b)
    s = a.numerator * b.denominator + b.numerator * a.denominator
    q = a.denominator * b.denominator - s
    g = math.gcd(s, q)
    return s // g, q // g


def kannan_descent_constant(a, b) -> Fraction:
    """The proof's orbit-contraction factor A = (a+b) / (1 - (a+b))."""
    return Fraction(*_descent_ratio(a, b))


def kannan_verify(space: DigitalMetricSpace, t: SelfMap, a, b) -> TheoremReport:
    """The two-coefficient displacement theorem: if
    d(Tx,Ty) <= a[d(x,Tx)+d(y,Ty)] + b[d(x,Ty)+d(Tx,y)] with a+b < 1/2,
    then T has a unique fixed point.

    Confirmation scans Fix(T), runs every orbit, and re-checks the
    proof's estimate d(x_n, x_{n+1}) <= A^n * d(x_0, x_1) termwise; with
    A = p/q, exact regimes decide it as q^n * d(x_n, x_{n+1}) <= p^n * d(x_0, x_1).
    """
    return _kannan_conclusions(space, t, check_kannan(space, t, a, b), ((a, b),))[0]


def _kannan_conclusions(
    space: DigitalMetricSpace, t: SelfMap, hypothesis: ConditionReport, tuples
) -> list[TheoremReport]:
    """kannan_verify's conclusion under each admitted (a, b) of tuples (a + b
    < 1/2, so A is defined), from one hypothesis report and one _confirm
    scan, with a descent bound per distinct A, keyed by ints (_descent_ratio)."""
    tol, d = space.comparison_tolerance, space.index_distance
    ratios = [_descent_ratio(a, b) for a, b in tuples]
    index = {r: k for k, r in enumerate(dict.fromkeys(ratios))}

    def descends(p, q, seq, n):
        if tol is None:
            return exact_le(q**n * d(seq[n], seq[n + 1]), p**n * d(seq[0], seq[1]))
        return exact_le(d(seq[n], seq[n + 1]), scale(Fraction(p**n, q**n), d(seq[0], seq[1])), tol)

    reports = _confirm(space, t, hypothesis, [partial(descends, *r) for r in index], "estimate")
    return [reports[index[r]] for r in ratios]


def alternating_orbit(
    s: SelfMap, t: SelfMap, x0, max_steps: int | None = None
) -> OrbitReport:
    """The interleaved orbit x1 = T x0, x2 = S x1, x3 = T x2, ...

    T acts at even indices, S at odd ones.  Repetition is detected on
    (point, parity) states — the point alone can recur without the tail
    repeating — and the reported period is the minimal period of the
    point sequence, which may be smaller than the state period.
    The default budget 2|X| + 2 exhausts the state space.
    """
    if s.domain != t.domain:
        raise ValueError("alternating iteration needs a shared domain")
    return _iterate((t, s), x0, max_steps)[0]


def t_stability_verdict(space: DigitalMetricSpace, t: SelfMap, p) -> StabilityVerdict:
    """Stability of Picard iteration at the fixed point p.

    In a uniformly discrete space, perturbed orbits whose error terms
    e_n = d(y_{n+1}, T y_n) tend to 0 are exact orbits from some index
    on, so stability reduces to: every Picard orbit settles at p.
    """
    p, v, index = as_point(p), _positions(space, t), space.image.index
    if p not in index:
        raise ValueError(f"{fmt_point(p)} is not a point of the space")
    if v[index[p]] != index[p]:
        raise ValueError(f"{fmt_point(p)} is not a fixed point")
    deviating = next((rep for rep in t.picard_orbits[0] if not _settles_at(rep, p)), None)
    return StabilityVerdict(p, deviating is None, deviating)
