"""Iteration engine: Picard runs, contraction theorem verifiers, the
alternating two-map scheme, and the stability verdict.

The two theorem verifiers confirm their conclusions by brute force: a
full fixed-point scan, and the Picard orbit from every start, each of
which must settle at the unique fixed point.  Along each orbit they also
re-check the proof's descent inequality, so a passing report holds both
the conclusion and the estimate the proof derives it from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    space: DigitalMetricSpace, f: SelfMap, hypothesis: ConditionReport, descends, label: str
) -> TheoremReport:
    """The shared conclusion check of both theorem verifiers.

    Scans Fix(f), reads the orbit from every point (run once per map),
    requires each to settle at the unique fixed point, and re-checks the
    proof's descent bound descends(seq, n) along the orbit, given as the
    positions seq it walked, for n in range(len(seq) - 2).  The
    contraction bound compares steps n and n + 1, so that range covers
    it; the displacement estimate bounds step n alone, and the step it
    leaves out is the settled orbit's last, d(p, p) = 0, which every
    nonnegative bound meets.
    """
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
        if not _settles_at(rep, p):
            detail = f"orbit from {fmt_point(rep.start)} does not settle at {fmt_point(p)}"
        else:
            step = next((n for n in range(len(seq) - 2) if not descends(seq, n)), None)
            if step is None:
                continue
            detail = f"descent {label} fails at step {step} from {fmt_point(rep.start)}"
        return TheoremReport(hypothesis, REFUTES, unique=True, orbits=orbits, detail=detail)
    return TheoremReport(hypothesis, CONFIRMS, fixed_point=p, unique=True, orbits=orbits)


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

    return _confirm(space, f, hypothesis, descends, "inequality")


def kannan_descent_constant(a, b) -> Fraction:
    """The proof's orbit-contraction factor A = (a+b) / (1 - (a+b)),
    over the common denominator of a and b."""
    a, b = contracts._fraction(a), contracts._fraction(b)
    s = a.numerator * b.denominator + b.numerator * a.denominator
    return Fraction(s, a.denominator * b.denominator - s)


def kannan_verify(space: DigitalMetricSpace, t: SelfMap, a, b) -> TheoremReport:
    """The two-coefficient displacement theorem: if
    d(Tx,Ty) <= a[d(x,Tx)+d(y,Ty)] + b[d(x,Ty)+d(Tx,y)] with a+b < 1/2,
    then T has a unique fixed point.

    Confirmation scans Fix(T), runs every orbit, and re-checks the
    proof's estimate d(x_n, x_{n+1}) <= A^n * d(x_0, x_1) termwise; with
    A = p/q, exact regimes decide it as q^n * d(x_n, x_{n+1}) <= p^n * d(x_0, x_1).
    """
    return _kannan_conclusion(space, t, check_kannan(space, t, a, b), a, b)


def _kannan_conclusion(
    space: DigitalMetricSpace, t: SelfMap, hypothesis: ConditionReport, a, b
) -> TheoremReport:
    """kannan_verify's conclusion from its hypothesis report.  Only an
    admitted (a, b), with a + b < 1/2, reaches it, so A is defined."""
    tol, d = space.comparison_tolerance, space.index_distance
    big_a = kannan_descent_constant(a, b)
    p, q = big_a.numerator, big_a.denominator

    def descends(seq, n):
        if tol is None:
            return exact_le(q**n * d(seq[n], seq[n + 1]), p**n * d(seq[0], seq[1]))
        return exact_le(d(seq[n], seq[n + 1]), scale(big_a**n, d(seq[0], seq[1])), tol)

    return _confirm(space, t, hypothesis, descends, "estimate")


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
