"""Metrics on digital images and the spaces pairing the two.

Distance values keep exact semantics wherever the acceptance contract
needs them: l_1 and shortest-path distances are plain integers, l_2
distances are exact radicals (see :mod:`digitop.exact`), and only
general l_p with p outside {1, 2} falls back to high-precision floats
with a documented comparison tolerance.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

import mpmath

from .exact import ExactValue, compare, sqrt_exact
from .space import DigitalImage, Point, as_point, fmt_point, is_connected

#: Comparison tolerance for the inexact general-l_p regime.
LP_FLOAT_TOLERANCE = Fraction(1, 10**9)

_MP_DPS = 40


@dataclass(frozen=True)
class Lp:
    """The l_p metric on Z^n; p is an exact rational >= 1."""

    p: Fraction

    def __init__(self, p):
        p = Fraction(p)
        if p < 1:
            raise ValueError(f"l_p requires p >= 1, got {p}")
        object.__setattr__(self, "p", p)

    def __str__(self) -> str:
        return f"l{self.p}"


@dataclass(frozen=True)
class ShortestPath:
    """Hop-count distance along adjacency edges; needs a connected image."""

    def __str__(self) -> str:
        return "shortest_path"


MetricSpec = Union[Lp, ShortestPath]

L1 = Lp(1)
L2 = Lp(2)
SHORTEST_PATH = ShortestPath()


@dataclass(frozen=True)
class DiscretenessCertificate:
    """A positive separation bound: distinct points are >= epsilon apart."""

    epsilon: ExactValue


def _gaps(x: Point, y: Point) -> tuple[int, ...]:
    return tuple(map(abs, map(operator.sub, x, y)))


class DigitalMetricSpace:
    """A digital image together with a metric.

    Immutable after construction.  The first of :meth:`index_distance`,
    :attr:`levels` and :attr:`rank` to be asked computes every distance
    once into one matrix indexed by canonical point position; all three
    read from it.  Under the shortest-path metric its rows are the
    image's breadth-first hop counts, which :meth:`distance` reads too.
    Under l_p the matrix and :meth:`distance` (so :func:`hausdorff` too)
    read one memo of norms by gap vector, the tuple of |x_i - y_i| in
    coordinate order, so the space evaluates each gap vector once.
    ``verdicts`` keeps the checkers' decisions by level.  Two threads
    racing to build the matrix or the memo store equal values, so
    neither needs a lock.
    """

    def __init__(self, image: DigitalImage, metric: MetricSpec = L1):
        if not isinstance(metric, (Lp, ShortestPath)):
            raise TypeError(f"unsupported metric spec: {metric!r}")
        if isinstance(metric, ShortestPath) and not is_connected(image):
            raise ValueError("the shortest-path metric needs a connected image")
        self._image = image
        self._metric = metric
        self._norms: dict = {}
        self.verdicts: dict = {}

    @property
    def image(self) -> DigitalImage:
        return self._image

    @property
    def metric(self) -> MetricSpec:
        return self._metric

    @property
    def points(self) -> tuple[Point, ...]:
        return self._image.points

    def __len__(self) -> int:
        return len(self._image)

    def __contains__(self, p) -> bool:
        return p in self._image

    @property
    def comparison_tolerance(self) -> Fraction | None:
        """None when verdicts are exact; a tolerance in the float regime."""
        if isinstance(self._metric, Lp) and self._metric.p not in (1, 2):
            return LP_FLOAT_TOLERANCE
        return None

    def distance(self, x, y):
        """Metric distance between two points of the space."""
        x = as_point(x)
        y = as_point(y)
        for p in (x, y):
            if p not in self._image:
                raise ValueError(f"point {fmt_point(p)} not in space")
        if isinstance(self._metric, ShortestPath):
            return self._matrix[self._image.index[x]][self._image.index[y]]
        return self._norm(_gaps(x, y))

    def _norm(self, gaps: tuple[int, ...]):
        """The l_p norm of a gap vector, evaluated once per space."""
        value = self._norms.get(gaps)
        if value is None:
            p = self._metric.p
            if p == 1:
                value = sum(gaps)
            elif p == 2:
                value = sqrt_exact(sum(g**2 for g in gaps))
            else:
                with mpmath.workdps(_MP_DPS):
                    exponent = mpmath.mpf(p.numerator) / p.denominator
                    total = mpmath.fsum(mpmath.power(g, exponent) for g in gaps)
                    value = mpmath.power(total, 1 / exponent)
            self._norms[gaps] = value
        return value

    @cached_property
    def _matrix(self) -> tuple[tuple, ...]:
        if isinstance(self._metric, ShortestPath):
            rows = map(self._image.hops, range(len(self)))
            return tuple(tuple(map(row.__getitem__, range(len(self)))) for row in rows)
        pts, norm = self._image.points, self._norm
        return tuple(tuple(norm(_gaps(x, y)) for y in pts) for x in pts)

    def index_distance(self, i: int, j: int):
        """Distance between the points at canonical positions i and j.

        The index-level core behind every checker: positions are not
        validated, and the value is read from the distance matrix.
        """
        return self._matrix[i][j]

    @cached_property
    def levels(self) -> tuple:
        """The distinct distances, ascending by ``<``: exact on exact values
        (the order :func:`compare` decides), plain on mpf values."""
        return tuple(sorted(dict.fromkeys(itertools.chain.from_iterable(self._matrix))))

    @cached_property
    def rank(self) -> tuple[tuple[int, ...], ...]:
        """rank[i][j]: the level of the distance between positions i and j."""
        level = {value: k for k, value in enumerate(self.levels)}
        return tuple(tuple(map(level.__getitem__, row)) for row in self._matrix)

    def describe(self) -> str:
        return f"{self._image.describe()}, metric {self._metric}"

    def __repr__(self) -> str:
        return f"DigitalMetricSpace({self.describe()})"


def discreteness_certificate(space: DigitalMetricSpace) -> DiscretenessCertificate:
    """Minimum pairwise distance over distinct points of a finite space:
    the least positive level, since level 0 is the distance 0.

    A singleton space has no pairs; by convention its certificate is 1,
    which every metric here vacuously satisfies.
    """
    return DiscretenessCertificate(space.levels[1] if len(space) > 1 else 1)


def hausdorff(space: DigitalMetricSpace, first: Iterable, second: Iterable):
    """Hausdorff distance between two nonempty subsets of the space.

    The maximum of the two directed distances, where the directed
    distance from A to B is max over a in A of min over b in B of d(a,b).
    """
    a_pts = sorted({as_point(p) for p in first})
    b_pts = sorted({as_point(p) for p in second})
    if not a_pts or not b_pts:
        raise ValueError("hausdorff distance needs nonempty subsets")
    for p in itertools.chain(a_pts, b_pts):
        if p not in space:
            raise ValueError(f"point {fmt_point(p)} not in space")
    tol = space.comparison_tolerance

    def directed(src, dst):
        worst = None
        for a in src:
            closest = None
            for b in dst:
                d = space.distance(a, b)
                if closest is None or compare(d, closest, tol) < 0:
                    closest = d
            if worst is None or compare(closest, worst, tol) > 0:
                worst = closest
        return worst

    forward = directed(a_pts, b_pts)
    backward = directed(b_pts, a_pts)
    return forward if compare(forward, backward, tol) >= 0 else backward
