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
from typing import Iterable, Union

from .exact import ExactValue, RadicalSum, compare, sqrt_exact
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


def _square(value):
    """The exact square of an l_2 distance: v*v for an int v, c*c*m for
    c*sqrt(m), read from its one term."""
    if isinstance(value, RadicalSum):
        ((m, c),) = value.terms
        return c * c * m
    return value * value


class DigitalMetricSpace:
    """A digital image together with a metric.

    Immutable after construction; :attr:`comparison_tolerance` is decided
    there.  The first read of :meth:`index_distance`, :attr:`levels` or
    :attr:`rank` builds all three in one pass: one matrix of every
    distance, indexed by canonical point position; ``levels``, the
    distinct distances ascending (the order :func:`compare` decides on
    exact values, plain on mpf values; l_2 levels sort by their squares,
    in integers, with no radical sign to decide); and ``rank[i][j]``, the
    level of the distance between positions i and j.  Under the
    shortest-path metric the matrix's rows are the image's breadth-first
    hop counts, which :meth:`distance` reads too.  Under l_p the matrix
    and :meth:`distance` (so :func:`hausdorff` too) read one memo of norms
    by gap vector, the tuple of |x_i - y_i| in coordinate order, so the
    space evaluates each gap vector once.  ``verdicts`` keeps the
    checkers' decisions by level.  Two threads racing to build the tables
    or the memo store equal values, so neither needs a lock.
    """

    def __init__(self, image: DigitalImage, metric: MetricSpec = L1):
        if not isinstance(metric, (Lp, ShortestPath)):
            raise TypeError(f"unsupported metric spec: {metric!r}")
        if isinstance(metric, ShortestPath) and not is_connected(image):
            raise ValueError("the shortest-path metric needs a connected image")
        self._image = image
        self._metric = metric
        self._norms: dict = {}
        self._exponents = None  # general l_p's exponent and its inverse, as mpf
        self.verdicts: dict = {}
        exact = isinstance(metric, ShortestPath) or metric.p in (1, 2)
        self._tolerance = None if exact else LP_FLOAT_TOLERANCE

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
        return self._tolerance

    def distance(self, x, y):
        """Metric distance between two points of the space."""
        x = as_point(x)
        y = as_point(y)
        for p in (x, y):
            if p not in self._image:
                raise ValueError(f"point {fmt_point(p)} not in space")
        return self._distance(x, y)

    def _distance(self, x: Point, y: Point):
        """distance between two points already known to lie in the space.
        Under l_p it evaluates only their gap vector, not the whole matrix."""
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
                import mpmath  # only general l_p needs it; loading it costs start-up

                with mpmath.workdps(_MP_DPS):
                    if self._exponents is None:
                        exponent = mpmath.mpf(p.numerator) / p.denominator
                        self._exponents = exponent, 1 / exponent
                    exponent, inverse = self._exponents
                    # An integer p's sum in ints, when it fits the working
                    # precision, is what fsum of the exact terms gives.  A gap
                    # of b bits has a power of more than p * (b - 1) bits, so a
                    # sum that cannot fit goes to fsum before it is built.
                    fits = p.denominator == 1 and (
                        p.numerator * (max(gaps).bit_length() - 1) < mpmath.mp.prec
                    )
                    total = sum(g**p.numerator for g in gaps) if fits else None
                    if total is None or total.bit_length() > mpmath.mp.prec:
                        total = mpmath.fsum(mpmath.power(g, exponent) for g in gaps)
                    value = mpmath.power(mpmath.mpf(total), inverse)
            self._norms[gaps] = value
        return value

    def __getattr__(self, name: str):
        """The distance matrix, levels and rank, built together in one pass
        when the first of them is read; later reads find them directly."""
        if name not in ("_matrix", "levels", "rank"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ks, metric = range(len(self)), self._metric
        if isinstance(metric, ShortestPath):
            matrix = rank = tuple(tuple(map(self._image.hops(i).__getitem__, ks)) for i in ks)
            # A connected image's hop counts take every value up to its diameter.
            levels = tuple(range(max(map(max, matrix)) + 1))
        else:
            # Each pair i <= j hashes its gap vector once, to the vector's id;
            # each distinct value is hashed once, and the matrix and rank read
            # a value and a level by id, so no value is hashed per pair.
            pts, ids = self._image.points, {}
            grid = [[0] * len(pts) for _ in pts]
            for (i, x), (j, y) in itertools.combinations_with_replacement(enumerate(pts), 2):
                grid[i][j] = grid[j][i] = ids.setdefault(_gaps(x, y), len(ids))
            values = list(map(self._norm, ids))
            levels = tuple(sorted(set(values), key=_square if metric.p == 2 else None))
            at = list(map({v: k for k, v in enumerate(levels)}.__getitem__, values))
            matrix = tuple(map(tuple, map(map, itertools.repeat(values.__getitem__), grid)))
            rank = tuple(map(tuple, map(map, itertools.repeat(at.__getitem__), grid)))
        self.__dict__.update(_matrix=matrix, levels=levels, rank=rank)
        return self.__dict__[name]

    def index_distance(self, i: int, j: int):
        """Distance between the points at canonical positions i and j.

        The index-level core behind every checker: positions are not
        validated, and the value is read from the distance matrix.
        """
        return self._matrix[i][j]

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
    Both subsets are validated once; each pair is then read from the
    space's norm memo (or hop matrix) with no further check.
    """
    a_pts = sorted({as_point(p) for p in first})
    b_pts = sorted({as_point(p) for p in second})
    if not a_pts or not b_pts:
        raise ValueError("hausdorff distance needs nonempty subsets")
    for p in itertools.chain(a_pts, b_pts):
        if p not in space:
            raise ValueError(f"point {fmt_point(p)} not in space")
    d, tol = space._distance, space.comparison_tolerance

    def directed(src, dst):
        worst = None
        for a in src:
            closest = None
            for b in dst:
                value = d(a, b)
                if closest is None or compare(value, closest, tol) < 0:
                    closest = value
            if worst is None or compare(closest, worst, tol) > 0:
                worst = closest
        return worst

    forward = directed(a_pts, b_pts)
    backward = directed(b_pts, a_pts)
    return forward if compare(forward, backward, tol) >= 0 else backward
