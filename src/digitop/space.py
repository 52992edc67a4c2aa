"""Digital images: finite sets of lattice points with a c_u adjacency.

A digital image is a graph whose vertices are points of Z^n and whose
edges come from a c_u adjacency: two distinct points are adjacent when
every coordinate differs by at most 1 and at most u coordinates differ.
All values here are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import NamedTuple

Point = tuple[int, ...]


def as_point(value) -> Point:
    """Normalize an int (1-D shorthand) or an iterable of ints to a Point."""
    if isinstance(value, tuple) and all(
        isinstance(c, int) and not isinstance(c, bool) for c in value
    ):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    # JSON documents give lists: test for one before the slower ABC check.
    if isinstance(value, (list, Iterable)) and not isinstance(value, (str, bytes)):
        coords = tuple(value)
        if all(isinstance(c, int) and not isinstance(c, bool) for c in coords):
            return coords
    raise TypeError(f"not a lattice point: {value!r}")


def fmt_point(p: Point) -> str:
    """Render a point; 1-D points print as bare integers."""
    return str(p[0]) if len(p) == 1 else "(" + ", ".join(str(c) for c in p) + ")"


@dataclass(frozen=True)
class Adjacency:
    """The c_u adjacency relation; valid for images of dimension >= u."""

    u: int

    def __post_init__(self):
        if not isinstance(self.u, int) or self.u < 1:
            raise ValueError(f"c_u adjacency requires an integer u >= 1, got {self.u}")

    def __str__(self) -> str:
        return f"c{self.u}"


C1 = Adjacency(1)
C2 = Adjacency(2)


def adjacent(x: Point, y: Point, adj: Adjacency | int) -> bool:
    """Whether x and y are c_u-adjacent.

    True iff x != y, every coordinate differs by 0 or 1, and the number
    of coordinates differing by exactly 1 is at most u.
    """
    u = adj.u if isinstance(adj, Adjacency) else adj
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {fmt_point(x)} vs {fmt_point(y)}")
    n = len(x)
    if not 1 <= u <= n:
        raise ValueError(f"u={u} out of range for dimension {n}")
    differing = 0
    for a, b in zip(x, y):
        delta = abs(a - b)
        if delta > 1:
            return False
        differing += delta
    return 1 <= differing <= u


@dataclass(frozen=True)
class DigitalImage:
    """A finite digital image: lattice points plus a c_u adjacency.

    Points are stored sorted lexicographically; that order is the
    canonical enumeration order used throughout the package.
    """

    points: tuple[Point, ...]
    adjacency: Adjacency

    def __init__(self, points: Iterable, adjacency: Adjacency = C1):
        normalized = sorted({as_point(p) for p in points})
        if not normalized:
            raise ValueError("a digital image must contain at least one point")
        dims = {len(p) for p in normalized}
        if len(dims) != 1:
            raise ValueError(f"points of mixed dimensions: {sorted(dims)}")
        n = dims.pop()
        if not isinstance(adjacency, Adjacency):
            adjacency = Adjacency(adjacency)
        if adjacency.u > n:
            raise ValueError(f"c{adjacency.u} is invalid on dimension-{n} points")
        object.__setattr__(self, "points", tuple(normalized))
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return p in self.index

    @cached_property
    def index(self) -> dict:
        """Point -> position in the canonical order."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def neighbor_indices(self) -> tuple[tuple[int, ...], ...]:
        """For each position, its neighbours' positions in ascending order: the
        one adjacency table.  Low dimensions look up each point's c_u offsets
        (sorted, so the hits ascend); higher ones test every pair."""
        pts, index = self.points, self.index
        if 3 ** self.dimension - 1 < len(pts):
            offsets = [
                off
                for off in itertools.product((-1, 0, 1), repeat=self.dimension)
                if 1 <= sum(map(abs, off)) <= self.adjacency.u
            ]
            found = ((index.get(tuple(map(add, p, off))) for off in offsets) for p in pts)
            return tuple(tuple(j for j in row if j is not None) for row in found)
        return tuple(
            tuple(j for j, q in enumerate(pts) if adjacent(p, q, self.adjacency)) for p in pts
        )

    def hops(self, i: int) -> dict[int, int]:
        """Hop counts along adjacency edges from position i: position ->
        count, for each position a path reaches."""
        table, dist, queue = self.neighbor_indices, {i: 0}, [i]
        for j in queue:  # breadth first: the queue grows while it is read
            for k in table[j]:
                if k not in dist:
                    dist[k] = dist[j] + 1
                    queue.append(k)
        return dist

    def neighbors(self, p: Point) -> tuple[Point, ...]:
        p = as_point(p)
        if p not in self.index:
            raise ValueError(f"point {fmt_point(p)} not in image")
        return tuple(map(self.points.__getitem__, self.neighbor_indices[self.index[p]]))

    def edges(self) -> Iterator[tuple[Point, Point]]:
        """All adjacent pairs (x, y) with x < y, in lexicographic order."""
        pts = self.points
        for i, row in enumerate(self.neighbor_indices):
            for j in row:
                if i < j:
                    yield (pts[i], pts[j])

    def describe(self) -> str:
        return f"{len(self)} point(s) in Z^{self.dimension} with {self.adjacency}"


def digital_interval(a: int, b: int) -> DigitalImage:
    """The digital interval [a, b]_Z: consecutive integers under c_1."""
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    return DigitalImage([(k,) for k in range(a, b + 1)], C1)


def components(img: DigitalImage) -> tuple[tuple[Point, ...], ...]:
    """Partition of the image into maximal connected blocks.

    Two points share a block iff some adjacency path joins them.  Blocks
    are sorted internally and ordered by their least point.
    """
    blocks, seen = [], set()
    for i in range(len(img)):
        if i not in seen:
            block = sorted(img.hops(i))
            seen.update(block)
            blocks.append(tuple(map(img.points.__getitem__, block)))
    return tuple(blocks)


def is_connected(img: DigitalImage) -> bool:
    return len(components(img)) == 1


class PathVerdict(NamedTuple):
    """Result of checking a candidate path; length is the edge count."""

    ok: bool
    length: int | None
    first_bad_index: int | None


def is_path(img: DigitalImage, seq: Sequence) -> PathVerdict:
    """Check that consecutive members of seq are adjacent in img.

    Returns the path length (len(seq) - 1) on success, or the index of
    the first non-adjacent consecutive pair.  Points outside the image
    are an error, not a rejection.
    """
    pts = [as_point(p) for p in seq]
    if not pts:
        raise ValueError("a path needs at least one point")
    for p in pts:
        if p not in img:
            raise ValueError(f"point {fmt_point(p)} not in image")
    for i, (a, b) in enumerate(itertools.pairwise(map(img.index.__getitem__, pts))):
        if b not in img.neighbor_indices[a]:
            return PathVerdict(False, None, i)
    return PathVerdict(True, len(pts) - 1, None)
