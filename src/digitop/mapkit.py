"""Self-maps of digital images, plus symbolic affine self-maps of Z.

Finite maps are dense lookup tables over the image's canonical point
order.  The affine form x -> p*x + q is the only infinite-domain map
supported; every question about it is decided arithmetically, never by
sampling, because sampling cannot establish facts like "no fixed point"
on all of Z.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from .space import DigitalImage, Point, as_point, fmt_point

#: The work one enumeration may do: the nodes (entries assigned) of
#: enumerate_tables, or the tables a product scan yields (6-point maps and
#: 4-point pairs fit).  The largest single enumerations the searches reach
#: take 113,201 nodes (quasi, size bound 9) and 94,130 (five-term, size
#: bound 8).  Not 2**20: the budget stays below 7**7, so the product scan of
#: every 7-point map (823,543 tables) is still refused.
ENUM_BUDGET = 2**18


class EnumerationBudgetError(RuntimeError):
    """Raised when an enumeration would exceed ENUM_BUDGET."""


class MapValidationError(ValueError):
    """A raw map table failed validation; names the offending entry."""

    def __init__(self, kind: str, message: str, point=None, value=None):
        super().__init__(message)
        self.kind = kind
        self.point = point
        self.value = value


@dataclass(frozen=True)
class SelfMap:
    """A total map X -> X stored as values aligned with the point order and
    as indices, their positions, filled in the pass that checks them."""

    domain: DigitalImage
    values: tuple[Point, ...]
    indices: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) != len(self.domain.points):
            raise ValueError("value table length does not match the image")
        indices = tuple(map(self.domain.index.get, self.values))
        if None in indices:
            v = self.values[indices.index(None)]
            raise ValueError(f"map value {fmt_point(v)} outside the image")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_dict(cls, img: DigitalImage, mapping: dict) -> "SelfMap":
        return validate_selfmap(img, mapping.items())

    @classmethod
    def _at_positions(cls, img: DigitalImage, positions: Iterable[int]) -> "SelfMap":
        """The map sending each point to the point at that position."""
        return cls(img, tuple(map(img.points.__getitem__, positions)))

    @classmethod
    def constant(cls, img: DigitalImage, value) -> "SelfMap":
        v = as_point(value)
        return cls(img, tuple(v for _ in img.points))

    @classmethod
    def identity(cls, img: DigitalImage) -> "SelfMap":
        return cls(img, img.points)

    def __call__(self, x) -> Point:
        return self.values[self.domain.index[as_point(x)]]

    def as_dict(self) -> dict:
        return dict(zip(self.domain.points, self.values))

    @cached_property
    def picard_orbits(self) -> tuple[tuple[OrbitReport, ...], tuple[list[int], ...]]:
        """The Picard orbit from each point, in point order, and the
        positions each walked; computed once, on first use."""
        walks = [_iterate((self,), x, None) for x in self.domain.points]
        return tuple(rep for rep, _ in walks), tuple(seq for _, seq in walks)

    @cached_property
    def image_set(self) -> frozenset:
        return frozenset(self.values)

    @property
    def is_constant(self) -> bool:
        return len(self.image_set) == 1

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{fmt_point(p)}->{fmt_point(v)}" for p, v in zip(self.domain.points, self.values)
        )
        return "{" + pairs + "}"


def compose(outer: SelfMap, inner: SelfMap) -> SelfMap:
    """The self-map x -> outer(inner(x))."""
    if outer.domain != inner.domain:
        raise ValueError("composition needs a shared domain")
    return SelfMap._at_positions(outer.domain, map(outer.indices.__getitem__, inner.indices))


def _try_point(value):
    try:
        return as_point(value)
    except TypeError:
        return None


def _position(index: dict, value) -> int | None:
    """The image position of a list or tuple of exact ints, else None: as
    dict keys, (1.0,) and (True,) are equal to (1,)."""
    if type(value) is list or type(value) is tuple:
        p = tuple(value)
        if all(type(c) is int for c in p):
            return index.get(p)
    return None


def _entry_positions(img: DigitalImage, t: list, key, value) -> tuple[int, int]:
    """The positions of an entry read through as_point (the 1-D int shorthand
    among them), or the entry's rejection."""
    pk, pv = _try_point(key), _try_point(value)
    if pk not in img:
        shown = repr(key) if pk is None else fmt_point(pk)
        message = f"map input {shown} is not a point of the image"
        raise MapValidationError("unknown-point", message, pk, value)
    if t[img.index[pk]] is not None:
        message = f"duplicate assignment for {fmt_point(pk)}"
        raise MapValidationError("duplicate", message, pk, value)
    if pv is None:
        message = f"map value {value!r} at {fmt_point(pk)} is not a lattice point"
        raise MapValidationError("non-lattice-value", message, pk, value)
    if pv not in img:
        message = f"map value {fmt_point(pv)} at {fmt_point(pk)} lies outside the image"
        raise MapValidationError("value-outside-domain", message, pk, pv)
    return img.index[pk], img.index[pv]


def validate_selfmap(img: DigitalImage, raw: Iterable) -> SelfMap:
    """Build a SelfMap from raw (input, output) pairs, or reject.

    Accepts iff the pairs form a total map on the image whose values are
    lattice points of the image.  Rejections name the offending entry;
    in particular a non-integer output (the classic flaw of defining
    t -> t/2 + 1 on nonnegative integers) is reported against its input
    point.  An entry of two exact points of the image is read straight
    into positions; any other goes through as_point.  The positions become
    the map through SelfMap._at_positions, as every table of them does.
    """
    index, t = img.index, [None] * len(img.points)
    for key, value in raw:
        i, j = _position(index, key), _position(index, value)
        if i is None or j is None or t[i] is not None:
            i, j = _entry_positions(img, t, key, value)
        t[i] = j
    if None in t:
        missing = img.points[t.index(None)]
        message = f"map is partial: no value for {fmt_point(missing)}"
        raise MapValidationError("partial", message, missing)
    return SelfMap._at_positions(img, t)


def continuity_violation(f: SelfMap) -> tuple[Point, Point] | None:
    """First edge, in the order of edges(), whose ends' images are neither
    equal nor adjacent."""
    t, table = f.indices, f.domain.neighbor_indices
    for i, row in enumerate(table):
        for j in row:
            if i < j and t[i] != t[j] and t[j] not in table[t[i]]:
                return (f.domain.points[i], f.domain.points[j])
    return None


def is_continuous(f: SelfMap) -> bool:
    """Digital continuity via the edge characterization: adjacent points
    map to equal or adjacent points."""
    return continuity_violation(f) is None


def fixed_points(f: SelfMap) -> tuple[Point, ...]:
    return tuple(p for p, v in zip(f.domain.points, f.values) if p == v)


EVENTUALLY_CONSTANT = "eventually_constant"
EVENTUALLY_PERIODIC = "eventually_periodic"
TRUNCATED = "truncated"


@dataclass(frozen=True)
class OrbitReport:
    """An iteration orbit with its tail classification.

    kind is one of "eventually_constant" (the orbit settles at a fixed
    value from settle_index on), "eventually_periodic" (the tail cycles
    with the given period > 1), or "truncated" (the step budget ran out
    before a repetition).
    """

    points: tuple[Point, ...]
    kind: str
    settle_index: int | None = None
    value: Point | None = None
    period: int | None = None

    def __post_init__(self):
        if self.kind == EVENTUALLY_CONSTANT:
            if self.settle_index is None or self.value is None:
                raise ValueError("constant classification needs settle_index and value")
            if any(p != self.value for p in self.points[self.settle_index :]):
                raise ValueError("recorded orbit disagrees with its settle point")
        elif self.kind == EVENTUALLY_PERIODIC:
            if self.period is None or self.period < 2:
                raise ValueError("periodic classification needs period > 1")
        elif self.kind != TRUNCATED:
            raise ValueError(f"unknown orbit classification {self.kind!r}")

    @property
    def start(self) -> Point:
        return self.points[0]


def _minimal_period(cycle: list) -> int:
    """The least rotation that leaves the cycle unchanged (it divides the length)."""
    for p in range(1, len(cycle)):
        if cycle[p:] + cycle[:p] == cycle:
            return p
    return len(cycle)


def _iterate(maps: tuple[SelfMap, ...], x0, max_steps: int | None):
    """The orbit x0, maps[0](x0), maps[1](...), ..., the maps applied in
    turn, as its OrbitReport and the positions it walked.

    Runs on value positions.  Repetition is detected on (position, turn)
    states, since a point alone can recur without the tail repeating; the
    reported period is the minimal period of the point sequence, which may
    be smaller than the state period.  The default budget
    len(maps) * (|X| + 1) exhausts the states, so truncation is impossible.
    """
    img = maps[0].domain
    x = as_point(x0)
    if x not in img:
        raise ValueError(f"starting point {fmt_point(x)} not in image")
    n, turns = len(img), len(maps)
    if max_steps is None:
        max_steps = turns * (n + 1)
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    tables = [f.indices for f in maps]
    i = img.index[x]
    seq = [i]
    # The step at which each state, turn * n + position, first occurred.
    seen = [-1] * (turns * n)
    seen[i] = 0
    for step in range(1, max_steps + 1):
        i = tables[(step - 1) % turns][i]
        seq.append(i)
        state = step % turns * n + i
        first = seen[state]
        if first >= 0:
            break
        seen[state] = step
    pts = tuple(map(img.points.__getitem__, seq))
    if first < 0:  # the budget ran out before a state repeated
        return OrbitReport(pts, TRUNCATED), seq
    period = _minimal_period(seq[first:step])
    if period > 1:
        return OrbitReport(pts, EVENTUALLY_PERIODIC, period=period), seq
    # The tail settles at first: had the point before it been the value
    # too, that point's state would have recurred len(maps) steps later.
    return OrbitReport(pts, EVENTUALLY_CONSTANT, settle_index=first, value=pts[-1]), seq


def orbit(f: SelfMap, x0, max_steps: int | None = None) -> OrbitReport:
    """The Picard orbit x0, f(x0), f(f(x0)), ...

    Iterates until a point repeats or max_steps applications are spent.
    The default budget |X| + 1 makes truncation impossible (pigeonhole).
    """
    return _iterate((f,), x0, max_steps)[0]


def accumulation_points(report: OrbitReport) -> tuple[Point, ...]:
    """The set of points the orbit visits infinitely often, sorted."""
    if report.kind == EVENTUALLY_CONSTANT:
        return (report.value,)
    if report.kind == EVENTUALLY_PERIODIC:
        return tuple(sorted(set(report.points[-report.period :])))
    raise ValueError("a truncated orbit has no known accumulation points")


def _check_budget(n: int, arity: int) -> None:
    if n ** (arity * n) > ENUM_BUDGET:
        raise EnumerationBudgetError(f"{n}^{arity * n} tables exceed the budget of {ENUM_BUDGET}")


def enumerate_selfmaps(img: DigitalImage) -> Iterator[SelfMap]:
    """All total self-maps, lexicographic by value table.

    Raises EnumerationBudgetError when |X|^|X| exceeds ENUM_BUDGET.
    """
    _check_budget(len(img), 1)
    for values in itertools.product(img.points, repeat=len(img)):
        yield SelfMap(img, values)


class Lanes(list):
    """Domains for enumerate_tables that carry count constraints through one
    enumeration.  Each domain, and each mask of a narrowing row, packs
    lanes of width bits: lane c, bits c*width on, holds the values entry k
    may take.  Constraint c lives in lane c + 1, and lane 0, their union,
    is the only lane whose values are tried.  A set of lanes holds each
    one's lowest bit, so a set shifted left by v is value v in each of its
    lanes, and a domain shifted right by v and ANDed with a set keeps the
    lanes of the set that hold v.  While enumerate_tables runs, sets[-2]
    after each yield is the set of the lanes that allow the table: lane 0
    and one per constraint it meets, bit_count() - 1 of them.  Plain
    domains are lane 0 alone, with no constraint to name or hold."""

    full, width, every_lane = -1, 0, 1  # lane 0's bits, lane width and set of all lanes

    def __init__(self, domains=(), width: int = 0, count: int = 0):
        super().__init__(domains)
        if count:
            self.full, self.width = (1 << width) - 1, width
            self.every_lane = ((1 << width * (count + 1)) - 1) // self.full

    def every(self, values: int) -> int:
        """The same values in every lane."""
        return values * self.every_lane

    def constraints(self, lanes: int) -> list[int]:
        """The constraints, ascending, whose lanes a set holds."""
        lowest = format(lanes, "b")[::-1][self.width :: self.width]  # lane c + 1's at index c
        return [c for c, bit in enumerate(lowest) if bit == "1"]

    def holding(self) -> dict:
        """The set of lanes each verdict holds in, by verdict, decided on
        first use: bit c of a verdict is constraint c's, so lane c + 1's,
        and a nonzero verdict holds in lane 0."""
        return _Holding(self.width)


class _Holding(dict):
    """Lanes.holding's memo: each bit of a verdict's binary string widens
    to a lane of width bits, the bit lowest."""

    def __init__(self, width: int):
        super().__init__()
        self.width, self.widen = width, {ord("0"): "0" * width, ord("1"): "0" * (width - 1) + "1"}

    def __missing__(self, verdict: int) -> int:
        lanes = int(format(verdict, "b").translate(self.widen), 2) << self.width
        held = self[verdict] = lanes | (verdict != 0)
        return held


_ONE_LANE = Lanes()  # the lanes of plain domains


def enumerate_tables(domains: list[int], narrow: Callable) -> Iterator[list[int]]:
    """Int tables t with bit t[k] set in domains[k], depth first and lowest
    bit first (the order of itertools.product); one list, filled in place.
    Forward checking (Haralick & Elliott, Artif. Intell. 14, 1980): each
    (j, mask) of narrow(t, k), for a later j and reading no entry past k, is
    ANDed into j's domain below entry k, which is abandoned if one empties.
    Domains may be Lanes, which carry several constraints through one
    enumeration.  Each assignment is one node of ENUM_BUDGET; the one past
    it raises."""
    lanes = domains if isinstance(domains, Lanes) else _ONE_LANE
    last, left, table, full = len(domains) - 1, ENUM_BUDGET, [0] * len(domains), lanes.full
    # sets[k]: the lanes that allow every entry up to k; sets[-1] all lanes.
    sets = [lanes.every_lane] * (len(domains) + 1)
    if lanes is domains:
        domains.sets, domains = sets, list(domains)  # a plain list indexes faster than a subclass
    # The domains in force at each depth, and the values not yet tried there;
    # a depth shares its parent's list until a row narrows it.  dk and up,
    # kept on each step down, are the last depth's domain and sets[k - 1].
    doms, untried, k = [domains] * len(domains), [domains[0] & full] * len(domains), 0
    if not all(domains[1:]):  # then no node goes below the first entry
        doms[0] = domains[:1] + [0] * last
    dk, up = domains[0], sets[-1]
    while k >= 0:
        if not (bits := untried[k]):
            k -= 1
            continue
        untried[k] = bits & bits - 1
        if (left := left - 1) < 0:
            raise EnumerationBudgetError(f"enumeration budget of {ENUM_BUDGET} entries exceeded")
        table[k] = v = (bits & -bits).bit_length() - 1
        if k == last:
            sets[k] = dk >> v & up
            yield table
            continue
        dom = doms[k]
        for j, mask in narrow(table, k):
            if dom is doms[k]:
                dom = dom.copy()
            dom[j] &= mask
            if not dom[j]:
                break
        else:
            sets[k] = up = dom[k] >> v & sets[k - 1]
            k += 1
            doms[k], dk = dom, dom[k]
            untried[k] = dk & full


class FppVerdict(NamedTuple):
    """Whether every (continuous) self-map has a fixed point."""

    holds: bool
    counterexample: SelfMap | None


def has_fpp(img: DigitalImage, restrict_continuous: bool = True) -> FppVerdict:
    """Decide the fixed-point property by a depth-first search over tables in
    which no entry is its own position and, with restrict_continuous
    (quantifying over continuous maps only), each edge narrows its later end
    to the values equal or adjacent to the earlier end's.  The first table is
    the lexicographically first witness.  ENUM_BUDGET bounds nodes, not size."""
    n = len(img)
    domains = [(1 << n) - 1 ^ 1 << k for k in range(n)]
    # Each value's equal or adjacent values, and each entry's later neighbours.
    near, later = [1 << i for i in range(n)], [()] * n
    if restrict_continuous:
        for i, row in enumerate(img.neighbor_indices):
            later[i] = row[bisect_right(row, i) :]  # the rows ascend
            for j in row:
                near[i] |= 1 << j

    def narrow(t, k):
        return zip(later[k], itertools.repeat(near[t[k]]))

    table = next(enumerate_tables(domains, narrow), None)
    if table is None:
        return FppVerdict(True, None)
    return FppVerdict(False, SelfMap._at_positions(img, table))


@dataclass(frozen=True)
class AffineMapZ:
    """The self-map x -> p*x + q of the integers."""

    p: int
    q: int

    def __post_init__(self):
        for field in (self.p, self.q):
            if not isinstance(field, int) or isinstance(field, bool):
                raise ValueError("affine coefficients must be integers")

    def __call__(self, x: int) -> int:
        return self.p * x + self.q

    def __str__(self) -> str:
        return f"x -> {self.p}*x + {self.q}"


@dataclass(frozen=True)
class AffineFixedPoints:
    """Fixed-point descriptor: kind is "none", "all", or "single"."""

    kind: str
    point: int | None = None


def affine_analyze(m: AffineMapZ) -> AffineFixedPoints:
    """Solve x = p*x + q over Z, symbolically."""
    if m.p == 1:
        return AffineFixedPoints("all") if m.q == 0 else AffineFixedPoints("none")
    solution = Fraction(m.q, 1 - m.p)
    if solution.denominator == 1:
        return AffineFixedPoints("single", int(solution))
    return AffineFixedPoints("none")


class AffineDominationReport(NamedTuple):
    dominates: bool
    range_included: bool


def affine_dominates(h: AffineMapZ, g: AffineMapZ, rho) -> AffineDominationReport:
    """Decide |H(x)-H(y)| <= rho*|G(x)-G(y)| for all integers, plus H(Z) <= G(Z).

    Affine maps scale the metric |x - y| by |slope|, so domination is
    the slope inequality |p_H| <= rho*|p_G|.  Range inclusion reduces to
    residue arithmetic on the slopes and intercepts.
    """
    rho = Fraction(rho)
    if not 0 <= rho < 1:
        raise ValueError(f"rho must satisfy 0 <= rho < 1, got {rho}")
    dominates = abs(h.p) <= rho * abs(g.p)
    if g.p == 0:
        included = h.p == 0 and h.q == g.q
    elif abs(g.p) == 1:
        included = True
    else:
        included = h.p % g.p == 0 and (h.q - g.q) % g.p == 0
    return AffineDominationReport(dominates, included)
