"""Independent reference computations for the benchmark's output checks.

Nothing here imports digitop.  Points are tuples of ints, a map is its
value table aligned with the sorted point list, and the scan universe is
re-derived from its documented order (intervals [0, n-1], then
rectangular grids under c_1 and c_2, each under the metrics l_1, l_2 and
shortest-path, each over the parameter grid).  The benchmark uses these
to count the tables a search decides, to draw parameter grids, and to
check witnesses without trusting the program under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

DEFAULT_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
METRICS = ("l1", "l2", "sp")


def interval(n: int) -> tuple:
    return tuple((i,) for i in range(n))


def grid(a: int, b: int) -> tuple:
    return tuple((i, j) for i in range(a) for j in range(b))


def scan_universe(size_bound: int, one_dimensional_only: bool = False) -> list:
    """(points, u) for every image a search at size_bound scans, in order."""
    images = [(interval(n), 1) for n in range(1, size_bound + 1)]
    if not one_dimensional_only:
        for a in range(2, size_bound + 1):
            for b in range(a, size_bound // a + 1):
                images += [(grid(a, b), 1), (grid(a, b), 2)]
    return images


def adjacent(x, y, u: int) -> bool:
    deltas = [abs(a - b) for a, b in zip(x, y)]
    return max(deltas) <= 1 and 1 <= sum(deltas) <= u


def hop_distances(points, u: int) -> dict:
    """All-pairs shortest-path hop counts by breadth-first search."""
    table = {}
    for source in points:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for p in frontier:
                for q in points:
                    if q not in dist and adjacent(p, q, u):
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            frontier = nxt
        table[source] = dist
    return table


# The power p that makes every distance of a metric an integer, d(x, y)**p.
# It is monotone, so maxima, minima and ratio comparisons of distances can
# be made on their p-th powers, exactly.
POWERS = {"l1": 1, "l2": 2, "l3": 3, "sp": 1}


def powered_distance(x, y, metric: str, hops=None) -> int:
    """d(x, y)**POWERS[metric] (shortest-path hops from hop_distances)."""
    if metric == "sp":
        return hops[x][y]
    return sum(abs(a - b) ** POWERS[metric] for a, b in zip(x, y))


def squared_distance(x, y, metric: str, hops=None) -> int:
    """d(x, y)**2 for l_1, l_2 and shortest-path."""
    return powered_distance(x, y, metric, hops) ** (2 // POWERS[metric])


def _distance_ratios(images) -> list:
    """Every squared ratio d1**2 / d2**2 < 1 between two distances of one space."""
    ratios = set()
    for points, u in images:
        hops = hop_distances(points, u)
        for metric in METRICS:
            values = {
                squared_distance(x, y, metric, hops) for x, y in combinations(points, 2)
            } | {0}
            ratios |= {Fraction(a, b) for a in values for b in values if a < b}
    return sorted(ratios)


def draw_grid(seed: int, images) -> tuple:
    """A parameter grid that decides every instance of the universe as
    DEFAULT_GRID does, drawn from the seed; seed 0 gives DEFAULT_GRID.

    Every searchable hypothesis compares lhs <= c * rhs with lhs and rhs
    distances of one space, so two coefficients with no distance ratio
    between them give the same verdict on every pair: each value is drawn
    from [v, next ratio above v) for its default v.  Work per pass then
    does not depend on the seed, while the inputs do.
    """
    if seed == 0:
        return DEFAULT_GRID
    rng = random.Random(seed)
    ratios = _distance_ratios(images)
    drawn = []
    for v in DEFAULT_GRID:
        upper_sq = next((r for r in ratios if r > v * v), Fraction(1))
        choices = sorted(
            {
                Fraction(p, q)
                for q in range(2, 17)
                for p in range(1, q)
                if Fraction(p, q) >= v and Fraction(p, q) ** 2 < upper_sq
            }
        )
        drawn.append(rng.choice(choices))
    return tuple(drawn)


def table_rank(points, values) -> int:
    """Position of a value table in the lexicographic enumeration."""
    index = {p: i for i, p in enumerate(points)}
    rank = 0
    for v in values:
        rank = rank * len(points) + index[v]
    return rank


def universe_count(images, arity: int, grid_size: int, witness=None) -> int:
    """Instances a search decides: all of them on exhaustion, else those up
    to and including the witness (points, u, metric, param_index, tables)."""
    total = 0
    for points, u in images:
        n = len(points)
        block = n ** (n * arity)
        for metric in METRICS:
            for k in range(grid_size):
                if witness is not None and witness[:4] == (points, u, metric, k):
                    rank = 0
                    for values in witness[4]:
                        rank = rank * n**n + table_rank(points, values)
                    return total + rank + 1
                total += block
    if witness is not None:
        raise ValueError("witness lies outside the scan universe")
    return total


def fpp_count(points, witness=None) -> int:
    """Tables an exhaustive fixed-point-property scan decides."""
    if witness is None:
        return len(points) ** len(points)
    return table_rank(points, witness) + 1


def fixed_points(points, values) -> tuple:
    return tuple(p for p, v in zip(points, values) if p == v)


def common_fixed_points(points, first, second) -> tuple:
    return tuple(p for p, f, g in zip(points, first, second) if p == f == g)


def is_continuous(points, values, u: int) -> bool:
    image = dict(zip(points, values))
    return all(
        image[x] == image[y] or adjacent(image[x], image[y], u)
        for x, y in combinations(points, 2)
        if adjacent(x, y, u)
    )


def alternating_limits(points, t, s) -> set:
    """Points visited infinitely often by x1 = T x0, x2 = S x1, ... from
    every start, found by iterating (point, parity) states to a repeat."""
    tmap, smap = dict(zip(points, t)), dict(zip(points, s))
    limits = set()
    for x in points:
        seen = {}
        trail = []
        parity = 0
        while (x, parity) not in seen:
            seen[(x, parity)] = len(trail)
            trail.append(x)
            x = tmap[x] if parity == 0 else smap[x]
            parity ^= 1
        limits |= set(trail[seen[(x, parity)] :])
    return limits


def alternating_conclusion(points, t, s) -> bool:
    """Every alternating limit is the one common fixed point."""
    common = common_fixed_points(points, t, s)
    return len(common) == 1 and alternating_limits(points, t, s) == {common[0]}


def compatible(points, s, t) -> bool:
    """S and T commute at every coincidence point."""
    smap, tmap = dict(zip(points, s)), dict(zip(points, t))
    return all(smap[tmap[x]] == tmap[smap[x]] for x in points if smap[x] == tmap[x])


def hausdorff_powered(points, u, metric, first, second) -> int:
    """The p-th power of the Hausdorff distance between two point sets."""
    hops = hop_distances(points, u) if metric == "sp" else None

    def directed(src, dst):
        return max(min(powered_distance(a, b, metric, hops) for b in dst) for a in src)

    return max(directed(first, second), directed(second, first))


# -- classify -----------------------------------------------------------
#
# The rows `digitop classify` prints for finite documents, re-derived from
# their definitions.  A minimal constant is expected as (minus, powered):
# the printed value v satisfies (v - minus)**p == powered.


def _ratio_max(ratios):
    return max(ratios, default=Fraction(0))


def _distances(points, u, metric):
    hops = hop_distances(points, u) if metric == "sp" else None
    return lambda x, y: powered_distance(x, y, metric, hops)


def classify_single(points, u, metric, t) -> dict:
    """condition -> expected fields of the one-map rows."""
    d = _distances(points, u, metric)
    tm = dict(zip(points, t))
    pairs = list(product(points, repeat=2))

    def max_term(five):
        ratios = []
        for x, y in pairs:
            terms = [d(x, y), d(x, tm[x]), d(y, tm[y])]
            if five:
                terms += [d(x, tm[y]), d(tm[x], y)]
            if max(terms):
                ratios.append(Fraction(d(tm[x], tm[y]), max(terms)))
        return _ratio_max(ratios)

    constants = {
        "contraction": _ratio_max(
            Fraction(d(tm[x], tm[y]), d(x, y)) for x, y in pairs if x != y
        ),
        "quasi-max": max_term(False),
        "five-term-max": max_term(True),
    }
    return {
        name: {"minimal_constant": (0, k), "holds_below_one": k < 1}
        for name, k in constants.items()
    }


def _bound_constant(lhs_base, minus):
    """The minimal constant of lhs <= c * base over (lhs, base) pairs:
    None when some lhs > 0 has base 0, else (minus, max ratio)."""
    if any(base == 0 and lhs > 0 for lhs, base in lhs_base):
        return None
    ratios = [Fraction(lhs, base) for lhs, base in lhs_base if base > 0]
    return (minus, _ratio_max(ratios)) if ratios else (0, Fraction(0))


def classify_pair(points, u, metric, t, s) -> dict:
    """condition -> expected fields of the two-map rows.  The rational
    row's verdict compares sums of p-th roots: for p > 1 it is taken in
    floats, and left unchecked when its worst pair lies within 1e-9 of
    equality."""
    d = _distances(points, u, metric)
    tm, sm = dict(zip(points, t)), dict(zip(points, s))
    pairs = list(product(points, repeat=2))
    domination = [(d(sm[x], sm[y]), d(tm[x], tm[y])) for x, y in pairs]
    # d(Tx, Ty) + d(Sx, Sy) <= c * d(Sx, Sy), so c = 1 + max d(Tx,Ty)/d(Sx,Sy).
    sum_bound = [(d(tm[x], tm[y]), d(sm[x], sm[y])) for x, y in pairs]
    undefined = [(x, y) for x, y in pairs if x == sm[y] and y == tm[x]]
    p = POWERS[metric]

    def root(x, y):
        return d(x, y) if p == 1 else d(x, y) ** (1 / p)

    slack = 0 if p == 1 else 1e-9
    worst = max(
        (
            root(tm[x], sm[y]) * (root(x, sm[y]) + root(y, tm[x]))
            - root(x, tm[x]) * root(x, sm[y])
            - root(y, sm[y]) * root(y, tm[x])
            for x, y in pairs
            if (x, y) not in undefined
        ),
        default=-1,
    )
    rational = {"undefined_pairs": len(undefined)}
    if abs(worst) > slack or p == 1:
        rational["holds_on_defined_pairs"] = worst <= slack
    constants = {
        name: _bound_constant(rows, 1 if name == "sum-bound" else 0)
        for name, rows in (("domination", domination), ("sum-bound", sum_bound))
    }
    return {
        "domination-of-second-by-first": {
            "minimal_constant": constants["domination"],
            "no_finite_constant": constants["domination"] is None,
            "range_included": set(s) <= set(t),
        },
        "sum-bound": {
            "minimal_constant": constants["sum-bound"],
            "no_finite_constant": constants["sum-bound"] is None,
            "both_constant": len(set(t)) == 1 and len(set(s)) == 1,
        },
        "weakly-commutative": {
            "holds": all(d(tm[sm[x]], sm[tm[x]]) <= d(tm[x], sm[x]) for x in points)
        },
        "compatible": {"holds": compatible(points, t, s)},
        "rational-two-map": rational,
    }


def _radical_terms(text: str) -> dict:
    """{radicand: coefficient} of an exact value as digitop prints it:
    '3', '1/2', 'sqrt(2)', '(2/3)sqrt(5)', '1 + (1/2)sqrt(2)'."""
    parts = text.split(" ")
    terms: dict = {}
    sign = 1
    for part in parts:
        if part in ("+", "-"):
            sign = 1 if part == "+" else -1
            continue
        coeff, radicand = part, "1"
        if part.endswith(")") and "sqrt(" in part:
            coeff, radicand = part[:-1].split("sqrt(")
            coeff = {"": "1", "-": "-1"}.get(coeff, coeff.strip("()"))
        terms[int(radicand)] = terms.get(int(radicand), 0) + sign * Fraction(coeff)
    return terms


def matches(value, metric: str, expected) -> bool:
    """A printed minimal constant or distance equals the expected value
    (minus, powered): exactly, or within 1e-12 relative under l_3, whose
    values digitop prints as floats."""
    if expected is None or value is None:
        return expected is value
    minus, powered = expected
    if metric == "l3":
        return math.isclose((float(value) - minus) ** 3, powered, rel_tol=1e-12, abs_tol=1e-12)
    terms = _radical_terms(str(value))
    terms[1] = terms.get(1, 0) - minus
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return powered == 0
    if len(terms) > 1:
        return False
    ((radicand, coeff),) = terms.items()
    if POWERS[metric] == 1:
        return radicand == 1 and coeff == powered
    return coeff > 0 and coeff**2 * radicand == powered
