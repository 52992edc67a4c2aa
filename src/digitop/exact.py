"""Exact real arithmetic for distance values.

Values produced by the metrics in this package are either rational
(``int`` / ``Fraction``) or finite sums ``sum_i c_i * sqrt(m_i)`` with
rational coefficients and distinct square-free integers ``m_i``
(:class:`RadicalSum`).  Sums of that shape are closed under addition,
multiplication, and scaling, and their sign is decidable exactly:
square roots of distinct square-free integers are linearly independent
over the rationals, so a sum is zero only when every coefficient is
zero, and a nonzero sum can be separated from zero by interval
refinement with integer square roots.  No floating point is involved:
arithmetic and ordering between a :class:`RadicalSum` and a float raise
``TypeError``, and ``<`` on ``int``, ``Fraction`` and ``RadicalSum`` is
one exact total order, the order :func:`compare` decides.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

Rational = Union[int, Fraction]
ExactValue = Union[int, Fraction, "RadicalSum"]

#: Refinement cap for the sign routine; unreachable for nonzero sums.
_MAX_SIGN_BITS = 1 << 16


@lru_cache(maxsize=None)
def square_free_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*m`` with ``m`` square-free; returns ``(s, m)``."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n == 0:
        return 0, 1
    s, m, d = 1, 1, 2
    rest = n
    while d * d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    # Every prime factor of rest is at least d > rest ** (1/3), so rest is
    # 1, a prime, a product of two distinct primes, or a prime squared.
    root = math.isqrt(rest)
    if root * root == rest:
        s *= root
    else:
        m *= rest
    return s, m


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


def _unwrap(terms: dict[int, Fraction]) -> ExactValue:
    """Collapse a term map to the simplest representation."""
    clean = {m: c for m, c in terms.items() if c != 0}
    if not clean:
        return 0
    if set(clean) == {1}:
        q = clean[1]
        return int(q) if q.denominator == 1 else q
    return RadicalSum(tuple(sorted(clean.items())))


def _inverse(value: ExactValue) -> ExactValue:
    """1 / value for a nonzero rational or a single-term radical sum."""
    if isinstance(value, RadicalSum):
        if len(value.terms) != 1:
            raise ArithmeticError("division by a multi-term radical sum is not supported")
        ((m, c),) = value.terms
        return RadicalSum(((m, 1 / (c * m)),))  # 1 / (c*sqrt(m)) = sqrt(m) / (c*m)
    if value == 0:
        raise ZeroDivisionError("division by zero")
    return 1 / _as_fraction(value)


@total_ordering
class RadicalSum:
    """An irrational value ``sum c_i * sqrt(m_i)`` with exact comparisons.

    Instances are immutable and canonical: ``m_i`` are distinct
    square-free integers in increasing order (``m=1`` holds the rational
    part) and no coefficient is zero.  Arithmetic that lands on a purely
    rational value returns a plain ``int`` or ``Fraction`` instead, so a
    ``RadicalSum`` is always irrational.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Fraction], ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("RadicalSum is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def sqrt(value: Rational) -> ExactValue:
        """Exact square root of a nonnegative rational."""
        q = _as_fraction(value)
        if q < 0:
            raise ValueError(f"square root of negative value {q}")
        # sqrt(a/b) = sqrt(a*b)/b
        s, m = square_free_decompose(q.numerator * q.denominator)
        return _unwrap({m: Fraction(s, q.denominator)})

    def _term_map(self) -> dict[int, Fraction]:
        return dict(self.terms)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RadicalSum):
            merged = self._term_map()
            for m, c in other.terms:
                merged[m] = merged.get(m, Fraction(0)) + c
            return _unwrap(merged)
        if isinstance(other, (int, Fraction)):
            merged = self._term_map()
            merged[1] = merged.get(1, Fraction(0)) + _as_fraction(other)
            return _unwrap(merged)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (RadicalSum, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return 0
            return RadicalSum(tuple((m, c * q) for m, c in self.terms))
        if isinstance(other, RadicalSum):
            out: dict[int, Fraction] = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    s, m = square_free_decompose(m1 * m2)
                    out[m] = out.get(m, Fraction(0)) + c1 * c2 * s
            return _unwrap(out)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (RadicalSum, int, Fraction)):
            return self * _inverse(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return other * _inverse(self)
        return NotImplemented

    # -- sign and comparisons ----------------------------------------

    def _bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Enclosing interval with sqrt endpoints at 2**-bits resolution."""
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << bits
        for m, c in self.terms:
            a = math.isqrt(m << (2 * bits))
            root_lo = Fraction(a, scale)
            root_hi = Fraction(a + 1, scale)
            if c >= 0:
                lo += c * root_lo
                hi += c * root_hi
            else:
                lo += c * root_hi
                hi += c * root_lo
        return lo, hi

    def sign(self) -> int:
        """Exact sign, -1 or 1 (a RadicalSum is never zero)."""
        if all(c > 0 for _, c in self.terms):
            return 1
        if all(c < 0 for _, c in self.terms):
            return -1
        bits = 32
        while bits <= _MAX_SIGN_BITS:
            lo, hi = self._bounds(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise ArithmeticError(f"sign refinement failed for {self!r}")  # pragma: no cover

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, RadicalSum):
            return diff.sign()
        return -1 if diff < 0 else (1 if diff > 0 else 0)

    def __eq__(self, other):
        if isinstance(other, RadicalSum):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return False  # canonical RadicalSum is irrational
        return NotImplemented

    def __hash__(self):
        return hash(("RadicalSum", self.terms))

    def __lt__(self, other):
        if isinstance(other, (RadicalSum, int, Fraction)):
            return self._cmp(other) < 0
        return NotImplemented

    # -- conversions -------------------------------------------------

    def __float__(self) -> float:
        return sum(float(c) * math.sqrt(m) for m, c in self.terms)

    def __repr__(self) -> str:
        return f"RadicalSum({self})"

    def __str__(self) -> str:
        parts = []
        for m, c in self.terms:
            if m == 1:
                parts.append(str(c))
                continue
            sign, c = ("-", -c) if c < 0 else ("", c)
            coeff = "" if c == 1 else str(c) if c.denominator == 1 else f"({c})"
            parts.append(f"{sign}{coeff}sqrt({m})")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def sqrt_exact(value: Rational) -> ExactValue:
    """Exact square root of a nonnegative int or Fraction."""
    return RadicalSum.sqrt(value)


def is_exact(value) -> bool:
    """True for values carrying exact semantics (never float)."""
    return isinstance(value, (int, Fraction, RadicalSum)) and not isinstance(value, bool)


def compare(a, b, tol: Fraction | None = None) -> int:
    """Three-way comparison: -1, 0, or 1.

    Exact operands are compared exactly.  If either operand is inexact
    (float or mpf), a tolerance must be supplied and differences within
    it count as equal.
    """
    if type(a) is int and type(b) is int:  # the common case, decided first
        return (a > b) - (a < b)
    if is_exact(a) and is_exact(b):
        if isinstance(a, RadicalSum):
            return a._cmp(b)
        if isinstance(b, RadicalSum):
            return -b._cmp(a)
        return -1 if a < b else (1 if a > b else 0)
    if tol is None:
        raise ValueError("inexact operands require a comparison tolerance")
    fa = float(a)
    fb = float(b)
    if abs(fa - fb) <= tol:
        return 0
    return -1 if fa < fb else 1


def exact_le(a, b, tol: Fraction | None = None) -> bool:
    return compare(a, b, tol) <= 0


def exact_lt(a, b, tol: Fraction | None = None) -> bool:
    return compare(a, b, tol) < 0


def scale(coeff: Fraction, value):
    """coeff * value for an inexact (mpf) value, which the tolerance regime
    compares; exact regimes clear coeff's denominator instead."""
    import mpmath  # only general l_p needs it; loading it costs start-up

    return mpmath.mpf(coeff.numerator) * value / coeff.denominator


def exact_div(num, den):
    """Division that never degrades int/int to float."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def value_str(value) -> str:
    """Human-readable rendering: '3', '1/2', 'sqrt(2)', '1.259921...'."""
    if isinstance(value, (int, Fraction, RadicalSum)):
        return str(value)
    return repr(float(value))
