"""Exact value layer: radical sums, comparisons, square-free decomposition.

Oracles here are hand-checked algebraic identities ((1+sqrt2)(1-sqrt2) = -1
and friends) plus randomized cross-checks against floats at gaps where
doubles are trustworthy.
"""

import enum
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitop.exact import (
    RadicalSum,
    compare,
    exact_div,
    exact_le,
    exact_lt,
    is_exact,
    sqrt_exact,
    square_free_decompose,
    value_str,
)

SQRT2 = sqrt_exact(2)
SQRT3 = sqrt_exact(3)


# -- square-free decomposition ---------------------------------------


@pytest.mark.parametrize(
    "n, s, m",
    [
        (0, 0, 1),
        (1, 1, 1),
        (2, 1, 2),
        (4, 2, 1),
        (8, 2, 2),
        (12, 2, 3),
        (45, 3, 5),
        (49, 7, 1),
        (360, 6, 10),  # 360 = 36 * 10
        # Prime factors beyond the cube root; trial division to the square
        # root would run to 1e9 on each of these.
        ((10**9 + 7) * (10**9 + 9), 1, (10**9 + 7) * (10**9 + 9)),
        (6 * (10**9 + 7) ** 2, 10**9 + 7, 6),
        (1000000010**2 + 1, 1, 1000000010**2 + 1),  # a prime
    ],
)
def test_square_free_decompose_table(n, s, m):
    assert square_free_decompose(n) == (s, m)


@given(st.integers(min_value=0, max_value=100_000))
def test_square_free_decompose_reconstructs(n):
    s, m = square_free_decompose(n)
    assert s * s * m == n
    # m square-free: no prime square divides it
    d = 2
    while d * d <= m:
        assert m % (d * d) != 0
        d += 1


def test_square_free_rejects_negative():
    with pytest.raises(ValueError):
        square_free_decompose(-1)


def _trial_division_to_the_root(n):
    """The decomposition by trial division up to sqrt(n), kept as an oracle."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n == 0:
        return 0, 1
    s, m, d = 1, 1, 2
    rest = n
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    m *= rest
    return s, m


def test_square_free_decompose_matches_full_trial_division():
    # 999983 is the largest prime below 10**6, so the oracle reaches it quickly.
    for n in [*range(20_000), 3 * 999983**2]:
        assert square_free_decompose(n) == _trial_division_to_the_root(n), n




# -- construction and canonical form ---------------------------------


def test_sqrt_of_perfect_square_is_int():
    assert sqrt_exact(0) == 0
    assert sqrt_exact(1) == 1
    assert sqrt_exact(49) == 7
    assert isinstance(sqrt_exact(49), int)


def test_sqrt_simplifies_square_factors():
    # sqrt(8) = 2*sqrt(2)
    assert sqrt_exact(8) == 2 * SQRT2
    assert sqrt_exact(8).terms == ((2, Fraction(2)),)


def test_sqrt_of_fraction():
    # sqrt(1/2) = sqrt(2)/2
    assert sqrt_exact(Fraction(1, 2)) == SQRT2 / 2
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_exact(-2)


def test_sqrt_rejects_a_float():
    with pytest.raises(TypeError, match="expected an int or Fraction, got float"):
        RadicalSum.sqrt(1.5)


def test_radical_sum_is_immutable():
    with pytest.raises(AttributeError):
        SQRT2.terms = ()


# -- arithmetic identities -------------------------------------------


def test_square_of_sqrt2_collapses_to_int():
    v = SQRT2 * SQRT2
    assert v == 2
    assert isinstance(v, int)


def test_product_of_distinct_roots():
    assert SQRT2 * SQRT3 == sqrt_exact(6)


def test_conjugate_product():
    # (1 + sqrt2)(1 - sqrt2) = -1
    assert (1 + SQRT2) * (1 - SQRT2) == -1


def test_like_terms_merge():
    assert SQRT2 + sqrt_exact(8) == 3 * SQRT2
    assert SQRT2 - SQRT2 == 0


def test_division_by_rational_and_single_radical():
    assert (2 * SQRT2) / 2 == SQRT2
    assert 2 / SQRT2 == SQRT2  # 2/sqrt2 = sqrt2
    assert (SQRT2 + 2) / SQRT2 == 1 + SQRT2


def test_division_by_multiterm_sum_is_refused():
    with pytest.raises(ArithmeticError):
        1 / (SQRT2 + SQRT3)
    with pytest.raises(ZeroDivisionError):
        SQRT2 / 0


@pytest.mark.parametrize(
    "op",
    [
        operator.add,
        operator.sub,
        operator.mul,
        operator.truediv,
        operator.lt,
        operator.le,
        operator.gt,
        operator.ge,
    ],
)
def test_float_operands_are_refused(op):
    # the exact layer never absorbs a float, in either operand order
    with pytest.raises(TypeError):
        op(SQRT2, 0.5)
    with pytest.raises(TypeError):
        op(0.5, SQRT2)


def test_float_equality_answers_false():
    assert not SQRT2 == float(SQRT2)
    assert not float(SQRT2) == SQRT2
    assert SQRT2 != float(SQRT2)


# -- sign and ordering -----------------------------------------------


def test_sign_on_mixed_coefficients():
    # sqrt2 + sqrt3 - sqrt10 is negative (3.146... < 3.162...)
    v = SQRT2 + SQRT3 - sqrt_exact(10)
    assert isinstance(v, RadicalSum)
    assert v.sign() == -1
    assert (sqrt_exact(10) - SQRT2 - SQRT3).sign() == 1


def test_tiny_positive_value_detected():
    # (sqrt2 - 1)^24 is about 6.6e-10 but still strictly positive
    w = SQRT2 - 1
    tiny = w
    for _ in range(4):
        tiny = tiny * tiny  # (sqrt2-1)^16
    tiny = tiny * w * w * w * w * w * w * w * w  # ^24
    assert isinstance(tiny, RadicalSum)
    assert tiny.sign() == 1
    assert tiny > 0
    assert tiny < Fraction(1, 10**9)


def test_irrational_never_equals_rational():
    assert SQRT2 != 1
    assert SQRT2 != Fraction(3, 2)
    assert not (SQRT2 == 1.4142135623730951)


def test_ordering_against_rationals():
    assert 1 < SQRT2 < Fraction(3, 2)
    assert SQRT2 <= SQRT2
    assert SQRT3 > SQRT2


def test_hashable_and_equal_by_canonical_form():
    assert hash(SQRT2 + SQRT2) == hash(2 * SQRT2)
    assert len({SQRT2, sqrt_exact(2), sqrt_exact(8) / 2}) == 1


# -- compare / helpers -----------------------------------------------


def test_compare_exact_needs_no_tolerance():
    assert compare(SQRT2, 2) == -1
    assert compare(2, SQRT2) == 1
    assert compare(Fraction(1, 2), Fraction(1, 2)) == 0


def test_compare_inexact_requires_tolerance():
    with pytest.raises(ValueError):
        compare(0.5, Fraction(1, 2))
    tol = Fraction(1, 10**9)
    assert compare(0.5, Fraction(1, 2), tol) == 0
    assert compare(0.5 + 1e-6, Fraction(1, 2), tol) == 1


@pytest.mark.parametrize(
    "a, b, expected",
    [(0, 0, 0), (1, 2, -1), (2, 1, 1), (-3, 3, -1), (10**40, 10**40 - 1, 1), (-5, -5, 0)],
)
def test_compare_decides_plain_ints(a, b, expected):
    assert compare(a, b) == expected
    assert compare(a, b, Fraction(1, 10**9)) == expected  # the tolerance is not used


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def test_compare_of_bools_and_int_subclasses_is_unchanged():
    # Bools are not distances: without a tolerance they still raise, and
    # with one they are compared as floats, within it.
    with pytest.raises(ValueError, match="tolerance"):
        compare(True, 1)
    with pytest.raises(ValueError, match="tolerance"):
        compare(2, False)
    assert compare(True, 1, Fraction(1, 10**9)) == 0
    assert compare(False, 1, Fraction(1, 10**9)) == -1
    # An int subclass other than bool is exact, and orders as its value.
    assert compare(Level.HIGH, 1) == 1
    assert compare(1, Level.LOW) == 0
    assert compare(Level.LOW, Fraction(3, 2)) == -1
    assert compare(Level.HIGH, SQRT2) == 1


def test_exact_le_lt():
    assert exact_le(SQRT2, SQRT2)
    assert not exact_lt(SQRT2, SQRT2)


def test_exact_div_never_makes_floats():
    q = exact_div(1, 3)
    assert q == Fraction(1, 3)
    assert is_exact(q)
    assert exact_div(SQRT2, 2) == SQRT2 / 2
    assert exact_div(Fraction(1, 2), Fraction(1, 4)) == 2


def test_is_exact():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert is_exact(SQRT2)
    assert not is_exact(0.5)
    assert not is_exact(True)  # bools are not distances


def test_value_str():
    assert value_str(3) == "3"
    assert value_str(Fraction(1, 2)) == "1/2"
    assert value_str(SQRT2) == "sqrt(2)"
    assert value_str(2 * SQRT2) == "2sqrt(2)"
    assert value_str(1 + SQRT2) == "1 + sqrt(2)"
    assert value_str(SQRT3 - SQRT2) == "-sqrt(2) + sqrt(3)"


@pytest.mark.parametrize(
    "value, text",
    [
        (SQRT2 / 2, "(1/2)sqrt(2)"),
        (-SQRT2 / 2, "-(1/2)sqrt(2)"),
        (1 - SQRT2 / 2, "1 - (1/2)sqrt(2)"),
        (1 + SQRT2 / 2, "1 + (1/2)sqrt(2)"),
        (Fraction(1, 3) - 3 * SQRT2 / 4, "1/3 - (3/4)sqrt(2)"),
        (-Fraction(1, 3) - SQRT2, "-1/3 - sqrt(2)"),
        (1 - SQRT2, "1 - sqrt(2)"),
        (-SQRT2, "-sqrt(2)"),
        (-3 * SQRT2 + SQRT3 / 5, "-3sqrt(2) + (1/5)sqrt(3)"),
        (SQRT2 - 2 * SQRT3 - SQRT3 * SQRT2 / 7, "sqrt(2) - 2sqrt(3) - (1/7)sqrt(6)"),
    ],
)
def test_radical_sum_renderings(value, text):
    assert str(value) == value_str(value) == text
    assert repr(value) == f"RadicalSum({text})"


# -- randomized structural properties --------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
radicands = st.integers(min_value=0, max_value=60)


@st.composite
def exact_values(draw):
    total = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        total = total + draw(rationals) * sqrt_exact(draw(radicands))
    return total


@given(exact_values(), exact_values())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(exact_values(), exact_values(), exact_values())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(exact_values())
def test_canonical_invariants(v):
    if not isinstance(v, RadicalSum):
        return
    ms = [m for m, _ in v.terms]
    assert ms == sorted(ms)
    assert len(set(ms)) == len(ms)
    for m, c in v.terms:
        assert c != 0
        assert square_free_decompose(m)[0] == 1  # stored radicands square-free


@given(exact_values(), exact_values())
def test_ordering_agrees_with_floats_at_safe_gaps(a, b):
    fa, fb = float(a), float(b)
    if abs(fa - fb) < 1e-6:
        return  # doubles not trustworthy near ties; exact layer is the oracle
    assert (compare(a, b) < 0) == (fa < fb)


@given(exact_values(), st.one_of(exact_values(), rationals, st.integers(-5, 5)))
def test_operators_agree_with_compare(a, b):
    # one order: <, <=, > and >= are compare's verdict in both operand orders
    for x, y in ((a, b), (b, a)):
        c = compare(x, y)
        assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)


@given(exact_values())
def test_subtraction_from_self_is_zero(v):
    assert v - v == 0
