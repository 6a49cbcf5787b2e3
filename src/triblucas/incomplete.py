"""Incomplete Tribonacci and Tribonacci-Lucas polynomials and numbers.

The incomplete Tribonacci polynomial truncates the binomial double-sum
representation of T_n(x) at level s:

    T_n^(s)(x) = sum_{i=0..s} sum_{j=0..i} C(i,j) C(n-i-j-1, i) x^(2n-3(i+j)-2),
    0 <= s <= floor((n-1)/2),

and the incomplete Tribonacci-Lucas polynomial truncates the rising-diagonal
sum of the polynomial triangle:

    K_n^(s)(x) = sum_{i=0..s} B(n-i, i)(x),   0 <= s <= floor(n/2),

equivalently a double-binomial sum with the n = i+j cells skipped.  Taking
s at its maximum recovers the complete polynomial; x = 1 gives the number
variants T_n(s), K_n(s), and each identity with a number twin is written
once over ``TriangleKind``.  This module also carries the boundary closed
forms, the recurrences, the cross-family relation (read by ``prop3`` and,
at x = 1, by the two-path ``cor4``), the partial-sum identity (with checked
halving) and the row-sum identity.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from math import comb
from typing import Iterator, Tuple

from .errors import DomainError, InternalConsistencyError
from .poly import IntPoly, _pack
from .sequences import _Frozen, cached, tribonacci_lucas_number, tribonacci_lucas_poly
from .triangles import (
    TriangleKind,
    _binomial_diagonal_terms,
    _entry_function,
    _poly_diagonal_sum,
    _poly_diagonal_sums,
    triangle_entry_number,
    weighted_binomial_diagonal_sum,
)

TRIANGLE_SUM = "triangle_sum"
BINOMIAL_SUM = "binomial_sum"


class IncompleteFamily(enum.Enum):
    INC_TRIBONACCI = "inc-tribonacci"
    INC_TRIBONACCI_LUCAS = "inc-tl"


# Loading an Enum member from its class costs about 0.1 us on CPython 3.10
# and 3.11, so the lookups below read module aliases.
_TRIB, _TL = IncompleteFamily.INC_TRIBONACCI, IncompleteFamily.INC_TRIBONACCI_LUCAS
_NUMBERS = TriangleKind.NUMBERS


def min_index(family: IncompleteFamily) -> int:
    return 1 if family is _TRIB else 0


def max_level(family: IncompleteFamily, n: int) -> int:
    """Largest valid truncation level s for index n in the given family."""
    return (n - min_index(family)) // 2


def is_valid(family: IncompleteFamily, n: int, s: int) -> bool:
    return n >= min_index(family) and 0 <= s <= max_level(family, n)


def check_domain(family: IncompleteFamily, n: int, s: int) -> None:
    if n < min_index(family):
        raise DomainError(
            f"index n={n} below the minimum {min_index(family)} for {family.value}")
    if not 0 <= s <= max_level(family, n):
        raise DomainError(
            f"level s={s} outside the valid interval 0..{max_level(family, n)} "
            f"for {family.value} at n={n}")


class IncompleteIndex(_Frozen):
    """A validated (n, s) pair for one incomplete family.

    Immutable; equal to another index with the same n, s and family, and
    hashed over them.  Every construction, a copy or unpickling included,
    runs the domain check.
    """

    __slots__ = _fields = ("n", "s", "family")

    def __init__(self, n: int, s: int, family: IncompleteFamily):
        self._set(n, s, family)
        check_domain(family, n, s)


def _tribonacci_level(n: int, i: int):
    # Level i of T_n's double sum as (power, coefficient) pairs: the one loop
    # over these cells.  C(n-i-j-1, i) is 0 past j = n-2i-1, so the loop
    # stops there, which also keeps every power nonnegative.
    for j in range(min(i, n - 2 * i - 1) + 1):
        yield 2 * n - 3 * (i + j) - 2, comb(i, j) * comb(n - i - j - 1, i)


@cached
def incomplete_tribonacci_poly(n: int, s: int) -> IntPoly:
    """T_n^(s)(x) by direct evaluation of the truncated double sum.

    The terms of levels 0..s have the 2s+1 powers 2n-2-3m, m = i+j <= 2s,
    and are added straight into one packed list of that length.
    """
    check_domain(IncompleteFamily.INC_TRIBONACCI, n, s)
    low = 2 * n - 2 - 6 * s
    coeffs = [0] * (2 * s + 1)
    for i in range(s + 1):
        for power, coeff in _tribonacci_level(n, i):
            coeffs[(power - low) // 3] += coeff
    return _pack(low, 3, coeffs)


@cached
def _tribonacci_level_sums(n: int) -> Tuple[int, ...]:
    # (T_n(0), ..., T_n(max_level)): running sums of the levels of n's double
    # sum, at x = 1.
    top = max_level(IncompleteFamily.INC_TRIBONACCI, n)
    return tuple(accumulate(sum(coeff for _, coeff in _tribonacci_level(n, i))
                            for i in range(top + 1)))


@cached
def incomplete_tribonacci_number(n: int, s: int) -> int:
    """T_n(s) = T_n^(s)(1): the truncated double sum of binomials in ``int``.

    Read from the memoised running level sums T_n(0), T_n(1), ... of n.
    """
    check_domain(IncompleteFamily.INC_TRIBONACCI, n, s)
    return _tribonacci_level_sums(n)[s]


@cached
def incomplete_tl_poly(n: int, s: int, method: str = TRIANGLE_SUM) -> IntPoly:
    """K_n^(s)(x) as a level-s rising-diagonal partial sum.

    ``triangle_sum`` adds the coefficients of the stored triangle entries
    B(n-i, i)(x), i <= s, into one list; ``binomial_sum`` evaluates the
    closed double sum (n = i+j cells skipped, n = 0 served directly from
    the triangle apex).  The two methods agree; the def1-methods sweep
    verifies that.
    """
    check_domain(IncompleteFamily.INC_TRIBONACCI_LUCAS, n, s)
    if method == TRIANGLE_SUM:
        return _poly_diagonal_sum(n, s)
    if method != BINOMIAL_SUM:
        raise DomainError(f"unknown method {method!r}")
    if n == 0:
        return IntPoly.constant(3)
    return IntPoly.from_terms(_binomial_diagonal_terms(n, s))


def incomplete_tl_poly_row(n: int) -> Iterator[IntPoly]:
    """K_n^(0)(x), ..., K_n^(floor(n/2))(x): one row of the incomplete table.

    Level s adds B(n-s, s)(x) to level s-1, so the row reads one triangle
    entry per value.  Nothing is memoised: the row lives only as long as
    its caller holds it.
    """
    check_domain(IncompleteFamily.INC_TRIBONACCI_LUCAS, n, 0)
    return (_pack(2 * n % 3, 3, total) for total in _poly_diagonal_sums(n, n // 2))


@cached
def _tl_level_sums(n: int) -> Tuple[int, ...]:
    # (K_n(0), ..., K_n(max_level)): running sums of the number triangle's
    # entries B(n-i, i), i = 0, 1, ...
    top = max_level(IncompleteFamily.INC_TRIBONACCI_LUCAS, n)
    return tuple(accumulate(triangle_entry_number(n - i, i) for i in range(top + 1)))


@cached
def incomplete_tl_number(n: int, s: int) -> int:
    """K_n(s) = K_n^(s)(1): the level-s partial sum of the number triangle.

    Read from the memoised running sums K_n(0), K_n(1), ... of n.
    """
    check_domain(IncompleteFamily.INC_TRIBONACCI_LUCAS, n, s)
    return _tl_level_sums(n)[s]


# Boundary closed forms read off the first/last columns of the incomplete
# table.  Keys are the catalog ids they are checked under.
EQ33, EQ34, EQ35, EQ36 = "eq33", "eq34", "eq35", "eq36"


def boundary_form(n: int, which: str) -> IntPoly:
    """Closed boundary expressions for extreme truncation levels.

    eq33: K_n^(0)(x) = x^(2n), n >= 1
    eq34: K_n^(1)(x) = x^(2n) + n x^(2n-3) + n x^(2n-6), n >= 3
    eq35: K_n^(floor(n/2))(x) = K_n(x), n >= 0
    eq36: K_n^(floor((n-2)/2))(x) = K_n(x) - 2 x^(n/2) for even n >= 2,
          K_n(x) - (n x^((n+3)/2) + n x^((n-3)/2)) for odd n >= 2
    """
    if which == EQ33:
        if n < 1:
            raise DomainError(f"eq33 requires n >= 1, got {n}")
        return IntPoly.monomial(1, 2 * n)
    if which == EQ34:
        if n < 3:
            raise DomainError(f"eq34 requires n >= 3, got {n}")
        return IntPoly.from_terms([(2 * n, 1), (2 * n - 3, n), (2 * n - 6, n)])
    if which == EQ35:
        if n < 0:
            raise DomainError(f"eq35 requires n >= 0, got {n}")
        return tribonacci_lucas_poly(n)
    if which == EQ36:
        if n < 2:
            raise DomainError(f"eq36 requires n >= 2, got {n}")
        k = tribonacci_lucas_poly(n)
        if n % 2 == 0:
            return k - IntPoly.monomial(2, n // 2)
        return k - IntPoly.from_terms([((n + 3) // 2, n), ((n - 3) // 2, n)])
    raise DomainError(f"unknown boundary form {which!r}")


def _check_kind(kind: TriangleKind) -> None:
    if not isinstance(kind, TriangleKind):
        raise DomainError(f"unknown kind {kind!r}")


def tl_relation_rhs(n: int, s: int, kind: TriangleKind = TriangleKind.POLYNOMIALS):
    """T_{n+1}^(s)(x) + x T_{n-1}^(s-1)(x) + 2 T_{n-2}^(s-1)(x), or its value at x = 1.

    Equals K_n^(s)(x) for n > 2 and 1 <= s <= floor((n-1)/2); the two sides
    come from different families, so this is the cross-family bridge.
    """
    if n <= 2:
        raise DomainError(f"relation requires n > 2, got {n}")
    if not 1 <= s <= (n - 1) // 2:
        raise DomainError(
            f"level s={s} outside the valid interval 1..{(n - 1) // 2} at n={n}")
    _check_kind(kind)
    t = _values(_TRIB, kind)
    # x^2·0 + x·T_{n-1}^(s-1) + (T_{n+1}^(s) + 2 T_{n-2}^(s-1))
    return kind.step(kind.cell(0, 0), t(n - 1, s - 1), t(n + 1, s) + 2 * t(n - 2, s - 1))


def partial_sum_lhs_rhs(n: int, h: int, s: int) -> Tuple[int, int]:
    """Both sides of the incomplete Tribonacci-Lucas partial-sum identity.

    LHS = sum_{i=0..h-1} K_{n+i}(s);
    RHS = (K_{n+h+2}(s+1) - K_{n+2}(s+1) + K_n(s) - K_{n+h}(s)) / 2,
    where the numerator is checked to be even before halving.
    """
    if n < 1 or h < 1:
        raise DomainError(f"need n >= 1 and h >= 1, got n={n}, h={h}")
    check_domain(IncompleteFamily.INC_TRIBONACCI_LUCAS, n, s)
    lhs = sum(incomplete_tl_number(n + i, s) for i in range(h))
    numerator = (incomplete_tl_number(n + h + 2, s + 1)
                 - incomplete_tl_number(n + 2, s + 1)
                 + incomplete_tl_number(n, s)
                 - incomplete_tl_number(n + h, s))
    half, remainder = divmod(numerator, 2)
    if remainder != 0:
        raise InternalConsistencyError(
            f"odd partial-sum numerator {numerator} at (n={n}, h={h}, s={s})")
    return lhs, half


def row_sum_lhs_rhs(n: int, kind: TriangleKind = TriangleKind.NUMBERS):
    """Both sides of the incomplete-table row-sum identity, for either kind.

    With l = floor(n/2):
    LHS = sum_{s=0..l} K_n^(s);
    RHS = (l+1) K_n - sum_{i,j} (i*n/(n-i-j)) C(i,j) C(n-i-j, i) [x^...],
    n = i+j cells skipped, every division checked exact.
    """
    if n < 1:
        raise DomainError(f"row sum requires n >= 1, got {n}")
    _check_kind(kind)
    l = n // 2
    value = _values(_TL, kind)
    complete = tribonacci_lucas_number if kind is _NUMBERS else tribonacci_lucas_poly
    lhs = sum(value(n, s) for s in range(l + 1))
    rhs = (l + 1) * complete(n) - weighted_binomial_diagonal_sum(kind, n)
    return lhs, rhs


HOM_POLY_37 = "hom_poly_37"
NONHOM_POLY_38 = "nonhom_poly_38"
HOM_NUM_39 = "hom_num_39"
NONHOM_NUM_310 = "nonhom_num_310"
TRI_NONHOM_15 = "tri_nonhom_15"

# (family, kind, homogeneous) of each variant; a number variant is its twin at x = 1.
_RECURRENCES = {
    HOM_POLY_37: (IncompleteFamily.INC_TRIBONACCI_LUCAS, TriangleKind.POLYNOMIALS, True),
    NONHOM_POLY_38: (IncompleteFamily.INC_TRIBONACCI_LUCAS, TriangleKind.POLYNOMIALS, False),
    HOM_NUM_39: (IncompleteFamily.INC_TRIBONACCI_LUCAS, TriangleKind.NUMBERS, True),
    NONHOM_NUM_310: (IncompleteFamily.INC_TRIBONACCI_LUCAS, TriangleKind.NUMBERS, False),
    TRI_NONHOM_15: (IncompleteFamily.INC_TRIBONACCI, TriangleKind.POLYNOMIALS, False),
}
RECURRENCE_VARIANTS = tuple(_RECURRENCES)

def _values(family: IncompleteFamily, kind: TriangleKind):
    # The public function of (family, kind), looked up when called, so that
    # a caller gets a patched module name.
    if family is _TRIB:
        return incomplete_tribonacci_number if kind is _NUMBERS else incomplete_tribonacci_poly
    return incomplete_tl_number if kind is _NUMBERS else incomplete_tl_poly


def _level(family: IncompleteFamily, kind: TriangleKind, n: int, s: int):
    # Level s alone of F_n^(s): B(n-s, s)(x) for K, the level-s cells of the sum for T.
    if family is IncompleteFamily.INC_TRIBONACCI_LUCAS:
        return _entry_function(kind)(n - s, s)
    return kind.collect(_tribonacci_level(n, s))


def recurrence_step(n: int, s: int, variant: str) -> Tuple:
    """(directly computed value, recurrence-assembled value) for one step.

    For the variant's family F (K, or T for tri_nonhom_15), with L_m the
    level-s term of F_m^(s) (B(m-s, s)(x) for K):
    homogeneous:      F_{n+3}^(s+1) vs x^2 F_{n+2}^(s+1) + x F_{n+1}^(s) + F_n^(s)
    non-homogeneous:  F_{n+3}^(s)   vs x^2 F_{n+2}^(s) + x (F_{n+1}^(s) - L_{n+1})
                                       + (F_n^(s) - L_n)
    """
    if variant not in _RECURRENCES:
        raise DomainError(f"unknown recurrence variant {variant!r}")
    family, kind, homogeneous = _RECURRENCES[variant]
    check_domain(family, n, s)
    value, step = _values(family, kind), kind.step
    if homogeneous:
        return (value(n + 3, s + 1),
                step(value(n + 2, s + 1), value(n + 1, s), value(n, s)))
    return (value(n + 3, s),
            step(value(n + 2, s), value(n + 1, s) - _level(family, kind, n + 1, s),
                 value(n, s) - _level(family, kind, n, s)))


__all__ = [
    "IncompleteFamily", "IncompleteIndex", "max_level", "min_index",
    "is_valid", "check_domain",
    "incomplete_tribonacci_poly", "incomplete_tribonacci_number",
    "incomplete_tl_poly", "incomplete_tl_poly_row", "incomplete_tl_number",
    "boundary_form", "EQ33", "EQ34", "EQ35", "EQ36",
    "tl_relation_rhs", "partial_sum_lhs_rhs", "row_sum_lhs_rhs",
    "recurrence_step", "RECURRENCE_VARIANTS",
    "HOM_POLY_37", "NONHOM_POLY_38", "HOM_NUM_39", "NONHOM_NUM_310",
    "TRI_NONHOM_15", "TRIANGLE_SUM", "BINOMIAL_SUM",
]
