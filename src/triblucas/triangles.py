"""The Tribonacci-Lucas triangle and its polynomial analogue.

Number triangle entries B(n, i) satisfy

    B(n+1, i) = B(n, i) + B(n, i-1) + B(n-1, i-1)

with B(n, 0) = 1 and B(n, n) = 2 for n >= 1 and apex B(0, 0) = 3; the
polynomial triangle uses

    B(n+1, i)(x) = x^2 B(n, i)(x) + x B(n, i-1)(x) + B(n-1, i-1)(x)

with B(n, 0)(x) = x^(2n), B(n, n)(x) = 2 x^n and apex 3.  Each entry also
has a closed binomial form (checked against the recurrence entry by entry),
and rising-diagonal sums of either triangle rebuild the Tribonacci-Lucas
numbers / polynomials.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from math import comb
from typing import List, Tuple, Union

from .errors import DomainError, InternalConsistencyError
from .poly import IntPoly, poly_format
from .sequences import _GrowingCache, _shift_add

Entry = Union[int, IntPoly]

RECURRENCE = "recurrence"
CLOSED_FORM = "closed_form"


class TriangleKind(enum.Enum):
    NUMBERS = "numbers"
    POLYNOMIALS = "polynomials"


@dataclass(frozen=True)
class TriangleTable:
    """Rows 0..row_count-1 of one triangle; row n holds columns 0..n."""

    kind: TriangleKind
    rows: Tuple[Tuple[Entry, ...], ...]

    def to_json_dict(self) -> dict:
        """Ragged array of strings plus the kind tag."""
        render = str if self.kind is TriangleKind.NUMBERS else poly_format
        return {
            "kind": self.kind.value,
            "rows": [[render(entry) for entry in row] for row in self.rows],
        }


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that must be exact; a remainder is a transcription bug."""
    q, r = divmod(numerator, denominator)
    if r != 0:
        raise InternalConsistencyError(
            f"inexact division {numerator}/{denominator} in a closed form")
    return q


def _next_row(rows: List[Tuple[Entry, ...]], poly: bool) -> Tuple[Entry, ...]:
    n = len(rows)
    if n == 0:
        return (IntPoly.constant(3),) if poly else (3,)
    prev, prev2 = rows[-1], rows[-2] if n >= 2 else ()
    inner: List[Entry] = []
    for i in range(1, n):
        a, b, c = prev[i], prev[i - 1], prev2[i - 1]
        inner.append(_shift_add(a, b, c) if poly else a + b + c)
    if poly:
        return (IntPoly.monomial(1, 2 * n), *inner, IntPoly.monomial(2, n))
    return (1, *inner, 2)


_NUMBER_ROWS = _GrowingCache([], lambda rows: _next_row(rows, poly=False))
_POLY_ROWS = _GrowingCache([], lambda rows: _next_row(rows, poly=True))


def _check_cell(n: int, i: int) -> None:
    if n < 0:
        raise DomainError(f"row must be nonnegative, got {n}")
    if i < 0 or i > n:
        raise DomainError(f"column {i} outside 0..{n} in row {n}")


def _closed_terms(n: int, i: int):
    # Closed-form terms of B(n, i)(x), n >= 1, as (power, coefficient) pairs:
    # the one loop over these cells.  C(n-j, i) is 0 past j = n-i, so the
    # loop stops there, which keeps n-j >= 1 and every power nonnegative.  On
    # the diagonal n = i only j = 0 is left, the term 2x^i.
    for j in range(min(i, n - i) + 1):
        binoms = comb(i, j) * comb(n - j, i)
        yield 2 * n - i - 3 * j, exact_div((n + i) * binoms, n - j)


def triangle_entry_number(n: int, i: int, method: str = RECURRENCE) -> int:
    """B(n, i), by the table recurrence or the closed binomial sum."""
    _check_cell(n, i)
    if method == RECURRENCE:
        return _NUMBER_ROWS.get(n)[i]
    if method != CLOSED_FORM:
        raise DomainError(f"unknown method {method!r}")
    if n == 0:
        return 3
    return sum(coeff for _, coeff in _closed_terms(n, i))


def triangle_entry_poly(n: int, i: int, method: str = RECURRENCE) -> IntPoly:
    """B(n, i)(x), by the table recurrence or the closed binomial sum."""
    _check_cell(n, i)
    if method == RECURRENCE:
        return _POLY_ROWS.get(n)[i]
    if method != CLOSED_FORM:
        raise DomainError(f"unknown method {method!r}")
    if n == 0:
        return IntPoly.constant(3)
    return IntPoly.from_terms(_closed_terms(n, i))


def triangle_rows(kind: TriangleKind, row_count: int) -> TriangleTable:
    """Rows 0..row_count-1 computed by recurrence."""
    if row_count < 1:
        raise DomainError(f"row_count must be >= 1, got {row_count}")
    cache = _NUMBER_ROWS if kind is TriangleKind.NUMBERS else _POLY_ROWS
    return TriangleTable(kind, tuple(cache.prefix(row_count)))


def diagonal_sum(kind: TriangleKind, n: int) -> Entry:
    """Rising-diagonal sum: sum of B(n-i, i) for i = 0..floor(n/2).

    Equals K_n for the number triangle and K_n(x) for the polynomial one.
    """
    if n < 0:
        raise DomainError(f"index must be nonnegative, got {n}")
    if kind is TriangleKind.NUMBERS:
        return sum(triangle_entry_number(n - i, i) for i in range(n // 2 + 1))
    return _poly_diagonal_sum(n, n // 2)


def _poly_diagonal_sum(n: int, top: int) -> IntPoly:
    # Sum of the stored B(n-i, i)(x) for i = 0..top <= floor(n/2): their
    # nonzero coefficients are added into one list of length 2n+1 (K_n has
    # degree 2n), which becomes one IntPoly.
    total = [0] * (2 * n + 1)
    for i in range(top + 1):
        entry = triangle_entry_poly(n - i, i).coeffs
        for power in compress(range(len(entry)), entry):   # nonzero terms
            total[power] += entry[power]
    return IntPoly(total)


def _binomial_diagonal_terms(n: int, top: int, weight_by_i: bool = False):
    # Closed-form terms of B(n-i, i)(x) for i = 0..top, n >= 1: the double
    # binomial sum over 0 <= j <= i <= top with the n = i+j cells skipped.
    # weight_by_i multiplies the terms of level i by i.
    for i in range(top + 1):
        weight = i if weight_by_i else 1
        for power, coeff in _closed_terms(n - i, i):
            yield power, weight * coeff


def _collect(terms, polynomial: bool) -> Entry:
    if polynomial:
        return IntPoly.from_terms(terms)
    return sum(coeff for _, coeff in terms)


def binomial_diagonal_sum(kind: TriangleKind, n: int) -> Entry:
    """The closed double-binomial form of the rising-diagonal sum (n >= 1)."""
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    return _collect(_binomial_diagonal_terms(n, n // 2),
                    kind is TriangleKind.POLYNOMIALS)


def weighted_binomial_diagonal_sum(n: int, polynomial: bool) -> Entry:
    """The i-weighted variant of the double sum used by the row-sum identity."""
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    return _collect(_binomial_diagonal_terms(n, n // 2, weight_by_i=True), polynomial)
