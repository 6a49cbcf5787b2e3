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

Both recurrences read only columns i and i-1, so each triangle is memoised
as columns: a ``sequences._GrowingCache`` of columns, each column itself a
``_GrowingCache`` of B(i, i), B(i+1, i), ... whose step reads the column to
its left.  Every memo grows under its own lock and is read without one.
Reading B(n, i) grows columns j = 0..i from left to right, each down to row
n-i+j, so no cell right of the rightmost column read is ever built and no
growth recurses.  ``triangle_rows`` assembles rows from the columns.

Each ``TriangleKind`` carries how it builds its values (its cell c·x^k,
step x^2 a + x b + c, term collector and renderer) and ``columns``, its
triangle memo, registered as ``triangles.triangle_entry_number`` or
``triangles.triangle_entry_poly``.
"""

from __future__ import annotations

import enum
from math import comb
from typing import Iterator, List, NamedTuple, Tuple, Union

from .errors import DomainError, InternalConsistencyError
from .poly import IntPoly, _add_at, _pack, poly_format
from .sequences import _by_step, _GrowingCache, _shift_add, register_memo

Entry = Union[int, IntPoly]

RECURRENCE = "recurrence"
CLOSED_FORM = "closed_form"


def _triangle(kind: TriangleKind) -> _GrowingCache:
    """An empty memo of one triangle's columns, each grown only when read."""
    cell, step = kind.cell, kind.step

    def new_column(columns: List[_GrowingCache]) -> _GrowingCache:
        # Column i = len(columns): B(i+k, i) from B(i+k-1, i), B(i+k-1, i-1)
        # and B(i+k-2, i-1); the reader grows the left column to row i+k-1
        # first.  ``left`` is bound here, once per column.
        i = len(columns)
        if i == 0:
            return _GrowingCache([cell(3, 0)], _by_step(lambda v: cell(1, 2 * len(v))))
        left = columns[-1]._values
        return _GrowingCache([cell(2, i)], _by_step(
            lambda v: step(v[-1], left[len(v)], left[len(v) - 1])))

    def add_columns(columns: List[_GrowingCache], count: int) -> None:
        while len(columns) < count:
            columns.append(new_column(columns))

    return _GrowingCache([], add_columns)


class TriangleKind(enum.Enum):
    """Numbers or polynomials: every number is its polynomial twin at x = 1."""

    NUMBERS = ("numbers", "triangles.triangle_entry_number", lambda c, k: c,
               lambda a, b, c: a + b + c, lambda terms: sum(coeff for _, coeff in terms), str)
    POLYNOMIALS = ("polynomials", "triangles.triangle_entry_poly", IntPoly.monomial,
                   _shift_add, IntPoly.from_terms, poly_format)

    def __new__(cls, value: str, memo_name: str, cell, step, collect, render):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.cell = cell            # (c, k) -> c·x^k
        kind.step = step            # (a, b, c) -> x^2·a + x·b + c
        kind.collect = collect      # sum of c·x^k over (k, c) pairs
        kind.render = render        # entry -> text
        kind.columns = register_memo(memo_name, _triangle(kind))
        return kind

    def __str__(self) -> str:   # as a counterexample's parameter prints it
        return self.value


class TriangleTable(NamedTuple):
    """Rows 0..row_count-1 of one triangle; row n holds columns 0..n.

    Immutable; compares and hashes as the tuple (kind, rows).
    """

    kind: TriangleKind
    rows: Tuple[Tuple[Entry, ...], ...]

    def to_json_dict(self) -> dict:
        """Ragged array of strings plus the kind tag."""
        render = self.kind.render
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


def _cell(memo: _GrowingCache, n: int, i: int) -> Entry:
    """B(n, i); the caller has checked 0 <= i <= n.

    So an IndexError in the lookup only means the cell is not built yet.
    Columns 0..i grow from left to right, column j to row n-i+j, so each
    column's left neighbour is grown before the column reads it.
    """
    try:
        return memo._values[i]._values[n - i]
    except IndexError:
        pass
    columns = memo.grow(i + 1)
    for j in range(i + 1):
        columns[j].grow(n - i + 1)
    return columns[i]._values[n - i]


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


def _entry(kind: TriangleKind, n: int, i: int, method: str) -> Entry:
    _check_cell(n, i)
    if method == RECURRENCE:
        return _cell(kind.columns, n, i)
    if method != CLOSED_FORM:
        raise DomainError(f"unknown method {method!r}")
    if n == 0:
        return kind.cell(3, 0)
    return kind.collect(_closed_terms(n, i))


def triangle_entry_number(n: int, i: int, method: str = RECURRENCE) -> int:
    """B(n, i), by the table recurrence or the closed binomial sum."""
    return _entry(TriangleKind.NUMBERS, n, i, method)


def triangle_entry_poly(n: int, i: int, method: str = RECURRENCE) -> IntPoly:
    """B(n, i)(x), by the table recurrence or the closed binomial sum."""
    return _entry(TriangleKind.POLYNOMIALS, n, i, method)


def _entry_function(kind: TriangleKind):
    # Looked up when called, so that a caller gets a patched module name.
    return triangle_entry_number if kind is TriangleKind.NUMBERS else triangle_entry_poly


def triangle_rows(kind: TriangleKind, row_count: int) -> TriangleTable:
    """Rows 0..row_count-1 computed by recurrence."""
    if row_count < 1:
        raise DomainError(f"row_count must be >= 1, got {row_count}")
    columns = [column.grow(row_count - i)
               for i, column in enumerate(kind.columns.grow(row_count)[:row_count])]
    return TriangleTable(kind, tuple(tuple(columns[i][n - i] for i in range(n + 1))
                                     for n in range(row_count)))


def diagonal_sum(kind: TriangleKind, n: int) -> Entry:
    """Rising-diagonal sum: sum of B(n-i, i) for i = 0..floor(n/2).

    Equals K_n for the number triangle and K_n(x) for the polynomial one.
    """
    if n < 0:
        raise DomainError(f"index must be nonnegative, got {n}")
    if kind is TriangleKind.NUMBERS:
        return sum(triangle_entry_number(n - i, i) for i in range(n // 2 + 1))
    return _poly_diagonal_sum(n, n // 2)


def _poly_diagonal_sums(n: int, top: int) -> Iterator[List[int]]:
    # Running sums of the stored B(n-i, i)(x) for i = 0..top <= floor(n/2).
    # Their powers 2n - 3(i+j) are all 2n mod 3, so one list holds the
    # coefficients of x^(2n mod 3 + 3b) up to x^(2n): level i adds one
    # entry's packed coefficients, and the list, now holding K_n^(i)(x), is
    # yielded and then updated in place by level i+1.
    low = 2 * n % 3
    total = [0] * (2 * n // 3 + 1)
    for i in range(top + 1):
        entry = triangle_entry_poly(n - i, i)
        _add_at(total, (entry._low - low) // 3, entry._packed)
        yield total


def _poly_diagonal_sum(n: int, top: int) -> IntPoly:
    *_, total = _poly_diagonal_sums(n, top)
    return _pack(2 * n % 3, 3, total)


def _binomial_diagonal_terms(n: int, top: int, weight_by_i: bool = False):
    # Closed-form terms of B(n-i, i)(x) for i = 0..top, n >= 1: the double
    # binomial sum over 0 <= j <= i <= top with the n = i+j cells skipped.
    # weight_by_i multiplies the terms of level i by i.
    for i in range(top + 1):
        weight = i if weight_by_i else 1
        for power, coeff in _closed_terms(n - i, i):
            yield power, weight * coeff


def _binomial_diagonal(kind: TriangleKind, n: int, weight_by_i: bool) -> Entry:
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    return kind.collect(_binomial_diagonal_terms(n, n // 2, weight_by_i))


def binomial_diagonal_sum(kind: TriangleKind, n: int) -> Entry:
    """The closed double-binomial form of the rising-diagonal sum (n >= 1)."""
    return _binomial_diagonal(kind, n, weight_by_i=False)


def weighted_binomial_diagonal_sum(kind: TriangleKind, n: int) -> Entry:
    """The i-weighted variant of the double sum used by the row-sum identity."""
    return _binomial_diagonal(kind, n, weight_by_i=True)
