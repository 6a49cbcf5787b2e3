import copy
import os
import pickle
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triblucas import triangles
from triblucas.errors import DomainError
from triblucas.poly import IntPoly, poly_parse
from triblucas.sequences import MEMOS, tribonacci_lucas_number, tribonacci_lucas_poly
from triblucas.triangles import (
    CLOSED_FORM,
    RECURRENCE,
    TriangleKind,
    binomial_diagonal_sum,
    diagonal_sum,
    triangle_entry_number,
    triangle_entry_poly,
    triangle_rows,
)

TABLE_1 = [
    [3],
    [1, 2],
    [1, 6, 2],
    [1, 8, 10, 2],
    [1, 10, 24, 14, 2],
    [1, 12, 42, 48, 18, 2],
]

TABLE_2 = [
    ["3"],
    ["x^2", "2*x"],
    ["x^4", "3*x^3 + 3", "2*x^2"],
    ["x^6", "4*x^5 + 4*x^2", "5*x^4 + 5*x", "2*x^3"],
    ["x^8", "5*x^7 + 5*x^4", "9*x^6 + 12*x^3 + 3", "7*x^5 + 7*x^2", "2*x^4"],
    ["x^10", "6*x^9 + 6*x^6", "14*x^8 + 21*x^5 + 7*x^2", "16*x^7 + 24*x^4 + 8*x",
     "9*x^6 + 9*x^3", "2*x^5"],
]


def test_number_triangle_reference_rows():
    table = triangle_rows(TriangleKind.NUMBERS, 6)
    assert [list(row) for row in table.rows] == TABLE_1


def test_polynomial_triangle_reference_rows():
    table = triangle_rows(TriangleKind.POLYNOMIALS, 6)
    expected = [[poly_parse(cell) for cell in row] for row in TABLE_2]
    assert [list(row) for row in table.rows] == expected


def test_single_row_is_apex():
    assert triangle_rows(TriangleKind.NUMBERS, 1).rows == ((3,),)


def test_entry_examples():
    assert triangle_entry_number(4, 2) == 24
    assert triangle_entry_number(5, 3) == 48
    for n in range(1, 11):
        assert triangle_entry_number(n, 0) == 1
        assert triangle_entry_number(n, 0, CLOSED_FORM) == 1
        assert triangle_entry_number(n, n) == 2


def test_poly_entry_examples():
    assert triangle_entry_poly(4, 2) == poly_parse("9*x^6 + 12*x^3 + 3")
    assert triangle_entry_poly(5, 2) == poly_parse("14*x^8 + 21*x^5 + 7*x^2")
    assert triangle_entry_poly(3, 3) == poly_parse("2*x^3")
    assert triangle_entry_poly(0, 0, CLOSED_FORM) == IntPoly([3])


def test_methods_agree_small_sweep():
    for n in range(16):
        for i in range(n + 1):
            assert (triangle_entry_number(n, i, CLOSED_FORM)
                    == triangle_entry_number(n, i, RECURRENCE))
            assert (triangle_entry_poly(n, i, CLOSED_FORM)
                    == triangle_entry_poly(n, i, RECURRENCE))


def test_diagonal_sums_rebuild_lucas_numbers():
    for n in range(41):
        assert diagonal_sum(TriangleKind.NUMBERS, n) == tribonacci_lucas_number(n)


def test_diagonal_sums_rebuild_lucas_polys():
    for n in range(25):
        assert diagonal_sum(TriangleKind.POLYNOMIALS, n) == tribonacci_lucas_poly(n)


def test_diagonal_sum_base_cases():
    assert diagonal_sum(TriangleKind.NUMBERS, 5) == 21
    assert diagonal_sum(TriangleKind.NUMBERS, 0) == 3
    assert diagonal_sum(TriangleKind.POLYNOMIALS, 4) == poly_parse("x^8 + 4*x^5 + 6*x^2")


def test_binomial_diagonal_examples():
    assert binomial_diagonal_sum(TriangleKind.NUMBERS, 4) == 11
    assert binomial_diagonal_sum(TriangleKind.NUMBERS, 2) == 3
    assert binomial_diagonal_sum(TriangleKind.POLYNOMIALS, 3) == \
        poly_parse("x^6 + 3*x^3 + 3")


def test_binomial_form_agrees_with_diagonal():
    for n in range(1, 41):
        assert binomial_diagonal_sum(TriangleKind.NUMBERS, n) == \
            diagonal_sum(TriangleKind.NUMBERS, n)
    for n in range(1, 25):
        assert binomial_diagonal_sum(TriangleKind.POLYNOMIALS, n) == \
            diagonal_sum(TriangleKind.POLYNOMIALS, n)


def test_poly_entries_specialize_at_1():
    for n in range(21):
        for i in range(n + 1):
            assert triangle_entry_poly(n, i).evaluate(1) == triangle_entry_number(n, i)


def test_domain_errors():
    with pytest.raises(DomainError):
        triangle_entry_number(3, 4)
    with pytest.raises(DomainError):
        triangle_entry_number(3, -1)
    with pytest.raises(DomainError):
        triangle_entry_poly(-1, 0)
    with pytest.raises(DomainError):
        triangle_entry_number(3, 1, "guesswork")
    with pytest.raises(DomainError):
        triangle_rows(TriangleKind.NUMBERS, 0)
    with pytest.raises(DomainError):
        binomial_diagonal_sum(TriangleKind.NUMBERS, 0)


def test_kinds_keep_their_public_face():
    assert TriangleKind("numbers") is TriangleKind.NUMBERS
    assert TriangleKind("polynomials") is TriangleKind.POLYNOMIALS
    # closed-vs-recurrence-triangle walks the kinds in this order
    assert [kind.value for kind in TriangleKind] == ["numbers", "polynomials"]
    for kind in TriangleKind:
        assert str(kind) == kind.value
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert copy.deepcopy(kind) is kind
    assert MEMOS["triangles.triangle_entry_number"] is TriangleKind.NUMBERS.columns
    assert MEMOS["triangles.triangle_entry_poly"] is TriangleKind.POLYNOMIALS.columns


def test_registry_clear_empties_the_memo_that_reads_use():
    for name, kind, read in (("triangles.triangle_entry_number", TriangleKind.NUMBERS,
                              triangle_entry_number),
                             ("triangles.triangle_entry_poly", TriangleKind.POLYNOMIALS,
                              triangle_entry_poly)):
        expected = read(12, 5)
        assert len(kind.columns) >= 6
        MEMOS[name].clear()
        assert len(kind.columns) == 0
        assert read(12, 5) == expected
        assert len(kind.columns) == 6


def test_table_json_shape():
    payload = triangle_rows(TriangleKind.POLYNOMIALS, 3).to_json_dict()
    assert payload["kind"] == "polynomials"
    assert payload["rows"] == [["3"], ["x^2", "2*x"], ["x^4", "3*x^3 + 3", "2*x^2"]]
    numbers = triangle_rows(TriangleKind.NUMBERS, 2).to_json_dict()
    assert numbers == {"kind": "numbers", "rows": [["3"], ["1", "2"]]}


ROOT = Path(__file__).resolve().parent.parent
KINDS = (TriangleKind.NUMBERS, TriangleKind.POLYNOMIALS)
ENTRY = {TriangleKind.NUMBERS: triangle_entry_number,
         TriangleKind.POLYNOMIALS: triangle_entry_poly}


@lru_cache(maxsize=None)
def _closed(kind, n, i):
    return ENTRY[kind](n, i, CLOSED_FORM)


def _fresh_columns():
    """Patch in empty column memos for both kinds, built like the module's."""
    stack = ExitStack()
    for kind in TriangleKind:
        stack.enter_context(mock.patch.object(kind, "columns", triangles._triangle(kind)))
    return stack


def test_deep_entry_builds_only_its_columns():
    # At row 200 a full triangle holds 20,301 polynomial cells (about 65 MB);
    # B(200, 4) needs columns 0..4 only, each down to row 196 + j.
    code = ("import tracemalloc\n"
            "from triblucas import triangles\n"
            "tracemalloc.start()\n"
            "triangles.triangle_entry_poly(200, 4)\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "columns = triangles.TriangleKind.POLYNOMIALS.columns._values\n"
            "print(peak, [j + len(column._values) - 1 for j, column in enumerate(columns)])\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    peak, deepest = done.stdout.split(" ", 1)
    assert int(peak) < 4 * 2 ** 20
    assert deepest.strip() == "[196, 197, 198, 199, 200]"



def test_deep_cell_grows_its_columns_without_recursion():
    # B(401, 400) needs 401 columns; each grows from the one to its left,
    # which is grown first, so the default recursion limit is never neared.
    with _fresh_columns():
        assert triangle_entry_number(401, 400) == 1602
        assert triangle_entry_number(401, 400, CLOSED_FORM) == 1602
        assert triangle_entry_poly(401, 400) == triangle_entry_poly(401, 400, CLOSED_FORM)


_READS = st.tuples(st.sampled_from(KINDS), st.integers(0, 40), st.integers(0, 40),
                   st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(_READS, min_size=1, max_size=12))
def test_interleaved_reads_of_a_fresh_memo_equal_the_closed_form(reads):
    # Each read is an entry B(n, i mod (n+1)) or, when the flag is set, rows
    # 0..n; any order of them must grow the columns to the same cells.
    with _fresh_columns():
        for kind, n, i, whole_rows in reads:
            if whole_rows:
                table = triangle_rows(kind, n + 1)
                assert table.kind is kind
                assert [len(row) for row in table.rows] == list(range(1, n + 2))
                for row_index, row in enumerate(table.rows):
                    for column, entry in enumerate(row):
                        assert entry == _closed(kind, row_index, column)
            else:
                i %= n + 1
                assert ENTRY[kind](n, i) == _closed(kind, n, i)


def test_concurrent_column_growth_matches_serial():
    cells = [(kind, n, i) for kind in KINDS for n in range(61) for i in range(n + 1)]
    with _fresh_columns():
        serial = {cell: ENTRY[cell[0]](*cell[1:]) for cell in cells}
    random.Random(0).shuffle(cells)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _fresh_columns(), ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = dict(zip(cells, pool.map(
                lambda cell: ENTRY[cell[0]](*cell[1:]), cells, timeout=60)))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
