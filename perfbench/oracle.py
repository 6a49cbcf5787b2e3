"""Reference answers for the query mix, computed without the library.

Each family comes from a different algorithm than the library uses:
numbers by 3x3 matrix powers (the library grows a memo), polynomials by a
coefficient-list recurrence, incomplete values and generating-function
coefficients by the paper's binomial double sums, triangle rows by the
closed binomial form, and polynomial text by an independent formatter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List

from queries import POLY_MAX, Query, coeffs_text, value_text


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def number(family: str, n: int) -> int:
    """T_n or K_n as (M^n v)[2] with M the companion matrix of t^3 = t^2 + t + 1."""
    result = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    base = [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    k = n
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        k >>= 1
    v = (1, 1, 0) if family == "T" else (3, 1, 3)  # (x_2, x_1, x_0)
    return sum(result[2][j] * v[j] for j in range(3))


def _trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


@lru_cache(maxsize=None)
def _poly_table(family: str, upto: int) -> List[List[int]]:
    # p_{n+3} = x^2 p_{n+2} + x p_{n+1} + p_n on coefficient lists
    rows = [[0], [1], [0, 0, 1]] if family == "T" else [[3], [0, 0, 1], [0, 2, 0, 0, 1]]
    while len(rows) <= upto:
        a, b, c = rows[-1], rows[-2], rows[-3]
        out = [0] * (len(a) + 2)
        for k, v in enumerate(a):
            out[k + 2] += v
        for k, v in enumerate(b):
            out[k + 1] += v
        for k, v in enumerate(c):
            out[k] += v
        rows.append(out)
    return [_trim(list(r)) for r in rows]


def poly(family: str, n: int) -> List[int]:
    return _poly_table(family, max(n, POLY_MAX))[n]


@lru_cache(maxsize=None)
def incomplete(family: str, n: int, s: int) -> Dict[int, int]:
    """Power -> coefficient of T_n^(s)(x) or K_n^(s)(x) by the double sums."""
    terms: Dict[int, int] = {}
    if family == "K" and n == 0:
        return {0: 3}
    for i in range(s + 1):
        for j in range(i + 1):
            if family == "T":
                c = comb(i, j) * comb(n - i - j - 1, i)
                power = 2 * n - 3 * (i + j) - 2
            else:
                if n == i + j:
                    continue
                c = comb(i, j) * comb(n - i - j, i)
                q, r = divmod(n * c, n - i - j)
                if r:
                    raise ArithmeticError(f"inexact K term at n={n} i={i} j={j}")
                c = q
                power = 2 * n - 3 * (i + j)
            if c:
                terms[power] = terms.get(power, 0) + c
    return {p: c for p, c in terms.items() if c}


def _dense(terms: Dict[int, int]) -> List[int]:
    if not terms:
        return []
    out = [0] * (max(terms) + 1)
    for p, c in terms.items():
        out[p] = c
    return out


def _at(terms: Dict[int, int], x: Fraction) -> Fraction:
    return sum((c * x ** p for p, c in terms.items()), Fraction(0))


def _valid(family: str, n: int, s: int) -> bool:
    if family == "T":
        return n >= 1 and 0 <= s <= (n - 1) // 2
    return n >= 0 and 0 <= s <= n // 2


def _triangle_entry(n: int, i: int) -> Dict[int, int]:
    if n == i:
        return {0: 3} if n == 0 else {n: 2}
    terms: Dict[int, int] = {}
    for j in range(i + 1):
        c = comb(i, j) * comb(n - j, i)
        if c:
            q, r = divmod((n + i) * c, n - j)
            if r:
                raise ArithmeticError(f"inexact triangle term at n={n} i={i}")
            p = 2 * n - i - 3 * j
            terms[p] = terms.get(p, 0) + q
    return terms


@lru_cache(maxsize=None)
def _triangle_row_text(polynomial: bool, n: int) -> str:
    cells = []
    for i in range(n + 1):
        terms = _triangle_entry(n, i)
        cells.append(coeffs_text(_dense(terms)) if polynomial
                     else value_text(sum(terms.values())))
    return ";".join(cells)


def format_poly(coeffs: List[int]) -> str:
    """Descending-power text: ``x^8 + 4*x^5 - 6*x^2 + 1``, ``0`` for zero."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        mag = abs(c)
        var = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
        if not var:
            body = str(mag)
        elif mag == 1:
            body = var
        else:
            body = f"{mag}*{var}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return " ".join(parts) if parts else "0"


def answer_text(query: Query) -> str:
    """The canonical answer text for ``query`` (same format as queries.answer_text)."""
    kind, family = query[0], query[1]
    if kind == "num":
        return value_text(number(family, query[2]))
    if kind == "poly":
        return coeffs_text(poly(family, query[2]))
    if kind == "inc":
        _, _, n, s, x = query
        return value_text(_at(incomplete(family, n, s), x))
    if kind == "tri":
        polynomial = family != "T"
        return "\n".join(_triangle_row_text(polynomial, n) for n in range(query[2]))
    if kind == "gf":
        _, _, s, x, order = query
        cells = []
        for k in range(order):
            terms = incomplete(family, k, s) if _valid(family, k, s) else {}
            cells.append(coeffs_text(_dense(terms)) if x is None
                         else value_text(_at(terms, x)))
        return ";".join(cells)
    coeffs = poly(family, query[2])
    return format_poly(coeffs) + "|" + coeffs_text(coeffs)
