"""The query-mix workload: a seeded list of library calls and their answers.

``make_queries(seed, count)`` draws the list; ``run_query`` issues one query
against the library; ``Renderer.answer_text`` gives the canonical text of
its answer, which ``digest`` shortens for comparison with the oracle and the
shipped references.  Parameters come from fixed pools so that queries repeat
(memo reads beside memo fills), and every seed does the same expensive
expansions: the seed changes the order and the cheap draws, not the amount
of work.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from typing import List, Tuple

QUERY_COUNT = 3000

# Exact share of each query kind in every list.  Incomplete evaluations and
# text round trips are the majority, so the median query does real
# arithmetic and sits inside that dense cluster rather than in a gap between
# kinds; the same counts for every seed keep the percentiles from drifting
# with the draw.
KIND_SHARES = (
    ("num", 0.15),
    ("poly", 0.10),
    ("inc", 0.33),
    ("tri", 0.02),
    ("gf", 0.10),
    ("text", 0.30),
)

NUM_MAX = 30000
POLY_MAX = 300
INC_MAX = 80
TRI_MAX_ROWS = 60
TEXT_MAX = 120
X_POOL = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3),
          Fraction(2, 3), Fraction(-5, 7))
GF_S_MAX = 12
GF_ORDERS = (32, 64, 96)
GF_X_MODES = (None, None, Fraction(1, 2))   # mostly symbolic x

Query = Tuple


def gf_pool() -> List[Query]:
    """Every distinct series-expansion query; each list holds all of them."""
    return [("gf", family, s, x, order)
            for family, s_min in (("T", 0), ("K", 1))
            for s in range(s_min, GF_S_MAX + 1)
            for x in sorted(set(GF_X_MODES), key=lambda v: (v is not None, v or 0))
            for order in GF_ORDERS]


def make_queries(seed: int, count: int = QUERY_COUNT) -> List[Query]:
    """The seeded query list; each query is a tuple whose first item is its kind.

    Every expansion in ``gf_pool()`` appears at least once (when ``count``
    leaves room), so the expensive first expansions are the same work for
    every seed; the seed picks the order, the repeats and the cheap draws.
    """
    rng = random.Random(seed)
    sizes = {kind: int(share * count) for kind, share in KIND_SHARES}
    sizes["num"] += count - sum(sizes.values())
    pool = gf_pool()
    rng.shuffle(pool)
    out: List[Query] = pool[:sizes["gf"]]
    while len(out) < sizes["gf"]:
        family, s = rng.choice((("T", rng.randint(0, GF_S_MAX)),
                                ("K", rng.randint(1, GF_S_MAX))))
        out.append(("gf", family, s, rng.choice(GF_X_MODES), rng.choice(GF_ORDERS)))
    # the largest index of each number family is always asked for, so every
    # seed grows the number memos to the same size
    out += [("num", "T", NUM_MAX), ("num", "K", NUM_MAX)]
    sizes["num"] -= 2
    for kind, _ in KIND_SHARES:
        for _ in range(sizes[kind] if kind != "gf" else 0):
            family = rng.choice(("T", "K"))
            if kind == "num":
                n = round(10 ** rng.uniform(1, math.log10(NUM_MAX)))
                out.append(("num", family, n))
            elif kind == "poly":
                out.append(("poly", family, rng.randint(0, POLY_MAX)))
            elif kind == "inc":
                if family == "T":
                    n = rng.randint(1, INC_MAX)
                    s = rng.randint(0, (n - 1) // 2)
                else:
                    n = rng.randint(0, INC_MAX)
                    s = rng.randint(0, n // 2)
                out.append(("inc", family, n, s, rng.choice(X_POOL)))
            elif kind == "tri":
                out.append(("tri", family, rng.randint(1, TRI_MAX_ROWS)))
            else:
                out.append(("text", family, rng.randint(0, TEXT_MAX)))
    rng.shuffle(out)
    return out


def value_text(v) -> str:
    """An int or Fraction in hex: decimal str() refuses ints over 4300 digits."""
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator:x}/{v.denominator:x}"
    return f"{int(v):x}"


def coeffs_text(coeffs) -> str:
    return ",".join(value_text(c) for c in coeffs)


def run_query(tb, query: Query):
    """Issue one query through the ``triblucas`` modules in namespace ``tb``.

    Returns the raw library result; ``Renderer.answer_text`` renders it.
    Modules are looked up at call time so that a tracer's patches are seen.
    """
    kind, family = query[0], query[1]
    seq = tb.sequences
    if kind == "num":
        fn = seq.tribonacci_number if family == "T" else seq.tribonacci_lucas_number
        return fn(query[2])
    if kind == "poly":
        fn = seq.tribonacci_poly if family == "T" else seq.tribonacci_lucas_poly
        return fn(query[2])
    if kind == "inc":
        _, _, n, s, x = query
        inc = tb.incomplete
        fn = inc.incomplete_tribonacci_poly if family == "T" else inc.incomplete_tl_poly
        return fn(n, s).evaluate(x)
    if kind == "tri":
        tri = tb.triangles
        which = tri.TriangleKind.NUMBERS if family == "T" else tri.TriangleKind.POLYNOMIALS
        return tri.triangle_rows(which, query[2])
    if kind == "gf":
        _, _, s, x, order = query
        gfm = tb.genfunc
        gf = gfm.q_gf(s, gfm.GFVariant.CORRECTED, x) if family == "T" else gfm.w_gf(s, x)
        return gfm.series_expand(gf, order)
    fn = seq.tribonacci_poly if family == "T" else seq.tribonacci_lucas_poly
    text = tb.poly.poly_format(fn(query[2]))
    return text, tb.poly.poly_parse(text)


class Renderer:
    """Canonical answer text, reusing the text of objects already rendered.

    Memo hits hand back the same immutable object (an ``IntPoly``, a
    ``PowerSeries``), so its text is cached by identity; the object is kept
    alive alongside so that its id cannot be reused.
    """

    def __init__(self):
        self._seen = {}

    def _cached(self, obj, render) -> str:
        hit = self._seen.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        text = render(obj)
        self._seen[id(obj)] = (obj, text)
        return text

    def _cell(self, value) -> str:
        if getattr(value, "coeffs", None) is None:
            return value_text(value)
        return self._cached(value, lambda p: coeffs_text(p.coeffs))

    def answer_text(self, query: Query, result) -> str:
        """Canonical text of a query result, shared with the oracle."""
        kind = query[0]
        if kind in ("num", "inc"):
            return value_text(result)
        if kind == "poly":
            return self._cell(result)
        if kind == "tri":
            return "\n".join(";".join(self._cell(c) for c in row) for row in result.rows)
        if kind == "gf":
            return self._cached(result, lambda r: ";".join(self._cell(c) for c in r.coeffs))
        text, parsed = result
        return text + "|" + coeffs_text(parsed.coeffs)


def digest(text: str) -> str:
    """Eight hex digits of SHA-256: enough to catch a wrong answer."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def query_label(query: Query) -> str:
    return " ".join("sym" if p is None else str(p) for p in query)
