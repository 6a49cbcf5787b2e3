"""In-memory span tracer that wraps the public functions of each triblucas module.

Every wrapped call records one span: layer key, parent span, start and end
(``time.perf_counter``).  Spans live in flat arrays until the run ends;
``summary()`` then derives per-layer calls, self time and extra counts, and
``write_spans()`` dumps the raw spans as gzip'd TSV.

Wrapping happens at module boundaries only: a function is replaced in every
``triblucas`` module namespace that holds it (``verify`` imports
``tribonacci_number``, ``genfunc`` imports ``incomplete_tl_poly``, ...), in
module-level dicts that map names to it (the CLI's family tables) and in the
closure cells of functions stored in such tables (the verify catalog's
runners).  ``IntPoly`` methods are patched on the class.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

# (module, function name) -> layer key.  run_identity spans are keyed per
# catalog id (``verify.id.<id>``) at call time.
FUNCTION_LAYERS = {
    ("poly", "poly_format"): "poly.text",
    ("poly", "poly_parse"): "poly.text",
    ("sequences", "tribonacci_number"): "sequences.index",
    ("sequences", "tribonacci_lucas_number"): "sequences.index",
    ("sequences", "tribonacci_poly"): "sequences.index",
    ("sequences", "tribonacci_lucas_poly"): "sequences.index",
    ("sequences", "binet_estimate"): "sequences.binet",
    ("sequences", "binet_roots"): "sequences.binet_roots",
    ("triangles", "triangle_entry_number"): "triangles.entry",
    ("triangles", "triangle_entry_poly"): "triangles.entry",
    ("triangles", "triangle_rows"): "triangles.rows",
    ("triangles", "diagonal_sum"): "triangles.diagonal",
    ("triangles", "binomial_diagonal_sum"): "triangles.diagonal",
    ("triangles", "weighted_binomial_diagonal_sum"): "triangles.diagonal",
    ("incomplete", "incomplete_tribonacci_poly"): "incomplete.poly",
    ("incomplete", "incomplete_tl_poly"): "incomplete.poly",
    ("incomplete", "incomplete_tribonacci_number"): "incomplete.number",
    ("incomplete", "incomplete_tl_number"): "incomplete.number",
    ("incomplete", "recurrence_step"): "incomplete.identity",
    ("incomplete", "tl_relation_rhs"): "incomplete.identity",
    ("incomplete", "partial_sum_lhs_rhs"): "incomplete.identity",
    ("incomplete", "row_sum_lhs_rhs"): "incomplete.identity",
    ("incomplete", "boundary_form"): "incomplete.identity",
    ("genfunc", "q_gf"): "genfunc.build",
    ("genfunc", "w_gf"): "genfunc.build",
    ("genfunc", "q_gf_numbers_unshifted"): "genfunc.build",
    ("genfunc", "series_expand"): "genfunc.expand",
    ("genfunc", "direct_incomplete_coeff"): "genfunc.direct",
    ("genfunc", "gf_vs_direct"): "genfunc.compare",
    ("verify", "run_all"): "verify.run",
    ("verify", "run_identity"): "verify.id",
    ("verify", "errata_report"): "verify.run",
    ("verify", "reports_to_json"): "verify.run",
    ("cli", "main"): "cli.main",
}

METHOD_LAYERS = {
    "evaluate": "poly.evaluate",
    "__mul__": "poly.mul",
    "__rmul__": "poly.mul",
    "__add__": "poly.add",
    "__radd__": "poly.add",
    "__sub__": "poly.add",
    "__rsub__": "poly.add",
    "__neg__": "poly.add",
}

# Memoised public functions whose cache_info() gives a layer's hit ratio.
HIT_RATIO_SOURCES = {
    "incomplete.poly.hit_ratio": [("incomplete", "incomplete_tribonacci_poly"),
                                  ("incomplete", "incomplete_tl_poly")],
    "genfunc.build.hit_ratio": [("genfunc", "q_gf"), ("genfunc", "w_gf"),
                                ("genfunc", "q_gf_numbers_unshifted")],
}


class Tracer:
    """Span store plus the patches that feed it; ``uninstall`` undoes them."""

    def __init__(self):
        self.keys: List[str] = []
        self._key_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, int] = {}
        self._stack = [-1]
        self._undo: List[Callable[[], None]] = []
        self._originals: Dict[tuple, Callable] = {}

    def key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def wrap(self, fn: Callable, key: str,
             count: Optional[Callable] = None,
             key_of: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``count(args, kwargs)`` returns (counter name, amount) to add per call;
        ``key_of(args)`` picks the layer key per call instead of ``key``.
        """
        kid = self.key_id(key)
        clock = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(self.key_id(key_of(args)) if key_of else kid)
            parents.append(stack[-1])
            ends.append(0.0)
            if count is not None:
                counter, amount = count(args, kwargs)
                counts[counter] = counts.get(counter, 0) + amount
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("triblucas.") and mod is not None}
        replacements = {}
        for (mod_name, fn_name), key in FUNCTION_LAYERS.items():
            original = getattr(modules[mod_name], fn_name)
            self._originals[(mod_name, fn_name)] = original
            key_of = None
            count = None
            if (mod_name, fn_name) == ("verify", "run_identity"):
                key_of = _identity_key
            elif (mod_name, fn_name) == ("genfunc", "series_expand"):
                count = _expand_coeffs
            replacements[id(original)] = (original,
                                          self.wrap(original, key, count, key_of))
        namespaces = [vars(mod) for mod in modules.values()]
        namespaces.append(vars(sys.modules["triblucas"]))
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in replacements and value is replacements[id(value)][0]:
                    self._set(ns, attr, replacements[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replacements and v is replacements[id(v)][0]:
                            self._set(value, k, replacements[id(v)][1])
                        self._patch_closure(getattr(v, "runner", v), replacements)
        from triblucas.poly import IntPoly
        for method, key in METHOD_LAYERS.items():
            original = IntPoly.__dict__[method]
            count = _horner_terms if method == "evaluate" else None
            wrapped = self.wrap(original, key, count)
            setattr(IntPoly, method, wrapped)
            self._undo.append(lambda m=method, o=original: setattr(IntPoly, m, o))

    def _set(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def _patch_closure(self, fn, replacements) -> None:
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if id(value) in replacements and value is replacements[id(value)][0]:
                cell.cell_contents = replacements[id(value)][1]
                self._undo.append(lambda c=cell, o=value: setattr(c, "cell_contents", o))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Span duration minus the time covered by its direct children.

        Spans nest strictly (one thread, stack discipline), so the children's
        durations never overlap and their sum is the covered time.
        """
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def summary(self) -> Dict[str, float]:
        """Per-key calls, self time and inclusive time, plus extra counters."""
        selfs = self.self_times()
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}
        for idx, kid in enumerate(self.name):
            key = self.keys[kid]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + selfs[idx]
            total_s[key] = total_s.get(key, 0.0) + (self.end[idx] - self.start[idx])
        out: Dict[str, float] = {}
        for key in calls:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{key}.total_s"] = total_s[key]
        out.update(self.counts)
        for metric, sources in HIT_RATIO_SOURCES.items():
            ratio = self._hit_ratio(sources)
            if ratio is not None:
                out[metric] = ratio
        return out

    def _hit_ratio(self, sources) -> Optional[float]:
        hits = misses = 0
        for source in sources:
            info = getattr(self._originals.get(source), "cache_info", None)
            if info is None:
                return None
            stats = info()
            hits += stats.hits
            misses += stats.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path: str) -> None:
        """One line per span: index, parent index, layer key, start, end (s)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\tkey\tstart\tend\n")
            for idx in range(len(self.start)):
                out.write(f"{idx}\t{self.parent[idx]}\t{self.keys[self.name[idx]]}"
                          f"\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n")


def _identity_key(args) -> str:
    return f"verify.id.{args[0]}"


def _expand_coeffs(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs["order"]
    return "genfunc.expand.coeffs", order


def _horner_terms(args, kwargs):
    return "poly.evaluate.terms", len(args[0].coeffs)
