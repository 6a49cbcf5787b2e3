"""Identity catalog, exhaustive sweep runner, and the formula errata report.

Every checkable identity of the Tribonacci-Lucas family treated by this
library is registered once, keyed by a stable catalog id.  A sweep
evaluates both sides of an identity over its full parameter lattice
(derived from the identity's stated domain, capped by a SweepRange) with
exact arithmetic, and reports pass/fail with verbatim counterexamples.

Two ids are *expected* to fail: they faithfully reproduce closed forms
whose printed statements disagree with direct enumeration (the z^2
numerator term of the incomplete-Tribonacci generating function, and the
unshifted variant of its x = 1 specialization).  The suite treats an
unexpected pass of those ids as a failure, because it would mean the
faithful reproduction is broken.  No checker computes both sides of an
identity through the same code path.
"""

from __future__ import annotations

import decimal
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import genfunc as gf
from . import incomplete as inc
from .errors import UnknownIdentityError
from .poly import IntPoly, poly_format
from .sequences import (
    SequenceFamily,
    binet_estimate,
    tribonacci_lucas_number,
    tribonacci_lucas_poly,
    tribonacci_number,
    tribonacci_poly,
)
from .triangles import (
    CLOSED_FORM,
    RECURRENCE,
    TriangleKind,
    binomial_diagonal_sum,
    triangle_entry_number,
    triangle_entry_poly,
)

PASS = "pass"
FAIL = "fail"
EXPECTED_FAIL = "expected_fail"

MAX_COUNTEREXAMPLES = 10
TRIANGLE_SWEEP_CAP = 30   # dual-method triangle sweep bound at default range
POLY_SWEEP_CAP = 24       # polynomial identity sweeps
RECUR_SWEEP_CAP = 20      # polynomial recurrence / partial-sum sweeps
BINET_PRECISION = 64
BINET_REL_TOL = Fraction(1, 10 ** 6)


@dataclass(frozen=True)
class SweepRange:
    """Bounds for the verification sweeps.

    ``n_max`` caps the number sweeps directly; polynomial sweeps use
    min(n_max, 24) and the polynomial recurrence / partial-sum sweeps use
    min(n_max, 20), so lowering n_max shrinks everything uniformly.
    """

    n_max: int = 40
    s_max: int = 8
    h_max: int = 12
    order: int = 48
    x_points: Tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(1, 2))
    include_symbolic: bool = True

    def __post_init__(self):
        for name in ("n_max", "s_max", "h_max", "order"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def n_max_poly(self) -> int:
        return min(self.n_max, POLY_SWEEP_CAP)

    @property
    def n_max_recur(self) -> int:
        return min(self.n_max, RECUR_SWEEP_CAP)

    def x_modes(self) -> List[Optional[Fraction]]:
        modes: List[Optional[Fraction]] = [Fraction(x) for x in self.x_points]
        if self.include_symbolic:
            modes.append(None)
        return modes


@dataclass(frozen=True)
class Failure:
    """One counterexample: parameter point plus both renderings."""

    params: Tuple[Tuple[str, str], ...]
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class IdentityReport:
    id: str
    points_checked: int
    failures: Tuple[Failure, ...]
    total_failures: int
    status: str
    notes: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "points_checked": self.points_checked,
            "total_failures": self.total_failures,
            "failures": [f.to_json_dict() for f in self.failures],
            "notes": self.notes,
        }


# One lattice point: its parameters, then the two sides of the identity.
Point = Tuple[Sequence[Tuple[str, object]], object, object]


def _render(value) -> str:
    if isinstance(value, IntPoly):
        return poly_format(value)
    return str(value)


def _render_binet(value) -> str:
    # The estimate is an exact Fraction over 2^bits; its full numerator and
    # denominator run to hundreds of digits, so print 20 significant digits.
    if isinstance(value, Fraction):
        with decimal.localcontext() as ctx:
            ctx.prec = 20
            return str(decimal.Decimal(value.numerator) / value.denominator)
    return _render(value)


def _within_binet_tol(estimate, value: int) -> bool:
    # |estimate - value| <= tol * max(1, value), in Fraction/int arithmetic:
    # a float bound overflows once value passes about 1.8e308.
    tol = BINET_REL_TOL
    return abs(estimate - value) * tol.denominator <= tol.numerator * max(1, value)


# -- checkers -----------------------------------------------------------------
#
# Each checker yields (params, lhs, rhs) for every point of its lattice;
# run_identity counts the points and compares the two sides.

def _check_eq22(rng: SweepRange) -> Iterator[Point]:
    for n in range(1, rng.n_max + 1):
        yield ([("n", n)], binomial_diagonal_sum(TriangleKind.NUMBERS, n),
               tribonacci_lucas_number(n))


def _check_eq24(rng: SweepRange) -> Iterator[Point]:
    for n in range(1, rng.n_max_poly + 1):
        yield ([("n", n)], binomial_diagonal_sum(TriangleKind.POLYNOMIALS, n),
               tribonacci_lucas_poly(n))


def _check_triangle_methods(rng: SweepRange) -> Iterator[Point]:
    cap = min(rng.n_max, TRIANGLE_SWEEP_CAP)
    for n in range(cap + 1):
        for i in range(n + 1):
            yield ([("kind", "numbers"), ("n", n), ("i", i)],
                   triangle_entry_number(n, i, CLOSED_FORM),
                   triangle_entry_number(n, i, RECURRENCE))
            yield ([("kind", "polynomials"), ("n", n), ("i", i)],
                   triangle_entry_poly(n, i, CLOSED_FORM),
                   triangle_entry_poly(n, i, RECURRENCE))


def _check_def1_methods(rng: SweepRange) -> Iterator[Point]:
    for n in range(rng.n_max_poly + 1):
        for s in range(n // 2 + 1):
            yield ([("n", n), ("s", s)],
                   inc.incomplete_tl_poly(n, s),
                   inc.incomplete_tl_poly(n, s, inc.BINOMIAL_SUM))


def _boundary_checker(which: str, n_min: int, level: Callable[[int], int]):
    def run(rng: SweepRange) -> Iterator[Point]:
        for n in range(n_min, rng.n_max_poly + 1):
            yield ([("n", n)], inc.boundary_form(n, which),
                   inc.incomplete_tl_poly(n, level(n)))
    return run


def _recurrence_checker(variant: str, numbers: bool):
    def run(rng: SweepRange) -> Iterator[Point]:
        n_cap = rng.n_max if numbers else rng.n_max_recur
        for n in range(1, n_cap + 1):
            top = (n - 1) // 2 if variant == inc.TRI_NONHOM_15 else n // 2
            for s in range(top + 1):
                direct, assembled = inc.recurrence_step(n, s, variant)
                yield [("n", n), ("s", s)], direct, assembled
    return run


def _check_prop3(rng: SweepRange) -> Iterator[Point]:
    for n in range(3, rng.n_max_poly + 1):
        for s in range(1, (n - 1) // 2 + 1):
            yield ([("n", n), ("s", s)], inc.tl_relation_rhs(n, s),
                   inc.incomplete_tl_poly(n, s))


def _check_cor4(rng: SweepRange) -> Iterator[Point]:
    for n in range(3, rng.n_max + 1):
        for s in range(1, (n - 1) // 2 + 1):
            # T_{n+1}(s) + T_{n-1}(s-1) + 2 T_{n-2}(s-1) from the Tribonacci
            # double sum, against K_n(s) from the number triangle
            lhs = (inc.incomplete_tribonacci_number(n + 1, s)
                   + inc.incomplete_tribonacci_number(n - 1, s - 1)
                   + 2 * inc.incomplete_tribonacci_number(n - 2, s - 1))
            yield [("n", n), ("s", s)], lhs, inc.incomplete_tl_number(n, s)


def _check_thm5(rng: SweepRange) -> Iterator[Point]:
    for n in range(1, rng.n_max_recur + 1):
        for h in range(1, rng.h_max + 1):
            for s in range(n // 2 + 1):
                lhs, rhs = inc.partial_sum_lhs_rhs(n, h, s)
                yield [("n", n), ("h", h), ("s", s)], lhs, rhs


def _row_sum_checker(mode: str):
    def run(rng: SweepRange) -> Iterator[Point]:
        cap = rng.n_max if mode == inc.NUMBERS else rng.n_max_poly
        for n in range(1, cap + 1):
            lhs, rhs = inc.row_sum_lhs_rhs(n, mode)
            yield [("n", n)], lhs, rhs
    return run


def _binet_checker(family: SequenceFamily, exact: Callable[[int], int]):
    def run(rng: SweepRange) -> Iterator[Point]:
        for n in range(rng.n_max + 1):
            yield [("n", n)], binet_estimate(n, family, BINET_PRECISION), exact(n)
    return run


def _check_poly_at_1(rng: SweepRange) -> Iterator[Point]:
    for n in range(rng.n_max + 1):
        yield ([("family", "tribonacci"), ("n", n)],
               tribonacci_poly(n).evaluate(1), tribonacci_number(n))
        yield ([("family", "tribonacci-lucas"), ("n", n)],
               tribonacci_lucas_poly(n).evaluate(1), tribonacci_lucas_number(n))


def _mode_label(x: Optional[Fraction]) -> str:
    return "symbolic" if x is None else str(x)


def _gf_checker(family: inc.IncompleteFamily, variant: gf.GFVariant,
                s_min: int, x_modes: Optional[Callable[[SweepRange], list]] = None):
    def run(rng: SweepRange) -> Iterator[Point]:
        modes = x_modes(rng) if x_modes else rng.x_modes()
        for s in range(s_min, rng.s_max + 1):
            for x in modes:
                series = gf.gf_vs_direct(family, s, variant, x, rng.order).series
                # the direct values gf_vs_direct compared against, from its memo
                direct = gf.direct_series(family, s, x, rng.order)
                for power, (got, want) in enumerate(zip(series.coeffs, direct)):
                    yield ([("s", s), ("x", _mode_label(x)), ("power", power)],
                           got, want)
    return run


def _check_eq16_shift(rng: SweepRange) -> Iterator[Point]:
    for s in range(rng.s_max + 1):
        series = gf.series_expand(gf.q_gf_numbers_unshifted(s), rng.order)
        # the x = 1 values cor11 compared against
        direct = gf.direct_series(inc.IncompleteFamily.INC_TRIBONACCI, s,
                                  Fraction(1), rng.order)
        for power in range(rng.order):
            yield [("s", s), ("power", power)], series[power], direct[power]


# -- catalog ------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    formula_key: str
    expects_failures: bool
    runner: Callable[[SweepRange], Iterator[Point]]
    domain: Callable[[SweepRange], str]
    extra_notes: str = ""
    agree: Callable[[object, object], bool] = operator.eq
    render: Callable[[object], str] = _render


def _entries() -> List[CatalogEntry]:
    e = []

    def add(id_, description, formula_key, runner, domain, expects_failures=False,
            extra_notes="", agree=operator.eq, render=_render):
        e.append(CatalogEntry(id_, description, formula_key, expects_failures,
                              runner, domain, extra_notes, agree, render))

    add("eq2.2", "Tribonacci-Lucas numbers as the rising-diagonal double binomial sum",
        "2.2", _check_eq22, lambda r: f"1 <= n <= {r.n_max}")
    add("eq2.4", "Tribonacci-Lucas polynomials as the rising-diagonal double binomial sum",
        "2.4", _check_eq24, lambda r: f"1 <= n <= {r.n_max_poly}")
    add("closed-vs-recurrence-triangle",
        "triangle entries: closed binomial forms equal the table recurrences, both kinds",
        "2.1 / 2.3 + closed forms", _check_triangle_methods,
        lambda r: f"0 <= i <= n <= {min(r.n_max, TRIANGLE_SWEEP_CAP)}, both kinds")
    add("def1-methods",
        "incomplete Tribonacci-Lucas polynomials: triangle partial sums equal the truncated double sum",
        "3.1", _check_def1_methods,
        lambda r: f"0 <= n <= {r.n_max_poly}, 0 <= s <= floor(n/2)")
    add("eq3.3", "level-0 incomplete Tribonacci-Lucas polynomial is x^(2n)",
        "3.3", _boundary_checker(inc.EQ33, 1, lambda n: 0),
        lambda r: f"1 <= n <= {r.n_max_poly}, s = 0")
    add("eq3.4", "level-1 incomplete Tribonacci-Lucas polynomial closed form",
        "3.4", _boundary_checker(inc.EQ34, 3, lambda n: 1),
        lambda r: f"3 <= n <= {r.n_max_poly}, s = 1")
    add("eq3.5", "maximum truncation level recovers the complete polynomial",
        "3.5", _boundary_checker(inc.EQ35, 1, lambda n: n // 2),
        lambda r: f"1 <= n <= {r.n_max_poly}, s = floor(n/2)")
    add("eq3.6", "second-to-maximum level: complete polynomial minus the top diagonal entry",
        "3.6", _boundary_checker(inc.EQ36, 2, lambda n: (n - 2) // 2),
        lambda r: f"2 <= n <= {r.n_max_poly}, s = floor((n-2)/2)")
    add("eq3.7", "homogeneous recurrence of the incomplete Tribonacci-Lucas polynomials",
        "3.7", _recurrence_checker(inc.HOM_POLY_37, numbers=False),
        lambda r: f"1 <= n <= {r.n_max_recur}, 0 <= s <= floor(n/2)")
    add("eq3.8", "non-homogeneous recurrence of the incomplete Tribonacci-Lucas polynomials",
        "3.8", _recurrence_checker(inc.NONHOM_POLY_38, numbers=False),
        lambda r: f"1 <= n <= {r.n_max_recur}, 0 <= s <= floor(n/2)")
    add("eq3.9", "homogeneous recurrence of the incomplete Tribonacci-Lucas numbers",
        "3.9", _recurrence_checker(inc.HOM_NUM_39, numbers=True),
        lambda r: f"1 <= n <= {r.n_max}, 0 <= s <= floor(n/2)")
    add("eq3.10", "non-homogeneous recurrence of the incomplete Tribonacci-Lucas numbers",
        "3.10", _recurrence_checker(inc.NONHOM_NUM_310, numbers=True),
        lambda r: f"1 <= n <= {r.n_max}, 0 <= s <= floor(n/2)")
    add("eq1.5", "non-homogeneous recurrence of the incomplete Tribonacci polynomials",
        "1.5", _recurrence_checker(inc.TRI_NONHOM_15, numbers=False),
        lambda r: f"1 <= n <= {r.n_max_recur}, 0 <= s <= floor((n-1)/2)")
    add("prop3", "incomplete Tribonacci-Lucas polynomials from incomplete Tribonacci polynomials",
        "Prop 3", _check_prop3,
        lambda r: f"3 <= n <= {r.n_max_poly}, 1 <= s <= floor((n-1)/2)")
    add("cor4", "the cross-family relation at x = 1",
        "Cor 4", _check_cor4,
        lambda r: f"3 <= n <= {r.n_max}, 1 <= s <= floor((n-1)/2)")
    add("thm5", "partial sums of incomplete Tribonacci-Lucas numbers, with checked halving",
        "3.11", _check_thm5,
        lambda r: (f"1 <= n <= {min(r.n_max, RECUR_SWEEP_CAP)}, 1 <= h <= {r.h_max}, "
                   "0 <= s <= floor(n/2)"))
    add("prop6", "row sums of the incomplete polynomial table",
        "3.12", _row_sum_checker(inc.POLYNOMIALS),
        lambda r: f"1 <= n <= {r.n_max_poly}, polynomials")
    add("cor8", "row sums of the incomplete number table",
        "3.13", _row_sum_checker(inc.NUMBERS),
        lambda r: f"1 <= n <= {r.n_max}, numbers")
    add("binet-T", "Tribonacci closed form over the characteristic roots vs the recurrence",
        "1.3 (with 1.1)", _binet_checker(SequenceFamily.TRIBONACCI_NUMBER, tribonacci_number),
        lambda r: f"0 <= n <= {r.n_max}, relative tolerance 1e-6, {BINET_PRECISION}-bit floats",
        agree=_within_binet_tol, render=_render_binet)
    add("binet-K", "Tribonacci-Lucas closed form over the characteristic roots vs the recurrence",
        "1.3 (with 1.2)", _binet_checker(SequenceFamily.TRIBONACCI_LUCAS_NUMBER,
                                         tribonacci_lucas_number),
        lambda r: f"0 <= n <= {r.n_max}, relative tolerance 1e-6, {BINET_PRECISION}-bit floats",
        agree=_within_binet_tol, render=_render_binet)
    add("poly-at-1", "polynomial families at x = 1 reduce to the number families",
        "polynomial recurrences", _check_poly_at_1,
        lambda r: f"0 <= n <= {r.n_max}, both families")
    add("thm10-printed",
        "incomplete-Tribonacci generating function with the printed z^2 numerator term",
        "Thm 10 (printed)",
        _gf_checker(inc.IncompleteFamily.INC_TRIBONACCI, gf.GFVariant.AS_PRINTED, 0),
        lambda r: _gf_domain(r, 0), expects_failures=True,
        extra_notes=("faithful reproduction of the printed form; its z^2 term "
                     "T_2s(x) - 2x^(s+1) first mismatches direct values at the "
                     "z^2 slot of the unshifted factor (power 2s+3)"))
    add("thm10-corrected",
        "incomplete-Tribonacci generating function with the corrected z^2 numerator term",
        "Thm 10 (corrected)",
        _gf_checker(inc.IncompleteFamily.INC_TRIBONACCI, gf.GFVariant.CORRECTED, 0),
        lambda r: _gf_domain(r, 0),
        extra_notes="corrected z^2 term is T_2s(x); derived from the comparator")
    add("cor11", "incomplete-Tribonacci number generating function (corrected, x = 1)",
        "Cor 11",
        _gf_checker(inc.IncompleteFamily.INC_TRIBONACCI, gf.GFVariant.CORRECTED, 0,
                    x_modes=lambda r: [Fraction(1)]),
        lambda r: f"0 <= s <= {r.s_max}, order {r.order}, x = 1")
    add("thm12", "incomplete Tribonacci-Lucas generating function from two Tribonacci ones",
        "Thm 12",
        _gf_checker(inc.IncompleteFamily.INC_TRIBONACCI_LUCAS, gf.GFVariant.CORRECTED, 1),
        lambda r: _gf_domain(r, 1),
        extra_notes=("stated for s > 1 but verified from s = 1 on; the assembled "
                     "function restores the boundary term 2 T_(2s-2)(x) z^(2s) "
                     "that the literal combination drops for s >= 2"))
    add("cor13", "incomplete Tribonacci-Lucas number generating function (x = 1)",
        "Cor 13",
        _gf_checker(inc.IncompleteFamily.INC_TRIBONACCI_LUCAS, gf.GFVariant.CORRECTED, 1,
                    x_modes=lambda r: [Fraction(1)]),
        lambda r: f"1 <= s <= {r.s_max}, order {r.order}, x = 1")
    add("eq1.6-shift",
        "unshifted printed number generating function (off by the z^(2s+1) prefactor)",
        "1.6", _check_eq16_shift,
        lambda r: f"0 <= s <= {r.s_max}, order {r.order}, x = 1, no prefactor",
        expects_failures=True,
        extra_notes=("matches the shifted printed form only after multiplying by "
                     "z^(2s+1); compared directly against the incomplete numbers "
                     "it mismatches from the start"))
    return e


def _gf_domain(r: SweepRange, s_min: int) -> str:
    xs = ", ".join(str(x) for x in r.x_points)
    sym = " and symbolic x" if r.include_symbolic else ""
    return f"{s_min} <= s <= {r.s_max}, order {r.order}, x in {{{xs}}}{sym}"


_CATALOG: Dict[str, CatalogEntry] = {entry.id: entry for entry in _entries()}


def list_identities() -> List[Tuple[str, str, str]]:
    """The full stable catalog as (id, description, formula key) triples."""
    return [(entry.id, entry.description, entry.formula_key)
            for entry in _CATALOG.values()]


def run_identity(identity_id: str, rng: Optional[SweepRange] = None) -> IdentityReport:
    """Exhaustively sweep one identity over its parameter lattice."""
    if identity_id not in _CATALOG:
        raise UnknownIdentityError(identity_id)
    if rng is None:
        rng = SweepRange()
    entry = _CATALOG[identity_id]
    points = total_failures = 0
    examples: List[Failure] = []
    for params, lhs, rhs in entry.runner(rng):
        points += 1
        if not entry.agree(lhs, rhs):
            total_failures += 1
            if len(examples) < MAX_COUNTEREXAMPLES:
                examples.append(Failure(tuple((k, _render(v)) for k, v in params),
                                        entry.render(lhs), entry.render(rhs)))
    notes = f"domain: {entry.domain(rng)}"
    if entry.extra_notes:
        notes += f"; {entry.extra_notes}"
    if entry.expects_failures:
        if total_failures:
            status = EXPECTED_FAIL
        else:
            status = FAIL
            notes += ("; UNEXPECTED: the reproduced form matched direct values, "
                      "so the faithful reproduction is broken")
    else:
        status = PASS if total_failures == 0 else FAIL
    return IdentityReport(
        id=identity_id,
        points_checked=points,
        failures=tuple(examples),
        total_failures=total_failures,
        status=status,
        notes=notes,
    )


def run_all(rng: Optional[SweepRange] = None) -> List[IdentityReport]:
    """Run every catalog entry in catalog order."""
    if rng is None:
        rng = SweepRange()
    return [run_identity(identity_id, rng) for identity_id in _CATALOG]


def overall_success(reports: Sequence[IdentityReport]) -> bool:
    return all(r.status in (PASS, EXPECTED_FAIL) for r in reports)


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    """Deterministic JSON array of reports (schema v1)."""
    return json.dumps([r.to_json_dict() for r in reports],
                      separators=(",", ":"), sort_keys=False)


# -- errata -------------------------------------------------------------------

@dataclass(frozen=True)
class ErrataRecord:
    key: str
    title: str
    printed: str
    corrected: str
    evidence: str

    def to_json_dict(self) -> dict:
        return {"key": self.key, "title": self.title, "printed": self.printed,
                "corrected": self.corrected, "evidence": self.evidence}


@dataclass(frozen=True)
class ErrataReport:
    records: Tuple[ErrataRecord, ...]

    def render(self) -> str:
        lines = ["FORMULA ERRATA", "=============="]
        for idx, record in enumerate(self.records, 1):
            lines.append("")
            lines.append(f"[{idx}] {record.title}  (key: {record.key})")
            lines.append(f"    printed:   {record.printed}")
            lines.append(f"    corrected: {record.corrected}")
            lines.append(f"    evidence:  {record.evidence}")
        return "\n".join(lines) + "\n"


def errata_report() -> ErrataReport:
    """The three documented discrepancies, with live-computed evidence."""
    order = 12

    # (a) the z^2 numerator term of the incomplete-Tribonacci function
    printed0 = gf.gf_vs_direct(inc.IncompleteFamily.INC_TRIBONACCI, 0,
                               gf.GFVariant.AS_PRINTED, Fraction(1), order)
    power = printed0.first_mismatch_power
    got, want = printed0.mismatches[0][1], printed0.mismatches[0][2]
    printed_head = tribonacci_number(0) - 2   # T_0(1) - 2 * 1^(s+1) at s=0
    corrected_head = tribonacci_number(0)
    rec_a = ErrataRecord(
        key="thm10-z2",
        title="z^2 numerator term of the incomplete-Tribonacci generating function",
        printed="z^2 (T_(2s)(x) - 2 x^(s+1))",
        corrected="z^2 T_(2s)(x)",
        evidence=(f"s=0, x=1: the z^2 head term is {printed_head} (printed) vs "
                  f"{corrected_head} (corrected); first series mismatch at z^{power} "
                  f"(the z^2 slot of the unshifted factor): printed {got} vs direct "
                  f"{want}; corrected matches everywhere swept"),
    )

    # (b) the missing z^(2s+1) prefactor on the x = 1 closed form
    shift_checks = []
    for s in range(3):
        unshifted = gf.series_expand(gf.q_gf_numbers_unshifted(s), order)
        shifted = gf.series_expand(gf.q_gf(s, gf.GFVariant.AS_PRINTED, Fraction(1)),
                                   order + 2 * s + 1)
        aligned = all(unshifted[k] == shifted[k + 2 * s + 1] for k in range(order))
        first_bad = next(
            (k for k in range(order)
             if unshifted[k] != gf.direct_incomplete_coeff(
                 inc.IncompleteFamily.INC_TRIBONACCI, k, s, Fraction(1))),
            None)
        shift_checks.append((s, aligned, first_bad))
    rec_b = ErrataRecord(
        key="eq1.6-shift",
        title="missing z^(2s+1) prefactor on the x = 1 closed form",
        printed="Q_s(z) written without the z^(2s+1) prefactor",
        corrected="Q_s(z) = z^(2s+1) * U_s(z)",
        evidence="; ".join(
            f"s={s}: aligns with the shifted printed form after multiplying by "
            f"z^{2 * s + 1}: {aligned}; direct comparison first mismatches at "
            f"z^{first_bad}" for s, aligned, first_bad in shift_checks),
    )

    # (c) the Tribonacci-Lucas function: stated domain and the z^(2s) boundary
    s1 = gf.gf_vs_direct(inc.IncompleteFamily.INC_TRIBONACCI_LUCAS, 1,
                         gf.GFVariant.CORRECTED, Fraction(1), order)
    # literal combination at z^4 for s=2, x=1: T_5^(2)(1) + 1*T_3^(1)(1) + 2*0,
    # the last term sitting below the level-1 function's prefactor
    literal_z4 = (inc.incomplete_tribonacci_number(5, 2)
                  + inc.incomplete_tribonacci_number(3, 1))
    direct_z4 = inc.incomplete_tl_number(4, 2)
    rec_c = ErrataRecord(
        key="thm12-domain",
        title="Tribonacci-Lucas generating function: domain and boundary term",
        printed="stated for s > 1; literal combination z^(-1) Q_s + (xz + 2z^2) Q_(s-1)",
        corrected=("valid from s = 1 on; assembled with the boundary term "
                   "+ 2 T_(2s-2)(x) z^(2s) restored"),
        evidence=(f"s=1 sweep passes (x=1, order {order}: "
                  f"{'no mismatches' if s1.ok else 'mismatches'}); at s=2, x=1 the "
                  f"literal combination gives {literal_z4} at z^4 vs direct "
                  f"{direct_z4}, short by exactly 2 T_2(1) = 2"),
    )
    return ErrataReport((rec_a, rec_b, rec_c))
