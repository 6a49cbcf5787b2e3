"""Identity catalog, exhaustive sweep runner, and the formula errata report.

Every checkable identity of the Tribonacci-Lucas family treated by this
library is one ``CatalogEntry``, keyed by a stable catalog id: the axes of
its lattice, outermost first, with each bound written once (``Span`` and
``Choice``, then ``POWERS`` for a series); ``sides``, which takes the
coordinates in axis order and returns (lhs, rhs), or under ``POWERS`` also
takes ``order`` and returns two coefficient sequences; and a suffix for
the part of the domain that is not a bound.  To add an identity, append
an entry whose sides call the library through this module's globals,
which is what a tracer patches.  One walker enumerates every lattice,
capped by a SweepRange, comparing the sides with exact arithmetic, and
each report's ``domain:`` note is rendered from the same axes.
``run_all`` drops the series bodies that each id built once the id is done.

Two ids are *expected* to fail: they faithfully reproduce closed forms
whose printed statements disagree with direct enumeration (the z^2
numerator term of the incomplete-Tribonacci generating function, and the
unshifted variant of its x = 1 specialization).  The suite treats an
unexpected pass of those ids as a failure, because it would mean the
faithful reproduction is broken.

Each entry is of one of two kinds.  A *relation* entry (``eq3.7``,
``eq3.8``, ``eq3.9``, ``eq3.10``, ``eq1.5`` and ``thm5``) checks a
recurrence or partial-sum relation among values of one function
(``incomplete_tl_poly``, ``incomplete_tl_number`` or
``incomplete_tribonacci_poly``) at other indices, so both sides read that
function; its values come from the double sums and triangles, never from
the relation.  Every other entry is a *two-path* entry: it compares a
closed form with a recurrence or a definition, and computes its two sides
through separate code.  ``cor4`` is ``prop3`` at x = 1 through
``tl_relation_rhs`` of the number kind, and two-path as its sides' families differ.
"""

from __future__ import annotations

import decimal
import json
import operator
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import genfunc as gf
from . import incomplete as inc
from .errors import DomainError, InternalConsistencyError, UnknownIdentityError
from .sequences import (
    MEMOS,
    _Frozen,
    SequenceFamily,
    binet_estimate,
    tribonacci_lucas_number,
    tribonacci_lucas_poly,
    tribonacci_number,
    tribonacci_poly,
)
from .triangles import (CLOSED_FORM, RECURRENCE, TriangleKind, _entry_function,
                        binomial_diagonal_sum)

PASS = "pass"
FAIL = "fail"
EXPECTED_FAIL = "expected_fail"

MAX_COUNTEREXAMPLES = 10
TRIANGLE_SWEEP_CAP = 30   # dual-method triangle sweep bound at default range
POLY_SWEEP_CAP = 24       # polynomial identity sweeps
RECUR_SWEEP_CAP = 20      # polynomial recurrence / partial-sum sweeps
BINET_PRECISION = 64
BINET_REL_TOL = Fraction(1, 10 ** 6)


class SweepRange(_Frozen):
    """Bounds for the verification sweeps.

    ``n_max`` caps the number sweeps directly; polynomial sweeps use
    min(n_max, 24) and the polynomial recurrence / partial-sum sweeps use
    min(n_max, 20), so lowering n_max shrinks everything uniformly.  The
    x points must be distinct, and without symbolic x there must be one; a
    range that breaks a check raises ``DomainError``.
    Immutable; equal to another range with the same fields, and hashed over
    them.  Every construction, a copy or unpickling included, runs the
    checks; a changed range is a new ``SweepRange(...)``.
    """

    __slots__ = _fields = ("n_max", "s_max", "h_max", "order", "x_points",
                           "include_symbolic")

    def __init__(self, n_max: int = 40, s_max: int = 8, h_max: int = 12, order: int = 48,
                 x_points: Tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(1, 2)),
                 include_symbolic: bool = True):
        self._set(n_max, s_max, h_max, order, x_points, include_symbolic)
        for name in ("n_max", "s_max", "h_max", "order"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        xs = [Fraction(x) for x in x_points]
        for k, x in enumerate(xs):
            if x in xs[:k]:
                raise DomainError(f"x_points must be distinct, got {x} twice")
        if not xs and not include_symbolic:
            raise DomainError("x_points must not be empty without symbolic x")

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


class Failure(NamedTuple):
    """One counterexample: parameter point plus both renderings.

    Immutable; compares and hashes as the tuple of its fields.
    """

    params: Tuple[Tuple[str, str], ...]
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


class IdentityReport(NamedTuple):
    """The outcome of one catalog id's sweep.

    Immutable; compares and hashes as the tuple of its fields.
    """

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


def _render_binet(value) -> str:
    # The estimate is an exact Fraction over 2^bits; its full numerator and
    # denominator run to hundreds of digits, so print 20 significant digits.
    if isinstance(value, Fraction):
        with decimal.localcontext() as ctx:
            ctx.prec = 20
            return str(decimal.Decimal(value.numerator) / value.denominator)
    return gf.render_coeff(value)


def _within_binet_tol(estimate, value: int) -> bool:
    # |estimate - value| <= tol * max(1, value), in Fraction/int arithmetic:
    # a float bound overflows once value passes about 1.8e308.
    tol = BINET_REL_TOL
    return abs(estimate - value) * tol.denominator <= tol.numerator * max(1, value)


# -- lattices -----------------------------------------------------------------

class Formula(NamedTuple):
    """A bound computed from the outer coordinates, printed as ``text``.  The
    other bounds, ints and functions of the SweepRange, print their value."""

    text: str
    of: Callable[[dict], int]


def _value(bound, rng: SweepRange, point: dict) -> int:
    if isinstance(bound, Formula):
        return bound.of(point)
    return bound if isinstance(bound, int) else bound(rng)


def _text(bound, rng: SweepRange) -> str:
    return bound.text if isinstance(bound, Formula) else str(_value(bound, rng, {}))


class Span(NamedTuple):
    """``low <= name <= high``, stepped by one; ``name = low`` when the bounds agree."""

    name: str
    low: object
    high: object

    def values(self, rng: SweepRange, point: dict) -> range:
        return range(_value(self.low, rng, point), _value(self.high, rng, point) + 1)

    def clause(self, rng: SweepRange) -> str:
        if self.low == self.high:
            return f"{self.name} = {_text(self.low, rng)}"
        return f"{_text(self.low, rng)} <= {self.name} <= {_text(self.high, rng)}"


class Choice(NamedTuple):
    """A tuple of values, or a function of the SweepRange; the suffix names them."""

    name: str
    options: object

    def values(self, rng: SweepRange, point: dict) -> Sequence:
        return self.options if isinstance(self.options, tuple) else self.options(rng)


POWERS = Choice("power", ())   # innermost: every power below the order
N_MAX = operator.attrgetter("n_max")
N_POLY = operator.attrgetter("n_max_poly")
N_RECUR = operator.attrgetter("n_max_recur")
S_MAX = operator.attrgetter("s_max")
H_MAX = operator.attrgetter("h_max")
UP_TO_N = Formula("n", lambda p: p["n"])
HALF_N = Formula("floor(n/2)", lambda p: p["n"] // 2)
HALF_N_1 = Formula("floor((n-1)/2)", lambda p: (p["n"] - 1) // 2)
HALF_N_2 = Formula("floor((n-2)/2)", lambda p: (p["n"] - 2) // 2)
X_MODES = Choice("x", SweepRange.x_modes)
X_ONE = Choice("x", (Fraction(1),))


def _x_set(rng: SweepRange) -> str:
    xs = ", ".join(str(x) for x in rng.x_modes() if x is not None)
    return f"x in {{{xs}}}" + (" and symbolic x" if rng.include_symbolic else "")


def _params(point: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple((k, "symbolic" if v is None else gf.render_coeff(v)) for k, v in point.items())


def _walk(axes, rng: SweepRange, point: dict) -> Iterator[dict]:
    # each point of the lattice, as one dict updated in place
    if not axes:
        yield point
        return
    axis = axes[0]
    for value in axis.values(rng, point):
        point[axis.name] = value
        yield from _walk(axes[1:], rng, point)


class CatalogEntry(NamedTuple):
    """One checkable identity: its lattice, its sides and how to report it.

    Immutable; compares and hashes as the tuple of its fields.
    """

    id: str
    description: str
    formula_key: str
    axes: Tuple[Union[Span, Choice], ...]
    sides: Callable[..., Tuple[object, object]]
    suffix: Union[str, Callable[[SweepRange], str]] = ""
    expects_failures: bool = False
    extra_notes: str = ""
    agree: Callable[[object, object], bool] = operator.eq
    render: Callable[[object], str] = gf.render_coeff

    def points(self, rng: SweepRange) -> Iterator[Tuple[dict, object, object]]:
        """(point, lhs, rhs) at each point of the lattice, in walk order.

        The range was checked when it was built, so a ``DomainError`` from
        the sides is a library bug: it is raised as an
        ``InternalConsistencyError`` that names the id and the point.
        """
        *outer, inner = self.axes
        sides = self.sides
        point: dict = {}
        try:
            for _ in _walk(outer, rng, point):
                args = [point[axis.name] for axis in outer]
                if inner is POWERS:
                    point.pop("power", None)    # the series are built before any power
                    for power, (lhs, rhs) in enumerate(zip(*sides(*args, rng.order))):
                        point["power"] = power
                        yield point, lhs, rhs
                else:
                    args.append(None)
                    for value in inner.values(rng, point):
                        args[-1] = point[inner.name] = value
                        lhs, rhs = sides(*args)
                        yield point, lhs, rhs
        except DomainError as exc:
            where = ", ".join(f"{k}={v}" for k, v in _params(point))
            raise InternalConsistencyError(f"{self.id} at {where}: {exc}") from exc

    def domain(self, rng: SweepRange) -> str:
        clauses = []
        for outer, axis in zip((None,) + self.axes, self.axes):
            if axis is POWERS:
                clauses.append(f"order {rng.order}")
            elif isinstance(axis, Span) and axis.high is UP_TO_N:   # 0 <= i <= n <= 30
                clauses[-1] = f"{axis.clause(rng)} <= {_text(outer.high, rng)}"
            elif isinstance(axis, Span):
                clauses.append(axis.clause(rng))
        suffix = self.suffix(rng) if callable(self.suffix) else self.suffix
        return ", ".join(clauses + [suffix] if suffix else clauses)


# -- sides and catalog --------------------------------------------------------

_TRIB = inc.IncompleteFamily.INC_TRIBONACCI
_TL = inc.IncompleteFamily.INC_TRIBONACCI_LUCAS
_BINET_NOTE = f"relative tolerance 1e-6, {BINET_PRECISION}-bit floats"


def _triangle(kind: TriangleKind, n: int, i: int):
    entry = _entry_function(kind)
    return entry(n, i, CLOSED_FORM), entry(n, i, RECURRENCE)


def _boundary(which: str):
    return lambda n, s: (inc.boundary_form(n, which), inc.incomplete_tl_poly(n, s))


def _recurrence(variant: str):
    return lambda n, s: inc.recurrence_step(n, s, variant)


def _at_one(family: str, n: int):
    if family == "tribonacci":
        return tribonacci_poly(n).evaluate(1), tribonacci_number(n)
    return tribonacci_lucas_poly(n).evaluate(1), tribonacci_lucas_number(n)


class _Series(NamedTuple):
    """The sides of a series id: the expansion of ``pair(s, x)`` against the
    direct values of ``family`` at level s and x.  They take s, then x, then
    the order; ``fixed_x`` is (x,) for a lattice without an x axis.  The
    expansion's body lives until its id ends under ``run_all``; the direct
    values are memoised per (family, s, x, order) and shared by the
    family's ids."""

    family: inc.IncompleteFamily
    pair: Callable[[int, Optional[Fraction]], gf.RationalGF]
    fixed_x: Tuple[Fraction, ...] = ()

    def __call__(self, s: int, *x_order):
        x, order = self.fixed_x + x_order
        return (gf.series_expand(self.pair(s, x), order).coeffs,
                gf.direct_series(self.family, s, x, order))


def _q_series(variant: gf.GFVariant) -> _Series:
    return _Series(_TRIB, lambda s, x: gf.q_gf(s, variant, x))


_W_SERIES = _Series(_TL, lambda s, x: gf.w_gf(s, x))


_CATALOG: Dict[str, CatalogEntry] = {entry.id: entry for entry in (
    CatalogEntry("eq2.2", "Tribonacci-Lucas numbers as the rising-diagonal double binomial sum",
                 "2.2", (Span("n", 1, N_MAX),), lambda n: (
                     binomial_diagonal_sum(TriangleKind.NUMBERS, n), tribonacci_lucas_number(n))),
    CatalogEntry("eq2.4", "Tribonacci-Lucas polynomials as the rising-diagonal double binomial "
                 "sum", "2.4", (Span("n", 1, N_POLY),),
                 lambda n: (binomial_diagonal_sum(TriangleKind.POLYNOMIALS, n),
                            tribonacci_lucas_poly(n))),
    CatalogEntry("closed-vs-recurrence-triangle",
                 "triangle entries: closed binomial forms equal the table recurrences, both kinds",
                 "2.1 / 2.3 + closed forms",
                 (Choice("kind", tuple(TriangleKind)),
                  Span("n", 0, lambda rng: min(rng.n_max, TRIANGLE_SWEEP_CAP)),
                  Span("i", 0, UP_TO_N)), _triangle, suffix="both kinds"),
    CatalogEntry("def1-methods", "incomplete Tribonacci-Lucas polynomials: triangle partial sums "
                 "equal the truncated double sum", "3.1",
                 (Span("n", 0, N_POLY), Span("s", 0, HALF_N)),
                 lambda n, s: (inc.incomplete_tl_poly(n, s),
                               inc.incomplete_tl_poly(n, s, inc.BINOMIAL_SUM))),
    CatalogEntry("eq3.3", "level-0 incomplete Tribonacci-Lucas polynomial is x^(2n)",
                 "3.3", (Span("n", 1, N_POLY), Span("s", 0, 0)), _boundary(inc.EQ33)),
    CatalogEntry("eq3.4", "level-1 incomplete Tribonacci-Lucas polynomial closed form",
                 "3.4", (Span("n", 3, N_POLY), Span("s", 1, 1)), _boundary(inc.EQ34)),
    CatalogEntry("eq3.5", "maximum truncation level recovers the complete polynomial",
                 "3.5", (Span("n", 1, N_POLY), Span("s", HALF_N, HALF_N)), _boundary(inc.EQ35)),
    CatalogEntry("eq3.6", "second-to-maximum level: complete polynomial minus the top diagonal "
                 "entry", "3.6", (Span("n", 2, N_POLY), Span("s", HALF_N_2, HALF_N_2)),
                 _boundary(inc.EQ36)),
    CatalogEntry("eq3.7", "homogeneous recurrence of the incomplete Tribonacci-Lucas polynomials",
                 "3.7", (Span("n", 1, N_RECUR), Span("s", 0, HALF_N)),
                 _recurrence(inc.HOM_POLY_37)),
    CatalogEntry("eq3.8", "non-homogeneous recurrence of the incomplete Tribonacci-Lucas "
                 "polynomials", "3.8", (Span("n", 1, N_RECUR), Span("s", 0, HALF_N)),
                 _recurrence(inc.NONHOM_POLY_38)),
    CatalogEntry("eq3.9", "homogeneous recurrence of the incomplete Tribonacci-Lucas numbers",
                 "3.9", (Span("n", 1, N_MAX), Span("s", 0, HALF_N)), _recurrence(inc.HOM_NUM_39)),
    CatalogEntry("eq3.10", "non-homogeneous recurrence of the incomplete Tribonacci-Lucas numbers",
                 "3.10", (Span("n", 1, N_MAX), Span("s", 0, HALF_N)),
                 _recurrence(inc.NONHOM_NUM_310)),
    CatalogEntry("eq1.5", "non-homogeneous recurrence of the incomplete Tribonacci polynomials",
                 "1.5", (Span("n", 1, N_RECUR), Span("s", 0, HALF_N_1)),
                 _recurrence(inc.TRI_NONHOM_15)),
    CatalogEntry("prop3", "incomplete Tribonacci-Lucas polynomials from incomplete Tribonacci "
                 "polynomials", "Prop 3", (Span("n", 3, N_POLY), Span("s", 1, HALF_N_1)),
                 lambda n, s: (inc.tl_relation_rhs(n, s), inc.incomplete_tl_poly(n, s))),
    CatalogEntry("cor4", "the cross-family relation at x = 1",
                 "Cor 4", (Span("n", 3, N_MAX), Span("s", 1, HALF_N_1)),
                 lambda n, s: (inc.tl_relation_rhs(n, s, TriangleKind.NUMBERS),
                               inc.incomplete_tl_number(n, s))),
    CatalogEntry("thm5", "partial sums of incomplete Tribonacci-Lucas numbers, with checked "
                 "halving", "3.11", (Span("n", 1, N_RECUR), Span("h", 1, H_MAX),
                                     Span("s", 0, HALF_N)),
                 lambda n, h, s: inc.partial_sum_lhs_rhs(n, h, s)),
    CatalogEntry("prop6", "row sums of the incomplete polynomial table", "3.12",
                 (Span("n", 1, N_POLY),),
                 lambda n: inc.row_sum_lhs_rhs(n, TriangleKind.POLYNOMIALS), suffix="polynomials"),
    CatalogEntry("cor8", "row sums of the incomplete number table", "3.13",
                 (Span("n", 1, N_MAX),),
                 lambda n: inc.row_sum_lhs_rhs(n, TriangleKind.NUMBERS), suffix="numbers"),
    CatalogEntry("binet-T", "Tribonacci closed form over the characteristic roots vs the "
                 "recurrence", "1.3 (with 1.1)", (Span("n", 0, N_MAX),),
                 lambda n: (binet_estimate(n, SequenceFamily.TRIBONACCI_NUMBER, BINET_PRECISION),
                            tribonacci_number(n)),
                 suffix=_BINET_NOTE, agree=_within_binet_tol, render=_render_binet),
    CatalogEntry("binet-K", "Tribonacci-Lucas closed form over the characteristic roots vs the "
                 "recurrence", "1.3 (with 1.2)", (Span("n", 0, N_MAX),),
                 lambda n: (binet_estimate(n, SequenceFamily.TRIBONACCI_LUCAS_NUMBER,
                                           BINET_PRECISION), tribonacci_lucas_number(n)),
                 suffix=_BINET_NOTE, agree=_within_binet_tol, render=_render_binet),
    CatalogEntry("poly-at-1", "polynomial families at x = 1 reduce to the number families",
                 "polynomial recurrences",
                 (Choice("family", ("tribonacci", "tribonacci-lucas")), Span("n", 0, N_MAX)),
                 _at_one, suffix="both families"),
    CatalogEntry("thm10-printed", "incomplete-Tribonacci generating function with the printed z^2 "
                 "numerator term", "Thm 10 (printed)", (Span("s", 0, S_MAX), X_MODES, POWERS),
                 _q_series(gf.GFVariant.AS_PRINTED), suffix=_x_set, expects_failures=True,
                 extra_notes=("faithful reproduction of the printed form; its z^2 term "
                              "T_2s(x) - 2x^(s+1) first mismatches direct values at the "
                              "z^2 slot of the unshifted factor (power 2s+3)")),
    CatalogEntry("thm10-corrected", "incomplete-Tribonacci generating function with the "
                 "corrected z^2 numerator term", "Thm 10 (corrected)",
                 (Span("s", 0, S_MAX), X_MODES, POWERS), _q_series(gf.GFVariant.CORRECTED),
                 suffix=_x_set,
                 extra_notes="corrected z^2 term is T_2s(x); derived from the comparator"),
    CatalogEntry("cor11", "incomplete-Tribonacci number generating function (corrected, x = 1)",
                 "Cor 11", (Span("s", 0, S_MAX), X_ONE, POWERS),
                 _q_series(gf.GFVariant.CORRECTED), suffix="x = 1"),
    CatalogEntry("thm12", "incomplete Tribonacci-Lucas generating function from two Tribonacci "
                 "ones", "Thm 12", (Span("s", 1, S_MAX), X_MODES, POWERS), _W_SERIES,
                 suffix=_x_set,
                 extra_notes=("stated for s > 1 but verified from s = 1 on; the assembled "
                              "function restores the boundary term 2 T_(2s-2)(x) z^(2s) "
                              "that the literal combination drops for s >= 2")),
    CatalogEntry("cor13", "incomplete Tribonacci-Lucas number generating function (x = 1)",
                 "Cor 13", (Span("s", 1, S_MAX), X_ONE, POWERS), _W_SERIES, suffix="x = 1"),
    CatalogEntry("eq1.6-shift", "unshifted printed number generating function (off by the "
                 "z^(2s+1) prefactor)", "1.6", (Span("s", 0, S_MAX), POWERS),
                 _Series(_TRIB, lambda s, x: gf.q_gf_numbers_unshifted(s), (Fraction(1),)),
                 suffix="x = 1, no prefactor", expects_failures=True,
                 extra_notes=("matches the shifted printed form only after multiplying by "
                              "z^(2s+1); compared directly against the incomplete numbers "
                              "it mismatches from the start")),
)}


def list_identities() -> List[Tuple[str, str, str]]:
    """The full stable catalog as (id, description, formula key) triples."""
    return [(entry.id, entry.description, entry.formula_key)
            for entry in _CATALOG.values()]


def run_identity(identity_id: str, rng: Optional[SweepRange] = None) -> IdentityReport:
    """Exhaustively sweep one identity over its parameter lattice.

    Releases nothing: the series bodies the sweep builds stay in their memo.
    ``run_all`` is the run path that drops them.
    """
    if identity_id not in _CATALOG:
        raise UnknownIdentityError(identity_id)
    rng = rng or SweepRange()
    entry = _CATALOG[identity_id]
    points = total_failures = 0
    examples: List[Failure] = []
    for point, lhs, rhs in entry.points(rng):
        points += 1
        if not entry.agree(lhs, rhs):
            total_failures += 1
            if len(examples) < MAX_COUNTEREXAMPLES:
                examples.append(Failure(_params(point), entry.render(lhs), entry.render(rhs)))
    notes = f"domain: {entry.domain(rng)}"
    if entry.extra_notes:
        notes += f"; {entry.extra_notes}"
    if not entry.expects_failures:
        status = PASS if total_failures == 0 else FAIL
    elif total_failures:
        status = EXPECTED_FAIL
    else:
        status = FAIL
        notes += ("; UNEXPECTED: the reproduced form matched direct values, "
                  "so the faithful reproduction is broken")
    return IdentityReport(identity_id, points, tuple(examples), total_failures, status, notes)


def run_all(rng: Optional[SweepRange] = None,
            ids: Optional[Sequence[str]] = None) -> List[IdentityReport]:
    """Run the catalog ids ``ids`` in the given order, repeats included, or
    every catalog entry in catalog order when ``ids`` is None.

    Right after each id, the run drops from the series-body memo
    (``genfunc.series_expand`` in ``sequences.MEMOS``) every body that the
    id created, so the sweep holds the bodies of one id at a time.
    ``cor11`` and ``cor13`` therefore expand again the x = 1 bodies that
    ``thm10-corrected`` and ``thm12`` built.  Bodies that existed before
    the id stay, extended if it read them, and so does every other memo,
    the direct series included: a library session keeps what it built.
    """
    if rng is None:
        rng = SweepRange()
    bodies = MEMOS["genfunc.series_expand"]
    reports = []
    for identity_id in _CATALOG if ids is None else ids:
        before = set(bodies)
        reports.append(run_identity(identity_id, rng))
        for key in bodies.keys() - before:
            bodies.pop(key, None)
    return reports


def overall_success(reports: Sequence[IdentityReport]) -> bool:
    return all(r.status in (PASS, EXPECTED_FAIL) for r in reports)


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    """Deterministic JSON array of reports (schema v1)."""
    return json.dumps([r.to_json_dict() for r in reports],
                      separators=(",", ":"), sort_keys=False)


# -- errata -------------------------------------------------------------------

class ErrataRecord(NamedTuple):
    """One discrepancy of a printed formula, with live-computed evidence.

    Immutable; compares and hashes as the tuple of its fields.
    """

    key: str
    title: str
    printed: str
    corrected: str
    evidence: str

    def to_json_dict(self) -> dict:
        return {"key": self.key, "title": self.title, "printed": self.printed,
                "corrected": self.corrected, "evidence": self.evidence}


class ErrataReport(NamedTuple):
    """The errata records in report order.

    Immutable; compares and hashes as the tuple of its fields.
    """

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
