import copy
import gc
import hashlib
import operator
import pickle
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from triblucas import genfunc as gf
from triblucas import incomplete as inc
from triblucas import verify
from triblucas.errors import DomainError, ExpansionError, UnknownIdentityError
from triblucas.sequences import (
    MEMOS,
    SequenceFamily,
    binet_estimate,
    tribonacci_lucas_number,
    tribonacci_number,
)
from triblucas.triangles import TriangleKind, TriangleTable
from triblucas.verify import (
    BINET_PRECISION,
    EXPECTED_FAIL,
    FAIL,
    PASS,
    CatalogEntry,
    ErrataRecord,
    ErrataReport,
    Failure,
    IdentityReport,
    Span,
    SweepRange,
    errata_report,
    list_identities,
    overall_success,
    reports_to_json,
    run_all,
    run_identity,
    _CATALOG,
    _render_binet,
    _within_binet_tol,
)

EXPECTED_IDS = [
    "eq2.2", "eq2.4", "closed-vs-recurrence-triangle", "def1-methods",
    "eq3.3", "eq3.4", "eq3.5", "eq3.6", "eq3.7", "eq3.8", "eq3.9", "eq3.10",
    "eq1.5", "prop3", "cor4", "thm5", "prop6", "cor8", "binet-T", "binet-K",
    "poly-at-1", "thm10-printed", "thm10-corrected", "cor11", "thm12",
    "cor13", "eq1.6-shift",
]

SMALL = SweepRange(n_max=10, s_max=2, h_max=4, order=12)
BODIES = MEMOS["genfunc.series_expand"]
HALF, TWO = Fraction(1, 2), Fraction(2)
# The series ids at s <= 3 and order 24, with x = 1 among the x points (the
# direct series at x = 1 are then built before cor11, cor13 and eq1.6-shift
# read them) and without it.
SCOPED = {
    "with-one": SweepRange(n_max=8, s_max=3, h_max=2, order=24,
                           x_points=(Fraction(1), TWO, HALF)),
    "without-one": SweepRange(n_max=8, s_max=3, h_max=2, order=24, x_points=(TWO, HALF)),
}


def test_catalog_is_complete_and_stable():
    catalog = list_identities()
    assert [identity_id for identity_id, _, _ in catalog] == EXPECTED_IDS
    assert len(catalog) == 27
    for identity_id, description, formula_key in catalog:
        assert description and formula_key


def test_every_catalog_entry_runs():
    reports = run_all(SMALL)
    assert [r.id for r in reports] == EXPECTED_IDS
    for report in reports:
        assert report.points_checked > 0, report.id


def test_run_all_runs_the_given_ids_in_order_with_repeats():
    ids = ["cor11", "eq3.3", "thm10-corrected", "cor11", "eq2.2"]
    reports = run_all(SMALL, ids)
    assert [r.id for r in reports] == ids
    assert reports == [run_identity(identity_id, SMALL) for identity_id in ids]


def test_statuses_partition_as_documented():
    reports = run_all(SMALL)
    by_id = {r.id: r for r in reports}
    for identity_id, report in by_id.items():
        if identity_id in ("thm10-printed", "eq1.6-shift"):
            assert report.status == EXPECTED_FAIL, identity_id
            assert report.total_failures > 0
            assert report.failures
        else:
            assert report.status == PASS, (identity_id, report.notes)
            assert report.total_failures == 0
    assert overall_success(reports)


def test_run_identity_examples():
    assert run_identity("eq3.9", SMALL).status == PASS

    printed = run_identity("thm10-printed", SMALL)
    assert printed.status == EXPECTED_FAIL
    first = printed.failures[0]
    assert dict(first.params) == {"s": "0", "x": "1", "power": "3"}

    thm5 = run_identity("thm5", SweepRange(n_max=20, h_max=12, order=8))
    assert thm5.status == PASS and thm5.total_failures == 0


def test_def1_methods_fills_the_default_tl_memo():
    # Its triangle side is the default method, so later default-form calls
    # are served from the memo instead of being built and stored again.
    inc.incomplete_tl_poly.cache_clear()
    run_identity("def1-methods", SMALL)
    before = inc.incomplete_tl_poly.cache_info()
    for n in range(SMALL.n_max_poly + 1):
        for s in range(n // 2 + 1):
            inc.incomplete_tl_poly(n, s)
    after = inc.incomplete_tl_poly.cache_info()
    assert after.misses == before.misses
    assert after.currsize == before.currsize


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        run_identity("nosuch", SMALL)


def test_counterexamples_capped_but_counted():
    printed = run_identity("thm10-printed", SMALL)
    assert len(printed.failures) == 10
    assert printed.total_failures > 10


def test_expected_fail_inverts_when_mismatch_invisible():
    # With only two coefficients expanded the printed defect (power 2s+3)
    # is out of view, so the faithful-reproduction guard must flag it.
    tiny = SweepRange(n_max=2, s_max=1, order=2)
    report = run_identity("thm10-printed", tiny)
    assert report.status == FAIL
    assert "UNEXPECTED" in report.notes


def test_reports_shrink_with_range_but_statuses_hold():
    tiny = SweepRange(n_max=6, s_max=1, h_max=2, order=8)
    reports = run_all(tiny)
    assert overall_success(reports)
    statuses = {r.id: r.status for r in reports}
    assert statuses["thm10-printed"] == EXPECTED_FAIL
    assert statuses["thm10-corrected"] == PASS


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_determinism_byte_identical_json():
    first = reports_to_json(run_all(SMALL))
    second = reports_to_json(run_all(SMALL))
    assert first == second
    assert first.startswith('[{"id":"eq2.2"')
    # Pinned bytes: a refactor of the sweep machinery must not move them.
    assert _sha256(first) == (
        "3b78f1f5a11cf1e7f7d38980f3b2091d1cb9716cb1d2b77a9ccd6d9e40abd379")
    other_x = SweepRange(n_max=10, s_max=2, h_max=4, order=12,
                         x_points=(Fraction(3, 5), Fraction(-2), Fraction(7, 3)))
    assert _sha256(reports_to_json(run_all(other_x))) == (
        "d025ae1bf92ae68a286739f6720d66ae7d994ca724913fcdcf4dcaf1330c06f8")
    # Without the symbolic mode the gf ids walk the rational x values only.
    no_symbolic = SweepRange(n_max=10, s_max=2, h_max=4, order=12, include_symbolic=False)
    assert _sha256(reports_to_json(run_all(no_symbolic))) == (
        "d4a2cd021b6b951219652de8c23d6bc200a0ee3df6fb1d63381a1c50dc784f4d")
    # Denominators above 2 at a wider range reach the common-denominator
    # expansion kernel with large scales.
    wider = SweepRange(n_max=14, s_max=4, h_max=4, order=32,
                       x_points=(Fraction(-5, 7), Fraction(9, 4), Fraction(-3)))
    assert _sha256(reports_to_json(run_all(wider))) == (
        "db30a37c8aa37367038b8551522bfbdcc6bd10acdceb0765981c604d641a73c5")


def test_binet_tolerance_is_exact_beyond_float_range(monkeypatch):
    # T_1300 and K_1300 are about 10^343, past the largest float, so a float
    # bound would overflow; the comparison stays in Fraction/int arithmetic.
    n = 1300
    for family, exact in [(SequenceFamily.TRIBONACCI_NUMBER, tribonacci_number(n)),
                          (SequenceFamily.TRIBONACCI_LUCAS_NUMBER,
                           tribonacci_lucas_number(n))]:
        estimate = binet_estimate(n, family, BINET_PRECISION)
        assert exact > 10 ** 309
        assert _within_binet_tol(estimate, exact)
        assert not _within_binet_tol(estimate, exact + exact // 10 ** 5)
        # a witness prints 20 significant digits, not the 2^bits fraction
        shown = _render_binet(estimate)
        assert len(shown) <= 26 and shown.endswith(f"E+{len(str(exact)) - 1}")
        assert shown[0] + shown[2:12] == str(exact)[:11]
    assert _CATALOG["binet-T"].agree is _within_binet_tol
    assert _CATALOG["binet-K"].agree is _within_binet_tol
    # A wrong estimate fails the sweep with a readable witness on each side.
    import triblucas.verify as verify_mod
    exact_of = verify_mod.binet_estimate
    monkeypatch.setattr(verify_mod, "binet_estimate",
                        lambda k, fam, p: exact_of(k, fam, p) * Fraction(1001, 1000))
    report = run_identity("binet-K", SweepRange(n_max=3, s_max=1, h_max=1, order=4))
    assert report.status == FAIL and report.total_failures == 4
    first = report.failures[0]
    assert (first.params, first.lhs, first.rhs) == ((("n", "0"),), "3.003", "3")
    assert all(len(f.lhs) <= 22 for f in report.failures)


def test_report_json_shape():
    import json
    payload = json.loads(reports_to_json([run_identity("eq2.2", SMALL)]))
    assert list(payload[0]) == ["id", "status", "points_checked",
                                "total_failures", "failures", "notes"]
    assert payload[0]["status"] == "pass"
    assert "domain" in payload[0]["notes"]


def test_concurrent_equals_serial():
    ids = ["eq3.3", "eq2.2", "thm5", "prop3"]
    serial = [run_identity(i, SMALL) for i in ids]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda i: run_identity(i, SMALL), ids))
    assert serial == concurrent


def test_sweep_range_validation():
    with pytest.raises(ValueError):
        SweepRange(n_max=0)
    with pytest.raises(ValueError):
        SweepRange(order=0)
    # a repeated x would be swept twice; no x mode at all leaves the gf ids
    # an empty lattice, on which they would pass without checking anything
    with pytest.raises(ValueError, match="got 1/2 twice"):
        SweepRange(x_points=(Fraction(1, 2), 3, Fraction(2, 4)))
    with pytest.raises(ValueError, match="must not be empty"):
        SweepRange(x_points=(), include_symbolic=False)
    assert SweepRange(x_points=()).x_modes() == [None]


def test_domain_note_names_the_x_values_swept():
    # the sweep reads x_points as Fractions, and the note prints what it sweeps
    rng = SweepRange(s_max=1, order=4, x_points=(0.25, "3/6", 2), include_symbolic=False)
    report = run_identity("thm10-corrected", rng)
    assert report.notes.startswith("domain: 0 <= s <= 1, order 4, x in {1/4, 1/2, 2};")
    assert report.points_checked == 2 * 3 * 4


def test_sweep_range_derived_caps():
    assert SweepRange().n_max_poly == 24
    assert SweepRange().n_max_recur == 20
    assert SweepRange(n_max=6).n_max_poly == 6
    assert SweepRange(n_max=6).n_max_recur == 6


def test_errata_records():
    report = errata_report()
    keys = [record.key for record in report.records]
    assert keys == ["thm10-z2", "eq1.6-shift", "thm12-domain"]

    z2 = report.records[0]
    assert z2.corrected == "z^2 T_(2s)(x)"
    assert "-2 (printed) vs 0 (corrected)" in z2.evidence
    assert "z^3" in z2.evidence

    shift = report.records[1]
    assert "z^1: True" in shift.evidence
    assert "z^3: True" in shift.evidence

    domain = report.records[2]
    assert "s=1 sweep passes" in domain.evidence
    assert "9 at z^4 vs direct 11" in domain.evidence

    text = report.render()
    assert text.startswith("FORMULA ERRATA")
    for record in report.records:
        assert record.key in text


@pytest.mark.parametrize("case", SCOPED)
def test_run_all_releases_the_entries_it_created(case, monkeypatch):
    rng = SCOPED[case]
    BODIES.clear()
    # built before the run, at a key the run reads too
    pair = gf.q_gf(1, gf.GFVariant.CORRECTED, TWO)
    gf.series_expand(pair, 8)
    before = set(BODIES)
    started = Counter()
    run = verify.run_identity

    def checking(identity_id, rng):
        # every id starts from the bodies that were there before the run
        assert set(BODIES) == before, identity_id
        started[identity_id] += 1
        return run(identity_id, rng)

    monkeypatch.setattr(verify, "run_identity", checking)
    run_all(rng)                      # fills every other memo of the run
    assert started == Counter(EXPECTED_IDS)
    assert set(BODIES) == before
    assert len(BODIES[gf.series_key(pair)]) == 24 - pair.shift
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_all(rng)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert set(BODIES) == before
    assert started == Counter(EXPECTED_IDS * 2)
    # about 0.6 kB; kept to the end of the run, the bodies would hold about 200 kB
    assert left < 20_000


# Bodies built by the ids of one run, plus direct series: with x = 1 swept,
# cor11 and cor13 expand again the 4 + 3 corrected x = 1 bodies that
# thm10-corrected and thm12 built, while every direct series is built once.
@pytest.mark.parametrize("case, built", [("with-one", 55 + 28), ("without-one", 44 + 28)])
def test_run_all_builds_each_series_entry_once(case, built, monkeypatch):
    BODIES.clear()
    gf.direct_series.cache_clear()
    created = []
    run = verify.run_identity

    def counting(identity_id, rng):
        before = set(BODIES)
        report = run(identity_id, rng)
        created.extend((identity_id, key) for key in BODIES if key not in before)
        return report

    monkeypatch.setattr(verify, "run_identity", counting)
    run_all(SCOPED[case])
    direct = gf.direct_series.cache_info()
    assert direct.misses == direct.currsize == 28
    assert len(created) + direct.misses == built
    counts = Counter(key for _, key in created)
    rebuilt = {identity_id for identity_id, key in created if counts[key] > 1}
    assert max(counts.values()) <= 2
    assert rebuilt == ({"thm10-corrected", "cor11", "thm12", "cor13"}
                       if case == "with-one" else set())


# The 12 record types: each builds one value from fresh, equal fields.
RECORD = ErrataRecord("k", "title", "printed", "corrected", "evidence")
VALUES = {
    "TriangleTable": lambda: TriangleTable(TriangleKind.NUMBERS, ((3,), (0, 2))),
    "IncompleteIndex": lambda: inc.IncompleteIndex(6, 3, inc.IncompleteFamily.INC_TRIBONACCI_LUCAS),
    "PowerSeries": lambda: gf.PowerSeries((1, Fraction(1, 2))),
    "RationalGF": lambda: gf.RationalGF((1,), (1, -1), 2),
    "Lemma9Spec": lambda: gf.Lemma9Spec(1, 1, 1, 3, 1, 3),
    "GFComparison": lambda: gf.GFComparison(inc.IncompleteFamily.INC_TRIBONACCI, 0,
                                            gf.GFVariant.CORRECTED, None, 2,
                                            gf.PowerSeries((0, 1)), ()),
    "SweepRange": lambda: SweepRange(n_max=5, x_points=(Fraction(3), Fraction(1, 3))),
    "Failure": lambda: Failure((("n", "3"),), "1", "2"),
    "IdentityReport": lambda: IdentityReport("eq2.2", 3, (), 0, PASS, "domain: 1 <= n <= 3"),
    "CatalogEntry": lambda: CatalogEntry("id", "description", "key", (Span("n", 1, 3),),
                                         operator.add),
    "ErrataRecord": lambda: ErrataRecord(*RECORD),
    "ErrataReport": lambda: ErrataReport((RECORD, RECORD)),
}


@pytest.mark.parametrize("name", VALUES)
def test_record_types_are_immutable_values(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    first = type(a)._fields[0]
    for attr in (first, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    with pytest.raises(AttributeError):
        delattr(a, first)
    text = repr(a)
    assert text.startswith(f"{name}(")
    assert all(f"{field}=" in text for field in type(a)._fields)


def test_rational_gf_equality_ignores_factors():
    q = gf.q_gf(2)
    plain = gf.RationalGF(q.numerator, q.denominator, q.shift)
    assert q.factors and not plain.factors
    assert q == plain and hash(q) == hash(plain)
    assert q != gf.RationalGF(q.numerator, q.denominator, q.shift + 1)


@pytest.mark.parametrize("cls, bad", [
    (SweepRange, (0, 8, 12, 48, (1, 2), True)),
    (SweepRange, (40, 8, 12, 0, (1, 2), True)),
    (SweepRange, (40, 8, 12, 48, (1, Fraction(2, 2)), True)),
    (SweepRange, (40, 8, 12, 48, (), False)),
    (inc.IncompleteIndex, (6, 3, inc.IncompleteFamily.INC_TRIBONACCI)),
    (inc.IncompleteIndex, (0, 0, inc.IncompleteFamily.INC_TRIBONACCI)),
    (gf.RationalGF, ((1,), (2, 1), 0, ())),
    (gf.RationalGF, ((1,), (), 0, ())),
    (gf.RationalGF, ((1,), (1, -1), -1, ())),
    (gf.RationalGF, ((1,), (1, -1), 0, ((1, 1),))),
    (gf.RationalGF, ((1,), (2, 2), 0, ((2, 2),))),
])
def test_validating_types_check_every_construction(cls, bad):
    errors = (ValueError, DomainError, ExpansionError)
    with pytest.raises(errors):
        cls(*bad)
    with pytest.raises(errors):
        cls(**dict(zip(cls._fields, bad)))
    # No tuple-style path builds one around the checks, and a copy or an
    # unpickled value is rebuilt through them: fields forced in past the
    # constructor are refused there.
    assert not hasattr(cls, "_replace") and not hasattr(cls, "_make")
    forged = object.__new__(cls)
    for field, value in zip(cls._fields, bad):
        object.__setattr__(forged, field, value)
    with pytest.raises(errors):
        copy.copy(forged)
    with pytest.raises(errors):
        pickle.loads(pickle.dumps(forged))
