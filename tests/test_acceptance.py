"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a green run.
"""

import functools
import json
import time
from fractions import Fraction
from pathlib import Path

from triblucas.cli import main
from triblucas.genfunc import GFVariant, gf_vs_direct, q_gf, series_expand
from triblucas.incomplete import IncompleteFamily
from triblucas.sequences import (
    SequenceFamily,
    _vieta_residuals,
    binet_estimate,
    binet_roots,
    tribonacci_lucas_number,
    tribonacci_lucas_poly,
    tribonacci_number,
)
from triblucas.triangles import (
    CLOSED_FORM,
    RECURRENCE,
    TriangleKind,
    binomial_diagonal_sum,
    triangle_entry_number,
    triangle_entry_poly,
)
from triblucas.verify import SweepRange, errata_report, run_identity

GOLDEN = Path(__file__).parent / "golden"

INCOMPLETE_SUITE_IDS = [
    "def1-methods", "eq3.3", "eq3.4", "eq3.5", "eq3.6", "eq3.7", "eq3.8",
    "eq3.9", "eq3.10", "eq1.5", "prop3", "cor4", "thm5", "prop6", "cor8",
]


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return run
    return wrap


@criterion("1 table-reproduction")
def test_criterion_1_tables_byte_identical(capsys):
    start = time.monotonic()
    for which in (1, 2, 3, 4):
        assert main(["table", str(which), "--rows", "6"]) == 0
        out = capsys.readouterr().out
        golden = (GOLDEN / f"table{which}.txt").read_bytes()
        assert out.encode() == golden, f"table {which} deviates from golden"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"table rendering took {elapsed:.3f}s"


@criterion("2 sequence-values")
def test_criterion_2_sequence_values():
    assert [tribonacci_lucas_number(n) for n in range(7)] == [3, 1, 3, 7, 11, 21, 39]
    assert [tribonacci_number(n) for n in range(8)] == [0, 1, 1, 2, 4, 7, 13, 24]


@criterion("3 triangle-dual-method")
def test_criterion_3_triangle_methods_agree():
    mismatches = 0
    for n in range(31):
        for i in range(n + 1):
            if triangle_entry_number(n, i, RECURRENCE) != \
                    triangle_entry_number(n, i, CLOSED_FORM):
                mismatches += 1
            if triangle_entry_poly(n, i, RECURRENCE) != \
                    triangle_entry_poly(n, i, CLOSED_FORM):
                mismatches += 1
    assert mismatches == 0


@criterion("4 diagonal-identities")
def test_criterion_4_binomial_diagonals():
    for n in range(1, 41):
        assert binomial_diagonal_sum(TriangleKind.NUMBERS, n) == \
            tribonacci_lucas_number(n)
    for n in range(1, 25):
        assert binomial_diagonal_sum(TriangleKind.POLYNOMIALS, n) == \
            tribonacci_lucas_poly(n)


@criterion("5 incomplete-identity-suite")
def test_criterion_5_incomplete_suite():
    start = time.monotonic()
    rng = SweepRange()
    for identity_id in INCOMPLETE_SUITE_IDS:
        report = run_identity(identity_id, rng)
        assert report.status == "pass", (identity_id, report.notes)
        assert report.total_failures == 0, identity_id
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"incomplete suite took {elapsed:.1f}s"


@criterion("6 generating-functions")
def test_criterion_6_generating_functions():
    rng = SweepRange()  # s <= 8, order 48, x in {1, 2, 1/2} plus symbolic
    corrected = run_identity("thm10-corrected", rng)
    assert corrected.status == "pass" and corrected.total_failures == 0
    tl = run_identity("thm12", rng)
    assert tl.status == "pass" and tl.total_failures == 0

    printed = run_identity("thm10-printed", rng)
    assert printed.status == "expected_fail"
    for s in range(9):
        cmp = gf_vs_direct(IncompleteFamily.INC_TRIBONACCI, s,
                           GFVariant.AS_PRINTED, Fraction(1), 48)
        assert cmp.first_mismatch_power == 2 * s + 3, s

    printed_series = series_expand(
        q_gf(1, GFVariant.AS_PRINTED, Fraction(1)), 7)
    assert list(printed_series.coeffs) == [0, 0, 0, 2, 4, 4, 6]
    direct_series = series_expand(
        q_gf(1, GFVariant.CORRECTED, Fraction(1)), 7)
    assert list(direct_series.coeffs) == [0, 0, 0, 2, 4, 6, 8]

    errata = errata_report()
    assert errata.records[0].corrected == "z^2 T_(2s)(x)"
    assert "z^2" in errata.render()


@criterion("7 binet-cross-check")
def test_criterion_7_binet():
    for n in range(41):
        for family, exact in [
            (SequenceFamily.TRIBONACCI_NUMBER, tribonacci_number(n)),
            (SequenceFamily.TRIBONACCI_LUCAS_NUMBER, tribonacci_lucas_number(n)),
        ]:
            estimate = binet_estimate(n, family, precision=64)
            assert abs(estimate - exact) <= 1e-6 * max(1, exact), (family, n)
    residuals = _vieta_residuals(binet_roots(64), 64)
    assert max(abs(part) for r in residuals for part in r) < 2 ** 64 // 10 ** 9


@criterion("8 determinism")
def test_criterion_8_verify_json_deterministic(capsys):
    assert main(["verify", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    reports = json.loads(first)
    assert len(reports) == 27
    assert all(r["status"] in ("pass", "expected_fail") for r in reports)
