from math import comb

import pytest

from triblucas import triangles
from triblucas.errors import DomainError
from triblucas.incomplete import (
    EQ33,
    EQ34,
    EQ35,
    EQ36,
    HOM_NUM_39,
    HOM_POLY_37,
    NONHOM_NUM_310,
    NONHOM_POLY_38,
    TRI_NONHOM_15,
    BINOMIAL_SUM,
    TRIANGLE_SUM,
    IncompleteFamily,
    IncompleteIndex,
    boundary_form,
    incomplete_tl_number,
    incomplete_tl_poly,
    incomplete_tl_poly_row,
    incomplete_tribonacci_number,
    incomplete_tribonacci_poly,
    partial_sum_lhs_rhs,
    recurrence_step,
    row_sum_lhs_rhs,
    tl_relation_rhs,
)
from triblucas.poly import IntPoly, poly_parse
from triblucas.sequences import tribonacci_lucas_poly, tribonacci_poly
from triblucas.triangles import TriangleKind

TABLE_3 = {
    (1, 0): "x^2",
    (2, 0): "x^4", (2, 1): "x^4 + 2*x",
    (3, 0): "x^6", (3, 1): "x^6 + 3*x^3 + 3",
    (4, 0): "x^8", (4, 1): "x^8 + 4*x^5 + 4*x^2", (4, 2): "x^8 + 4*x^5 + 6*x^2",
    (5, 0): "x^10", (5, 1): "x^10 + 5*x^7 + 5*x^4",
    (5, 2): "x^10 + 5*x^7 + 10*x^4 + 5*x",
    (6, 0): "x^12", (6, 1): "x^12 + 6*x^9 + 6*x^6",
    (6, 2): "x^12 + 6*x^9 + 15*x^6 + 12*x^3 + 3",
    (6, 3): "x^12 + 6*x^9 + 15*x^6 + 14*x^3 + 3",
}

TABLE_4 = {
    (1, 0): 1,
    (2, 0): 1, (2, 1): 3,
    (3, 0): 1, (3, 1): 7,
    (4, 0): 1, (4, 1): 9, (4, 2): 11,
    (5, 0): 1, (5, 1): 11, (5, 2): 21,
    (6, 0): 1, (6, 1): 13, (6, 2): 37, (6, 3): 39,
}


def test_incomplete_tribonacci_poly_examples():
    assert incomplete_tribonacci_poly(5, 1) == poly_parse("x^8 + 3*x^5 + 2*x^2")
    for n in range(1, 9):
        assert incomplete_tribonacci_poly(n, 0) == IntPoly.monomial(1, 2 * n - 2)
    assert incomplete_tribonacci_poly(3, 1) == tribonacci_poly(3)


def test_incomplete_tribonacci_number_examples():
    assert incomplete_tribonacci_number(5, 1) == 6
    assert incomplete_tribonacci_number(7, 2) == 23
    for n in range(1, 12):
        assert incomplete_tribonacci_number(n, 0) == 1


def test_incomplete_tribonacci_domain():
    with pytest.raises(DomainError, match="0..1"):
        incomplete_tribonacci_poly(3, 2)
    with pytest.raises(DomainError):
        incomplete_tribonacci_poly(0, 0)
    with pytest.raises(DomainError):
        incomplete_tribonacci_poly(5, -1)


def test_incomplete_tl_poly_table3():
    for (n, s), text in TABLE_3.items():
        assert incomplete_tl_poly(n, s) == poly_parse(text), (n, s)


def test_number_families_equal_the_polynomials_at_1():
    # The number families are computed in int, independently of the
    # polynomial families they specialise, past the default verify range.
    for n in range(61):
        for s in range(n // 2 + 1):
            assert incomplete_tl_number(n, s) == incomplete_tl_poly(n, s).evaluate(1)
            if n >= 1 and s <= (n - 1) // 2:
                assert (incomplete_tribonacci_number(n, s)
                        == incomplete_tribonacci_poly(n, s).evaluate(1)), (n, s)


def test_incomplete_tl_number_table4():
    for (n, s), value in TABLE_4.items():
        assert incomplete_tl_number(n, s) == value, (n, s)


def test_incomplete_tl_examples():
    assert incomplete_tl_poly(6, 2) == poly_parse("x^12 + 6*x^9 + 15*x^6 + 12*x^3 + 3")
    assert incomplete_tl_poly(4, 1) == poly_parse("x^8 + 4*x^5 + 4*x^2")
    for n in range(1, 10):
        assert incomplete_tl_poly(n, 0) == IntPoly.monomial(1, 2 * n)
    assert incomplete_tl_number(6, 2) == 37
    assert incomplete_tl_number(5, 1) == 11
    assert incomplete_tl_number(7, 1) == 15


def test_incomplete_tl_apex():
    assert incomplete_tl_poly(0, 0) == IntPoly([3])
    assert incomplete_tl_poly(0, 0, BINOMIAL_SUM) == IntPoly([3])
    assert incomplete_tl_number(0, 0) == 3


def test_incomplete_tl_methods_agree():
    for n in range(61):
        for s in range(n // 2 + 1):
            assert (incomplete_tl_poly(n, s, TRIANGLE_SUM)
                    == incomplete_tl_poly(n, s, BINOMIAL_SUM)), (n, s)


def test_incomplete_tl_poly_row_reads_one_entry_per_level(monkeypatch):
    # Level s adds B(n-s, s)(x) to level s-1; the closed double sum is the
    # independent reference.
    reads = []
    entry = triangles.triangle_entry_poly
    monkeypatch.setattr(triangles, "triangle_entry_poly",
                        lambda n, i: reads.append((n, i)) or entry(n, i))
    for n in range(61):
        reads.clear()
        row = list(incomplete_tl_poly_row(n))
        assert row == [incomplete_tl_poly(n, s, BINOMIAL_SUM)
                       for s in range(n // 2 + 1)], n
        assert reads == [(n - s, s) for s in range(n // 2 + 1)]
    with pytest.raises(DomainError):
        incomplete_tl_poly_row(-1)


def test_incomplete_tribonacci_poly_matches_the_double_sum():
    # The double sum term by term through from_terms, zero binomials skipped.
    for n in range(1, 61):
        for s in range((n - 1) // 2 + 1):
            want = IntPoly.from_terms(
                (2 * n - 3 * (i + j) - 2, comb(i, j) * comb(n - i - j - 1, i))
                for i in range(s + 1) for j in range(i + 1)
                if comb(n - i - j - 1, i))
            assert incomplete_tribonacci_poly(n, s) == want, (n, s)


def test_incomplete_tl_domain_error_names_interval():
    with pytest.raises(DomainError, match="0..1"):
        incomplete_tl_poly(3, 2)
    with pytest.raises(DomainError):
        incomplete_tl_number(4, 3)
    with pytest.raises(DomainError):
        incomplete_tl_poly(2, 1, "midpoint_rule")


def test_incomplete_index_validation():
    IncompleteIndex(6, 3, IncompleteFamily.INC_TRIBONACCI_LUCAS)
    IncompleteIndex(7, 3, IncompleteFamily.INC_TRIBONACCI)
    with pytest.raises(DomainError):
        IncompleteIndex(6, 3, IncompleteFamily.INC_TRIBONACCI)
    with pytest.raises(DomainError):
        IncompleteIndex(0, 0, IncompleteFamily.INC_TRIBONACCI)


def test_full_truncation_recovery():
    for n in range(25):
        assert incomplete_tl_poly(n, n // 2) == tribonacci_lucas_poly(n)
    for n in range(1, 25):
        assert incomplete_tribonacci_poly(n, (n - 1) // 2) == tribonacci_poly(n)


def test_monotone_refinement():
    for n in range(1, 25):
        for s in range(n // 2):
            step = incomplete_tl_poly(n, s + 1) - incomplete_tl_poly(n, s)
            assert all(c >= 0 for c in step.coeffs), (n, s)


def test_boundary_form_examples():
    assert boundary_form(4, EQ34) == poly_parse("x^8 + 4*x^5 + 4*x^2")
    assert boundary_form(4, EQ36) == poly_parse("x^8 + 4*x^5 + 4*x^2")
    assert boundary_form(5, EQ36) == poly_parse("x^10 + 5*x^7 + 5*x^4")
    assert boundary_form(7, EQ33) == IntPoly.monomial(1, 14)
    assert boundary_form(6, EQ35) == tribonacci_lucas_poly(6)


def test_boundary_form_sweeps():
    for n in range(1, 25):
        assert boundary_form(n, EQ33) == incomplete_tl_poly(n, 0)
        assert boundary_form(n, EQ35) == incomplete_tl_poly(n, n // 2)
    for n in range(3, 25):
        assert boundary_form(n, EQ34) == incomplete_tl_poly(n, 1)
    for n in range(2, 25):
        assert boundary_form(n, EQ36) == incomplete_tl_poly(n, (n - 2) // 2)


def test_boundary_form_preconditions():
    with pytest.raises(DomainError):
        boundary_form(2, EQ34)
    with pytest.raises(DomainError):
        boundary_form(1, EQ36)
    with pytest.raises(DomainError):
        boundary_form(0, EQ33)
    with pytest.raises(DomainError):
        boundary_form(4, "eq99")


def test_tl_relation_examples():
    assert tl_relation_rhs(4, 1) == poly_parse("x^8 + 4*x^5 + 4*x^2")
    assert tl_relation_rhs(3, 1) == tribonacci_lucas_poly(3)
    assert tl_relation_rhs(6, 2).evaluate(1) == 37


def test_tl_relation_matches_incomplete():
    for n in range(3, 25):
        for s in range(1, (n - 1) // 2 + 1):
            assert tl_relation_rhs(n, s) == incomplete_tl_poly(n, s), (n, s)


def test_tl_relation_domain():
    with pytest.raises(DomainError):
        tl_relation_rhs(2, 1)
    with pytest.raises(DomainError):
        tl_relation_rhs(5, 0)
    with pytest.raises(DomainError):
        tl_relation_rhs(5, 3)


def test_partial_sum_examples():
    assert partial_sum_lhs_rhs(2, 3, 1) == (19, 19)
    assert partial_sum_lhs_rhs(2, 1, 1) == (3, 3)
    assert partial_sum_lhs_rhs(4, 2, 2) == (32, 32)


def test_partial_sum_sweep():
    for n in range(1, 13):
        for h in range(1, 9):
            for s in range(n // 2 + 1):
                lhs, rhs = partial_sum_lhs_rhs(n, h, s)
                assert lhs == rhs, (n, h, s)


def test_partial_sum_domain():
    with pytest.raises(DomainError):
        partial_sum_lhs_rhs(0, 1, 0)
    with pytest.raises(DomainError):
        partial_sum_lhs_rhs(2, 0, 1)
    with pytest.raises(DomainError):
        partial_sum_lhs_rhs(2, 3, 2)


def test_row_sum_examples():
    assert row_sum_lhs_rhs(4, TriangleKind.NUMBERS) == (21, 21)
    lhs, rhs = row_sum_lhs_rhs(3, TriangleKind.POLYNOMIALS)
    assert lhs == rhs == poly_parse("2*x^6 + 3*x^3 + 3")
    assert row_sum_lhs_rhs(1, TriangleKind.NUMBERS) == (1, 1)


def test_row_sum_sweep():
    for n in range(1, 25):
        lhs, rhs = row_sum_lhs_rhs(n, TriangleKind.POLYNOMIALS)
        assert lhs == rhs, n
    for n in range(1, 41):
        lhs, rhs = row_sum_lhs_rhs(n, TriangleKind.NUMBERS)
        assert lhs == rhs, n


def test_row_sum_domain():
    with pytest.raises(DomainError):
        row_sum_lhs_rhs(0, TriangleKind.NUMBERS)
    with pytest.raises(DomainError):
        row_sum_lhs_rhs(3, "matrices")


def test_recurrence_step_examples():
    assert recurrence_step(3, 1, HOM_NUM_39) == (37, 37)
    assert recurrence_step(3, 1, NONHOM_NUM_310) == (13, 13)
    direct, assembled = recurrence_step(2, 0, TRI_NONHOM_15)
    assert direct.evaluate(1) == 1
    assert assembled.evaluate(1) == 1
    assert direct == assembled


def test_recurrence_step_sweeps():
    for n in range(1, 21):
        for s in range(n // 2 + 1):
            for variant in (HOM_POLY_37, NONHOM_POLY_38):
                direct, assembled = recurrence_step(n, s, variant)
                assert direct == assembled, (n, s, variant)
        for s in range((n - 1) // 2 + 1):
            direct, assembled = recurrence_step(n, s, TRI_NONHOM_15)
            assert direct == assembled, (n, s)
    for n in range(1, 41):
        for s in range(n // 2 + 1):
            for variant in (HOM_NUM_39, NONHOM_NUM_310):
                direct, assembled = recurrence_step(n, s, variant)
                assert direct == assembled, (n, s, variant)


def test_recurrence_step_domain():
    with pytest.raises(DomainError):
        recurrence_step(3, 2, HOM_POLY_37)
    with pytest.raises(DomainError):
        recurrence_step(2, 1, TRI_NONHOM_15)
    with pytest.raises(DomainError):
        recurrence_step(3, 1, "nonexistent")
