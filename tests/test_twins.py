"""Each number-kind result equals its polynomial twin evaluated at x = 1."""

import pytest

from triblucas.errors import DomainError
from triblucas.incomplete import (
    HOM_NUM_39,
    HOM_POLY_37,
    NONHOM_NUM_310,
    NONHOM_POLY_38,
    recurrence_step,
    row_sum_lhs_rhs,
    tl_relation_rhs,
)
from triblucas.triangles import (
    CLOSED_FORM,
    RECURRENCE,
    TriangleKind,
    binomial_diagonal_sum,
    triangle_entry_number,
    triangle_entry_poly,
    weighted_binomial_diagonal_sum,
)

N_MAX = 20
NUMBERS, POLYNOMIALS = TriangleKind.NUMBERS, TriangleKind.POLYNOMIALS


def _at_one(pair):
    return tuple(p.evaluate(1) for p in pair)


@pytest.mark.parametrize("number, poly", [(HOM_NUM_39, HOM_POLY_37),
                                          (NONHOM_NUM_310, NONHOM_POLY_38)])
def test_recurrence_step(number, poly):
    for n in range(N_MAX + 1):
        for s in range(n // 2 + 1):
            assert recurrence_step(n, s, number) == _at_one(recurrence_step(n, s, poly)), (n, s)


def test_tl_relation_rhs():
    for n in range(3, N_MAX + 1):
        for s in range(1, (n - 1) // 2 + 1):
            assert tl_relation_rhs(n, s, NUMBERS) == tl_relation_rhs(n, s).evaluate(1), (n, s)


def test_row_sum_lhs_rhs():
    for n in range(1, N_MAX + 1):
        assert row_sum_lhs_rhs(n, NUMBERS) == _at_one(row_sum_lhs_rhs(n, POLYNOMIALS)), n


@pytest.mark.parametrize("diagonal", [binomial_diagonal_sum, weighted_binomial_diagonal_sum])
def test_binomial_diagonal_sums(diagonal):
    for n in range(1, N_MAX + 1):
        assert diagonal(NUMBERS, n) == diagonal(POLYNOMIALS, n).evaluate(1), n


@pytest.mark.parametrize("method", [RECURRENCE, CLOSED_FORM])
def test_triangle_entries(method):
    for n in range(N_MAX + 1):
        for i in range(n + 1):
            assert triangle_entry_number(n, i, method) == \
                triangle_entry_poly(n, i, method).evaluate(1), (n, i)


def test_an_unknown_kind_is_a_domain_error():
    with pytest.raises(DomainError):
        tl_relation_rhs(5, 1, "matrices")
