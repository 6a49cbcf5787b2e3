from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triblucas.errors import PolyParseError
from triblucas.poly import (
    IntPoly,
    poly_add,
    poly_eval,
    poly_format,
    poly_mul,
    poly_parse,
)

X = IntPoly.x()


def test_add_disjoint_supports():
    assert IntPoly.monomial(1, 2) + IntPoly.monomial(2, 1) == IntPoly([0, 2, 1])


def test_add_identity():
    p = IntPoly([0, 2, 0, 0, 1])
    assert poly_add(p, IntPoly.zero()) == p


def test_add_cancellation_restores_canonical_form():
    p = IntPoly([3, 0, 0, 3, 0, 0, 1])
    q = IntPoly.monomial(-1, 6)
    total = p + q
    assert total == IntPoly([3, 0, 0, 3])
    assert total.degree == 3
    assert total.coeffs[-1] != 0


def test_mul_monomial_shift():
    assert IntPoly.monomial(1, 2) * IntPoly([0, 2, 0, 0, 1]) == IntPoly([0, 0, 0, 2, 0, 0, 1])


def test_mul_binomial_square():
    assert (IntPoly([1, 1])) ** 2 == IntPoly([1, 2, 1])


def test_mul_identity():
    p = IntPoly([5, -3, 7])
    assert poly_mul(p, IntPoly.one()) == p


def test_zero_degree_marker():
    assert IntPoly.zero().degree is None
    assert IntPoly([7]).degree == 0


def test_eval_tl4_at_1():
    k4 = IntPoly([0, 0, 6, 0, 0, 4, 0, 0, 1])  # x^8 + 4x^5 + 6x^2
    assert poly_eval(k4, Fraction(1)) == 11


def test_eval_tl6_at_0():
    k6 = IntPoly([3, 0, 0, 14, 0, 0, 15, 0, 0, 6, 0, 0, 1])
    assert poly_eval(k6, Fraction(0)) == 3


def test_eval_t3_at_2():
    t3 = IntPoly([0, 1, 0, 0, 1])  # x^4 + x
    assert poly_eval(t3, Fraction(2)) == 18
    assert t3.evaluate(2) == 18


def test_eval_rational_point():
    p = IntPoly([1, 2])  # 1 + 2x
    assert poly_eval(p, Fraction(1, 2)) == 2
    assert p.evaluate(Fraction(1, 3)) == Fraction(5, 3)


def test_format_zero():
    assert poly_format(IntPoly.zero()) == "0"


def test_format_tl5():
    k5 = IntPoly([0, 5, 0, 0, 10, 0, 0, 5, 0, 0, 1])
    assert poly_format(k5) == "x^10 + 5*x^7 + 10*x^4 + 5*x"


def test_format_constant():
    assert poly_format(IntPoly([3])) == "3"


def test_format_negative_and_unit_coefficients():
    assert poly_format(IntPoly([-3, 0, 1])) == "x^2 - 3"
    assert poly_format(IntPoly([0, -1, 0, -1])) == "-x^3 - x"


def test_parse_basic():
    assert poly_parse("x^4 + 2*x") == IntPoly([0, 2, 0, 0, 1])


def test_parse_zero():
    assert poly_parse("0") == IntPoly.zero()


def test_parse_malformed_names_token_and_position():
    with pytest.raises(PolyParseError, match=r"\^.*position 2"):
        poly_parse("x^^2")
    with pytest.raises(PolyParseError, match="position"):
        poly_parse("x + + 1")
    with pytest.raises(PolyParseError, match="unexpected character"):
        poly_parse("x^2 ? 3")
    with pytest.raises(PolyParseError):
        poly_parse("")


def test_parse_whitespace_tolerant():
    assert poly_parse("  x^2+2* x -3 ") == IntPoly([-3, 0, 1]) + IntPoly([0, 2])


def test_scalar_coercion():
    p = IntPoly([0, 1])
    assert 2 * p + 1 == IntPoly([1, 2])
    assert p - 1 == IntPoly([-1, 1])
    assert 1 - p == IntPoly([1, -1])
    assert p == p + 0
    assert IntPoly([5]) == 5


small_polys = st.builds(
    IntPoly, st.lists(st.integers(-50, 50), min_size=0, max_size=17))
eval_points = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(small_polys, small_polys, eval_points)
def test_eval_is_ring_homomorphism(p, q, x0):
    assert poly_eval(p + q, x0) == poly_eval(p, x0) + poly_eval(q, x0)
    assert poly_eval(p * q, x0) == poly_eval(p, x0) * poly_eval(q, x0)


@settings(max_examples=200)
@given(small_polys)
def test_parse_format_roundtrip(p):
    assert poly_parse(poly_format(p)) == p


def _fraction_horner(p, x0):
    # The evaluation IntPoly.evaluate replaced: Horner over Fraction.
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


wide_points = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 10 ** 6),
              st.one_of(st.just(1), st.integers(1, 10 ** 6))))
# Polynomials with long zero runs, which evaluate skips: lattice polynomials
# on every third power (as every family polynomial is), x^k * q with k up to
# 40, constants and zero.
lattice_polys = st.builds(
    lambda r, cs: IntPoly([0] * r + [v for c in cs for v in (c, 0, 0)]),
    st.integers(0, 2), st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=20))
sparse_polys = st.one_of(
    lattice_polys,
    st.builds(IntPoly.shifted, st.one_of(small_polys, lattice_polys), st.integers(0, 40)),
    st.builds(IntPoly.constant, st.integers(-50, 50)),
    st.just(IntPoly.zero()))


@settings(max_examples=400)
@given(st.one_of(small_polys, sparse_polys), wide_points)
def test_integer_horner_matches_fraction_horner(p, point):
    for x0 in (point, -point):
        got = p.evaluate(x0)
        assert type(got) is Fraction
        assert got == _fraction_horner(p, x0), x0
        if x0.denominator == 1:
            at_int = p.evaluate(x0.numerator)
            assert type(at_int) is int and at_int == got


def test_zero_polynomial_keeps_the_input_type():
    assert type(IntPoly.zero().evaluate(Fraction(2, 3))) is Fraction
    assert type(IntPoly.zero().evaluate(Fraction(0))) is Fraction
    assert type(IntPoly.zero().evaluate(5)) is int
    assert type(IntPoly([0, 0, 1]).evaluate(Fraction(0))) is Fraction
