import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import triblucas.sequences as sequences
from triblucas.errors import DomainError, NumericalInstabilityError
from triblucas.poly import IntPoly, poly_format
from triblucas.sequences import (
    SequenceFamily,
    binet_estimate,
    binet_roots,
    tribonacci_lucas_number,
    tribonacci_lucas_poly,
    tribonacci_number,
    tribonacci_poly,
)

T_FIRST = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]
K_FIRST = [3, 1, 3, 7, 11, 21, 39, 71, 131, 241, 443]


def test_tribonacci_first_values():
    assert [tribonacci_number(n) for n in range(11)] == T_FIRST


def test_tribonacci_lucas_first_values():
    assert [tribonacci_lucas_number(n) for n in range(11)] == K_FIRST


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        tribonacci_number(-1)
    with pytest.raises(DomainError):
        tribonacci_lucas_poly(-3)


def test_poly_initial_conditions():
    assert tribonacci_poly(0) == IntPoly.zero()
    assert tribonacci_poly(1) == IntPoly.one()
    assert tribonacci_poly(2) == IntPoly.monomial(1, 2)
    assert tribonacci_lucas_poly(0) == IntPoly([3])
    assert tribonacci_lucas_poly(1) == IntPoly.monomial(1, 2)
    assert tribonacci_lucas_poly(2) == IntPoly([0, 2, 0, 0, 1])


def test_listed_polynomials():
    assert poly_format(tribonacci_poly(5)) == "x^8 + 3*x^5 + 3*x^2"
    assert poly_format(tribonacci_lucas_poly(6)) == \
        "x^12 + 6*x^9 + 15*x^6 + 14*x^3 + 3"
    assert poly_format(tribonacci_lucas_poly(7)) == \
        "x^14 + 7*x^11 + 21*x^8 + 28*x^5 + 14*x^2"


def test_polys_specialize_to_numbers_at_1():
    for n in range(41):
        assert tribonacci_poly(n).evaluate(1) == tribonacci_number(n)
        assert tribonacci_lucas_poly(n).evaluate(1) == tribonacci_lucas_number(n)


def test_degree_law():
    for n in range(1, 41):
        assert tribonacci_poly(n).degree == 2 * n - 2
        assert tribonacci_lucas_poly(n).degree == 2 * n
    assert tribonacci_lucas_poly(0) == 3


def test_memoized_agrees_with_plain_unroll():
    t = [0, 1, 1]
    k = [3, 1, 3]
    for _ in range(200):
        t.append(t[-1] + t[-2] + t[-3])
        k.append(k[-1] + k[-2] + k[-3])
    for n in range(201):
        assert tribonacci_number(n) == t[n]
        assert tribonacci_lucas_number(n) == k[n]


def _plain_loop(n, seeds):
    a, b, c = seeds
    for _ in range(n):
        a, b, c = b, c, a + b + c
    return a


def _doubled(n):
    a, b, c = sequences._t_power(n)
    return a + b, 3 * a + b + 3 * c


def _assert_doubling_matches_the_loop(n):
    t, k = _plain_loop(n, (0, 1, 1)), _plain_loop(n, (3, 1, 3))
    assert _doubled(n) == (t, k)
    assert (tribonacci_number(n), tribonacci_lucas_number(n)) == (t, k)


def test_doubling_matches_the_recurrence_around_the_cap():
    cap = sequences.NUMBER_MEMO_CAP
    for n in range(cap - 3, cap + 4):
        _assert_doubling_matches_the_loop(n)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(0, sequences.NUMBER_MEMO_CAP),
                 st.integers(sequences.NUMBER_MEMO_CAP, 20000)))
@example(20000)
def test_doubling_matches_the_recurrence(n):
    _assert_doubling_matches_the_loop(n)


def test_number_memos_stop_at_the_cap():
    cap = sequences.NUMBER_MEMO_CAP
    assert tribonacci_number(30000) == _doubled(30000)[0]
    assert tribonacci_lucas_number(30000) == _doubled(30000)[1]
    for memo in (sequences._T_NUMBERS, sequences._K_NUMBERS):
        assert len(memo._values) <= cap


@settings(max_examples=100)
@given(*[st.lists(st.integers(-50, 50), max_size=8).map(IntPoly)] * 3)
def test_shift_add_matches_shifted_sums(a, b, c):
    assert sequences._shift_add(a, b, c) == a.shifted(2) + b.shifted(1) + c


def test_binet_roots_alpha_and_vieta():
    (a_re, a_im), beta, gamma = binet_roots(64)
    assert abs(Fraction(a_re, 2 ** 64) - Fraction("1.8392867552")) < Fraction(1, 10 ** 9)
    assert a_im == 0
    assert beta[1] > 0 and gamma == (beta[0], -beta[1])
    residuals = sequences._vieta_residuals(binet_roots(64), 64)
    assert max(abs(part) for r in residuals for part in r) < 2 ** 32


def test_binet_roots_are_solved_once_per_precision():
    first, second = binet_roots(64), binet_roots(64)
    assert first == second
    assert first is second
    assert binet_roots() == first
    assert binet_roots() is first
    assert binet_roots(precision=64) is first
    memo = sequences.MEMOS["sequences._binet_roots"]
    memo.clear()
    assert binet_roots() == binet_roots(64) == binet_roots(precision=64) == first
    assert len(memo) == 1


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def test_binet_roots_match_radical_expressions():
    # alpha = (1 + A + B)/3 with A, B the cube roots of 19 ± 3·sqrt(33), and
    # beta = (1 + wA + w²B)/3 with w = (-1 + i·sqrt(3))/2, so
    # beta = ((2 - A - B) + i·sqrt(3)(A - B))/6: integer roots, with 8 guard
    # bits, that share nothing with the Newton steps of binet_roots.
    bits, wide = 80, 88
    one, root33 = 1 << wide, math.isqrt(33 << 2 * wide)
    a = _icbrt(((19 << wide) + 3 * root33) << 2 * wide)
    b = _icbrt(((19 << wide) - 3 * root33) << 2 * wide)
    beta = ((2 * one - a - b) // 6, math.isqrt(3 << 2 * wide) * (a - b) // (6 * one))
    radical = [((one + a + b) // 3, 0), beta, (beta[0], -beta[1])]
    for found, expected in zip(binet_roots(bits), radical):
        for part, wide_part in zip(found, expected):
            assert abs(part - (wide_part >> wide - bits)) <= 4


def test_binet_precision_floor():
    for _ in range(2):    # a raise is never memoised
        with pytest.raises(DomainError):
            binet_roots(32)
        with pytest.raises(DomainError):
            binet_roots(52)
    with pytest.raises(DomainError):
        binet_estimate(3, SequenceFamily.TRIBONACCI_NUMBER, precision=13)


def test_binet_estimate_zeroth_powers():
    est = binet_estimate(0, SequenceFamily.TRIBONACCI_LUCAS_NUMBER)
    assert abs(est - 3) < 1e-9


def test_binet_estimate_vieta_sum():
    est = binet_estimate(1, SequenceFamily.TRIBONACCI_LUCAS_NUMBER)
    assert abs(est - 1) < 1e-9


def test_binet_estimate_k6():
    est = binet_estimate(6, SequenceFamily.TRIBONACCI_LUCAS_NUMBER)
    assert abs(est - 39) <= 1e-6 * 39


def test_binet_estimate_sweep_both_families():
    for n in range(41):
        for family, exact in [
            (SequenceFamily.TRIBONACCI_NUMBER, tribonacci_number(n)),
            (SequenceFamily.TRIBONACCI_LUCAS_NUMBER, tribonacci_lucas_number(n)),
        ]:
            est = binet_estimate(n, family, precision=64)
            assert abs(est - exact) <= 1e-6 * max(1, exact)


def test_binet_estimate_rejects_polynomial_families():
    with pytest.raises(DomainError):
        binet_estimate(3, SequenceFamily.TRIBONACCI_POLY)


def test_binet_estimate_flags_large_imaginary_residue(monkeypatch):
    solve = sequences.binet_roots

    def broken(bits):
        # A conjugate-symmetry-breaking perturbation, beta·(1 + 0.01i),
        # leaves a visible imaginary part.
        alpha, beta, gamma = solve(bits)
        one = 1 << bits
        return alpha, sequences._fixed_mul(beta, (one, one // 100), bits), gamma

    monkeypatch.setattr(sequences, "binet_roots", broken)
    with pytest.raises(NumericalInstabilityError):
        sequences.binet_estimate(9, SequenceFamily.TRIBONACCI_LUCAS_NUMBER)


def test_binet_roots_raise_on_a_failed_vieta_check(monkeypatch):
    # Residuals of 2^(-precision/2 + 1) fail the bound on every call.
    def off(roots, bits):
        return ((1 << (bits // 2 + 1), 0), (0, 0), (0, 0))

    monkeypatch.setattr(sequences, "_vieta_residuals", off)
    sequences._binet_roots.cache_clear()
    for _ in range(2):
        with pytest.raises(NumericalInstabilityError):
            binet_roots(64)
    monkeypatch.undo()
    assert binet_roots(64)[0][1] == 0


def test_binet_estimate_keeps_the_requested_bits():
    # At least 64 significant bits for every n <= 1300, and an absolute
    # error far below 1e-12 while the values still fit a float's mantissa.
    for family, exact in [(SequenceFamily.TRIBONACCI_NUMBER, tribonacci_number),
                          (SequenceFamily.TRIBONACCI_LUCAS_NUMBER, tribonacci_lucas_number)]:
        for n in range(1301):
            estimate = binet_estimate(n, family, precision=64)
            assert isinstance(estimate, Fraction)
            error = abs(estimate - exact(n))
            assert error * 2 ** 64 <= max(1, exact(n)), (family, n)
            if n < 60:
                assert error < 1e-12, (family, n)


def test_binet_estimate_rounds_to_the_exact_value_when_precision_grows_with_n():
    # With 40 bits beyond the value's own, the estimate's nearest integer is
    # T_n or K_n itself, for every n <= 400.
    for family, exact in [(SequenceFamily.TRIBONACCI_NUMBER, tribonacci_number),
                          (SequenceFamily.TRIBONACCI_LUCAS_NUMBER, tribonacci_lucas_number)]:
        for n in range(401):
            value = exact(n)
            precision = max(53, value.bit_length() + 40)
            assert round(binet_estimate(n, family, precision)) == value, (family, n)


def test_concurrent_cache_growth_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    serial = [tribonacci_lucas_poly(n) for n in range(380, 420)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(tribonacci_lucas_poly, range(380, 420)))
    assert concurrent == serial
    with ThreadPoolExecutor(max_workers=8) as pool:
        numbers = list(pool.map(tribonacci_number, [500] * 16))
    assert len(set(numbers)) == 1


def test_the_registry_names_every_memo():
    from triblucas import genfunc, incomplete, poly, triangles
    # every lru_cache function and _GrowingCache of the library, and the
    # series bodies, which are a dict
    registered = {id(getattr(memo, "_fn", memo)) for memo in sequences.MEMOS.values()}
    for module in (poly, sequences, triangles, incomplete, genfunc):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") or isinstance(value, sequences._GrowingCache):
                assert id(value) in registered, (module.__name__, name)
    assert id(genfunc._expansions) in registered
    assert len(sequences.MEMOS) == 20
    for memo in sequences.MEMOS.values():
        memo.clear()
    seeded = {name: len(memo) for name, memo in sequences.MEMOS.items() if len(memo)}
    assert seeded == {f"sequences.{name}": 3 for name in (
        "tribonacci_number", "tribonacci_lucas_number", "tribonacci_poly",
        "tribonacci_lucas_poly")}
    assert sequences.tribonacci_poly(10).evaluate(1) == 149
    assert len(sequences.MEMOS["sequences.tribonacci_poly"]) == 11
    genfunc.series_expand(genfunc.q_gf(2), 12)
    assert len(sequences.MEMOS["genfunc.series_expand"]) == 1
    assert len(sequences.MEMOS["genfunc.q_gf"]) == 1
