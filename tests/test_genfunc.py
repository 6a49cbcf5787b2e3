import hashlib
import json
import random
import sys
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triblucas import genfunc
from triblucas.errors import DomainError, ExpansionError, InternalConsistencyError
from triblucas.genfunc import (
    GFVariant,
    Lemma9Spec,
    PowerSeries,
    RationalGF,
    direct_incomplete_coeff,
    gf_vs_direct,
    lemma9_gf,
    q_gf,
    q_gf_numbers_unshifted,
    series_expand,
    series_key,
    w_gf,
)
from triblucas.incomplete import (
    IncompleteFamily,
    incomplete_tl_poly,
    incomplete_tribonacci_poly,
)
from triblucas.poly import IntPoly, poly_parse
from triblucas.sequences import MEMOS, tribonacci_poly
from triblucas.verify import SweepRange, run_identity

TRIB = IncompleteFamily.INC_TRIBONACCI
TL = IncompleteFamily.INC_TRIBONACCI_LUCAS
BODIES = MEMOS["genfunc.series_expand"]


def ints(series):
    return list(series.coeffs)


def test_expand_geometric():
    gf = RationalGF((1,), (1, -1))
    assert ints(series_expand(gf, 5)) == [1, 1, 1, 1, 1]


def test_expand_lucas_numbers():
    gf = RationalGF((3, -2, -1), (1, -1, -1, -1))
    assert ints(series_expand(gf, 7)) == [3, 1, 3, 7, 11, 21, 39]


def test_expand_polynomial_geometric():
    one = IntPoly.one()
    x2 = IntPoly.monomial(1, 2)
    gf = RationalGF((one,), (one, -x2))
    assert ints(series_expand(gf, 3)) == [one, x2, IntPoly.monomial(1, 4)]


def test_expand_applies_shift():
    gf = RationalGF((1,), (1, -1), shift=3)
    assert ints(series_expand(gf, 6)) == [0, 0, 0, 1, 1, 1]
    assert ints(series_expand(gf, 2)) == [0, 0]


def test_denominator_unit_term_required():
    with pytest.raises(ExpansionError):
        RationalGF((1,), (2, 1))
    with pytest.raises(ExpansionError):
        RationalGF((1,), ())


def test_expansion_times_denominator_is_numerator():
    rng = random.Random(7)
    for _ in range(40):
        num = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))
        den = (1,) + tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        order = 24
        p = series_expand(RationalGF(num, den), order).coeffs
        for k in range(order):
            conv = sum(den[j] * p[k - j] for j in range(min(k, len(den) - 1) + 1))
            expected = num[k] if k < len(num) else 0
            assert conv == expected, (num, den, k)


def test_lemma9_homogeneous_examples():
    spec = Lemma9Spec(1, 1, 1, 3, 1, 3)
    assert ints(series_expand(lemma9_gf(spec), 6)) == [3, 1, 3, 7, 11, 21]
    spec = Lemma9Spec(1, 1, 1, 0, 1, 1)
    assert ints(series_expand(lemma9_gf(spec), 6)) == [0, 1, 1, 2, 4, 7]
    spec = Lemma9Spec(0, 0, 0, 5, 0, 0)
    assert ints(series_expand(lemma9_gf(spec), 5)) == [5, 0, 0, 0, 0]


def test_lemma9_keeps_no_series_body():
    BODIES.clear()
    forcings = [None, PowerSeries((1, 2, 3, 4)), RationalGF((1, -1), (1, -1, -1), 2)]
    for forcing in forcings:
        lemma9_gf(Lemma9Spec(1, 1, 1, 3, 1, 3, forcing))
        assert not BODIES, forcing


def _unrolled(a, b, c, s0, s1, s2, forcing, order):
    values = [s0, s1, s2]
    for n in range(3, order):
        values.append(a * values[n - 1] + b * values[n - 2]
                      + c * values[n - 3] + forcing[n])
    return values[:order]


def test_lemma9_random_soundness_rational_forcing():
    rng = random.Random(2024)
    order = 32
    for _ in range(30):
        a, b, c, s0, s1, s2 = (rng.randint(-5, 5) for _ in range(6))
        r_num = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4)))
        r_den = (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 2)))
        shift = rng.choice([0, 0, 1, 2])
        forcing_gf = RationalGF(r_num, r_den, shift)
        forcing = series_expand(forcing_gf, order).coeffs
        expected = _unrolled(a, b, c, s0, s1, s2, forcing, order)
        got = series_expand(
            lemma9_gf(Lemma9Spec(a, b, c, s0, s1, s2, forcing_gf)), order)
        assert ints(got) == expected


def test_lemma9_truncated_series_forcing():
    rng = random.Random(99)
    order = 20
    for _ in range(10):
        a, b, c, s0, s1, s2 = (rng.randint(-4, 4) for _ in range(6))
        forcing = tuple(rng.randint(-4, 4) for _ in range(order))
        expected = _unrolled(a, b, c, s0, s1, s2, forcing, order)
        got = series_expand(
            lemma9_gf(Lemma9Spec(a, b, c, s0, s1, s2, PowerSeries(forcing))),
            order)
        assert ints(got) == expected


def test_lemma9_short_series_forcing_rejected():
    with pytest.raises(DomainError):
        lemma9_gf(Lemma9Spec(1, 1, 1, 0, 1, 1, PowerSeries((0, 0))))


def _zmul(a, b):
    out = [IntPoly.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def _lemma9_q(s):
    # The shifted incomplete-Tribonacci recurrence at level s: the forcing
    # sequence is the negated correction sums, with generating function
    # -(x z^2 + z^3)(x + z)^s / (1 - x^2 z)^(s+1).
    x = IntPoly.x()
    one = IntPoly.one()
    m = [one, -IntPoly.monomial(1, 2)]
    p = [one]
    for _ in range(s + 1):
        p = _zmul(p, m)
    x_plus_z = [one]
    for _ in range(s):
        x_plus_z = _zmul(x_plus_z, [x, one])
    g_num = _zmul([IntPoly.zero(), IntPoly.zero(), x, one], x_plus_z)
    forcing = RationalGF(tuple(-c for c in g_num), tuple(p))
    return Lemma9Spec(
        a=IntPoly.monomial(1, 2), b=x, c=one,
        s0=tribonacci_poly(2 * s + 1),
        s1=tribonacci_poly(2 * s + 2),
        s2=tribonacci_poly(2 * s + 3) - IntPoly.monomial(1, s + 1),
        r=forcing)


def test_lemma9_reproduces_corrected_q():
    # Clearing the shifted incomplete-Tribonacci recurrence through the
    # generic lemma must give the same series as the corrected closed form.
    # The cleared pair has no factors, so it divides by its whole
    # denominator.
    for s in range(13):
        order = 96
        via_lemma = series_expand(lemma9_gf(_lemma9_q(s)), order)
        direct = series_expand(q_gf(s, GFVariant.CORRECTED), order + 2 * s + 1)
        for k in range(order):
            assert via_lemma[k] == direct[k + 2 * s + 1], (s, k)


def test_q_corrected_number_examples():
    series = series_expand(q_gf(0, GFVariant.CORRECTED, Fraction(1)), 6)
    assert ints(series) == [0, 1, 1, 1, 1, 1]
    series = series_expand(q_gf(1, GFVariant.CORRECTED, Fraction(1)), 7)
    assert ints(series) == [0, 0, 0, 2, 4, 6, 8]


def test_q_printed_number_example():
    series = series_expand(q_gf(1, GFVariant.AS_PRINTED, Fraction(1)), 7)
    assert ints(series) == [0, 0, 0, 2, 4, 4, 6]


def test_q_shift_law():
    for s in range(5):
        series = series_expand(q_gf(s), 2 * s + 3)
        for k in range(2 * s + 1):
            assert series[k] == IntPoly.zero()
        assert series[2 * s + 1] == tribonacci_poly(2 * s + 1)


def test_q_symbolic_coefficients_match_direct():
    series = series_expand(q_gf(1), 8)
    assert series[4] == incomplete_tribonacci_poly(4, 1)
    assert series[7] == incomplete_tribonacci_poly(7, 1)


def test_w_number_examples():
    assert ints(series_expand(w_gf(1, Fraction(1)), 7)) == [0, 0, 3, 7, 9, 11, 13]
    assert ints(series_expand(w_gf(2, Fraction(1)), 7)) == [0, 0, 0, 0, 11, 21, 37]


def test_w_symbolic_coefficient():
    series = series_expand(w_gf(1), 5)
    assert series[4] == poly_parse("x^8 + 4*x^5 + 4*x^2")


def test_w_boundary_coefficient_is_complete_polynomial():
    # The z^(2s) coefficient must be the full K_2s(x); it depends on the
    # restored boundary term for s >= 2.
    for s in range(1, 5):
        series = series_expand(w_gf(s), 2 * s + 1)
        assert series[2 * s] == incomplete_tl_poly(2 * s, s), s


def test_w_needs_positive_level():
    with pytest.raises(DomainError):
        w_gf(0)


def test_gf_vs_direct_corrected_passes():
    cmp = gf_vs_direct(TRIB, 3, GFVariant.CORRECTED, Fraction(1), 40)
    assert cmp.ok and cmp.mismatches == ()
    cmp = gf_vs_direct(TL, 1, GFVariant.CORRECTED, None, 16)
    assert cmp.ok


def test_gf_vs_direct_printed_first_mismatch():
    cmp = gf_vs_direct(TRIB, 0, GFVariant.AS_PRINTED, Fraction(1), 10)
    assert not cmp.ok
    assert cmp.first_mismatch_power == 3  # the z^2 slot of the unshifted factor


def test_gf_vs_direct_rational_point():
    cmp = gf_vs_direct(TRIB, 2, GFVariant.CORRECTED, Fraction(1, 2), 20)
    assert cmp.ok
    cmp = gf_vs_direct(TL, 2, GFVariant.CORRECTED, Fraction(1, 2), 20)
    assert cmp.ok


@pytest.mark.parametrize("x", [2, Fraction(2), Fraction(-3, 5)])
def test_a_direct_coefficient_at_a_point_is_a_fraction(x):
    got = direct_incomplete_coeff(TL, 6, 2, x)
    assert type(got) is Fraction
    assert got == poly_parse("x^12 + 6*x^9 + 15*x^6 + 12*x^3 + 3").evaluate(Fraction(x))


def test_gf_vs_direct_rejects_printed_tl():
    with pytest.raises(DomainError):
        gf_vs_direct(TL, 1, GFVariant.AS_PRINTED, Fraction(1), 8)


def test_unshifted_printed_form():
    series = series_expand(q_gf_numbers_unshifted(1), 6)
    shifted = series_expand(q_gf(1, GFVariant.AS_PRINTED, Fraction(1)), 9)
    assert [series[k] for k in range(6)] == [shifted[k + 3] for k in range(6)]
    assert series[0] != direct_incomplete_coeff(TRIB, 0, 1, Fraction(1))


def test_serialization_shapes():
    gf = q_gf(0, GFVariant.CORRECTED, Fraction(1))
    payload = gf.to_json_dict()
    assert set(payload) == {"shift", "numerator", "denominator"}
    assert payload["shift"] == 1
    series = series_expand(gf, 4)
    assert series.to_json_list() == ["0", "1", "1", "1"]
    assert series.order == 4


def test_negative_shift_rejected():
    with pytest.raises(DomainError):
        RationalGF((1,), (1,), shift=-1)


def _generic_expand(gf, order):
    # The expansion loop both kernels replaced: generic ring arithmetic.  A
    # pair holding an IntPoly has its int coefficients promoted first, as
    # series_expand documents.
    den, num = gf.denominator, gf.numerator
    if any(isinstance(c, IntPoly) for c in num + den):
        den, num = _promoted(den), _promoted(num)
    zero = den[0] * 0
    p = []
    for k in range(max(0, order - gf.shift)):
        acc = num[k] if k < len(num) else zero
        for j in range(1, min(k, len(den) - 1) + 1):
            if den[j] != 0:
                acc = acc - den[j] * p[k - j]
        p.append(acc)
    return tuple(([zero] * min(gf.shift, order) + p)[:order])


_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def _pairs(coeff, one):
    # Inner denominator coefficients are often zero, as in (1 - x^2 z)^(s+1).
    inner = st.one_of(st.just(one * 0), coeff)
    return st.tuples(st.lists(coeff, max_size=6),
                     st.lists(inner, max_size=6).map(lambda d: [one] + d))


def _promoted(coeffs):
    return tuple(c if isinstance(c, IntPoly) else IntPoly.constant(c) for c in coeffs)


@st.composite
def _graded_pairs(draw):
    # den_j terms at x^a with a = t j and num_k terms at a = r + t k (mod g);
    # int coefficients sit where the residue is 0 and get promoted.
    g = draw(st.integers(2, 4))
    t = draw(st.integers(0, g - 1))
    r = draw(st.integers(0, g - 1))

    def coeff(residue):
        cs = draw(st.lists(st.integers(-9, 9), max_size=4))
        if residue == 0 and len(cs) <= 1 and draw(st.booleans()):
            return cs[0] if cs else 0
        full = [0] * (g * len(cs))
        full[residue::g] = cs
        return IntPoly(full)

    num = [coeff((r + t * k) % g) for k in range(draw(st.integers(0, 6)))]
    den = [IntPoly.one()] + [coeff(t * j % g)
                             for j in range(1, draw(st.integers(1, 7)))]
    return num, den


@st.composite
def _factored_pairs(draw):
    # 1-4 factors with unit constant term and often-zero inner coefficients,
    # mixing IntPoly and int; the denominator is their product.
    coeff = st.one_of(st.just(0), st.integers(-3, 3),
                      st.builds(IntPoly, st.lists(st.integers(-3, 3), max_size=4)))
    factor = st.builds(lambda one, rest: (one,) + tuple(rest),
                       st.sampled_from([1, IntPoly.one()]), st.lists(coeff, max_size=3))
    factors = draw(st.lists(factor, min_size=1, max_size=4))
    den = [IntPoly.one()]
    for f in factors:
        den = _zmul(den, f)
    return draw(st.lists(coeff, max_size=6)), den, tuple(factors)


@st.composite
def _column_pairs(draw):
    # Pairs that the column kernel divides: graded mod 3 with t = 1 or 2,
    # 1-4 copies of 1 - x^t z, 0-2 more factors that hold -x^t z, and one
    # that does not.  Their other terms x^e z^j move a column up by
    # delta = (t j - e) / 3 = 1-3 and have non-unit coefficients.
    t = draw(st.integers(1, 2))
    r = draw(st.integers(0, 2))

    def coeff(residue):
        cs = draw(st.lists(st.integers(-9, 9), max_size=4))
        if residue == 0 and len(cs) <= 1 and draw(st.booleans()):
            return cs[0] if cs else 0
        full = [0] * (3 * len(cs))
        full[residue::3] = cs
        return IntPoly(full)

    def factor(keeps_column):
        terms = {1: -IntPoly.monomial(1, t)} if keeps_column else {}
        for delta in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True)):
            j = draw(st.integers(-(-3 * delta // t), 2 - (-3 * delta // t)))
            c = draw(st.sampled_from([-3, -2, 2, 3]))
            e = t * j - 3 * delta
            term = c if e == 0 and draw(st.booleans()) else IntPoly.monomial(c, e)
            terms[j] = terms.get(j, 0) + term
        unit = draw(st.sampled_from([1, IntPoly.one()]))
        return (unit,) + tuple(terms.get(j, 0) for j in range(1, max(terms) + 1))

    num = [coeff((r + t * k) % 3) for k in range(draw(st.integers(0, 6)))]
    factors = [(1, -IntPoly.monomial(1, t))] * draw(st.integers(1, 4))
    factors += [factor(True) for _ in range(draw(st.integers(0, 2)))] + [factor(False)]
    factors = draw(st.permutations(factors))
    den = [IntPoly.one()]
    for f in factors:
        den = _zmul(den, f)
    return num, den, tuple(factors)


_X = IntPoly.x()
_X2 = IntPoly.monomial(1, 2)
# (1 - x^2 z)(1 + x^2 z^2), a factor with an int unit and an inner zero.
_FACTORED = ([_X, 1], [1, -_X2, _X2, -_X2 * _X2], ((1, -_X2), (IntPoly.one(), 0, _X2)))
# A Q_s-like pair over 1 - x^2 z - x z^2 - z^3 and 1 - x^2 z, which the
# column kernel divides.
_TRIB_FACTOR = (1, -_X2, -_X, -1)
_Q_LIKE = ([_X, 1, _X2], _zmul(_TRIB_FACTOR, (1, -_X2)), (_TRIB_FACTOR, (1, -_X2)))
# Q_s-like pairs graded mod 3 with 1 - x^2 z - x^4 z^2, whose x^4 z^2 term
# keeps its column, and not with 1 - (x^2 + x) z, whose x z term is off the
# lattice.
_ON_LATTICE = ([_X, 1, _X2], _zmul(_TRIB_FACTOR, (1, -_X2, -_X2 * _X2)),
               (_TRIB_FACTOR, (1, -_X2, -_X2 * _X2)))
_OFF_LATTICE = ([_X, 1, _X2], _zmul(_TRIB_FACTOR, (1, -_X2 - _X)),
                (_TRIB_FACTOR, (1, -_X2 - _X)))
# 1 - 2 x^2 z + 3 x^4 z^2 keeps every column: a recurrence two positions
# back along each column, with non-unit coefficients.
_IN_COLUMN_FACTOR = (1, -2 * _X2, 3 * _X2 * _X2)
_IN_COLUMN = ([_X, 1, _X2], _zmul(_IN_COLUMN_FACTOR, (1, -_X2)),
              (_IN_COLUMN_FACTOR, (1, -_X2)))
# Graded with t = 2, but the x^5 z term of 1 - x^5 z raises t to 5.
_RAISED = ([_X, 1, _X2], _zmul((1, -_X2 * _X2 * _X), _TRIB_FACTOR),
           ((1, -_X2 * _X2 * _X), _TRIB_FACTOR))
# Ungraded (x z and x^2 z), with an in-column x^4 z^2 term beside the x z^2
# one that moves a column up.
_UNGRADED_FACTORS = ((1, -_X2 - _X), (1, 2 * _X2, _X - 3 * _X2 * _X2))
_UNGRADED = ([1 + _X, _X2, 5], _zmul(*_UNGRADED_FACTORS), _UNGRADED_FACTORS)
# 1 over (1 - x^2 z)(1 + 2 z^3): column m >= 0 first turns nonzero at z^(3m/2).
_LATE_COLUMNS = ([1], _zmul((1, -_X2), (1, 0, 0, 2)), ((1, -_X2), (1, 0, 0, 2)))
# x^6 + 1 over (1 - x^2 z)(1 + 2 x z^2): numerator columns -2 and 0, and below
# z^2 nothing in column -1 between them.
_GAP = ([IntPoly.monomial(1, 6) + 1], _zmul((1, -_X2), (1, 0, 2 * _X)),
        ((1, -_X2), (1, 0, 2 * _X)))


def test_a_pair_of_constant_polynomials_hashes_as_its_int_twin():
    poly_gf = RationalGF((IntPoly.constant(2),), (IntPoly.one(), IntPoly.constant(-1)))
    int_gf = RationalGF((2,), (1, -1))
    assert poly_gf == int_gf and hash(poly_gf) == hash(int_gf)
    assert len({poly_gf, int_gf}) == 1


@settings(max_examples=250)
@given(st.one_of(_pairs(_polys, IntPoly.one()), _pairs(st.integers(-9, 9), 1),
                 _pairs(_fracs, Fraction(1)), _graded_pairs(), _factored_pairs(),
                 _column_pairs()),
       st.integers(0, 8), st.integers(0, 14))
# A pair graded mod 3 but for the x term of num_1.
@example(([1, _X2 + _X, 5 * _X], [1, -_X2, -_X, -1]), 0, 14)
# A factored pair with shift >= order, and at order 0.
@example(_FACTORED, 9, 4)
@example(_FACTORED, 0, 0)
# The column kernel with the unit coefficients of Q_s and W_s, and on a
# numerator column above a zero one.
@example(_Q_LIKE, 1, 14)
@example(_GAP, 0, 2)
# In-column recurrences, a raised t, and an ungraded pair on step-1 columns.
@example(_IN_COLUMN, 0, 14)
@example(_RAISED, 1, 14)
@example(_UNGRADED, 0, 14)
def test_expansion_kernels_match_the_generic_loop(pair, shift, order):
    # Equal pairs with and without factors share one memo entry.
    BODIES.clear()
    gf = RationalGF(tuple(pair[0]), tuple(pair[1]), shift, *pair[2:])
    got = series_expand(gf, order).coeffs
    want = _generic_expand(gf, order)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
    if gf.factors:
        BODIES.clear()
        plain = series_expand(RationalGF(gf.numerator, gf.denominator, shift), order)
        assert plain.coeffs == got
        assert [type(c) for c in plain.coeffs] == [type(c) for c in got]


def test_grading_is_detected_from_the_pair_terms():
    # Every Q_s and W_s pair runs on columns graded mod 3 with t = 2.
    pairs = [q_gf(s, variant) for s in range(17) for variant in GFVariant]
    pairs += [w_gf(s) for s in range(1, 17)]
    for gf in pairs:
        assert genfunc._grading(gf.numerator, gf.factors)[:2] == (3, 2)
    assert genfunc._grading(*_ON_LATTICE[::2]) == (3, 2, 1)
    # The x term of num_1, or the x z term of a factor, is off the lattice.
    off = [([1, _X2 + _X, 5 * _X], ((1, -_X2, -_X, -1),)), _OFF_LATTICE[::2]]
    for num, factors in off:
        assert genfunc._grading(num, factors) == (1, 0, 0)


def _kernel_of(gf):
    BODIES.clear()
    series_expand(gf, 1)
    kernel = BODIES[series_key(gf)]._extend.func
    BODIES.clear()
    return kernel


def test_q_and_w_pairs_take_the_column_kernel():
    pairs = [q_gf(s, variant) for s in range(17) for variant in GFVariant]
    pairs += [w_gf(s) for s in range(1, 17)]
    # graded with a factor term that keeps its column, and ungraded
    pairs += [RationalGF(tuple(pair[0]), tuple(pair[1]), 0, pair[2])
              for pair in (_ON_LATTICE, _OFF_LATTICE)]
    # Q_6 without its factors, and Q_3 cleared through Lemma 9
    q6 = q_gf(6)
    pairs += [RationalGF(q6.numerator, q6.denominator, q6.shift), lemma9_gf(_lemma9_q(3))]
    for gf in pairs:
        assert _kernel_of(gf) is genfunc._grow_columns


@settings(max_examples=50)
@given(_column_pairs())
def test_column_pairs_take_the_column_kernel(pair):
    assert _kernel_of(RationalGF(tuple(pair[0]), tuple(pair[1]), 0, pair[2])) \
        is genfunc._grow_columns


def test_factors_must_have_unit_terms_and_multiply_to_the_denominator():
    x2 = IntPoly.monomial(1, 2)
    m = (IntPoly.one(), -x2)
    RationalGF((1,), (1, -2 * x2, x2 * x2), factors=(m, m))
    with pytest.raises(ExpansionError):
        RationalGF((1,), (2, -4), factors=((2,), (1, -2)))
    with pytest.raises(ExpansionError):
        RationalGF((1,), (1, -2), factors=((1, -1), ()))
    with pytest.raises(ExpansionError):
        RationalGF((1,), (1, -x2), factors=(m, m))


def test_factor_check_still_rejects_once_the_product_memo_is_warm():
    for name in ("genfunc._factor_product", "genfunc.q_gf", "genfunc.w_gf"):
        MEMOS[name].clear()
    s = 3
    good = q_gf(s)
    q_gf(s, GFVariant.AS_PRINTED)
    w = w_gf(s)                       # also builds Q_(s-1)
    # Q_s in both variants and W_s build one product for level s
    assert len(MEMOS["genfunc._factor_product"]) == 2
    assert w.denominator is good.denominator
    d, m = good.factors[0], good.factors[1]
    wrong = [
        (good.denominator, (d,) + (m,) * s),               # one 1 - x^2 z short
        (good.denominator, ((d[0], d[2], d[1], d[3]),) + good.factors[1:]),  # reordered
        (q_gf(s - 1).denominator, good.factors),           # another level's product
        (good.denominator[::-1], good.factors),            # reordered denominator
    ]
    for _ in range(2):                # the second round finds every product memoised
        for den, factors in wrong:
            with pytest.raises(ExpansionError):
                RationalGF(good.numerator, den, good.shift, factors)


@pytest.mark.parametrize("symbolic_first", [True, False])
def test_direct_series_is_shared_by_the_sweeps_of_one_family(symbolic_first):
    direct = genfunc.direct_series
    direct.cache_clear()
    one = Fraction(1)
    rng = SweepRange(s_max=3, order=24, x_points=(one,), include_symbolic=False)
    run_identity("cor11", rng)
    assert direct.cache_info().currsize == 4
    built = {s: direct(TRIB, s, one, 24) for s in range(4)}
    assert direct.cache_info().misses == 4
    for identity_id in ("thm10-printed", "thm10-corrected", "eq1.6-shift"):
        run_identity(identity_id, rng)
    # each level's tuple is read again, never built again
    assert direct.cache_info().misses == direct.cache_info().currsize == 4
    assert all(direct(TRIB, s, one, 24) is values for s, values in built.items())
    MEMOS["incomplete.incomplete_tribonacci_poly"].clear()
    for s in range(4):
        fresh = tuple(direct_incomplete_coeff(TRIB, k, s, one) for k in range(24))
        shared = direct(TRIB, s, one, 24)
        assert shared == fresh
        assert all(type(c) is Fraction for c in shared)
    # the symbolic and the x = 1 values never share an entry, in either order
    direct.cache_clear()
    modes = [None, one] if symbolic_first else [one, None]
    kinds = {None: IntPoly, one: Fraction}
    for x in modes:
        assert {type(c) for c in direct(TRIB, 2, x, 24)} == {kinds[x]}
    assert direct.cache_info().currsize == 2


@pytest.mark.parametrize("order, s_max, expected", [
    # the largest order the query-mix benchmark asks for, past the order-48
    # pins of the verify sweep; taken from the kernel that divided by the
    # expanded product
    (96, 12, "07f05b99f5d23ec7b38af5d6f287fbf9678da47de845fee21919dc7a19d304ce"),
    # the large verify range (--s-max 16 --order 128); taken from the
    # factored kernel on ungraded x-lists
    (128, 16, "a5b4051a6b7bc0596e93f36e164a2b21fcb6759e6326657d924e306aca919ddd"),
], ids=["96", "128"])
def test_symbolic_series_are_pinned(order, s_max, expected):
    # Q_s (both variants, s <= s_max) and W_s (1 <= s <= s_max).  Every pair
    # carries its s + 2 denominator factors, so this covers the
    # factor-by-factor division at high k.
    digest = hashlib.sha256()
    pairs = [(s, q_gf(s, variant)) for s in range(s_max + 1) for variant in GFVariant]
    pairs += [(s, w_gf(s)) for s in range(1, s_max + 1)]
    for s, gf in pairs:
        assert len(gf.factors) == s + 2
        digest.update(json.dumps(series_expand(gf, order).to_json_list()).encode())
    assert digest.hexdigest() == expected


def test_mixed_int_and_intpoly_pair_expands_to_intpolys():
    x2 = IntPoly.monomial(1, 2)
    got = series_expand(RationalGF((1, 0), (1, -x2)), 4).coeffs
    assert got == (1, x2, IntPoly.monomial(1, 4), IntPoly.monomial(1, 6))
    assert all(type(c) is IntPoly for c in got)


@pytest.mark.parametrize("int_first", [True, False])
def test_expansion_memo_keeps_coefficient_types(int_first):
    # Equal int and Fraction pairs compare and hash alike; the memo must not
    # hand one kind's expansion to the other.
    BODIES.clear()
    int_gf = RationalGF((1,), (1, -1))
    frac_gf = RationalGF((Fraction(1),), (Fraction(1), Fraction(-1)))
    order = [int_gf, frac_gf] if int_first else [frac_gf, int_gf]
    for gf in order:
        series_expand(gf, 4)
    assert [type(c) for c in series_expand(int_gf, 4).coeffs] == [int] * 4
    assert [type(c) for c in series_expand(frac_gf, 4).coeffs] == [Fraction] * 4


@settings(max_examples=250)
@given(st.one_of(_pairs(_polys, IntPoly.one()), _pairs(st.integers(-9, 9), 1),
                 _pairs(_fracs, Fraction(1)), _graded_pairs(), _factored_pairs(),
                 _column_pairs()),
       st.integers(0, 8), st.lists(st.integers(0, 24), min_size=1, max_size=4))
# Resuming a factored pair past its first len(f) - 1 positions, and short of them.
@example(_FACTORED, 0, [5, 24])
@example(_FACTORED, 1, [2, 3, 24, 1])
# Resuming on x-lists graded mod 3 and, one factor term off, ungraded.
@example(_ON_LATTICE, 2, [7, 3, 20, 24])
@example(_OFF_LATTICE, 2, [7, 3, 20, 24])
# Resuming on columns; for the second pair, the top output column at order
# 24 is still zero at order 2.
@example(_Q_LIKE, 2, [7, 3, 20, 24])
@example(_LATE_COLUMNS, 0, [2, 24])
# Resuming an in-column recurrence that reads two positions back, a raised t
# and step-1 columns.
@example(_IN_COLUMN, 0, [7, 3, 20, 24])
@example(_RAISED, 2, [7, 3, 20, 24])
@example(_UNGRADED, 0, [7, 3, 20, 24])
def test_expansion_resumes_from_the_memoised_body(pair, shift, orders):
    # Each order is served from, or continues, the longest body so far.
    BODIES.clear()
    gf = RationalGF(tuple(pair[0]), tuple(pair[1]), shift, *pair[2:])
    for order in orders:
        got = series_expand(gf, order).coeffs
        want = _generic_expand(gf, order)
        assert got == want, order
        assert [type(c) for c in got] == [type(c) for c in want]


def test_q_and_w_resumed_in_any_order_match_fresh_expansions():
    pairs = [q_gf(s, variant, x) for s in range(13) for variant in GFVariant
             for x in (None, Fraction(1, 2))]
    pairs += [w_gf(s, x) for s in range(1, 13) for x in (None, Fraction(1, 2))]
    requests = [(gf, order) for gf in pairs for order in (32, 64, 96)]
    fresh = {}
    for gf, order in requests:
        BODIES.clear()
        fresh[gf, order] = series_expand(gf, order).coeffs
    random.Random(15).shuffle(requests)
    BODIES.clear()
    for gf, order in requests:
        got = series_expand(gf, order).coeffs
        assert got == fresh[gf, order]
        assert [type(c) for c in got] == [type(c) for c in fresh[gf, order]]


def test_expansion_memo_keeps_one_body_per_pair():
    BODIES.clear()
    gf = w_gf(5)
    for order in (32, 96, 64):
        series_expand(gf, order)
    assert list(BODIES) == [(gf, IntPoly)]
    body = BODIES[gf, IntPoly]._values
    assert len(body) == 96 - gf.shift
    assert all(type(c) is IntPoly for c in body)
    assert series_expand(gf, 64).coeffs[gf.shift:] == tuple(body[:64 - gf.shift])


@pytest.mark.parametrize("gf", [q_gf(4), w_gf(5), q_gf(3, GFVariant.CORRECTED, Fraction(2, 3))],
                         ids=["Q", "W", "Fraction"])
def test_kept_division_state_stays_short_and_in_step_with_its_body(gf):
    # The kernel keeps only what its recurrence reads of the past.  The
    # column kernel keeps, per numerator column, the last value of each of
    # the s + 1 (1 - x^2 z) passes, and per output column of the
    # 1 - x^2 z - x z^2 - z^3 scan its last three values; Q_s and W_s have a
    # fixed set of output columns, so the state has one size at every order.
    # The scalar kernel keeps the last len(den) - 1 values P_k.
    BODIES.clear()
    fresh = series_expand(gf, 96).coeffs
    BODIES.clear()
    longest = 0
    sizes = set()
    for order in (32, 96, 64):
        longest = max(longest, order)
        assert series_expand(gf, order).coeffs == fresh[:order]
        body = BODIES[series_key(gf)]
        *_, (position, kept) = body._extend.args
        assert position == len(body) == longest - gf.shift
        if series_key(gf)[1] is IntPoly:
            g, t, r, columns, passes, scans = body._extend.args[0]
            assert (g, t, passes, len(scans)) == (3, 2, len(gf.factors) - 1, 1)
            carries, (tails,) = kept
            assert carries.keys() == columns.keys()
            assert {len(last) for last in carries.values()} == {len(gf.factors) - 1}
            assert {len(last) for last in tails.values()} == {3}
            sizes.add((len(carries), tuple(sorted(tails))))
        else:
            assert len(kept) == len(body._extend.args[1]) - 1
            sizes.add(len(kept))
    assert len(sizes) == 1
    # A cleared body starts the division over.
    body.clear()
    assert series_expand(gf, 64).coeffs == fresh[:64]
    assert body._extend.args[-1][0] == len(body) == 64 - gf.shift
    # A state out of step with its body fails loudly.
    body._values.pop()
    with pytest.raises(InternalConsistencyError):
        series_expand(gf, 96)
    BODIES.clear()


@pytest.mark.parametrize("first", [32, 96])
def test_threads_growing_one_pair_run_the_kernel_once_per_extension(first):
    # The first thread holds the body's lock inside a slowed kernel while the
    # others ask the same pair for orders 96 and 32; they wait, then find the
    # body long enough or extend it once.  The body only ever grows.
    gf = w_gf(6)
    BODIES.clear()
    want = series_expand(gf, 96).coeffs
    BODIES.clear()
    kernel, calls, entered = genfunc._grow_columns, [], threading.Event()

    def slow_kernel(plan, state, body, length):
        calls.append((len(body), length))
        entered.set()
        time.sleep(0.2)
        return kernel(plan, state, body, length)

    results = []

    def ask(order):
        results.append((order, series_expand(gf, order).coeffs))

    with mock.patch.object(genfunc, "_grow_columns", slow_kernel):
        threads = [threading.Thread(target=ask, args=(first,))]
        threads[0].start()
        assert entered.wait(timeout=60)
        threads += [threading.Thread(target=ask, args=(order,)) for order in (96, 32) * 3]
        for thread in threads[1:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    low, high = 32 - gf.shift, 96 - gf.shift
    assert calls == {32: [(0, low), (low, high)], 96: [(0, high)]}[first]
    assert len(BODIES[gf, IntPoly]._values) == 96 - gf.shift
    assert sorted(order for order, _ in results) == sorted([first] + [96, 32] * 3)
    assert all(coeffs == want[:order] for order, coeffs in results)


def test_threads_growing_one_memo_read_only_whole_bodies():
    # A body grows in place under its lock and never gets shorter, so a
    # thread reading while another grows, or clears, the memo or one body
    # still gets a full prefix.
    pairs = [q_gf(3), q_gf(7, GFVariant.AS_PRINTED), w_gf(4, Fraction(1, 2))]
    fresh = {}
    for gf in pairs:
        BODIES.clear()
        fresh[gf] = series_expand(gf, 64).coeffs
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(40):
            if rng.random() < 0.2:
                BODIES.clear()
            gf, order = rng.choice(pairs), rng.choice((8, 20, 40, 64))
            body = BODIES.get(series_key(gf))
            if body is not None and rng.random() < 0.2:
                body.clear()
            try:
                if series_expand(gf, order).coeffs != fresh[gf][:order]:
                    errors.append((gf, order))
            except Exception as exc:    # a raise in a thread would pass unseen
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
