import copy
import pickle
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triblucas.cli import POLY_INDEX_MAX, TRIANGLE_INDEX_MAX
from triblucas.errors import PolyParseError
from triblucas.poly import (
    POLY_DEGREE_MAX,
    IntPoly,
    poly_add,
    poly_eval,
    poly_format,
    poly_mul,
    poly_parse,
)
from triblucas.sequences import MEMOS

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


@pytest.mark.parametrize("value", [0, 5, -5, 2 ** 100])
def test_a_constant_hashes_as_the_int_it_equals(value):
    p = IntPoly.constant(value)
    assert p == value and hash(p) == hash(value)
    assert len({p, value}) == 1
    assert {value: "int"}[p] == "int" and {p: "poly"}[value] == "poly"


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
@given(small_polys, st.data())
def test_parse_format_roundtrip(p, data):
    text = poly_format(p)
    assert poly_parse(text) == p
    # The same terms in a drawn order, with drawn whitespace between tokens.
    words = text.split(" ")
    first = words[0] if words[0][0] == "-" else "+" + words[0]
    terms = [first] + [sign + body for sign, body in zip(words[1::2], words[2::2])]
    terms = data.draw(st.permutations(terms))
    tokens = [token for term in terms for token in re.findall(r"\d+|\S", term)]
    if tokens[0] == "+":
        tokens = tokens[1:]
    spaces = data.draw(st.lists(st.text(" \t\n", max_size=2),
                                min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    shuffled = "".join(map("".join, zip(spaces, tokens + [""])))
    assert poly_parse(shuffled) == p


def test_the_parse_memo_keys_on_the_digit_limit(int_digit_limit):
    text = "x + " + "1" * 5000
    sys.set_int_max_str_digits(0)
    assert poly_parse(text) == IntPoly([int("1" * 5000), 1])
    sys.set_int_max_str_digits(4300)
    with pytest.raises(PolyParseError) as info:
        poly_parse(text)
    assert str(info.value) == ("coefficient '111111111111...' at position 4 has 5000 "
                               "digits, more than the limit of 4300")


def test_a_malformed_text_raises_on_every_call():
    memo = MEMOS["poly._parse"]
    before = len(memo)
    for _ in range(3):
        with pytest.raises(PolyParseError, match=r"unexpected token '\^' at position 2"):
            poly_parse("x^^2")
    assert len(memo) == before


def test_a_formatted_polynomial_keeps_its_text():
    p = IntPoly([3, 0, -4, 1])
    assert not hasattr(p, "_text")
    text = poly_format(p)
    assert text == "x^3 - 4*x^2 + 3" and p._text == text
    assert poly_format(p) is text
    equal = (poly_parse("3 - 4*x^2 + x^3"), IntPoly.from_terms([(0, 3), (2, -4), (3, 1)]),
             X ** 3 - 4 * X * X + 3, copy.copy(p), pickle.loads(pickle.dumps(p)))
    for q in equal:
        assert q == p and poly_format(q) == text


# The parser that poly_parse replaced, one step per token; the reference for
# its results and error messages.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<x>x)|(?P<caret>\^)|(?P<star>\*)"
                    r"|(?P<plus>\+)|(?P<minus>-)")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None or m.lastgroup is None:
            raise PolyParseError(
                f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def _reference_parse(text: str) -> IntPoly:
    """Inverse of :func:`poly_format` (whitespace tolerant, any term order).

    Grammar: ``poly := ['-'] term (('+'|'-') term)*`` with
    ``term := coeff | coeff '*' 'x' ['^' exp] | 'x' ['^' exp]``.
    Malformed input raises :class:`PolyParseError` naming the offending
    token and its position.
    """
    stripped = text.strip()
    if not stripped:
        raise PolyParseError("empty polynomial text at position 0")
    tokens = _tokenize(text)
    terms = []
    i = 0
    n = len(tokens)

    def fail(idx: int) -> PolyParseError:
        if idx < n:
            kind, value, pos = tokens[idx]
            return PolyParseError(f"unexpected token {value!r} at position {pos}")
        return PolyParseError(f"unexpected end of input at position {len(text)}")

    first = True
    while i < n:
        sign = 1
        kind, value, pos = tokens[i]
        if kind == "minus":
            sign = -1
            i += 1
        elif kind == "plus":
            if first:
                raise PolyParseError(f"unexpected token '+' at position {pos}")
            i += 1
        elif not first:
            raise fail(i)
        if i >= n:
            raise fail(i)
        kind, value, pos = tokens[i]
        if kind not in ("int", "x"):
            raise fail(i)
        coeff = 1
        power = 0
        if kind == "int":
            coeff = int(value)
            i += 1
            if i < n and tokens[i][0] == "star":
                i += 1
                if i >= n or tokens[i][0] != "x":
                    raise fail(i)
                kind = "x"
            else:
                kind = ""
        if kind == "x":
            power = 1
            i += 1
            if i < n and tokens[i][0] == "caret":
                i += 1
                if i >= n or tokens[i][0] != "int":
                    raise fail(i)
                power = int(tokens[i][1])
                i += 1
        terms.append((power, sign * coeff))
        first = False
    return IntPoly.from_terms(terms)


def _outcome(parse, text):
    try:
        return parse(text)
    except PolyParseError as exc:
        return str(exc)


def _check_against_reference(text):
    got = _outcome(poly_parse, text)
    if isinstance(got, str) and "POLY_DEGREE_MAX" in got:
        # The reference has no bound and would allocate a list as long as
        # the exponent, so only check that the text holds one past the bound.
        assert max(int(e) for e in re.findall(r"\^\s*(\d+)", text)) > POLY_DEGREE_MAX
    else:
        assert got == _outcome(_reference_parse, text), text


# Tokens, a non-ASCII digit, bad characters and whitespace.
PARSE_ALPHABET = ("1", "23", "0", "\u0663", "x", "X", "^", "*", "+", "-", "?",
                  " ", "\t", "\n")


@settings(max_examples=600)
@given(st.lists(st.sampled_from(PARSE_ALPHABET), max_size=12).map("".join))
def test_parse_matches_reference_parser(text):
    _check_against_reference(text)


@pytest.mark.parametrize("text", [
    "+x", " + 2", "-", "- -x", "x^", "x^ + 1", "x 2", "2 3", "2x", "2*", "2*3",
    "x*2", "x^2^3", "x^-2", "*x", "^2", "x + 2 x", "1 - - 2", "x^2 + 3*x^1 -",
    "  2 * x ^ 3 -x\t+ 7\n", "x^\u0663 + \u0663", "0", "   ", "x\nX",
])
def test_parse_matches_reference_on_known_cases(text):
    _check_against_reference(text)


@pytest.fixture
def int_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("text, message", [
    ("x^10000000000",
     "exponent '10000000000' at position 2 is above POLY_DEGREE_MAX = 65536"),
    ("3 + 2*x^65537 + x",
     "exponent '65537' at position 8 is above POLY_DEGREE_MAX = 65536"),
    ("x^" + "9" * 5000,
     "exponent '999999999999...' at position 2 has 5000 digits, "
     "more than the limit of 4300"),
    ("x + " + "1" * 5000,
     "coefficient '111111111111...' at position 4 has 5000 digits, "
     "more than the limit of 4300"),
], ids=["exponent-1e10", "exponent-past-bound", "long-exponent", "long-coefficient"])
def test_parse_past_the_bounds_raises_without_allocating(text, message, int_digit_limit):
    def parse():
        with pytest.raises(PolyParseError) as info:
            poly_parse(text)
        assert str(info.value) == message

    assert _peak_bytes(parse) < 1 << 20


def test_monomial_past_the_bound_raises_without_allocating():
    def build():
        with pytest.raises(ValueError, match="POLY_DEGREE_MAX = 65536, got 10000000000"):
            IntPoly.monomial(1, 10 ** 10)

    assert _peak_bytes(build) < 1 << 20
    with pytest.raises(ValueError, match="POLY_DEGREE_MAX"):
        IntPoly.monomial(1, POLY_DEGREE_MAX + 1)


_X = IntPoly.x()


@pytest.mark.parametrize("build, message", [
    (lambda: _X.shifted(10 ** 10),
     "shifted degree must be <= POLY_DEGREE_MAX = 65536, got 10000000001"),
    (lambda: (_X + 1).shifted(POLY_DEGREE_MAX),
     "shifted degree must be <= POLY_DEGREE_MAX = 65536, got 65537"),
    (lambda: IntPoly.from_terms([(10 ** 10, 1)]),
     "term power must be <= POLY_DEGREE_MAX = 65536, got 10000000000"),
    (lambda: IntPoly.from_terms([(2, 1), (POLY_DEGREE_MAX + 1, -1)]),
     "term power must be <= POLY_DEGREE_MAX = 65536, got 65537"),
    (lambda: _X ** 10 ** 10,
     "power's degree must be <= POLY_DEGREE_MAX = 65536, got 10000000000"),
    (lambda: (_X * _X + 1) ** (POLY_DEGREE_MAX // 2 + 1),
     "power's degree must be <= POLY_DEGREE_MAX = 65536, got 65538"),
    (lambda: IntPoly.constant(2) ** 10 ** 10,
     "exponent of a constant must be <= POLY_DEGREE_MAX = 65536, got 10000000000"),
    (lambda: IntPoly.constant(-3) ** (POLY_DEGREE_MAX + 1),
     "exponent of a constant must be <= POLY_DEGREE_MAX = 65536, got 65537"),
])
def test_polynomial_builders_past_the_bound_raise_without_allocating(build, message):
    def run():
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    assert _peak_bytes(run) < 1 << 20


def test_polynomial_builders_reach_the_bound():
    top = IntPoly.monomial(1, POLY_DEGREE_MAX)
    assert _X.shifted(POLY_DEGREE_MAX - 1) == top
    assert IntPoly.from_terms([(POLY_DEGREE_MAX, 1), (10 ** 10, 0)]) == top
    assert _X ** POLY_DEGREE_MAX == top
    # no degree to bound: the zero polynomial and constants
    assert IntPoly.zero().shifted(10 ** 10) == IntPoly.zero()
    assert IntPoly.zero() ** 10 ** 10 == IntPoly.zero()
    assert IntPoly.one() ** 10 ** 10 == IntPoly.one()
    assert IntPoly.constant(-1) ** (10 ** 10 + 1) == IntPoly.constant(-1)
    assert IntPoly.constant(2) ** POLY_DEGREE_MAX == IntPoly.constant(2 ** POLY_DEGREE_MAX)


def test_poly_degree_bound_covers_the_library():
    # K_n has degree 2n; table rows and the incomplete index stop at 150,
    # the large verify range at n = 120.
    assert POLY_DEGREE_MAX >= 2 * max(POLY_INDEX_MAX, TRIANGLE_INDEX_MAX, 120)
    assert IntPoly.monomial(3, POLY_DEGREE_MAX).degree == POLY_DEGREE_MAX
    assert poly_parse(f"x^{POLY_DEGREE_MAX} - 1").degree == POLY_DEGREE_MAX


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


@settings(max_examples=300)
@given(st.one_of(small_polys, sparse_polys), st.integers(-10 ** 6, 10 ** 6))
def test_an_int_point_is_the_fraction_point_with_denominator_one(p, k):
    at_int = p.evaluate(k)
    assert type(at_int) is int
    assert at_int == p.evaluate(Fraction(k))


# -- the packed form against a dense reference ---------------------------------

def _trim(dense):
    out = list(dense)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _triple(dense):
    # (low, step, packed) of a dense tuple, by the definition of the form
    powers = [k for k, c in enumerate(dense) if c]
    if not powers:
        return 0, 3, ()
    low = powers[0]
    step = 3 if all((k - low) % 3 == 0 for k in powers) else 1
    return low, step, tuple(dense[low:powers[-1] + 1:step])


def _dense_add(a, b):
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _on_one_class(low, cs):
    out = [0] * (low + 3 * len(cs))
    out[low::3] = cs
    return out


_SMALL = st.integers(-3, 3)
# Step-1 draws (any powers) and step-3 draws (one class mod 3, any class).
dense_polys = st.one_of(
    st.lists(_SMALL, max_size=10),
    st.builds(_on_one_class, st.integers(0, 7), st.lists(_SMALL, max_size=5)))


@st.composite
def cancelling(draw, a):
    # b with a + b = 0, a constant, a monomial, or a without its lowest or
    # highest term
    kind = draw(st.sampled_from(("zero", "constant", "monomial", "lowest", "highest")))
    powers = [k for k, c in enumerate(a) if c]
    if kind in ("lowest", "highest") and powers:
        k = powers[0] if kind == "lowest" else powers[-1]
        return [0] * k + [-a[k]]
    b = [-c for c in a]
    if kind != "zero":
        k = 0 if kind == "constant" else draw(st.integers(0, 12))
        b += [0] * (k + 1 - len(b))
        b[k] += draw(_SMALL.filter(bool))
    return b


def _check(p, dense):
    ref = _trim(dense)
    assert (p._low, p._step, p._packed) == _triple(ref)
    assert p.coeffs == ref and tuple(p) == ref and len(p) == len(ref)
    assert p.degree == (len(ref) - 1 if ref else None)
    assert [p[k] for k in range(-2, len(ref) + 3)] == [0, 0, *ref, 0, 0, 0]
    assert p == IntPoly(ref) and hash(p) == hash(IntPoly(ref))
    if len(ref) <= 1:
        c = ref[0] if ref else 0
        assert p == c and hash(p) == hash(c)
    for x0 in (2, -1, Fraction(-2, 3)):
        got = p.evaluate(x0)
        assert got == sum(c * x0 ** k for k, c in enumerate(ref)) and type(got) is type(x0)
    assert poly_parse(poly_format(p)) == p


@settings(max_examples=300, deadline=None)
@given(dense_polys, st.data())
def test_packed_operations_match_a_dense_reference(a, data):
    b = data.draw(st.one_of(dense_polys, cancelling(a)))
    c, n, k = data.draw(_SMALL), data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    pa, pb = IntPoly(a), IntPoly(b)
    neg_b = [-v for v in b]
    power = (1,)
    for _ in range(n):
        power = _dense_mul(power, a)
    for p, ref in [(pa, a), (pb, b), (pa + pb, _dense_add(a, b)), (pa - pb, _dense_add(a, neg_b)),
                   (-pb, neg_b), (pa * pb, _dense_mul(a, b)), (pa ** n, power),
                   (pa.shifted(k), [0] * k + list(_trim(a)) if _trim(a) else ()),
                   (pa + c, _dense_add(a, (c,))), (c - pa, _dense_add((c,), [-v for v in a])),
                   (c * pa, _dense_mul((c,), a))]:
        _check(p, ref)


ROUTES = {
    "dense": lambda: IntPoly([0, 0, 4, 0, 0, -1, 0, 0, 7, 0, 0]),
    "from_terms": lambda: IntPoly.from_terms([(8, 7), (5, -1), (2, 4), (3, 1), (3, -1)]),
    "parse": lambda: poly_parse("4*x^2 - x^5 + 7*x^8"),
    "sum": lambda: IntPoly.monomial(7, 8) + IntPoly.monomial(-1, 5) + IntPoly.monomial(4, 2),
    "mixed-sum-shifted": lambda: (IntPoly([4, 0, 0, -1, 0, 0, 7]) + IntPoly([1, 1])
                                  - IntPoly([1, 1])).shifted(2),
    # (1 + x)(1 - x + x^2) = 1 + x^3: factors on every class, a step-3 product
    "mixed-product": lambda: (IntPoly([1, 1]) * IntPoly([1, -1, 1])
                              * IntPoly.from_terms([(0, 4), (3, 7)])
                              - IntPoly.monomial(12, 3)) * IntPoly.monomial(1, 2),
    "negated-twice": lambda: -(-poly_parse("7*x^8 - x^5 + 4*x^2")),
    "copy": lambda: copy.copy(poly_parse("7*x^8 - x^5 + 4*x^2")),
    "pickle": lambda: pickle.loads(pickle.dumps(IntPoly.from_terms([(2, 4), (5, -1), (8, 7)]))),
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_every_route_to_a_polynomial_gives_one_triple_and_hash(route):
    p = route()
    assert (p._low, p._step, p._packed) == (2, 3, (4, -1, 7))
    assert hash(p) == hash(IntPoly([0, 0, 4, 0, 0, -1, 0, 0, 7]))


def test_memo_held_family_polynomials_fit_a_third_of_the_dense_slots():
    from triblucas import genfunc, sequences, triangles

    for memo in MEMOS.values():
        memo.clear()
    tracemalloc.start()
    try:
        t = [sequences.tribonacci_poly(n) for n in range(301)]
        k = [sequences.tribonacci_lucas_poly(n) for n in range(301)]
        poly = triangles.TriangleKind.POLYNOMIALS
        diagonals = [triangles.diagonal_sum(poly, n) for n in range(81)]
        bodies = ([genfunc.series_expand(genfunc.q_gf(s), 96) for s in range(13)]
                  + [genfunc.series_expand(genfunc.w_gf(s), 96) for s in range(1, 13)])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 9.2-9.3 MB with every power stored from x^0 up, 5.9-6.0 MB packed
    # (CPython 3.10-3.13)
    assert held < 7_500_000
    entries = [e for column in poly.columns._values for e in column._values]
    series = [c for b in bodies for c in b.coeffs]
    held_polys = t + k + diagonals + entries + series
    assert len(entries) > 1600 and all(p._step == 3 for p in held_polys)
