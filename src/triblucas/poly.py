"""Exact univariate polynomial arithmetic over arbitrary-precision integers.

``IntPoly`` is the coefficient substrate for every family in this library:
the Tribonacci / Tribonacci-Lucas polynomials, the polynomial triangle, the
incomplete families, and the x-polynomial coefficients of the power series
in z.  The paper writes each family as a binomial sum whose powers step by
3, e.g. T_n(x) = sum C(i,j) C(n-i-j-1,i) x^(2n-3(i+j)-2), so an ``IntPoly``
stores only the arithmetic progression of powers that holds its nonzero
coefficients.  Values are immutable and kept in canonical form, so
equality is equality of that progression and its coefficients.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from operator import add
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .errors import PolyParseError

Scalar = Union[int, "IntPoly"]

POLY_DEGREE_MAX = 65536
"""Largest power that :func:`poly_parse` reads and that ``IntPoly.monomial``,
``from_terms``, ``shifted`` and ``**`` build, and the largest exponent ``**``
takes on a constant other than 0 and +-1; each checks it before it
allocates.  Every polynomial the library makes stays far below it: degree
2 * 1000 for ``triblucas poly`` at its largest index, 2 * 150 for the
triangle rows, 240 at the large verify range (n = 120)."""


def _check_degree(what: str, degree: int) -> int:
    if degree > POLY_DEGREE_MAX:
        raise ValueError(f"{what} must be <= POLY_DEGREE_MAX = {POLY_DEGREE_MAX}, "
                         f"got {degree}")
    return degree


class IntPoly:
    """Immutable integer polynomial in x, stored on the progression of its support.

    The coefficient of x^(low + step*b) is ``_packed[b]``.  ``_step`` is 3
    when every nonzero power lies in one class mod 3, as in every family
    polynomial here, else 1; ``_packed`` starts and ends at a nonzero
    coefficient, and the zero polynomial is (0, 3, ()).  The form is
    canonical, so equality and hashing read the triple.  ``coeffs`` builds
    the dense tuple, ``coeffs[k]`` multiplying x^k, on each call.

    The degree of the zero polynomial is ``None`` (a distinguished
    minus-infinity marker, never a number).  ``int`` operands coerce to
    constant polynomials in all arithmetic, and a constant polynomial
    equals and hashes as its ``int``.  The ``_text`` slot is derived state,
    like the hash ``RationalGF`` keeps: unset until the first
    :func:`poly_format` call stores the canonical text there, and never
    part of equality or hashing.
    """

    __slots__ = ("_low", "_step", "_packed", "_text")

    def __init__(self, coeffs: Iterable[int] = ()):
        self._set(0, 1, tuple(coeffs))

    def _set(self, low: int, step: int, values) -> None:
        # values[b] at x^(low + step b), trimmed to its nonzero ends; a step-1
        # run on one class mod 3 is repacked with step 3.  An untrimmed tuple
        # is shared, not copied.
        end = len(values)
        while end and not values[end - 1]:
            end -= 1
        start = 0
        while start < end and not values[start]:
            start += 1
        packed, low = tuple(values)[start:end], low + step * start
        if step == 1 and not (any(packed[1::3]) or any(packed[2::3])):
            packed, step = packed[::3], 3
        self._low, self._step, self._packed = (low, step, packed) if packed else (0, 3, ())

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "IntPoly":
        return _ONE

    @classmethod
    def x(cls) -> "IntPoly":
        return _X

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return _pack(0, 3, (c,))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        _check_degree("monomial power", power)
        return _pack(power, 3, (coeff,))

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[int, int]]) -> "IntPoly":
        """Build from (power, coefficient) pairs, summing duplicates."""
        acc: dict = {}
        for power, coeff in terms:
            if power < 0:
                raise ValueError("negative power in term list")
            acc[power] = acc.get(power, 0) + coeff
        powers = [power for power, coeff in acc.items() if coeff]
        if not powers:
            return _ZERO
        low = min(powers)
        out = [0] * (_check_degree("term power", max(powers)) - low + 1)
        for power in powers:
            out[power - low] = acc[power]
        return _pack(low, 1, out)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The dense coefficient tuple, built on each call."""
        return (0,) * self._low + tuple(self._spread())

    @property
    def degree(self) -> Optional[int]:
        """Degree, or ``None`` for the zero polynomial."""
        return self._low + self._step * (len(self._packed) - 1) if self._packed else None

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __len__(self) -> int:
        return self.degree + 1 if self._packed else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, power: int) -> int:
        """Coefficient of x^power (0 off the stored progression)."""
        b, off = divmod(power - self._low, self._step)
        return self._packed[b] if not off and 0 <= b < len(self._packed) else 0

    def _spread(self) -> List[int]:
        # the coefficients of x^low, x^(low+1), ..., x^degree ([] for zero)
        out = [0] * (self._step * (len(self._packed) - 1) + 1)
        out[::self._step] = self._packed
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Scalar) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._packed or not self._packed:
            return self if self._packed else other
        # one class of powers mod 3 adds packed; mixed classes add spread out
        step = 3 if self._step == other._step == 3 and (self._low - other._low) % 3 == 0 else 1
        low = min(self._low, other._low)
        out: List[int] = []
        for p in (self, other):
            _add_at(out, (p._low - low) // step, p._packed if p._step == step else p._spread())
        return _pack(low, step, out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return _pack(self._low, self._step, tuple(-c for c in self._packed))

    def __sub__(self, other: Scalar) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Scalar) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if not a._packed or not b._packed:
            return _ZERO
        if len(a._packed) > len(b._packed):
            a, b = b, a
        low = a._low + b._low
        if len(a._packed) == 1:     # a monomial factor shifts and scales
            c = a._packed[0]
            return _pack(low, b._step, b._packed if c == 1 else tuple(c * v for v in b._packed))
        # two step-3 factors convolve packed, with a ninth of the products
        step = 3 if a._step == b._step == 3 else 1
        pa, pb = (p._packed if p._step == step else p._spread() for p in (a, b))
        width = len(pb)
        out = [0] * (len(pa) + width - 1)
        for i, ca in enumerate(pa):
            if ca:
                out[i:i + width] = [o + ca * cb for o, cb in zip(out[i:i + width], pb)]
        return _pack(low, step, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if self.degree:
            _check_degree("power's degree", self.degree * n)
        elif self._packed and abs(self._packed[0]) > 1:
            # c^n has no degree, but as many bits as the coefficients of (c x)^n
            _check_degree("exponent of a constant", n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by x^k; the result shares this polynomial's coefficient tuple."""
        if k < 0:
            raise ValueError("negative shift")
        if not self._packed:
            return _ZERO
        _check_degree("shifted degree", self.degree + k)
        return _pack(self._low + k, self._step, self._packed)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return (self._low == other._low and self._step == other._step
                    and self._packed == other._packed)
        if isinstance(other, int):
            return not self._low and self._packed == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        # A constant hashes as the int it equals (the zero polynomial as 0).
        packed = self._packed
        if self._low or len(packed) > 1:
            return hash((self._low, self._step, packed))
        return hash(packed[0]) if packed else 0

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x0: Union[int, Fraction]) -> Union[int, Fraction]:
        """Exact Horner evaluation; the result type follows the input type.

        At x0 = p/q (q = 1 for an ``int`` x0) the polynomial is x0^low times
        a polynomial in y = x0^step, one coefficient per stored power.
        Horner runs over the stored coefficients with p^step and q^step and
        accumulates sum_b c_b P^b Q^(m-b) in ``int`` (P = p^step, Q =
        q^step, m + 1 coefficients); at a ``Fraction`` x0 it is divided by
        Q^m q^low once, so only one ``Fraction`` is built (``Fraction(0)``
        for the zero polynomial).  A family polynomial has step 3, so each
        Horner step covers three powers of x.
        """
        p, q = x0.numerator, x0.denominator
        packed = self._packed
        if not packed:
            return 0 * x0       # zero, in the type of x0
        p_step, q_step = p ** self._step, q ** self._step
        acc, scale = packed[-1], 1
        for c in packed[-2::-1]:
            scale *= q_step
            acc = acc * p_step + c * scale
        if self._low:
            acc *= p ** self._low
            scale *= q ** self._low
        return Fraction(acc, scale) if isinstance(x0, Fraction) else acc

    def __call__(self, x0: Union[int, Fraction]) -> Union[int, Fraction]:
        return self.evaluate(x0)

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        return poly_format(self)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def _coerce(value: Scalar) -> "IntPoly":
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return _pack(0, 3, (value,))
    return NotImplemented


def _pack(low: int, step: int, values) -> IntPoly:
    """The IntPoly with ``values[b]`` at x^(low + step b); ``values`` may
    start or end with zeros, and a step-1 run on one class mod 3 is repacked
    with step 3."""
    p = IntPoly.__new__(IntPoly)
    p._set(low, step, values)
    return p


def _add_at(out: List[int], offset: int, packed) -> None:
    """``out[offset + b] += packed[b]`` for every b, padding ``out`` with zeros."""
    end = offset + len(packed)
    if len(out) < end:
        out.extend([0] * (end - len(out)))
    out[offset:end] = map(add, out[offset:end], packed)


_ZERO = _pack(0, 3, ())
_ONE = _pack(0, 3, (1,))
_X = _pack(1, 3, (1,))


def poly_add(p: IntPoly, q: IntPoly) -> IntPoly:
    return p + q


def poly_mul(p: IntPoly, q: IntPoly) -> IntPoly:
    return p * q


def poly_eval(p: IntPoly, x0: Union[int, Fraction]) -> Fraction:
    """Exact value of p at x0, always as a Fraction (integer-valued for int x0)."""
    return p.evaluate(Fraction(x0))


def poly_format(p: IntPoly) -> str:
    """Canonical descending-power text, e.g. ``x^8 + 4*x^5 + 6*x^2``.

    The zero polynomial renders ``0``; unit coefficients are suppressed
    except on the constant term; round-trips through :func:`poly_parse`.
    The first call on ``p`` keeps the text in ``p``'s ``_text`` slot, so
    formatting it again, a memo-held family polynomial say, reads the slot.
    """
    text = getattr(p, "_text", None)
    if text is None:
        text = p._text = _format(p)
    return text


def _format(p: IntPoly) -> str:
    if not p._packed:
        return "0"
    parts = []
    for b in range(len(p._packed) - 1, -1, -1):
        coeff = p._packed[b]
        if coeff:
            power = p._low + p._step * b
            mag = abs(coeff)
            if power == 0:
                body = str(mag)
            else:
                body = (("" if mag == 1 else f"{mag}*")
                        + ("x" if power == 1 else f"x^{power}"))
            parts.append(("+ " if coeff > 0 else "- ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# One term of the grammar below in six slots, each optional and in grammar
# order: sign, coefficient, '*', 'x', '^', exponent; an absent slot matches
# ''.  A match reads one whole term of well-formed text; in malformed text it
# reads the longest run of tokens that comes in slot order, and _misplaced
# finds the first slot that breaks the grammar.  Once _BAD_CHAR has passed
# the text, every non-space character starts a slot, so the lookahead keeps
# matches from being empty and findall skips nothing but whitespace.
_TERM = re.compile(r"(?=\S)([+-]?)\s*(\d*)\s*(\*?)\s*(x?)\s*(\^?)\s*(\d*)\s*")
_BAD_CHAR = re.compile(r"[^\dx^*+\-\s]")
_TOKEN = re.compile(r"\d+|\S")      # names the token at an error position

# For each slot: the slots that may follow it in the same term, and whether
# the term may end after it.
_FOLLOW = (((1, 3), False), ((2,), True), ((3,), False),
           ((4,), True), ((5,), False), ((), True))


def _misplaced(slots: Tuple[str, ...], first: bool) -> Optional[int]:
    """The first slot of a matched term that breaks the grammar, 6 if the
    term stops where the grammar needs another token, or None if it is
    well formed.  Only the first term may go without a sign, and it may not
    take ``+``."""
    if first and slots[0] == "+":
        return 0
    follow, may_end = ((0, 1, 3) if first else (0,)), False
    for slot, token in enumerate(slots):
        if token:
            if slot not in follow:
                return slot
            follow, may_end = _FOLLOW[slot]
    return None if may_end else 6


# Every well-formed term shape, keyed as poly_parse keys each match: (first
# term?, sign, coefficient?, '*', 'x', '^', exponent?).  Derived from
# _misplaced, so the grammar is written once.
_WELL_FORMED = frozenset(
    (first, sign, coeff, star, x, caret, exp)
    for first, sign, coeff, star, x, caret, exp in product(
        (True, False), ("", "+", "-"), (False, True), ("", "*"), ("", "x"),
        ("", "^"), (False, True))
    if _misplaced((sign, "1" * coeff, star, x, caret, "1" * exp), first) is None)


def _term_error(text: str, index: int, slot: int,
                problem: Optional[str] = None) -> PolyParseError:
    """The error at ``slot`` of the ``index``-th term, or just past the term
    for slot 6.  Only errors need positions, so the term is found again."""
    match = next(islice(_TERM.finditer(text), index, None))
    pos = match.start(slot + 1) if slot < 6 else match.end()
    token = _TOKEN.match(text, pos)
    if token is None:
        return PolyParseError(f"unexpected end of input at position {len(text)}")
    token = token.group()
    if problem is None:
        return PolyParseError(f"unexpected token {token!r} at position {pos}")
    shown = token if len(token) <= 12 else token[:12] + "..."
    kind = "coefficient" if slot == 1 else "exponent"
    return PolyParseError(f"{kind} {shown!r} at position {pos} {problem}")


_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def poly_parse(text: str) -> IntPoly:
    """Inverse of :func:`poly_format` (whitespace tolerant, any term order).

    Grammar: ``poly := ['-'] term (('+'|'-') term)*`` with
    ``term := coeff | coeff '*' 'x' ['^' exp] | 'x' ['^' exp]``.
    One regex match reads one whole term; its shape is checked against the
    grammar before the term is taken.  Malformed input raises
    :class:`PolyParseError` naming the offending token and its position; a
    character outside the grammar is reported first, wherever it stands.
    So is an exponent above ``POLY_DEGREE_MAX``, or a coefficient or
    exponent with more digits than ``sys.get_int_max_str_digits()``, all
    before anything is allocated.

    Parses are memoised in ``_parse``, ``poly._parse`` in ``sequences.MEMOS``,
    keyed by the text and by ``sys.get_int_max_str_digits()``: a repeated
    text under the same limit returns the stored polynomial, and a text that
    raises is never stored, so it raises again on every call.
    """
    return _parse(text, _int_max_str_digits())


@lru_cache(maxsize=None)
def _parse(text: str, int_max_str_digits: int) -> IntPoly:
    if not text.strip():
        raise PolyParseError("empty polynomial text at position 0")
    bad = _BAD_CHAR.search(text)
    if bad:
        raise PolyParseError(
            f"unexpected character {bad.group()!r} at position {bad.start()}")
    max_digits = int_max_str_digits or len(text)
    terms = []
    for index, slots in enumerate(_TERM.findall(text)):
        sign, coeff, star, x, caret, exp = slots
        if (index == 0, sign, coeff != "", star, x, caret, exp != "") not in _WELL_FORMED:
            raise _term_error(text, index, _misplaced(slots, index == 0))
        if len(coeff) > max_digits or len(exp) > max_digits:
            slot, token = (1, coeff) if len(coeff) > max_digits else (5, exp)
            raise _term_error(text, index, slot, f"has {len(token)} digits, "
                              f"more than the limit of {max_digits}")
        power = (int(exp) if exp else 1) if x else 0
        if power > POLY_DEGREE_MAX:
            raise _term_error(text, index, 5, f"is above POLY_DEGREE_MAX = {POLY_DEGREE_MAX}")
        value = int(coeff) if coeff else 1
        terms.append((power, -value if sign == "-" else value))
    return IntPoly.from_terms(terms)
