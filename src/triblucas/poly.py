"""Exact dense univariate polynomial arithmetic over arbitrary-precision integers.

``IntPoly`` is the coefficient substrate for every family in this library:
the Tribonacci / Tribonacci-Lucas polynomials, the polynomial triangle, the
incomplete families, and the x-polynomial coefficients of the power series
in z.  Values are immutable and kept in canonical form (no trailing zero
coefficients; the zero polynomial stores nothing), so equality is plain
coefficient-sequence equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple, Union

from .errors import PolyParseError

Rational = Fraction
Scalar = Union[int, "IntPoly"]


class IntPoly:
    """Immutable dense integer polynomial in x; ``coeffs[k]`` multiplies x^k.

    The degree of the zero polynomial is ``None`` (a distinguished
    minus-infinity marker, never a number).  ``int`` operands coerce to
    constant polynomials in all arithmetic.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._coeffs = tuple(c)

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
        return cls((c,))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        if coeff == 0:
            return _ZERO
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[int, int]]) -> "IntPoly":
        """Build from (power, coefficient) pairs, summing duplicates."""
        acc: dict = {}
        for power, coeff in terms:
            if power < 0:
                raise ValueError("negative power in term list")
            acc[power] = acc.get(power, 0) + coeff
        if not acc:
            return _ZERO
        out = [0] * (max(acc) + 1)
        for power, coeff in acc.items():
            out[power] = coeff
        return cls(out)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> Optional[int]:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __getitem__(self, power: int) -> int:
        """Coefficient of x^power (0 beyond the stored degree)."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Scalar) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        p = IntPoly.__new__(IntPoly)
        p._coeffs = tuple(-c for c in self._coeffs)
        return p

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
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self._coeffs:
            return _ZERO
        p = IntPoly.__new__(IntPoly)
        p._coeffs = (0,) * k + self._coeffs
        return p

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x0: Union[int, Fraction]) -> Union[int, Fraction]:
        """Exact Horner evaluation; the result type follows the input type.

        At a ``Fraction`` x0 = p/q of a degree-d polynomial the sum
        sum_k c_k p^k q^(d-k) is accumulated in ``int`` and divided by q^d
        once, so only one ``Fraction`` is built (``Fraction(0)`` for the
        zero polynomial).  Horner steps only over the nonzero coefficients:
        the gap g between two of them costs one multiply by p^g and one by
        q^g, and so does the run of g zeros below the lowest one.  Every
        family polynomial here lives on one residue class of powers mod 3,
        so two coefficients in three are skipped.
        """
        if isinstance(x0, Fraction):
            p, q = x0.numerator, x0.denominator
            coeffs = self._coeffs
            if not coeffs:
                return Fraction(0)
            last = len(coeffs) - 1      # power of the last nonzero coefficient
            acc, scale = coeffs[last], 1
            gap, p_gap, q_gap = 1, p, q
            for k in range(last - 1, -1, -1):
                c = coeffs[k]
                if c:
                    if last - k != gap:
                        gap = last - k
                        p_gap, q_gap = p ** gap, q ** gap
                    scale *= q_gap
                    acc = acc * p_gap + c * scale
                    last = k
            if last:
                acc *= p ** last
                scale *= q ** last
            return Fraction(acc, scale)
        acc: Union[int, Fraction] = 0
        for c in reversed(self._coeffs):
            acc = acc * x0 + c
        return acc

    def __call__(self, x0: Union[int, Fraction]) -> Union[int, Fraction]:
        return self.evaluate(x0)

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        return poly_format(self)

    def __repr__(self) -> str:
        return f"IntPoly({list(self._coeffs)!r})"


def _coerce(value: Scalar) -> "IntPoly":
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly((value,)) if value else _ZERO
    return NotImplemented


_ZERO = IntPoly.__new__(IntPoly)
_ZERO._coeffs = ()
_ONE = IntPoly.__new__(IntPoly)
_ONE._coeffs = (1,)
_X = IntPoly.__new__(IntPoly)
_X._coeffs = (0, 1)


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
    """
    if p.is_zero():
        return "0"
    parts = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        coeff = p.coeffs[power]
        if coeff == 0:
            continue
        mag = abs(coeff)
        if power == 0:
            body = str(mag)
        elif power == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{power}" if mag == 1 else f"{mag}*x^{power}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


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


def poly_parse(text: str) -> IntPoly:
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
