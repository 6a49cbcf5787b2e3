"""The four base families and a fixed-point closed-form cross-check.

Tribonacci numbers      T_{n+1} = T_n + T_{n-1} + T_{n-2},  T_0 = 0, T_1 = T_2 = 1
Tribonacci-Lucas        K_{n+1} = K_n + K_{n-1} + K_{n-2},  K_0 = 3, K_1 = 1, K_2 = 3
Tribonacci polys        T_{n+3}(x) = x^2 T_{n+2}(x) + x T_{n+1}(x) + T_n(x),
                        T_0(x) = 0, T_1(x) = 1, T_2(x) = x^2
Tribonacci-Lucas polys  same recurrence with K_0(x) = 3, K_1(x) = x^2, K_2(x) = x^4 + 2x

Evaluating either polynomial family at x = 1 recovers the number family.
T_n and K_n below ``NUMBER_MEMO_CAP`` come from an append-only memo of the
recurrence; from the cap up they come from t^n mod t^3 - t^2 - t - 1 by
square-and-multiply (Fiduccia's doubling), so no memo grows past the cap.
The closed forms over the characteristic roots of t^3 = t^2 + t + 1 are
implemented as approximate checks only, in fixed-point integers; the
iterative recurrences are always the source of truth.
"""

from __future__ import annotations

import enum
import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from . import poly
from .errors import DomainError, NumericalInstabilityError
from .poly import IntPoly, _add_at, _pack

V = TypeVar("V")
M = TypeVar("M")


class SequenceFamily(enum.Enum):
    TRIBONACCI_NUMBER = "tribonacci"
    TRIBONACCI_LUCAS_NUMBER = "tribonacci-lucas"
    TRIBONACCI_POLY = "tribonacci-poly"
    TRIBONACCI_LUCAS_POLY = "tribonacci-lucas-poly"


class _Frozen:
    """Base of the slotted value types, the ones that validate or index.

    A subclass names its constructor arguments in ``_fields``, declares them
    in ``__slots__`` and sets them with ``_set`` in ``__init__``, before its
    checks.  An instance is immutable: assignment and deletion raise
    ``AttributeError``.  It equals an instance of the same type with an
    equal ``_key()`` (all fields unless the subclass narrows it), hashes
    over that key, shows as ``Type(field=value, ...)`` and pickles and
    copies through its constructor, so the checks run on every path.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class _GrowingCache:
    """Append-only memo of one growing sequence, safe for concurrent use.

    ``extend(values, count)`` appends to the stored list in place, under the
    memo's lock, until it holds ``count`` values: two threads that need one
    value compute it once, and a stored value is read without the lock.  It
    holds the four families, the triangle columns and the series bodies.
    ``clear()`` puts back the initial values in a new list, so a reader that
    holds the old list still reads a whole prefix.
    """

    def __init__(self, initial: Sequence[V], extend: Callable[[List[V], int], None]):
        self._initial = tuple(initial)
        self._values: List[V] = list(initial)
        self._extend = extend
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values = list(self._initial)

    def grow(self, count: int) -> List[V]:
        """The stored list, grown to at least ``count`` values."""
        values = self._values
        if len(values) < count:
            with self._lock:
                values = self._values    # a clear() may have replaced it
                if len(values) < count:
                    self._extend(values, count)
        return values

    def get(self, n: int) -> V:
        if n < 0:
            raise DomainError(f"index must be nonnegative, got {n}")
        values = self._values
        return values[n] if n < len(values) else self.grow(n + 1)[n]


class _Cached:
    """The registry's view of an ``lru_cache`` function."""

    def __init__(self, fn):
        self._fn = fn

    def __len__(self) -> int:
        return self._fn.cache_info().currsize

    def clear(self) -> None:
        self._fn.cache_clear()


# The memo registry: every memo of the library by name, as something with
# len() (its entry count) and clear().  A _GrowingCache counts its values (a
# triangle its columns), a dict its keys and an lru_cache function its
# entries.  The series bodies are a dict, so a single key can also be
# dropped from them.
MEMOS: Dict[str, object] = {}


def register_memo(name: str, memo: M) -> M:
    """Name ``memo`` in ``MEMOS`` and return it unchanged."""
    MEMOS[name] = memo
    return memo


def cached(fn: Callable) -> Callable:
    """``lru_cache(maxsize=None)``, registered as ``module.function``."""
    memo = lru_cache(maxsize=None)(fn)
    register_memo(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", _Cached(memo))
    return memo


# poly sits below this module and cannot import cached, so its memo of
# parsed texts is registered here.
register_memo("poly._parse", _Cached(poly._parse))


def _by_step(step: Callable[[List[V]], V]) -> Callable[[List[V], int], None]:
    """An ``extend`` that appends ``step(values)`` one value at a time."""
    def extend(values: List[V], count: int) -> None:
        while len(values) < count:
            values.append(step(values))
    return extend


def _number_step(v: List[int]) -> int:
    return v[-1] + v[-2] + v[-3]


def _shift_add(a: IntPoly, b: IntPoly, c: IntPoly) -> IntPoly:
    """x^2·a + x·b + c.  When the three terms share one class of powers mod 3,
    as in every family step, their packed coefficients are added into one list."""
    terms = [(p._low + k, p) for p, k in ((a, 2), (b, 1), (c, 0)) if p._packed]
    low = min([t for t, _ in terms], default=0)
    if not all(p._step == 3 and (t - low) % 3 == 0 for t, p in terms):
        return a.shifted(2) + b.shifted(1) + c
    out: List[int] = []
    for t, p in terms:
        _add_at(out, (t - low) // 3, p._packed)
    return _pack(low, 3, out)


def _poly_step(v: List[IntPoly]) -> IntPoly:
    return _shift_add(v[-1], v[-2], v[-3])


_T_NUMBERS = register_memo("sequences.tribonacci_number",
                           _GrowingCache([0, 1, 1], _by_step(_number_step)))
_K_NUMBERS = register_memo("sequences.tribonacci_lucas_number",
                           _GrowingCache([3, 1, 3], _by_step(_number_step)))
_T_POLYS = register_memo("sequences.tribonacci_poly", _GrowingCache(
    [IntPoly.zero(), IntPoly.one(), IntPoly.monomial(1, 2)], _by_step(_poly_step)))
_K_POLYS = register_memo("sequences.tribonacci_lucas_poly", _GrowingCache(
    [IntPoly.constant(3), IntPoly.monomial(1, 2), IntPoly((0, 2, 0, 0, 1))],
    _by_step(_poly_step)))


# Indices below the cap are served by the memos above; no memo holds more.
NUMBER_MEMO_CAP = 4096


def _t_power(n: int) -> Tuple[int, int, int]:
    """(a, b, c) with t^n = a·t^2 + b·t + c modulo t^3 - t^2 - t - 1.

    Square-and-multiply over the bits of n: a square costs six multiplies,
    reduced with t^3 = t^2 + t + 1 and t^4 = 2t^2 + 2t + 1, and a step
    t·(a, b, c) = (a + b, a + c, a) only adds.
    """
    a, b, c = 0, 0, 1
    for bit in bin(n)[2:]:
        aa, ab, bb, ac, bc, cc = a * a, a * b, b * b, a * c, b * c, c * c
        top = 2 * ab + 2 * aa
        a, b, c = bb + 2 * ac + top, 2 * bc + top, cc + 2 * ab + aa
        if bit == "1":
            a, b, c = a + b, a + c, a
    return a, b, c


def tribonacci_number(n: int) -> int:
    """T_n, exact: from the recurrence memo below ``NUMBER_MEMO_CAP``, else doubled.

    From the cap up, T_n = a + b for t^n = a·t^2 + b·t + c, because the
    seeds are T_2, T_1, T_0 = 1, 1, 0.
    """
    if n < NUMBER_MEMO_CAP:
        return _T_NUMBERS.get(n)
    a, b, _ = _t_power(n)
    return a + b


def tribonacci_lucas_number(n: int) -> int:
    """K_n, exact: from the recurrence memo below ``NUMBER_MEMO_CAP``, else doubled.

    From the cap up, K_n = 3a + b + 3c for t^n = a·t^2 + b·t + c, because
    the seeds are K_2, K_1, K_0 = 3, 1, 3.
    """
    if n < NUMBER_MEMO_CAP:
        return _K_NUMBERS.get(n)
    a, b, c = _t_power(n)
    return 3 * (a + c) + b


def tribonacci_poly(n: int) -> IntPoly:
    """T_n(x); degree 2n-2 for n >= 1, with T_n(1) = T_n."""
    return _T_POLYS.get(n)


def tribonacci_lucas_poly(n: int) -> IntPoly:
    """K_n(x); degree 2n for n >= 1, with K_n(1) = K_n."""
    return _K_POLYS.get(n)


_NUMBER_FAMILIES = {
    SequenceFamily.TRIBONACCI_NUMBER,
    SequenceFamily.TRIBONACCI_LUCAS_NUMBER,
}


# Complex fixed-point numbers are (re, im) pairs of ints scaled by 2^bits.
Fixed = Tuple[int, int]


def _fixed_mul(a: Fixed, b: Fixed, bits: int) -> Fixed:
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits


def _fixed_pow(z: Fixed, n: int, bits: int) -> Fixed:
    """z^n by square-and-multiply, truncating after every product."""
    out = (1 << bits, 0)
    for bit in bin(n)[2:]:
        out = _fixed_mul(out, out, bits)
        if bit == "1":
            out = _fixed_mul(out, z, bits)
    return out


def _vieta_residuals(roots: Tuple[Fixed, Fixed, Fixed], bits: int) -> Tuple[Fixed, ...]:
    """Sum - 1, pair sum + 1 and product - 1 of the three roots."""
    one = 1 << bits
    a, b, g = roots
    ab, ag, bg = _fixed_mul(a, b, bits), _fixed_mul(a, g, bits), _fixed_mul(b, g, bits)
    abg = _fixed_mul(ab, g, bits)
    return ((a[0] + b[0] + g[0] - one, a[1] + b[1] + g[1]),
            (ab[0] + ag[0] + bg[0] + one, ab[1] + ag[1] + bg[1]),
            (abg[0] - one, abg[1]))


def binet_roots(precision: int = 64) -> Tuple[Fixed, Fixed, Fixed]:
    """alpha, beta, gamma of t^3 - t^2 - t - 1, scaled by 2^precision.

    Each root is a fixed-point ``(re, im)`` pair of ints with ``precision``
    fractional bits, solved once per precision by the memoised solver
    ``_binet_roots``, so ``binet_roots()``, ``binet_roots(64)`` and
    ``binet_roots(precision=64)`` return the same tuple.  alpha comes from
    integer Newton steps started at t = 2, where f(2) = 1 and f is convex, so
    the iterates fall monotonically onto the root; the conjugate pair
    ((1 - alpha) ± i·sqrt(4/alpha - (1 - alpha)^2))/2 follows from
    beta + gamma = 1 - alpha and beta·gamma = 1/alpha, and beta has the
    positive imaginary part.  A precision below 53 bits raises
    :class:`DomainError` (on every call: a raise is never memoised), and
    Vieta residuals above 2^(-precision/2) raise
    :class:`NumericalInstabilityError`.
    """
    return _binet_roots(precision)


@cached
def _binet_roots(precision: int) -> Tuple[Fixed, Fixed, Fixed]:
    if precision < 53:
        raise DomainError(f"precision must be at least 53 bits, got {precision}")
    one = 1 << precision
    a = 2 << precision
    while True:
        a2 = a * a >> precision
        step = (((a2 * a >> precision) - a2 - a - one) << precision) // (3 * a2 - 2 * a - one)
        if step <= 0:
            break
        a -= step
    disc = (4 << 2 * precision) // a - ((one - a) ** 2 >> precision)
    re, im = (one - a) >> 1, math.isqrt(disc << precision) >> 1
    roots = ((a, 0), (re, im), (re, -im))
    if any(part * part > one for r in _vieta_residuals(roots, precision) for part in r):
        raise NumericalInstabilityError(
            "root refinement failed the Vieta residual bound; "
            "request higher precision")
    return roots


def _t_weight(r: Fixed, bits: int) -> Fixed:
    """r / f'(r) = r / (3r^2 - 2r - 1), which equals r / ((r - s)(r - t))."""
    rr = _fixed_mul(r, r, bits)
    dr, di = 3 * rr[0] - 2 * r[0] - (1 << bits), 3 * rr[1] - 2 * r[1]
    norm = dr * dr + di * di
    return (((r[0] * dr + r[1] * di) << bits) // norm,
            ((r[1] * dr - r[0] * di) << bits) // norm)


def binet_estimate(n: int, family: SequenceFamily,
                   precision: int = 64) -> Fraction:
    """Closed-form estimate of T_n or K_n over the characteristic roots.

    K_n = alpha^n + beta^n + gamma^n;
    T_n = alpha^(n+1)/((alpha-beta)(alpha-gamma)) + (two symmetric terms),
    where each denominator (r - s)(r - t) equals f'(r) = 3r^2 - 2r - 1.

    Each term is computed in complex fixed point with
    ``precision + 32 + n.bit_length()`` fractional bits, so the result, an
    exact ``Fraction`` with a power-of-two denominator, keeps at least
    ``precision`` significant bits.  The imaginary parts of the three terms
    must sum to below 1e-6 of the magnitude (they are then discarded);
    otherwise :class:`NumericalInstabilityError` suggests a higher precision.
    """
    if n < 0:
        raise DomainError(f"index must be nonnegative, got {n}")
    if family not in _NUMBER_FAMILIES:
        raise DomainError(f"no closed-form estimate for family {family!r}")
    if precision < 53:
        raise DomainError(f"precision must be at least 53 bits, got {precision}")
    bits = precision + 32 + n.bit_length()
    roots = binet_roots(bits)
    terms = [_fixed_pow(r, n, bits) for r in roots]
    if family is SequenceFamily.TRIBONACCI_NUMBER:
        terms = [_fixed_mul(t, _t_weight(r, bits), bits) for t, r in zip(terms, roots)]
    re = sum(t[0] for t in terms)
    im = sum(t[1] for t in terms)
    magnitude = max(abs(re), 1 << bits)
    if abs(im) * 10 ** 6 > magnitude:
        raise NumericalInstabilityError(
            f"imaginary residue {abs(im) / magnitude:.3g} of the magnitude "
            f"too large for n={n}; request higher precision")
    return Fraction(re, 1 << bits)
