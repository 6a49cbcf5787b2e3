"""Truncated formal power series in z and cleared rational generating functions.

Every generating function is normalized to a single numerator/denominator
pair of z-polynomials whose denominator has unit constant term, so series
expansion needs no coefficient division and stays exact.  Q_s and W_s
also keep their denominator as its factors 1 - x^2 z - x z^2 - z^3 and
(1 - x^2 z)^(s+1): symbolic expansion divides by one factor at a time,
and every coefficient of a factor is a single monomial in x.  The pair is
built once over integer polynomials in x (the symbolic mode).  For a
rational x the memoised symbolic pair is evaluated at x coefficient by
coefficient, giving exact rational coefficients: evaluation is a ring
homomorphism that keeps the unit constant term, so it commutes with
clearing and with expansion.

Expansion keeps one body per pair, the longest computed so far: a shorter
order is a prefix of it, and a longer one resumes the division from the state
kept with it.  Every term x^a z^k of a Q_s or W_s pair has a + k in one
class mod 3 (the factors' terms have weight 0 mod 3), so a = r + 2k - 3m
for some column m.  The symbolic division runs on these columns, each a
list over the powers of z: dividing by 1 - x^2 z is a prefix sum along
each column, and dividing by 1 - x^2 z - x z^2 - z^3 adds columns m - 1 and
m - 2, two and three positions back, into column m before its prefix sum.
The z^k coefficient is the step-3 ``IntPoly`` read across the columns at k.
Every other symbolic pair runs on columns too: their slope t is raised
until no factor term moves a column down, a factor term that keeps its
column is a short recurrence along it, and a pair whose terms share no
class mod 3 runs on columns of step 1.

The incomplete-Tribonacci generating function is

    Q_s(x, z) = z^(2s+1) * U_s(x, z),
    U_s = [T_{2s+1}(x) + z (T_{2s+2}(x) - x^2 T_{2s+1}(x)) + z^2 * n2
           - (x z^2 + z^3) (x + z)^s / (1 - x^2 z)^(s+1)]
          / (1 - x^2 z - x z^2 - z^3),

where the z^2 numerator term n2 has two variants kept side by side: the
``as_printed`` form T_{2s}(x) - 2 x^(s+1) and the ``corrected`` form
T_{2s}(x).  The corrected form is what the generic clearing lemma produces
once the sign convention is applied consistently: the binomial correction
sums enter the recurrence subtractively, so the lemma's forcing sequence is
their negation, which both negates the closed-form G and cancels the
x^(s+1) inside the z^2 head term.  The comparator confirms the corrected
form against direct double-sum evaluation and pins the printed form's first
mismatch at the z^2 slot of U_s (shifted power 2s+3) for every s.

The incomplete Tribonacci-Lucas generating function combines two Q's:

    W_s(x, z) = z^(-1) Q_s(x, z) + (x z + 2 z^2) Q_{s-1}(x, z)
                + 2 T_{2s-2}(x) z^(2s).

The trailing term is a boundary repair: the cross-family relation behind
the combination holds only from n = 2s+1 on, and at n = 2s the literal
combination loses exactly 2 T_{2s-2}(x) because that contribution sits
below Q_{s-1}'s shift.  For s = 1 it vanishes (T_0 = 0).  With the repair
the expansion generates the incomplete Tribonacci-Lucas family itself,
which is what the verification sweeps require.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain
from math import comb, gcd, lcm
from operator import add
from typing import NamedTuple, Optional, Tuple, Union

from .errors import DomainError, ExpansionError, InternalConsistencyError
from .incomplete import (
    IncompleteFamily,
    incomplete_tl_poly,
    incomplete_tribonacci_poly,
    is_valid,
)
from .poly import IntPoly, _coerce, _pack, poly_format
from .sequences import _Frozen, _GrowingCache, cached, register_memo, tribonacci_poly

Coeff = Union[int, Fraction, IntPoly]
XMode = Optional[Fraction]  # None means symbolic x


class GFVariant(enum.Enum):
    AS_PRINTED = "as_printed"
    CORRECTED = "corrected"


DEFAULT_ORDER = 64


class PowerSeries(_Frozen):
    """A truncated series in z; exactly ``order`` coefficients are stored.

    ``series[k]`` is the coefficient of z^k.  Immutable; equal to another
    series with equal ``coeffs``, and hashed over them.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Tuple[Coeff, ...]):
        self._set(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, power: int) -> Coeff:
        return self.coeffs[power]

    def to_json_list(self):
        return [render_coeff(c) for c in self.coeffs]


class RationalGF(_Frozen):
    """numerator/denominator pair of z-polynomials times a z^shift prefactor.

    The denominator's z^0 coefficient must be the unit of the coefficient
    ring, which keeps expansion division-free.  ``factors``, when given,
    are z-polynomials with unit constant term whose product is the
    denominator; symbolic expansion then divides by each in turn.  They
    take no part in equality, hashing or serialization.  The check
    multiplies them out through the memoised :func:`_factor_product`, so
    pairs that share a factors tuple (Q_s in both variants, and W_s) build
    the product once.  Immutable; equal to another pair with the same
    numerator, denominator and shift, and every construction, a copy or
    unpickling included, runs the checks.
    """

    _fields = ("numerator", "denominator", "shift", "factors")
    __slots__ = _fields + ("_hash",)

    def __init__(self, numerator: Tuple[Coeff, ...], denominator: Tuple[Coeff, ...],
                 shift: int = 0, factors: Tuple[Tuple[Coeff, ...], ...] = ()):
        self._set(numerator, denominator, shift, factors)
        object.__setattr__(self, "_hash", None)
        if shift < 0:
            raise DomainError(f"shift must be nonnegative, got {shift}")
        if not denominator or not _is_one(denominator[0]):
            raise ExpansionError("denominator constant term must be 1")
        if not factors:
            return
        if not all(f and _is_one(f[0]) for f in factors):
            raise ExpansionError("factor constant terms must be 1")
        if _factor_product(factors) != denominator:
            raise ExpansionError("factors must multiply to the denominator")

    def _key(self) -> tuple:
        return self.numerator, self.denominator, self.shift

    def __hash__(self) -> int:
        # Taken once per pair: run_all hashes each body key a few times, and
        # a Fraction coefficient hashes slowly.
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def to_json_dict(self) -> dict:
        return {
            "shift": self.shift,
            "numerator": [render_coeff(c) for c in self.numerator],
            "denominator": [render_coeff(c) for c in self.denominator],
        }


def render_coeff(c: Coeff) -> str:
    if isinstance(c, IntPoly):
        return poly_format(c)
    return str(c)


def _is_one(c: Coeff) -> bool:
    return c == 1


# -- z-polynomial helpers (tuples of ring coefficients, index = power of z) --

def _zadd(a: Tuple[Coeff, ...], b: Tuple[Coeff, ...]) -> Tuple[Coeff, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return tuple(out)


def _zneg(a: Tuple[Coeff, ...]) -> Tuple[Coeff, ...]:
    return tuple(-c for c in a)


def _zscale(a: Tuple[Coeff, ...], c: Coeff) -> Tuple[Coeff, ...]:
    return tuple(x * c for x in a)


def _zmul(a: Tuple[Coeff, ...], b: Tuple[Coeff, ...], zero: Coeff) -> Tuple[Coeff, ...]:
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return tuple(out)


@cached
def _factor_product(factors: Tuple[Tuple[Coeff, ...], ...]) -> Tuple[Coeff, ...]:
    # Memoised on the factors tuple, so the pairs that share one (Q_s in both
    # variants, W_s) multiply it out once for their construction check.
    product = factors[0]
    for f in factors[1:]:
        product = _zmul(product, f, product[0] * 0)
    return product


def series_expand(gf: RationalGF, order: int) -> PowerSeries:
    """Expand ``gf`` to exactly ``order`` coefficients.

    Solves denominator * P = numerator coefficient by coefficient (possible
    exactly because the denominator's constant term is 1), then applies the
    z^shift prefactor and re-truncates.  Each pair and coefficient kind
    keeps one memoised body, the longest expanded so far: an order at or
    below its length is served as a slice of it, and a longer one continues
    the division instead of starting from z^0.  The body is a
    ``sequences._GrowingCache``: it grows in place under its own lock, so
    threads that grow one pair at once compute it once, and it never gets
    shorter.  The ``partial`` that grows it keeps the kernel's state: the
    length it stands at and the last values the recurrence reads.  A kernel
    starts over on an empty body and raises ``InternalConsistencyError`` on
    a state out of step with its body.  The bodies sit in the dict
    ``genfunc.series_expand`` of the registry ``sequences.MEMOS``, keyed by
    :func:`series_key`; ``verify.run_all`` drops each body that a catalog id
    created right after that id, and a library session keeps them.  The
    kernels accumulate in ``int``:

    - a pair with ``IntPoly`` coefficients (``int`` ones are promoted)
      divides by each of its ``factors``, or by the denominator when it has
      none.  Q_s and W_s carry the factors 1 - x^2 z - x z^2 - z^3 and s+1
      times 1 - x^2 z.  :func:`_grading` finds g, t and r with every factor
      term x^e z^j at e = t j and every numerator term x^a z^k at
      a = r + t k (mod g), g = 3 where the pair allows and g = 1 otherwise;
      t is then raised by multiples of g to the smallest value with t j >= e
      for every factor term (t = 2 for every Q_s and W_s pair).  The term
      x^a z^k sits in column m = (t k + r - a) / g, and a factor term x^e z^j
      moves a column up by delta = (t j - e) / g >= 0.  Each 1 - x^t z is one
      prefix sum (``itertools.accumulate``) along each numerator column; each
      other factor then goes up column by column, adding -c times column
      m - delta, j positions back, for each of its terms c x^e z^j with
      delta >= 1, and runs the column's in-column recurrence: the prefix sum
      where the factor's delta = 0 terms are -x^t z alone, else
      v_k -= c v_(k-j) for each of them.  It stops once the input is used up
      and the columns a next one would read are zero.  The arithmetic is
      exact, so the order of the divisions changes no value.  The z^k
      coefficient is the step-g ``IntPoly`` read across the columns at
      position k.  The state keeps, per numerator column, the last value of
      each prefix sum, and per nonzero column of each other factor its last
      w values, w the highest power of z that the factor reads back; the
      corrected Q_s and W_s have 2s + 1 columns at every order, so their
      state does not grow with it.  A resumed kernel extends each column
      from that state and adds any column that first turns nonzero past the
      old length;
    - an ``int``/``Fraction`` pair runs
      P_k = c m^k num_k - sum_j (m^j den_j) P_(k-j) on integers, with m and
      c built from the coefficient denominators so that every m^j den_j
      and c m^k num_k is an integer, and builds each coefficient
      P_k / (c m^k) as one ``Fraction``.  The state keeps the last
      len(den) - 1 values P_k.

    ``int`` pairs give ``int`` coefficients and pairs holding a ``Fraction``
    give ``Fraction`` ones.
    """
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    key = series_key(gf)
    kind = key[1]
    length = max(0, order - gf.shift)
    body = _expansions.get(key)
    if body is None:
        state = [0, None]
        if kind is IntPoly:
            plan = _column_plan(gf.numerator, gf.factors or (gf.denominator,))
            grow = partial(_grow_columns, plan, state)
        else:
            grow = partial(_grow_scalars, gf.numerator, gf.denominator, state,
                           fraction=kind is Fraction)
        body = _expansions.setdefault(key, _GrowingCache([], grow))
    coeffs = body.grow(length)[:length]
    return PowerSeries((_ZERO_OF[kind],) * min(gf.shift, order) + tuple(coeffs))


def series_key(gf: RationalGF) -> Tuple[RationalGF, type]:
    """The key of ``gf``'s body in the ``genfunc.series_expand`` memo."""
    return gf, _coeff_kind(gf)


def _coeff_kind(gf: RationalGF) -> type:
    # Equal int and Fraction pairs compare and hash alike, so the kind is
    # part of the expansion memo's key.
    coeffs = gf.numerator + gf.denominator
    if any(isinstance(c, IntPoly) for c in coeffs):
        if any(isinstance(c, Fraction) for c in coeffs):
            raise TypeError("a pair cannot mix Fraction and IntPoly coefficients")
        return IntPoly
    return Fraction if any(isinstance(c, Fraction) for c in coeffs) else int


_ZERO_OF = {IntPoly: IntPoly.zero(), Fraction: Fraction(0), int: 0}

# (pair, coefficient kind) -> the memo of its body, the longest expanded so
# far, without the z^shift zeros.
_expansions: dict = register_memo("genfunc.series_expand", {})


# The weight deg x + deg z of every term of 1 - x^2 z - x z^2 - z^3 and of
# 1 - x^2 z is 0 mod 3, and every term of a Q_s or W_s numerator has one
# weight mod 3, so two x-powers in three of each coefficient are zero.
_GRADE = 3


def _grading(num, factors) -> Tuple[int, int, int]:
    # (g, t, r) such that every term x^e z^j of every factor has e = t j and
    # every term x^a z^k of num has a = r + t k (mod g): g = _GRADE when some
    # t and r fit (t = 2 for every Q_s and W_s pair), else (1, 0, 0).
    # Only (k, a mod g) matters, and a step-3 IntPoly has one class; a
    # factor's unit term fits every t.
    g = _GRADE
    den_terms = set().union(*map(_classes, factors))
    num_terms = _classes(num)
    for t in range(g):
        if all((e - t * j) % g == 0 for j, e in den_terms):
            residues = {(a - t * k) % g for k, a in num_terms}
            if len(residues) <= 1:
                return g, t, min(residues, default=0)
    return 1, 0, 0


def _classes(zpoly) -> set:
    # (k, a mod 3) for every term x^a z^k of a z-polynomial; the powers of a
    # step-3 IntPoly share the class of its lowest one
    return {(k, (p._low + b) % _GRADE) for k, p in enumerate(map(_coerce, zpoly))
            for b, c in enumerate(p._packed[:1] if p._step == 3 else p._packed) if c}


def _resume(state: list, start: int, empty):
    # state = [position, tails]; kernels set it only once the body is extended.
    if start and state[0] != start:
        raise InternalConsistencyError(
            f"series state stands at position {state[0]}, its body at {start}")
    return state[1] if start else empty


# -- the column kernel (see series_expand) ---------------------------------------
#
# On a pair graded as (g, t, r), the term x^a z^k sits in column
# m = (t k + r - a) / g, and a factor term x^e z^j moves a column up by
# delta = (t j - e) / g.  A column is a list over the positions z^k.

def _column_plan(num, factors):
    # (g, t, r, numerator columns, prefix-sum passes, scans) of a pair.  t is
    # the grading's, raised by multiples of g until no factor term has
    # delta < 0.  A numerator column is dense over positions 0..len(num)-1.
    # 1 - x^t z keeps every column: it is one prefix-sum pass.  Every other
    # factor with a term past its unit is a scan (width, prefix, recurrence,
    # terms): the largest j it reads back, whether its delta = 0 terms are
    # -x^t z alone, those terms as (j, c), and its (j, delta, c) terms with
    # delta >= 1.
    distinct = list(dict.fromkeys(factors))
    g, t, r = _grading(num, distinct)
    terms = {f: [(j, p._low + p._step * b, c) for j, p in enumerate(map(_coerce, f[1:]), 1)
                 for b, c in enumerate(p._packed) if c] for f in distinct}
    for j, e, _ in chain.from_iterable(terms.values()):
        if t * j < e:
            t += g * -((t * j - e) // (g * j))
    passes, scans = 0, []
    for f in factors:
        recurrence = [(j, c) for j, e, c in terms[f] if t * j == e]
        ups = [(j, (t * j - e) // g, c) for j, e, c in terms[f] if t * j > e]
        prefix = recurrence == [(1, -1)]
        if prefix and not ups:
            passes += 1
        elif terms[f]:
            scans.append((max(j for j, _, _ in terms[f]), prefix, recurrence, ups))
    columns = {}
    for k, p in enumerate(map(_coerce, num)):
        for b, c in enumerate(p._packed):
            if c:
                m = (t * k + r - p._low - p._step * b) // g
                if m not in columns:
                    columns[m] = [0] * len(num)
                columns[m][k] = c
    return g, t, r, columns, passes, scans


def _grow_columns(plan, state: list, body: list, length: int) -> None:
    # Appends positions len(body)..length-1 to body.  The numerator's columns
    # run through the prefix-sum passes first, then every scan in turn; the
    # arithmetic is exact, so the order of the divisions changes no value.
    # state keeps, per numerator column, the last value of each pass, and per
    # scan the last width values of each column where they are not all zero.
    g, t, r, num, passes, scans = plan
    start = len(body)
    carries, tails = _resume(state, start, ({m: [0] * passes for m in num},
                                            [{} for _ in scans]))
    n = length - start
    columns, kept = {}, {}
    for m, column in num.items():
        new = column[start:length]
        new += [0] * (n - len(new))
        last = []
        for carry in carries[m]:
            new = list(accumulate(new, initial=carry))[1:]
            last.append(new[-1])
        kept[m] = last
        if any(new):
            columns[m] = new
    scanned = []
    for scan, tail in zip(scans, tails):
        columns, tail = _scan(columns, tail, n, *scan)
        scanned.append(tail)
    if columns:
        top, bottom = max(columns), min(columns)
        zeros = [0] * n
        rows = zip(*[columns.get(m, zeros) for m in range(top, bottom - 1, -1)])
        body.extend(_pack(t * k + r - g * top, g, row)
                    for k, row in enumerate(rows, start))
    else:
        body.extend([_ZERO_OF[IntPoly]] * n)
    state[:] = length, (kept, scanned)


def _scan(columns: dict, tails: dict, n: int, width: int, prefix: bool, recurrence,
          terms):
    # Divides the n new positions of columns by one factor, going up from the
    # lowest column until no input is left and the columns a next one would
    # read are zero.  Column m adds -c times column m - delta, j positions
    # back, for each term, then, with prefix, runs its prefix sum on from the
    # last value kept in tails, or else its recurrence, v_k -= c v_(k-j) for
    # each (j, c), on from the last width values.  Returns the nonzero new
    # columns and their tails.
    keys = columns.keys() | tails.keys()
    if not keys:
        return {}, {}
    reach = max((delta for _, delta, _ in terms), default=0)
    top = max(keys)
    m = min(keys)
    zero = [0] * width
    window = {}     # column -> its kept tail and new values, when not all zero
    out, kept = {}, {}
    while True:
        new = columns.get(m) or [0] * n
        for j, delta, c in terms:
            below = window.get(m - delta)
            if below is None:
                continue
            below = below[width - j:width - j + n]
            if c == -1:         # every such term of Q_s and W_s
                new = list(map(add, new, below))
            else:
                new = [a - c * b for a, b in zip(new, below)]
        tail = tails.get(m, zero)
        if prefix:
            new = list(accumulate(new, initial=tail[-1]))[1:]
        elif recurrence:
            values = list(tail)
            for v in new:
                for j, c in recurrence:
                    v -= c * values[-j]
                values.append(v)
            new = values[width:]
        nonzero = any(new)
        if nonzero:
            out[m] = new
        if nonzero or m in tails:
            window[m] = tail + new
            last = window[m][-width:]
            if any(last):
                kept[m] = last
        if m >= top and all(m - i not in window for i in range(reach)):
            return out, kept
        m += 1


def _grow_scalars(num, den, state: list, body: list, length: int, fraction: bool) -> None:
    # Appends positions len(body)..length-1 to body.  With P_k = c m^k p_k the
    # recurrence runs on integers once every m^j den_j and c m^k num_k is one.
    # m takes from each den_j only the part of its denominator that m^j lacks,
    # so denominators q^(2j), as at x = p/q, give m = q^2 and P_k stays near the
    # size of p_k itself.  state keeps the last len(den) - 1 values P_k.
    m = 1
    for j in range(1, len(den)):
        e = den[j].denominator
        m *= e // gcd(e, m ** j)
    c = 1
    for k, a in enumerate(num):
        e = a.denominator
        c = lcm(c, e // gcd(e, m ** k))
    terms = [(j, d.numerator * (m ** j // d.denominator))    # ascending in j
             for j, d in enumerate(den) if j and d]
    start = len(body)
    P = list(_resume(state, start, ()))
    scale = c * m ** start        # c m^k
    new = []
    for k in range(start, length):
        acc = num[k].numerator * (scale // num[k].denominator) if k < len(num) else 0
        r = len(P)
        for j, t in terms:
            if j > r:
                break
            acc -= t * P[r - j]
        P.append(acc)
        new.append(Fraction(acc, scale) if fraction else acc)
        scale *= m
    body.extend(new)
    state[:] = length, P[max(0, len(P) - (len(den) - 1)):]


# -- generic non-homogeneous third-order clearing -----------------------------

class Lemma9Spec(NamedTuple):
    """Inputs for clearing S_n = a S_{n-1} + b S_{n-2} + c S_{n-3} + r_n.

    ``r`` is the forcing sequence: a RationalGF (exact closed form), a
    PowerSeries (the result is then only valid to that truncation), or None
    for the homogeneous case.  Immutable; compares and hashes as the tuple
    of its fields.
    """

    a: Coeff
    b: Coeff
    c: Coeff
    s0: Coeff
    s1: Coeff
    s2: Coeff
    r: Union[RationalGF, PowerSeries, None] = None


def lemma9_gf(spec: Lemma9Spec) -> RationalGF:
    """Generating function of S_n with numerator

    S0 - r0 + z (S1 - a S0 - r1) + z^2 (S2 - a S1 - b S0 - r2) + G(z)

    over 1 - a z - b z^2 - c z^3, where G is the generating function of r
    and r0, r1, r2 are its leading coefficients.  They come from three
    steps of the division in r's coefficient ring, not from
    :func:`series_expand`, so the call keeps no series body.
    """
    a, b, c = spec.a, spec.b, spec.c
    zero = a * 0
    one = zero + 1
    r = spec.r
    if r is None:
        r = RationalGF((zero,), (one,))
    elif isinstance(r, PowerSeries):
        if r.order < 3:
            raise DomainError("forcing series must carry at least 3 coefficients")
        r = RationalGF(r.coeffs, (one,))
    # p_m = num_m - sum_j den_j p_(m-j) on the numerator shifted by z^shift
    ring_zero = _ZERO_OF[_coeff_kind(r)]
    num = (ring_zero,) * min(r.shift, 3) + r.numerator + (ring_zero,) * 3
    rs = []
    for m in range(3):
        known = zip(r.denominator[1:m + 1], reversed(rs))
        rs.append(ring_zero + num[m] - sum(d * p for d, p in known))
    r0, r1, r2 = rs
    head = (spec.s0 - r0,
            spec.s1 - a * spec.s0 - r1,
            spec.s2 - a * spec.s1 - b * spec.s0 - r2)
    numerator = _zadd(_zmul(head, r.denominator, zero), (zero,) * r.shift + r.numerator)
    return RationalGF(numerator, _zmul((one, zero - a, zero - b, zero - c), r.denominator, zero))


# -- the concrete incomplete-family generating functions ----------------------

_ZERO = IntPoly.zero()
_ONE = IntPoly.one()
_X = IntPoly.x()
_X2 = IntPoly.monomial(1, 2)


def _at(gf: RationalGF, x: Fraction) -> RationalGF:
    # Substitute x into a symbolic pair; see the module docstring.
    def sub(coeffs):
        return tuple(c.evaluate(x) for c in coeffs)
    return RationalGF(sub(gf.numerator), sub(gf.denominator), gf.shift)


@cached
def q_gf(s: int, variant: GFVariant = GFVariant.CORRECTED,
         x: XMode = None) -> RationalGF:
    """The incomplete-Tribonacci generating function Q_s as a cleared pair.

    Denominators are cleared to (1 - x^2 z - x z^2 - z^3)(1 - x^2 z)^(s+1)
    and the z^(2s+1) prefactor is carried in ``shift``.  With ``x`` given,
    the memoised symbolic pair is evaluated at x coefficient by coefficient,
    which gives exact rational coefficients.
    """
    if s < 0:
        raise DomainError(f"level must be nonnegative, got {s}")
    if x is not None:
        return _at(q_gf(s, variant, None), Fraction(x))
    t1 = tribonacci_poly(2 * s + 1)
    t2 = tribonacci_poly(2 * s + 2)
    n2 = tribonacci_poly(2 * s)
    if variant is GFVariant.AS_PRINTED:
        n2 = n2 - IntPoly.monomial(2, s + 1)
    head = (t1, t2 - _X2 * t1, n2)
    m = (_ONE, -_X2)                     # 1 - x^2 z
    d = (_ONE, -_X2, -_X, -_ONE)         # 1 - x^2 z - x z^2 - z^3
    # (1 - x^2 z)^(s+1) and (x + z)^s: each z^k coefficient is one monomial
    p = tuple(IntPoly.monomial((-1) ** k * comb(s + 1, k), 2 * k) for k in range(s + 2))
    x_plus_z = tuple(IntPoly.monomial(comb(s, k), s - k) for k in range(s + 1))
    g = _zmul((_ZERO, _ZERO, _X, _ONE), x_plus_z, _ZERO)
    a = _zadd(_zmul(head, p, _ZERO), _zneg(g))
    factors = (d,) + (m,) * (s + 1)
    return RationalGF(a, _factor_product(factors), 2 * s + 1, factors)


@cached
def w_gf(s: int, x: XMode = None) -> RationalGF:
    """The incomplete Tribonacci-Lucas generating function W_s (s >= 1).

    Assembled over the common denominator of Q_s and Q_{s-1} (corrected
    variant), with the z^(-1) absorbed into Q_s's shift and the boundary
    term 2 T_{2s-2}(x) z^(2s) restored; see the module docstring.  With
    ``x`` given, the memoised symbolic pair is evaluated at x.
    """
    if s < 1:
        raise DomainError("the Tribonacci-Lucas generating function needs s >= 1")
    if x is not None:
        return _at(w_gf(s, None), Fraction(x))
    q_s = q_gf(s, GFVariant.CORRECTED, None)
    q_prev = q_gf(s - 1, GFVariant.CORRECTED, None)
    lin_m = _zmul((_X, IntPoly.constant(2)), (_ONE, -_X2), _ZERO)  # (x + 2z)(1 - x^2 z)
    numerator = _zadd(q_s.numerator, _zmul(lin_m, q_prev.numerator, _ZERO))
    repair = tribonacci_poly(2 * s - 2)
    if repair:
        numerator = _zadd(numerator, _zscale(q_s.denominator, repair + repair))
    return RationalGF(numerator, q_s.denominator, 2 * s, q_s.factors)


@cached
def q_gf_numbers_unshifted(s: int) -> RationalGF:
    """The x = 1 printed form without its z^(2s+1) prefactor.

    Kept solely for the errata comparison: its expansion matches the
    shifted printed form only after multiplying by z^(2s+1), so compared
    directly against the incomplete Tribonacci numbers it mismatches from
    z^0 on.
    """
    if s < 0:
        raise DomainError(f"level must be nonnegative, got {s}")
    printed = q_gf(s, GFVariant.AS_PRINTED, Fraction(1))
    return RationalGF(printed.numerator, printed.denominator, 0)


def direct_incomplete_coeff(family: IncompleteFamily, n: int, s: int,
                            x: XMode) -> Coeff:
    """The directly computed series coefficient: the incomplete value at
    index n, or the ring zero when (n, s) is outside the family's domain."""
    if not is_valid(family, n, s):
        return IntPoly.zero() if x is None else Fraction(0)
    if family is IncompleteFamily.INC_TRIBONACCI:
        p = incomplete_tribonacci_poly(n, s)
    else:
        p = incomplete_tl_poly(n, s)
    if x is None:
        return p
    return p.evaluate(x if isinstance(x, Fraction) else Fraction(x))


@cached
def direct_series(family: IncompleteFamily, s: int, x: XMode,
                  order: int) -> Tuple[Coeff, ...]:
    """``direct_incomplete_coeff(family, k, s, x)`` for k < ``order``, memoised.

    The sweeps that compare different generating functions of one family
    against the same direct values (Q_s in both variants and at x = 1, W_s
    symbolically and at x = 1) read one tuple.  It is built from the
    double sums and triangles only, never from a pair or its expansion.
    The memo is an ``lru_cache`` keyed by (family, s, x, order); nothing
    drops single entries from it, so a ``verify`` run keeps each tuple to
    its end.
    """
    return tuple(direct_incomplete_coeff(family, k, s, x) for k in range(order))


class GFComparison(NamedTuple):
    """Coefficientwise comparison of a generating function against direct values.

    Immutable; compares and hashes as the tuple of its fields.
    """

    family: IncompleteFamily
    s: int
    variant: GFVariant
    x: XMode
    order: int
    series: PowerSeries
    mismatches: Tuple[Tuple[int, Coeff, Coeff], ...]  # (power, gf value, direct value)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def first_mismatch_power(self) -> Optional[int]:
        return self.mismatches[0][0] if self.mismatches else None


def gf_vs_direct(family: IncompleteFamily, s: int,
                 variant: GFVariant = GFVariant.CORRECTED,
                 x: XMode = None, order: int = DEFAULT_ORDER) -> GFComparison:
    """Expand the family's generating function and compare every coefficient
    below ``order`` against direct double-sum evaluation.

    The direct sums are the oracle; the closed-form function is the claim
    under test.  Out-of-domain indices contribute zero on the direct side.
    The direct values come from :func:`direct_series`, so they are built
    once per (family, s, x, order) however many functions are compared
    against them.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if family is IncompleteFamily.INC_TRIBONACCI:
        gf = q_gf(s, variant, x)
    else:
        if variant is not GFVariant.CORRECTED:
            raise DomainError(
                "only the corrected variant exists for the Tribonacci-Lucas family")
        gf = w_gf(s, x)
    series = series_expand(gf, order)
    mismatches = tuple((k, got, want) for k, (got, want)
                       in enumerate(zip(series.coeffs, direct_series(family, s, x, order)))
                       if got != want)
    return GFComparison(family, s, variant, x, order, series, mismatches)
