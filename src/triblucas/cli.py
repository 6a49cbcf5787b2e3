"""Command-line front end.

Subcommands: ``seq`` (number families, b-file capable), ``poly`` (polynomial
families), ``table`` (the four reference tables), ``incomplete`` (incomplete
values, optionally evaluated at a rational x), ``gf`` (generating-function
expansion with a matches-direct comparator verdict) and ``verify`` (the
identity suite).  Exit codes: 0 success, 1 verification failure, 2 usage
error (including a ``seq`` index above ``SEQ_INDEX_MAX``, a ``poly``
index above ``POLY_INDEX_MAX``, a ``table --rows`` count or an
``incomplete`` index above ``TRIANGLE_INDEX_MAX``, or a ``gf`` level above
``GF_S_MAX`` or order above ``GF_ORDER_MAX``, or a rational ``--x`` or
``--x-points`` value with more than ``X_DIGITS_MAX`` digits in its numerator
or denominator, each rejected before any work), 3 internal error (an
unexpected exception, reported as one ``error: internal: <Type>: <message>``
line on stderr), 141 (128 + SIGPIPE) when the reader of stdout closes the
pipe early, as ``| head`` does, with nothing on stderr.  All output is UTF-8
with "\\n" newlines and deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import genfunc, incomplete, verify
from .errors import DomainError
from .poly import IntPoly, poly_format
from .sequences import (
    tribonacci_lucas_number,
    tribonacci_lucas_poly,
    tribonacci_number,
    tribonacci_poly,
)
from .triangles import TriangleKind, triangle_rows

PLAIN, JSON, CSV, BFILE = "plain", "json", "csv", "bfile"

# Largest indices the CLI computes.  K_16000 has 4,235 digits, below the
# 4,300 that ``str(int)`` accepts by default; the polynomial memo grows as
# O(n^2) coefficients, about 100 MB for both families at n = 1000.  Tables
# and incomplete values fill the polynomial triangle or the double sums, whose
# memos and text grow as O(n^3): about 100 MB at 150 rows.  A symbolic ``gf``
# inc-tl expansion at the corner s = 24, order 192 takes about a second and
# 80 MB; the bounds cover the large verify range (s 16, order 128).  A
# rational x is counted as written, exponent applied.  At that corner the
# coefficients reach x^382, so a 10-digit x gives numerators and denominators
# of about 3,840 digits, below the 4,300 of ``str(int)``, and a 20-digit one
# about 7,700.
SEQ_INDEX_MAX = 16000
POLY_INDEX_MAX = 1000
TRIANGLE_INDEX_MAX = 150
GF_S_MAX = 24
GF_ORDER_MAX = 192
X_DIGITS_MAX = 10


class _UsageError(Exception):
    pass


def _compact_json(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _digits(text: str) -> int:
    return len(text.lstrip("+-").replace("_", "").lstrip("0"))


def _parse_fraction(text: str) -> Fraction:
    """``text`` as a Fraction, refused before one is built when its numerator
    or denominator as written (p/q, or a decimal with its exponent applied,
    unreduced) has more than ``X_DIGITS_MAX`` digits."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    num, slash, den = mantissa.partition("/")
    whole, _, frac = num.partition(".")
    try:
        shift = int(exponent or 0) - len(frac)
        if slash:
            sizes = (_digits(num), _digits(den))
        else:   # the integer (whole frac) times 10^shift
            sizes = (_digits(whole + frac) + max(shift, 0), 1 + max(-shift, 0))
        if max(sizes) <= X_DIGITS_MAX:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}")
    raise _UsageError(f"rational x must have at most {X_DIGITS_MAX} digits in its "
                      f"numerator and denominator, got {text!r}")


# -- seq -----------------------------------------------------------------------

_NUMBER_FAMILIES = {
    "tribonacci": tribonacci_number,
    "tribonacci-lucas": tribonacci_lucas_number,
}


def _seq_values(func, start: int, end: int):
    """Values at start..end: three seeds from ``func``, then the recurrence."""
    a, b, c = (func(n) for n in range(start, start + 3))
    for _ in range(start, end + 1):
        yield a
        a, b, c = b, c, a + b + c


def _cmd_seq(args) -> int:
    if args.start < 0 or args.start > args.end:
        raise _UsageError(f"need 0 <= from <= to, got {args.start}..{args.end}")
    if args.end > SEQ_INDEX_MAX:
        raise _UsageError(f"to must be <= {SEQ_INDEX_MAX}, got {args.end}")
    indices = range(args.start, args.end + 1)
    values = _seq_values(_NUMBER_FAMILIES[args.family], args.start, args.end)
    write = sys.stdout.write
    if args.format == PLAIN:
        write(" ".join(map(str, values)) + "\n")
    elif args.format == BFILE:
        for n, v in zip(indices, values):
            write(f"{n} {v}\n")
    elif args.format == CSV:
        write("n,value\n")
        for n, v in zip(indices, values):
            write(f"{n},{v}\n")
    else:
        write(_compact_json({"family": args.family, "from": args.start,
                             "to": args.end,
                             "values": [str(v) for v in values]}) + "\n")
    return 0


# -- poly ----------------------------------------------------------------------

_POLY_FAMILIES = {
    "tribonacci": tribonacci_poly,
    "tl": tribonacci_lucas_poly,
}


def _poly_csv(p: IntPoly) -> str:
    rows = "".join(f"{k},{c}\n" for k, c in enumerate(p.coeffs))
    return "power,coefficient\n" + rows


def _cmd_poly(args) -> int:
    if args.n < 0:
        raise _UsageError(f"index must be nonnegative, got {args.n}")
    if args.n > POLY_INDEX_MAX:
        raise _UsageError(f"index must be <= {POLY_INDEX_MAX}, got {args.n}")
    p = _POLY_FAMILIES[args.family](args.n)
    if args.format == PLAIN:
        out = poly_format(p) + "\n"
    elif args.format == CSV:
        out = _poly_csv(p)
    else:
        out = _compact_json({"coeffs": [str(c) for c in p.coeffs]}) + "\n"
    sys.stdout.write(out)
    return 0


# -- table ---------------------------------------------------------------------

def _table_rows(which: int, rows: int):
    """(header label, first row index, list of rows of rendered cells)."""
    if which == 1:
        table = triangle_rows(TriangleKind.NUMBERS, rows)
        return "n\\i", 0, [[str(c) for c in row] for row in table.rows]
    if which == 2:
        table = triangle_rows(TriangleKind.POLYNOMIALS, rows)
        return "n\\i", 0, [[poly_format(c) for c in row] for row in table.rows]
    if which == 3:
        body = [[poly_format(p) for p in incomplete.incomplete_tl_poly_row(n)]
                for n in range(1, rows + 1)]
        return "n\\s", 1, body
    body = [[str(incomplete.incomplete_tl_number(n, s))
             for s in range(n // 2 + 1)] for n in range(1, rows + 1)]
    return "n\\s", 1, body


def _cmd_table(args) -> int:
    if args.rows < 1:
        raise _UsageError(f"rows must be >= 1, got {args.rows}")
    if args.rows > TRIANGLE_INDEX_MAX:
        raise _UsageError(f"rows must be <= {TRIANGLE_INDEX_MAX}, got {args.rows}")
    label, first, body = _table_rows(args.which, args.rows)
    if args.format == PLAIN:
        width = max(len(row) for row in body)
        lines = [label + "\t" + "\t".join(str(i) for i in range(width))]
        for offset, row in enumerate(body):
            lines.append(str(first + offset) + "\t" + "\t".join(row))
        out = "\n".join(lines) + "\n"
    elif args.format == CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n"] + [f"col{i}" for i in range(max(len(r) for r in body))])
        for offset, row in enumerate(body):
            writer.writerow([first + offset] + row)
        out = buf.getvalue()
    else:
        out = _compact_json({"table": args.which, "first_row": first,
                             "rows": body}) + "\n"
    sys.stdout.write(out)
    return 0


# -- incomplete ------------------------------------------------------------------

_INCOMPLETE_FAMILIES = {
    "tribonacci": incomplete.incomplete_tribonacci_poly,
    "tl": incomplete.incomplete_tl_poly,
}


def _cmd_incomplete(args) -> int:
    if args.n > TRIANGLE_INDEX_MAX:
        raise _UsageError(f"index must be <= {TRIANGLE_INDEX_MAX}, got {args.n}")
    x = _parse_fraction(args.x) if args.x is not None else None
    try:
        p = _INCOMPLETE_FAMILIES[args.family](args.n, args.s)
    except DomainError as exc:
        raise _UsageError(str(exc))
    if x is not None:
        value = p.evaluate(x)
        if args.format == PLAIN:
            out = f"{value}\n"
        elif args.format == CSV:
            out = f"value\n{value}\n"
        else:
            out = _compact_json({"value": str(value)}) + "\n"
    else:
        if args.format == PLAIN:
            out = poly_format(p) + "\n"
        elif args.format == CSV:
            out = _poly_csv(p)
        else:
            out = _compact_json({"coeffs": [str(c) for c in p.coeffs]}) + "\n"
    sys.stdout.write(out)
    return 0


# -- gf --------------------------------------------------------------------------

_GF_FAMILIES = {
    "inc-tribonacci": incomplete.IncompleteFamily.INC_TRIBONACCI,
    "inc-tl": incomplete.IncompleteFamily.INC_TRIBONACCI_LUCAS,
}

_VARIANT_FLAGS = {
    "printed": genfunc.GFVariant.AS_PRINTED,
    "corrected": genfunc.GFVariant.CORRECTED,
}


def _cmd_gf(args) -> int:
    if args.s > GF_S_MAX:
        raise _UsageError(f"s must be <= {GF_S_MAX}, got {args.s}")
    if args.order > GF_ORDER_MAX:
        raise _UsageError(f"order must be <= {GF_ORDER_MAX}, got {args.order}")
    family = _GF_FAMILIES[args.family]
    variant = _VARIANT_FLAGS[args.variant]
    if family is incomplete.IncompleteFamily.INC_TRIBONACCI_LUCAS:
        if args.s < 1:
            raise _UsageError("the inc-tl generating function needs s >= 1")
        if variant is not genfunc.GFVariant.CORRECTED:
            raise _UsageError("only the corrected variant exists for inc-tl")
    if args.order < 1:
        raise _UsageError(f"order must be >= 1, got {args.order}")
    x = _parse_fraction(args.x) if args.x is not None else None
    comparison = genfunc.gf_vs_direct(family, args.s, variant, x, args.order)
    rendered = [genfunc.render_coeff(c) for c in comparison.series.coeffs]
    verdict = "true" if comparison.ok else "false"
    if args.format == PLAIN:
        out = "[" + ",".join(rendered) + f"], matches_direct={verdict}\n"
    elif args.format == CSV:
        rows = "".join(f"{k},{c}\n" for k, c in enumerate(rendered))
        out = "power,coefficient\n" + rows + f"matches_direct,{verdict}\n"
    else:
        out = _compact_json({
            "family": args.family, "s": args.s, "order": args.order,
            "variant": args.variant, "x": args.x,
            "shift": genfunc.q_gf(args.s, variant, x).shift
            if family is incomplete.IncompleteFamily.INC_TRIBONACCI
            else genfunc.w_gf(args.s, x).shift,
            "coefficients": rendered,
            "matches_direct": comparison.ok,
        }) + "\n"
    sys.stdout.write(out)
    return 0


# -- verify ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    known = {identity_id for identity_id, _, _ in verify.list_identities()}
    for identity_id in args.id or ():
        if identity_id not in known:
            raise _UsageError(f"unknown identity id {identity_id!r}")
    x_points = tuple(_parse_fraction(tok) for tok in args.x_points.split(",")) \
        if args.x_points is not None else None
    try:
        rng = verify.SweepRange(
            n_max=args.n_max, s_max=args.s_max, h_max=args.h_max,
            order=args.order,
            x_points=x_points or verify.SweepRange().x_points,
            include_symbolic=not args.no_symbolic)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.id:
        reports = [verify.run_identity(identity_id, rng) for identity_id in args.id]
    else:
        reports = verify.run_all(rng)
    if args.format == JSON:
        sys.stdout.write(verify.reports_to_json(reports) + "\n")
    elif args.format == CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "status", "points_checked", "total_failures", "notes"])
        for r in reports:
            writer.writerow([r.id, r.status, r.points_checked,
                             r.total_failures, r.notes])
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(_render_verify_plain(reports))
    return 0 if verify.overall_success(reports) else 1


def _render_verify_plain(reports) -> str:
    id_width = max(len(r.id) for r in reports)
    lines = []
    for r in reports:
        lines.append(f"{r.id:<{id_width}}  {r.status:<13}  "
                     f"points={r.points_checked}  failures={r.total_failures}")
    shown = [r for r in reports if r.failures]
    for r in shown:
        lines.append("")
        lines.append(f"{r.id}: first counterexamples "
                     f"({len(r.failures)} of {r.total_failures}):")
        for failure in r.failures[:3]:
            params = ", ".join(f"{k}={v}" for k, v in failure.params)
            lines.append(f"  ({params}): {failure.lhs} != {failure.rhs}")
    out = "\n".join(lines) + "\n"
    if any(r.status == verify.EXPECTED_FAIL for r in reports):
        out += "\n" + verify.errata_report().render()
    return out


# -- parser ----------------------------------------------------------------------

_X_DIGITS_HELP = f"numerator and denominator of at most {X_DIGITS_MAX} digits"


def _add_format(parser: argparse.ArgumentParser, choices) -> None:
    parser.add_argument("--format", choices=choices, default=PLAIN)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triblucas",
        description="Tribonacci / Tribonacci-Lucas families, triangles, "
                    "incomplete variants, generating functions and the "
                    "identity verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="number sequence values over an index range")
    p.add_argument("family", choices=sorted(_NUMBER_FAMILIES))
    p.add_argument("start", type=int, metavar="from")
    p.add_argument("end", type=int, metavar="to",
                   help=f"last index, at most {SEQ_INDEX_MAX}")
    _add_format(p, [PLAIN, JSON, CSV, BFILE])
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("poly", help="one polynomial family member")
    p.add_argument("family", choices=sorted(_POLY_FAMILIES))
    p.add_argument("n", type=int, help=f"index, at most {POLY_INDEX_MAX}")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("table", help="reference tables 1-4")
    p.add_argument("which", type=int, choices=[1, 2, 3, 4])
    p.add_argument("--rows", type=int, default=6,
                   help=f"number of rows, at most {TRIANGLE_INDEX_MAX}")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("incomplete", help="incomplete family values")
    p.add_argument("family", choices=sorted(_INCOMPLETE_FAMILIES))
    p.add_argument("n", type=int, help=f"index, at most {TRIANGLE_INDEX_MAX}")
    p.add_argument("s", type=int)
    p.add_argument("--x", help="rational evaluation point, e.g. 1 or 1/2, "
                               f"{_X_DIGITS_HELP}")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_incomplete)

    p = sub.add_parser("gf", help="generating-function expansion + comparator")
    p.add_argument("family", choices=sorted(_GF_FAMILIES))
    p.add_argument("s", type=int, help=f"incomplete level, at most {GF_S_MAX}")
    p.add_argument("order", type=int,
                   help=f"number of series coefficients, at most {GF_ORDER_MAX}")
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="corrected")
    p.add_argument("--x", help=f"rational evaluation point, {_X_DIGITS_HELP}; "
                               "omit for symbolic x")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--id", action="append",
                   help="run only this catalog id (repeatable)")
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--s-max", type=int, default=8)
    p.add_argument("--h-max", type=int, default=12)
    p.add_argument("--order", type=int, default=48)
    p.add_argument("--x-points", help=f"comma-separated rationals, {_X_DIGITS_HELP}; "
                                      "default 1,2,1/2")
    p.add_argument("--no-symbolic", action="store_true",
                   help="skip the symbolic-x generating-function sweeps")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {message}\n")
        return 3


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: send what is left in the buffer to devnull, so
        # the flush at exit cannot fail again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
