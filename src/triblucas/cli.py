"""Command-line front end.

Subcommands: ``seq`` (number families, b-file capable), ``poly`` (polynomial
families), ``table`` (the four reference tables), ``incomplete`` (incomplete
values, optionally evaluated at a rational x), ``gf`` (generating-function
expansion with a matches-direct comparator verdict) and ``verify`` (the
identity suite).  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 internal error, 141 (128 + SIGPIPE) when the reader of stdout
closes the pipe early, as ``| head`` does, with nothing on stderr.

Every usage error, argparse's own included, is a ``DomainError`` that
``main`` reports as one ``error: <message>`` line on stderr, before any
work.  Each index bound (``SEQ_INDEX_MAX``, ``POLY_INDEX_MAX``,
``TRIANGLE_INDEX_MAX``, ``GF_S_MAX``, ``GF_ORDER_MAX``) is declared once,
on the argument that takes it, and argparse checks it; the help names it.
The handlers check only what relates two arguments (``from <= to``) and
the ``verify --id`` catalog ids, and parse rational ``--x`` and
``--x-points`` values, refusing more than ``X_DIGITS_MAX`` digits in a
numerator or denominator.  Family, level, variant, order and sweep-range
domains are the library's own checks.  An internal error, any other
exception, is one ``error: internal: <Type>: <message>`` line.  All output
is UTF-8 with "\\n" newlines and deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
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


def _compact_json(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _digits(text: str) -> int:
    return len(text.lstrip("+-").lstrip("0"))


def _parse_fraction(text: str) -> Fraction:
    """``text`` as a Fraction, refused before one is built when its numerator
    or denominator as written (p/q, or a decimal with its exponent applied,
    unreduced) has more than ``X_DIGITS_MAX`` digits.  An underscore or a
    space inside the number is refused on every Python version, as
    ``Fraction`` refuses them before 3.11 and 3.12."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    num, slash, den = mantissa.partition("/")
    whole, _, frac = num.partition(".")
    try:
        if "_" in text or len(text.split()) != 1:
            raise ValueError(text)
        shift = int(exponent or 0) - len(frac)
        if slash:
            sizes = (_digits(num), _digits(den))
        else:   # the integer (whole frac) times 10^shift
            sizes = (_digits(whole + frac) + max(shift, 0), 1 + max(-shift, 0))
        if max(sizes) <= X_DIGITS_MAX:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational number: {text!r}") from None
    raise DomainError(f"rational x must have at most {X_DIGITS_MAX} digits in its "
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
    if args.start > args.end:
        raise DomainError(f"need from <= to, got {args.start}..{args.end}")
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


def _power_csv(coeffs) -> str:
    rows = "".join(f"{k},{c}\n" for k, c in enumerate(coeffs))
    return "power,coefficient\n" + rows


def _write_poly(p: IntPoly, fmt: str) -> int:
    if fmt == PLAIN:
        out = poly_format(p) + "\n"
    elif fmt == CSV:
        out = _power_csv(p.coeffs)
    else:
        out = _compact_json({"coeffs": [str(c) for c in p.coeffs]}) + "\n"
    sys.stdout.write(out)
    return 0


def _cmd_poly(args) -> int:
    return _write_poly(_POLY_FAMILIES[args.family](args.n), args.format)


# -- table ---------------------------------------------------------------------

def _table_rows(which: int, rows: int):
    """(header label, first row index, list of rows of rendered cells)."""
    if which <= 2:
        kind = TriangleKind.NUMBERS if which == 1 else TriangleKind.POLYNOMIALS
        return "n\\i", 0, triangle_rows(kind, rows).to_json_dict()["rows"]
    if which == 3:
        body = [[poly_format(p) for p in incomplete.incomplete_tl_poly_row(n)]
                for n in range(1, rows + 1)]
        return "n\\s", 1, body
    body = [[str(incomplete.incomplete_tl_number(n, s))
             for s in range(n // 2 + 1)] for n in range(1, rows + 1)]
    return "n\\s", 1, body


def _cmd_table(args) -> int:
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
    x = _parse_fraction(args.x) if args.x is not None else None
    p = _INCOMPLETE_FAMILIES[args.family](args.n, args.s)
    if x is None:
        return _write_poly(p, args.format)
    value = p.evaluate(x)
    if args.format == PLAIN:
        out = f"{value}\n"
    elif args.format == CSV:
        out = f"value\n{value}\n"
    else:
        out = _compact_json({"value": str(value)}) + "\n"
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
    family = _GF_FAMILIES[args.family]
    variant = _VARIANT_FLAGS[args.variant]
    x = _parse_fraction(args.x) if args.x is not None else None
    comparison = genfunc.gf_vs_direct(family, args.s, variant, x, args.order)
    rendered = [genfunc.render_coeff(c) for c in comparison.series.coeffs]
    verdict = "true" if comparison.ok else "false"
    if args.format == PLAIN:
        out = "[" + ",".join(rendered) + f"], matches_direct={verdict}\n"
    elif args.format == CSV:
        out = _power_csv(rendered) + f"matches_direct,{verdict}\n"
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
            raise DomainError(f"unknown identity id {identity_id!r}")
    given = {name: value for name, value in vars(args).items()
             if name in verify.SweepRange._fields}
    if "x_points" in given:
        given["x_points"] = tuple(_parse_fraction(tok) for tok in given["x_points"].split(","))
    rng = verify.SweepRange(**given)
    reports = verify.run_all(rng, args.id)
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


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors as ``DomainError``, for ``main`` to report
    as one line like every other usage error, and takes an argument that
    starts with a minus sign and a digit as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A private argparse attribute, which ArgumentParser.__init__ sets on
        # 3.10 to 3.13: an argument it matches is a value, not a flag.
        # argparse's own pattern matches only -1 and -0.5.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise DomainError(message)


def _count(low: int, high: int):
    """An argparse type: an integer in ``low..high``."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {text}")
        return value
    return count


def _add_count(parser: argparse.ArgumentParser, name: str, low: int, high: int,
               what: str, **kwargs) -> None:
    parser.add_argument(name, type=_count(low, high), help=f"{what}, at most {high}",
                        **kwargs)


def _add_format(parser: argparse.ArgumentParser, choices) -> None:
    parser.add_argument("--format", choices=choices, default=PLAIN)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triblucas",
        description="Tribonacci / Tribonacci-Lucas families, triangles, "
                    "incomplete variants, generating functions and the "
                    "identity verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="number sequence values over an index range")
    p.add_argument("family", choices=sorted(_NUMBER_FAMILIES))
    _add_count(p, "start", 0, SEQ_INDEX_MAX, "first index", metavar="from")
    _add_count(p, "end", 0, SEQ_INDEX_MAX, "last index", metavar="to")
    _add_format(p, [PLAIN, JSON, CSV, BFILE])
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("poly", help="one polynomial family member")
    p.add_argument("family", choices=sorted(_POLY_FAMILIES))
    _add_count(p, "n", 0, POLY_INDEX_MAX, "index")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("table", help="reference tables 1-4")
    p.add_argument("which", type=int, choices=[1, 2, 3, 4])
    _add_count(p, "--rows", 1, TRIANGLE_INDEX_MAX, "number of rows", default=6)
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("incomplete", help="incomplete family values")
    p.add_argument("family", choices=sorted(_INCOMPLETE_FAMILIES))
    _add_count(p, "n", 0, TRIANGLE_INDEX_MAX, "index")
    p.add_argument("s", type=int)
    p.add_argument("--x", help="rational evaluation point, e.g. 1 or 1/2, "
                               f"{_X_DIGITS_HELP}")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_incomplete)

    p = sub.add_parser("gf", help="generating-function expansion + comparator")
    p.add_argument("family", choices=sorted(_GF_FAMILIES))
    _add_count(p, "s", 0, GF_S_MAX, "incomplete level")
    _add_count(p, "order", 1, GF_ORDER_MAX, "number of series coefficients")
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="corrected")
    p.add_argument("--x", help=f"rational evaluation point, {_X_DIGITS_HELP}; "
                               "omit for symbolic x")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_gf)

    # The range flags set only what is given; the defaults are SweepRange's.
    default = verify.SweepRange()
    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--id", action="append",
                   help="run only this catalog id (repeatable)")
    for name in ("n_max", "s_max", "h_max", "order"):
        p.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS,
                       help=f"default {getattr(default, name)}")
    p.add_argument("--x-points", default=argparse.SUPPRESS,
                   help=f"comma-separated rationals, {_X_DIGITS_HELP}; default "
                        + ",".join(map(str, default.x_points)))
    p.add_argument("--no-symbolic", dest="include_symbolic", action="store_false",
                   default=argparse.SUPPRESS,
                   help="skip the symbolic-x generating-function sweeps")
    _add_format(p, [PLAIN, JSON, CSV])
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # after --help
        return exc.code
    except DomainError as exc:
        message, code = str(exc), 2
    except BrokenPipeError:
        raise
    except Exception as exc:
        message, code = f"internal: {type(exc).__name__}: {exc}", 3
    sys.stderr.write("error: " + message.replace("\n", " ") + "\n")
    return code


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
