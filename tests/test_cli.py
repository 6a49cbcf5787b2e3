import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from triblucas import incomplete
from triblucas.cli import (
    GF_ORDER_MAX,
    GF_S_MAX,
    POLY_INDEX_MAX,
    SEQ_INDEX_MAX,
    TRIANGLE_INDEX_MAX,
    X_DIGITS_MAX,
    main,
)
from triblucas.errors import DomainError
from triblucas.sequences import (
    NUMBER_MEMO_CAP,
    tribonacci_lucas_number,
    tribonacci_number,
)

FAMILY_FUNCS = {"tribonacci": tribonacci_number,
                "tribonacci-lucas": tribonacci_lucas_number}

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, _ = run(capsys, "seq", "tribonacci-lucas", "0", "6")
    assert code == 0
    assert out == "3 1 3 7 11 21 39\n"


def test_seq_bfile(capsys):
    code, out, _ = run(capsys, "seq", "tribonacci", "0", "7", "--format", "bfile")
    assert code == 0
    assert out == "0 0\n1 1\n2 1\n3 2\n4 4\n5 7\n6 13\n7 24\n"


def test_seq_inverted_range_is_usage_error(capsys):
    code, _, err = run(capsys, "seq", "tribonacci", "5", "3")
    assert code == 2
    assert "error" in err


def test_seq_json_and_csv(capsys):
    code, out, _ = run(capsys, "seq", "tribonacci", "0", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "tribonacci", "from": 0, "to": 3,
                               "values": ["0", "1", "1", "2"]}
    code, out, _ = run(capsys, "seq", "tribonacci", "0", "2", "--format", "csv")
    assert out == "n,value\n0,0\n1,1\n2,1\n"


def _seq_out(fmt, family, start, end):
    values = [str(FAMILY_FUNCS[family](n)) for n in range(start, end + 1)]
    if fmt == "plain":
        return " ".join(values) + "\n"
    if fmt == "bfile":
        return "".join(f"{n} {v}\n" for n, v in enumerate(values, start))
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values, start))
    return json.dumps({"family": family, "from": start, "to": end,
                       "values": values}, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("fmt", ["plain", "bfile", "csv", "json"])
@pytest.mark.parametrize("family", sorted(FAMILY_FUNCS))
def test_seq_streams_the_per_index_values(capsys, fmt, family):
    cap = NUMBER_MEMO_CAP
    for start, end in [(0, 0), (0, 1), (3, 40), (cap - 4, cap - 1),
                       (cap - 2, cap + 5), (cap, cap), (9000, 9012),
                       (SEQ_INDEX_MAX - 1, SEQ_INDEX_MAX)]:
        code, out, _ = run(capsys, "seq", family, str(start), str(end),
                           "--format", fmt)
        assert code == 0
        assert out == _seq_out(fmt, family, start, end)


X_DIGITS = f"at most {X_DIGITS_MAX} digits"


@pytest.mark.parametrize("argv, bound", [
    (("seq", "tribonacci", "0", str(10 ** 12)), SEQ_INDEX_MAX),
    (("seq", "tribonacci-lucas", str(SEQ_INDEX_MAX + 1), str(SEQ_INDEX_MAX + 1)),
     SEQ_INDEX_MAX),
    (("poly", "tl", str(10 ** 12)), POLY_INDEX_MAX),
    (("poly", "tribonacci", str(POLY_INDEX_MAX + 1)), POLY_INDEX_MAX),
    (("table", "2", "--rows", str(10 ** 12)), TRIANGLE_INDEX_MAX),
    (("table", "3", "--rows", str(TRIANGLE_INDEX_MAX + 1)), TRIANGLE_INDEX_MAX),
    (("incomplete", "tl", str(10 ** 12), "0"), TRIANGLE_INDEX_MAX),
    (("incomplete", "tribonacci", str(TRIANGLE_INDEX_MAX + 1), "1"),
     TRIANGLE_INDEX_MAX),
    (("gf", "inc-tl", str(10 ** 12), "7"), GF_S_MAX),
    (("gf", "inc-tribonacci", str(GF_S_MAX + 1), "7"), GF_S_MAX),
    (("gf", "inc-tribonacci", "1", str(10 ** 12)), GF_ORDER_MAX),
    (("gf", "inc-tl", "1", str(GF_ORDER_MAX + 1), "--x=-5/7"), GF_ORDER_MAX),
    (("verify", "--x-points", "1,1"), "x_points must be distinct, got 1 twice"),
    (("verify", "--x-points", "1,2/2", "--no-symbolic"),
     "x_points must be distinct, got 1 twice"),
    (("incomplete", "tl", "5", "2", "--x", "1e500"), X_DIGITS),
    (("incomplete", "tl", "5", "2", "--x", "1e10000000"), X_DIGITS),
    (("incomplete", "tribonacci", "5", "2", "--x", "9" * (X_DIGITS_MAX + 1)), X_DIGITS),
    (("gf", "inc-tribonacci", "24", "192", "--x", "1e20"), X_DIGITS),
    (("gf", "inc-tl", "2", "8", f"--x=-1/1{'0' * X_DIGITS_MAX}"), X_DIGITS),
    (("verify", "--id", "thm10-printed", "--no-symbolic", "--x-points", "1e300"), X_DIGITS),
    (("verify", "--x-points", "1/2,1e-10"), X_DIGITS),
    (("verify", "--x-points", ""), "not a rational number: ''"),
    # Fraction takes "1_0" from Python 3.11 on and "1 / 2" from 3.12 on; the
    # CLI refuses both on every version.
    (("incomplete", "tl", "5", "2", "--x", "1_0"), "not a rational number: '1_0'"),
    (("gf", "inc-tl", "2", "8", "--x", "1 / 2"), "not a rational number: '1 / 2'"),
    # argparse's own errors are one line too.
    (("frobnicate",), "invalid choice: 'frobnicate'"),
    ((), "required: command"),
    (("seq", "tribonacci", "x", "5"), "not an integer: 'x'"),
    (("seq", "tribonacci", "0"), "required: to"),
    (("poly", "tl", "5", "--format", "bfile"), "invalid choice: 'bfile'"),
    (("verify", "--bogus"), "unrecognized arguments: --bogus"),
    # Checked by the library, not the handler.
    (("gf", "inc-tl", "0", "7"), "s >= 1"),
    (("gf", "inc-tl", "1", "7", "--variant", "printed"), "only the corrected variant"),
    # A flag after --x is still a flag, not a value.
    (("gf", "inc-tl", "1", "7", "--x", "--format", "json"), "--x: expected one argument"),
])
def test_indices_past_the_bounds_exit_2_without_allocating(capsys, argv, bound):
    run(capsys, "seq", "tribonacci", "0", "3")   # imports and parser caches
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert peak < 1_000_000
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(bound) in captured.err


@pytest.mark.parametrize("command, bound", [("seq", SEQ_INDEX_MAX),
                                            ("poly", POLY_INDEX_MAX),
                                            ("table", TRIANGLE_INDEX_MAX),
                                            ("incomplete", TRIANGLE_INDEX_MAX),
                                            ("gf", GF_S_MAX),
                                            ("gf", GF_ORDER_MAX),
                                            ("incomplete", X_DIGITS_MAX),
                                            ("gf", X_DIGITS_MAX),
                                            ("verify", X_DIGITS_MAX)])
def test_help_names_the_index_bounds(capsys, command, bound):
    assert main([command, "--help"]) == 0
    # argparse wraps help at the terminal width, so compare across line breaks.
    assert f"at most {bound}" in " ".join(capsys.readouterr().out.split())


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, env=_env())


_X_TEN = "9999999999/9999999997"


@pytest.mark.parametrize("argv", [
    ("gf", "inc-tl", str(GF_S_MAX), str(GF_ORDER_MAX), "--x", _X_TEN),
    ("gf", "inc-tribonacci", str(GF_S_MAX), str(GF_ORDER_MAX), f"--x=-{_X_TEN}"),
    ("incomplete", "tl", str(TRIANGLE_INDEX_MAX), str(TRIANGLE_INDEX_MAX // 2), "--x", _X_TEN),
    ("verify", "--x-points", f"{_X_TEN},-1e9,0.000000001"),
])
def test_ten_digit_x_values_at_the_corners_exit_0(argv):
    # A fresh process: the gf corner fills memos of about 80 MB.
    done = _python("-m", "triblucas.cli", *argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout


def test_cli_import_does_not_load_mpmath():
    done = _python("-c", "import sys, triblucas.cli; assert 'mpmath' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Both cost start-up time that every command pays.
    done = _python("-S", "-c", "import sys, triblucas.cli; "
                   "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
                   "assert not loaded, loaded")
    assert done.returncode == 0, done.stderr


def test_a_domain_error_inside_a_side_is_an_internal_error(capsys, monkeypatch):
    # A side that leaves a domain is a library bug, not a usage error.
    def leaves_its_domain(n, s, variant):
        raise DomainError(f"level s={s + 1} outside the valid interval")

    monkeypatch.setattr(incomplete, "recurrence_step", leaves_its_domain)
    code, out, err = run(capsys, "verify", "--id", "eq3.7")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: internal: InternalConsistencyError: eq3.7 at n=1, s=0: ")


def test_a_reader_that_closes_the_pipe_gets_exit_141_and_no_error():
    # As `seq ... | head -1`: about 2 MB of output, read for one line only.
    proc = subprocess.Popen([sys.executable, "-m", "triblucas.cli", "seq", "tribonacci",
                             "0", "4000", "--format", "bfile"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert proc.stdout.readline() == b"0 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_default_verify_needs_no_mpmath():
    # The package root, its root finder and one estimate load no mpmath either.
    done = _python("-c", "import sys; sys.modules['mpmath'] = None; import triblucas; "
                   "from triblucas import cli; triblucas.binet_roots(64); "
                   "triblucas.binet_estimate(40, triblucas.SequenceFamily.TRIBONACCI_NUMBER); "
                   "sys.exit(cli.main(['verify', '--format', 'json']))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "perfbench" / "reference"
                           / "verify-default-seed0.json").read_bytes()


def test_poly_plain(capsys):
    code, out, _ = run(capsys, "poly", "tl", "5")
    assert code == 0
    assert out == "x^10 + 5*x^7 + 10*x^4 + 5*x\n"
    code, out, _ = run(capsys, "poly", "tribonacci", "2")
    assert out == "x^2\n"


def test_poly_json_exact_bytes(capsys):
    code, out, _ = run(capsys, "poly", "tl", "0", "--format", "json")
    assert code == 0
    assert out == '{"coeffs":["3"]}\n'


def test_poly_csv(capsys):
    code, out, _ = run(capsys, "poly", "tribonacci", "3", "--format", "csv")
    assert out == "power,coefficient\n0,0\n1,1\n2,0\n3,0\n4,1\n"


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_tables_match_goldens(capsys, which):
    code, out, _ = run(capsys, "table", str(which), "--rows", "6")
    assert code == 0
    assert out == (GOLDEN / f"table{which}.txt").read_text()


@pytest.mark.parametrize("which, digest", [
    (1, "04943e7e96fdeac8532bd3ef99ffe473d150c9d53dce1f8ef0bd8a025ed64c58"),
    (2, "3d90c2277eec43aae68e9436317f7abdfa5de5af505d9951f9a3d31a6729d901"),
    (3, "85357a551f56346e1ab8cdb55d37b9f98f57bfa236c65e8f2052f03ede1767c8"),
    (4, "3198f24ee843a7e6916b32dba6a8253d5ddaa3d9c439707f335362b716629bf4"),
])
def test_table_json_bytes_are_pinned(capsys, which, digest):
    # The goldens hold 6 rows; 30 rows reach the columns that row 6 never has.
    code, out, _ = run(capsys, "table", str(which), "--rows", "30", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_subset_rows(capsys):
    code, out, _ = run(capsys, "table", "3", "--rows", "4")
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "n\\s\t0\t1\t2"
    assert lines[4] == "4\tx^8\tx^8 + 4*x^5 + 4*x^2\tx^8 + 4*x^5 + 6*x^2"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "1", "--rows", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"table": 1, "first_row": 0,
                               "rows": [["3"], ["1", "2"], ["1", "6", "2"]]}
    code, out, _ = run(capsys, "table", "4", "--rows", "2", "--format", "json")
    assert json.loads(out) == {"table": 4, "first_row": 1,
                               "rows": [["1"], ["1", "3"]]}


def test_incomplete_poly(capsys):
    code, out, _ = run(capsys, "incomplete", "tl", "6", "2")
    assert code == 0
    assert out == "x^12 + 6*x^9 + 15*x^6 + 12*x^3 + 3\n"


def test_incomplete_at_value(capsys):
    code, out, _ = run(capsys, "incomplete", "tl", "6", "2", "--x", "1")
    assert code == 0
    assert out == "37\n"


def test_incomplete_rational_value(capsys):
    code, out, _ = run(capsys, "incomplete", "tl", "2", "1", "--x", "1/2")
    assert code == 0
    assert out == "17/16\n"


@pytest.mark.parametrize("argv, value", [
    (("gf", "inc-tl", "1", "7", "--x"), "-1/2"),
    (("gf", "inc-tl", "1", "7", "--format", "json", "--x"), "-1/2"),
    (("incomplete", "tl", "5", "2", "--x"), "-3/4"),
    (("verify", "--id", "thm12", "--s-max", "2", "--order", "8", "--x-points"), "-2,1"),
])
def test_a_value_with_a_leading_minus_reads_as_with_an_equals_sign(capsys, argv, value):
    spaced = run(capsys, *argv, value)
    joined = run(capsys, *argv[:-1], f"{argv[-1]}={value}")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1] and spaced[2] == ""


def test_negative_rational_x(capsys):
    code, out, _ = run(capsys, "gf", "inc-tl", "1", "7", "--x", "-1/2")
    assert code == 0
    # K_2^(1)(x) = x^4 + 2x at z^2
    assert out == "[0,0,-15/16,169/64,225/256,281/1024,337/4096], matches_direct=true\n"
    code, out, _ = run(capsys, "gf", "inc-tl", "1", "7", "--x", "-1/2", "--format", "json")
    assert code == 0 and json.loads(out)["x"] == "-1/2"


def test_incomplete_usage_error_names_interval(capsys):
    code, _, err = run(capsys, "incomplete", "tl", "3", "2")
    assert code == 2
    assert "0..1" in err


def test_gf_corrected(capsys):
    code, out, _ = run(capsys, "gf", "inc-tribonacci", "1", "7",
                       "--variant", "corrected", "--x", "1")
    assert code == 0
    assert out == "[0,0,0,2,4,6,8], matches_direct=true\n"


def test_gf_printed(capsys):
    code, out, _ = run(capsys, "gf", "inc-tribonacci", "1", "7",
                       "--variant", "printed", "--x", "1")
    assert code == 0
    assert out == "[0,0,0,2,4,4,6], matches_direct=false\n"


def test_gf_tl(capsys):
    code, out, _ = run(capsys, "gf", "inc-tl", "1", "7", "--x", "1")
    assert code == 0
    assert out == "[0,0,3,7,9,11,13], matches_direct=true\n"


def test_gf_symbolic(capsys):
    code, out, _ = run(capsys, "gf", "inc-tribonacci", "0", "4")
    assert code == 0
    assert out == "[0,1,x^2,x^4], matches_direct=true\n"


def test_gf_tl_needs_positive_s(capsys):
    code, _, err = run(capsys, "gf", "inc-tl", "0", "7")
    assert code == 2
    assert "s >= 1" in err


def test_gf_tl_rejects_printed_variant(capsys):
    code, _, err = run(capsys, "gf", "inc-tl", "1", "7", "--variant", "printed")
    assert code == 2


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "inc-tribonacci", "1", "7",
                       "--variant", "corrected", "--x", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "0", "0", "2", "4", "6", "8"]
    assert payload["matches_direct"] is True
    assert payload["shift"] == 3


def test_verify_single_id(capsys):
    code, out, _ = run(capsys, "verify", "--id", "eq3.3", "--n-max", "8")
    assert code == 0
    assert "eq3.3" in out and "pass" in out


def test_verify_ids_release_each_ids_series_bodies(capsys, monkeypatch):
    # --id runs through run_all too: every id starts from the bodies that
    # were there before the run, a repeated id included.
    from triblucas import verify
    from triblucas.sequences import MEMOS

    bodies = MEMOS["genfunc.series_expand"]
    before = set(bodies)
    started = []
    run_identity = verify.run_identity

    def checking(identity_id, rng):
        started.append((identity_id, set(bodies) == before))
        return run_identity(identity_id, rng)

    monkeypatch.setattr(verify, "run_identity", checking)
    scope = ("--n-max", "4", "--s-max", "2", "--order", "8", "--format", "json")
    ids = ["thm10-corrected", "cor11", "thm12", "thm10-corrected"]
    code, out, _ = run(capsys, "verify", *(arg for i in ids for arg in ("--id", i)), *scope)
    assert code == 0
    assert started == [(identity_id, True) for identity_id in ids]
    assert set(bodies) == before
    monkeypatch.undo()
    code, full, _ = run(capsys, "verify", *scope)
    by_id = {report["id"]: report for report in json.loads(full)}
    assert json.loads(out) == [by_id[identity_id] for identity_id in ids]


def test_verify_expected_fail_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "thm10-printed",
                       "--s-max", "1", "--order", "10")
    assert code == 0
    assert "expected_fail" in out
    assert "FORMULA ERRATA" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "nosuch")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_json_small_run(capsys):
    args = ["verify", "--n-max", "6", "--s-max", "1", "--order", "8",
            "--format", "json"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    reports = json.loads(out1)
    assert len(reports) == 27
    for report in reports:
        assert list(report) == ["id", "status", "points_checked",
                                "total_failures", "failures", "notes"]
        assert report["status"] in ("pass", "expected_fail")


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--id", "eq2.2", "--n-max", "6",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "status", "points_checked", "total_failures", "notes"]
    assert rows[1][0] == "eq2.2" and rows[1][1] == "pass"


@pytest.mark.parametrize("fmt, digest", [
    ("plain", "d2e82e251ab612ee9be4fdcf4eb829d5b6098371755f008093ed02a822eba285"),
    ("csv", "cbf7a574b4dc59bfc60b7087e0bdcf8032206e0d56b554e8aca17c4ebf0d66bd"),
])
def test_verify_plain_and_csv_bytes_are_pinned(capsys, fmt, digest):
    # The plain form lists the counterexample params in order, then the
    # errata; the csv form carries every domain note.
    code, out, _ = run(capsys, "verify", "--n-max", "10", "--s-max", "2",
                       "--h-max", "4", "--order", "12", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_x_points_flag(capsys):
    code, out, _ = run(capsys, "verify", "--id", "thm10-corrected",
                       "--s-max", "1", "--order", "8", "--x-points", "1,3",
                       "--no-symbolic")
    assert code == 0
    assert "pass" in out


def test_bad_rational_flag(capsys):
    code, _, err = run(capsys, "incomplete", "tl", "4", "1", "--x", "q")
    assert code == 2


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    from triblucas import verify

    def boom(*args):
        raise OverflowError("int too large\nto convert to float")

    monkeypatch.setattr(verify, "run_all", boom)
    code, out, err = run(capsys, "verify", "--format", "json")
    assert code == 3
    assert out == ""
    assert err == "error: internal: OverflowError: int too large to convert to float\n"


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
