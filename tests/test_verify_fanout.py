"""`verify` runs its series ids in one forked worker: the same bytes and exit
codes as the serial path, every failure reported as the serial path reports
it, and no process left behind."""

import errno
import hashlib
import json
import os
import signal
from pathlib import Path

import pytest

from triblucas import cli, genfunc

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((Path(__file__).parent / "verify_pins.json").read_text(encoding="utf-8"))
SERIAL, FAN_OUT = 1, 2   # CPUs, as cli._cpu_count reports them
SMALL = ("--n-max", "4", "--s-max", "2", "--order", "8", "--format", "json")
BOTH_GROUPS = ("--id", "eq2.2", "--id", "thm12", *SMALL)
FORK = os.fork


def verify(capsys, monkeypatch, cpus, *argv):
    """(exit code, stdout, stderr, forks) of ``main(["verify", ...])`` on ``cpus`` CPUs."""
    forks = []

    def counting():
        forks.append(os.getpid())
        return FORK()

    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting)
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, len(forks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"][1:]) or "plain")
def test_every_pin_holds_on_both_paths(capsys, monkeypatch, pin):
    serial = verify(capsys, monkeypatch, SERIAL, *pin["argv"][1:])
    fan_out = verify(capsys, monkeypatch, FAN_OUT, *pin["argv"][1:])
    assert (serial[3], fan_out[3]) == (0, 1)
    assert serial[:3] == fan_out[:3]
    code, out, err, _ = serial
    assert (code, err) == (0, "")
    if "sha256" in pin:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pin["sha256"]
    else:
        assert out.encode("utf-8") == (ROOT / pin["reference"]).read_bytes()
    assert_no_child_left()


def test_a_worker_side_exception_reads_as_on_the_serial_path(capsys, monkeypatch):
    def boom(*args):
        raise OverflowError("int too large\nto convert to float")

    monkeypatch.setattr(genfunc, "direct_series", boom)
    serial = verify(capsys, monkeypatch, SERIAL, *BOTH_GROUPS)
    fan_out = verify(capsys, monkeypatch, FAN_OUT, *BOTH_GROUPS)
    assert fan_out[3] == 1
    assert serial[:3] == fan_out[:3] == (
        3, "", "error: internal: OverflowError: int too large to convert to float\n")
    assert_no_child_left()


def test_a_real_failure_in_the_worker_exits_1(capsys, monkeypatch):
    direct_series = genfunc.direct_series
    monkeypatch.setattr(genfunc, "direct_series",
                        lambda *args: tuple(c + 1 for c in direct_series(*args)))
    serial = verify(capsys, monkeypatch, SERIAL, *BOTH_GROUPS)
    fan_out = verify(capsys, monkeypatch, FAN_OUT, *BOTH_GROUPS)
    assert fan_out[3] == 1
    assert serial[:3] == fan_out[:3]
    code, out, err, _ = fan_out
    assert (code, err) == (1, "")
    assert [r["status"] for r in json.loads(out)] == ["pass", "fail"]
    assert_no_child_left()


def test_an_expected_failure_in_the_worker_exits_0(capsys, monkeypatch):
    argv = ("--id", "eq2.2", "--id", "thm10-printed", *SMALL)
    serial = verify(capsys, monkeypatch, SERIAL, *argv)
    fan_out = verify(capsys, monkeypatch, FAN_OUT, *argv)
    assert fan_out[3] == 1
    assert serial[:3] == fan_out[:3]
    code, out, err, _ = fan_out
    assert (code, err) == (0, "")
    assert [r["status"] for r in json.loads(out)] == ["pass", "expected_fail"]
    assert_no_child_left()


def test_a_worker_killed_by_a_signal_exits_3_with_one_line(capsys, monkeypatch):
    parent = os.getpid()

    def die(*args):
        assert os.getpid() != parent, "the series ids ran in the parent"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(genfunc, "direct_series", die)
    code, out, err, forks = verify(capsys, monkeypatch, FAN_OUT, *BOTH_GROUPS)
    assert (code, out, forks) == (3, "", 1)
    assert err == ("error: internal: RuntimeError: verify worker killed by signal "
                   f"{signal.SIGKILL:d}\n")
    assert_no_child_left()


@pytest.mark.parametrize("argv", [
    ("--id", "thm12", "--id", "cor11", *SMALL),     # series ids only
    ("--id", "eq2.2", "--id", "cor8", *SMALL),      # no series id
])
def test_one_group_runs_serially(capsys, monkeypatch, argv):
    code, out, err, forks = verify(capsys, monkeypatch, FAN_OUT, *argv)
    assert (code, err, forks) == (0, "", 0)
    assert [r["id"] for r in json.loads(out)] == list(argv[1:4:2])


def test_without_fork_the_run_is_serial(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: FAN_OUT)
    monkeypatch.delattr(os, "fork")
    assert cli.main(["verify", *BOTH_GROUPS]) == 0
    assert [r["id"] for r in json.loads(capsys.readouterr().out)] == ["eq2.2", "thm12"]


def test_a_failed_fork_closes_the_pipe_and_runs_serially(capsys, monkeypatch):
    def no_process():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(cli, "_cpu_count", lambda: FAN_OUT)
    monkeypatch.setattr(os, "fork", no_process)
    fds = len(os.listdir("/proc/self/fd"))
    code = cli.main(["verify", "--format", "json"])
    captured = capsys.readouterr()
    assert len(os.listdir("/proc/self/fd")) == fds
    assert (code, captured.err) == (0, "")
    reference = ROOT / "perfbench" / "reference" / "verify-default-seed0.json"
    assert captured.out.encode("utf-8") == reference.read_bytes()


def test_one_cpu_keeps_the_run_serial(capsys, monkeypatch):
    def forbidden():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", forbidden)
    assert cli.main(["verify", *BOTH_GROUPS]) == 0
    assert capsys.readouterr().err == ""


def test_the_cpu_count_reads_the_affinity_then_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cli._cpu_count() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._cpu_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._cpu_count() == 1
