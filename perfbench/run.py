"""Benchmark of the triblucas CLI and library; run from the repository root.

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``verify-default``: fresh process per sample, ``cli.main(["verify", ...])``
  at the default SweepRange;
- ``verify-large``: the same at ``--n-max 120 --s-max 16 --h-max 24 --order
  128``; run by hand only, because one 15-27 s sample per run spreads too
  much from run to run on a noisy host to gate anything (README);
- ``query-mix``: fresh process per sample, one warm session of a seeded list
  of library queries, issued one at a time (closed loop, one client).

Every sample runs in a child process (``child.py``), one at a time; this
process only spawns, waits and checks.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` each sample is run
untraced and then traced, and the line carries the per-layer metrics.  Every
run also writes ``perfbench/results/<workload>-seed<n>-trace<t>.json`` with
the environment, the sample counts and the extra metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"
RESULTS = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))
import oracle  # noqa: E402
import queries  # noqa: E402

LARGE_ARGS = ["--n-max", "120", "--s-max", "16", "--h-max", "24", "--order", "128"]
WORKLOADS = {
    "verify-default": {"kind": "verify", "args": []},
    "verify-large": {"kind": "verify", "args": LARGE_ARGS},
    "query-mix": {"kind": "queries"},
}
EXPECTED_FAIL_IDS = ("thm10-printed", "eq1.6-shift")
SETUP_PROBES = 9          # cold starts measured before the samples of a run
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
GAUGE_NOMINAL_S = 0.1     # gauge time that the gated timings are scaled to


class Ops:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def x_points(seed: int) -> Optional[List[Fraction]]:
    """None (the CLI default 1,2,1/2) for seed 0; else three distinct nonzero
    rationals with |num|, |den| <= 9: an integer, a unit fraction and a
    general p/q with 2 <= p, q <= 9, each with a random sign.

    Fixing the three shapes keeps the cost of exact Fraction arithmetic
    nearly the same from seed to seed (a general p/q costs about 1.3 times
    an integer at degree ~250), so the seed varies the inputs, not the work.
    """
    if seed == 0:
        return None
    rng = random.Random(seed)
    integer = Fraction(rng.randint(2, 9))
    unit = Fraction(1, rng.randint(2, 9))
    while True:
        general = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        if min(general.numerator, general.denominator) >= 2:
            break
    return [p * rng.choice((-1, 1)) for p in (integer, unit, general)]


def verify_args(workload: str, seed: int) -> List[str]:
    args = list(WORKLOADS[workload]["args"])
    points = x_points(seed)
    if points is not None:
        args.append("--x-points=" + ",".join(str(p) for p in points))
    return args


# -- child processes -----------------------------------------------------------

class ChildError(Exception):
    pass


def spawn(job: dict, timeout: float) -> tuple:
    """Run one child; returns (setup seconds, result dict).

    Set-up is the time from just before the spawn until the child's
    ``ready`` line arrives, i.e. interpreter start plus ``import triblucas.cli``.
    """
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job), str(SRC)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(cmd, timeout)
        first = proc.stdout.readline()
        ready = time.perf_counter()
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{job['kind']} child timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != "ready\n" or proc.returncode != 0:
        tail = (err or "").strip().splitlines()[-1:] or [""]
        raise ChildError(f"{job['kind']} child exited {proc.returncode}: {tail[0]}")
    return ready - start, json.loads(out)


def gauge(timeout: float) -> Optional[float]:
    """Seconds from spawning ``gauge.py`` until it exits, or None if it failed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "gauge.py")],
                              cwd=str(ROOT), capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    took = time.perf_counter() - start
    return took if proc.returncode == 0 else None


# -- correctness checks ------------------------------------------------------------

def load_expected() -> dict:
    with open(REFERENCE / "verify.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(workload: str, seed: int, rc: int, stdout: str,
                 expected: dict) -> List[str]:
    """Problems with one verify run; an empty list means it is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    try:
        reports = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    want = expected[workload]
    statuses = {r["id"]: r["status"] for r in reports}
    points = {r["id"]: r["points_checked"] for r in reports}
    if list(statuses) != list(want["points"]):
        problems.append("catalog ids differ from the reference")
    for identity_id, status in statuses.items():
        wanted = "expected_fail" if identity_id in EXPECTED_FAIL_IDS else "pass"
        if status != wanted:
            problems.append(f"{identity_id}: status {status}, expected {wanted}")
    for identity_id, count in want["points"].items():
        if points.get(identity_id) != count:
            problems.append(f"{identity_id}: {points.get(identity_id)} points, "
                            f"expected {count}")
    if sum(points.values()) != want["total_points"]:
        problems.append(f"{sum(points.values())} points in total, "
                        f"expected {want['total_points']}")
    if seed == 0:
        ref = (REFERENCE / f"{workload}-seed0.json").read_bytes()
        if stdout.encode("utf-8") != ref:
            problems.append("stdout differs from the seed-0 reference bytes")
    return problems


def reference_digests(seed: int) -> Optional[List[str]]:
    path = REFERENCE / f"query-mix-seed{seed}.txt"
    if not path.exists():
        return None
    return path.read_text(encoding="utf-8").split()


def expected_digests(seed: int, count: int) -> List[str]:
    """Per-query digests from the oracle, cross-checked with a shipped reference."""
    qs = queries.make_queries(seed, count)
    cache: Dict[tuple, str] = {}
    out = []
    for q in qs:
        if q not in cache:
            cache[q] = queries.digest(oracle.answer_text(q))
        out.append(cache[q])
    return out


def check_session(result: dict, want: List[str], shipped: Optional[List[str]],
                  qs: list, ops: Ops) -> None:
    """One operation per query: its digest must match the oracle and the
    shipped reference for this seed, if there is one."""
    got = result["digests"]
    if len(got) != len(want):
        ops.record([f"session returned {len(got)} answers, expected {len(want)}"])
        return
    errors = result.get("errors", [])
    for idx, digest in enumerate(got):
        problems = []
        if digest != want[idx]:
            problems.append(f"query {idx} ({queries.query_label(qs[idx])}): "
                            f"digest {digest or 'none'}, oracle {want[idx]}")
        if shipped is not None and digest != shipped[idx]:
            problems.append(f"query {idx}: digest {digest or 'none'}, "
                            f"reference {shipped[idx]}")
        ops.record(problems)
    if errors:
        ops.problems.extend(errors[: max(0, 20 - len(ops.problems))])


# -- measurement ---------------------------------------------------------------------

def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  query_count: int = queries.QUERY_COUNT,
                  args_override: Optional[List[str]] = None,
                  setup_probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the full record (metrics and provenance).

    ``query_count`` and ``args_override`` exist for the self-tests' tiny runs,
    which skip the point-total and reference checks that assume full size.
    """
    began = time.perf_counter()
    spec = WORKLOADS[workload]
    ops = Ops()
    full_size = args_override is None and query_count == queries.QUERY_COUNT
    RESULTS.mkdir(exist_ok=True)

    def remaining() -> float:
        return max(5.0, RUN_DEADLINE_S - (time.perf_counter() - began))

    gauges: List[float] = []

    def attempt(job: dict):
        """Run one child, then one gauge, so gauges interleave with the work."""
        try:
            got = spawn(job, remaining())
        except ChildError as exc:
            ops.record([str(exc)])
            return None
        host = gauge(remaining())
        if host is not None:
            gauges.append(host)
        return got

    job: dict = {"kind": spec["kind"], "seed": seed}
    if spec["kind"] == "verify":
        job["args"] = (args_override if args_override is not None
                       else verify_args(workload, seed))
        expected = load_expected()
    else:
        job["count"] = query_count
        qs = queries.make_queries(seed, query_count)
        want = expected_digests(seed, query_count)
        shipped = reference_digests(seed) if full_size else None

    attempt({"kind": "probe"})   # writes bytecode caches; not counted
    gauges.clear()
    setups, imports = [], []

    def probes(count: int) -> None:
        for _ in range(count):
            got = attempt({"kind": "probe"})
            if got is not None:
                ops.record([])
                setups.append(got[0])
                imports.append(got[1]["import_s"])

    # half the probes before the samples and half after, so that they
    # bracket the measured window
    probes(setup_probes - setup_probes // 2)

    def check(result: dict) -> None:
        if spec["kind"] == "verify":
            problems = check_verify(workload, seed, result["rc"], result["stdout"],
                                    expected) if full_size else (
                [] if result["rc"] == 0 else [f"exit code {result['rc']}"])
            ops.record(problems)
        else:
            check_session(result, want, shipped, qs, ops)

    untraced: List[dict] = []
    traced: List[dict] = []
    window = time.perf_counter()
    while True:
        sample_start = time.perf_counter()
        got = attempt(job)
        if got is not None:
            setups.append(got[0])
            imports.append(got[1]["import_s"])
            check(got[1])
            untraced.append(got[1])
        if trace:
            spans = RESULTS / f"spans-{workload}-seed{seed}.tsv.gz"
            got_t = attempt(dict(job, trace=True, spans_path=str(spans)))
            if got_t is not None:
                setups.append(got_t[0])
                imports.append(got_t[1]["import_s"])
                check(got_t[1])
                traced.append(got_t[1])
                if (spec["kind"] == "verify" and got is not None
                        and got[1]["stdout"] != got_t[1]["stdout"]):
                    ops.record(["traced verify stdout differs from untraced"])
        took = time.perf_counter() - sample_start
        elapsed = time.perf_counter() - window
        if elapsed + took > seconds or time.perf_counter() - began + took > RUN_DEADLINE_S:
            break

    probes(setup_probes // 2)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "inputs": ({"verify_args": job["args"]} if spec["kind"] == "verify"
                   else {"queries": query_count,
                         "reference": "shipped+oracle" if shipped else "oracle"}),
        "samples": {"setup": len(setups), "untraced": len(untraced),
                    "traced": len(traced)},
        "attempted": ops.attempted, "failed": ops.failed,
        "fail_share": ops.fail_share, "problems": ops.problems,
    }
    record["sample_work_s"] = [u["work_s"] for u in untraced]
    record["sample_setup_s"] = setups
    record["gauge_s"] = gauges
    record["raw_metrics"] = end_to_end(spec["kind"], setups, untraced)
    record["metrics"] = scaled(record["raw_metrics"], gauges)
    if trace:
        record["layers"] = per_layer(spec["kind"], imports, untraced, traced)
    record["wall_s"] = time.perf_counter() - began
    return record


def end_to_end(kind: str, setups: List[float], samples: List[dict]) -> dict:
    """Gated metrics (the BENCHMARK.json end_to_end list) plus named extras."""
    if not samples or not setups:
        return {}
    work = [s["work_s"] for s in samples]
    calls = [len(s["latencies"]) if kind == "queries" else 1 for s in samples]
    m = {
        "setup_s": statistics.median(setups),
        "call_ms": sum(work) / sum(calls) * 1000,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    if kind == "verify":
        m["verify_s"] = statistics.median(work)
    else:
        latencies = [lat for s in samples for lat in s["latencies"]]
        m["queries_per_s"] = statistics.median(c / w for w, c in zip(work, calls))
        m["query_p50_ms"] = statistics.median(latencies) * 1000
        m["query_p99_ms"] = percentile(latencies, 99) * 1000
        m["query_p99_beyond"] = sum(1 for lat in latencies
                                    if lat * 1000 > m["query_p99_ms"])
        m["query_samples"] = len(latencies)
    m["samples"] = len(samples)
    return m


def scaled(raw: dict, gauges: List[float]) -> dict:
    """Timings rescaled to a host on which ``gauge.py`` takes GAUGE_NOMINAL_S.

    The host's speed shifts by up to 1.7x for minutes at a time (README,
    *Host noise*).  The gauges run between the samples of the same run, so
    their median follows the host's speed over the run; dividing it out
    keeps a slow stretch of the host from reading as a slow program.
    """
    if not raw or not gauges:
        return raw
    factor = GAUGE_NOMINAL_S / statistics.median(gauges)
    out = dict(raw)
    for name, value in raw.items():
        if name.endswith("_per_s"):
            out[name] = value / factor
        elif name.endswith(("_s", "_ms")):
            out[name] = value * factor
    return out


LAYERS = ("poly.evaluate", "poly.mul", "poly.add", "poly.text",
          "sequences.index", "sequences.binet", "triangles.entry",
          "incomplete.poly", "incomplete.number", "genfunc.build",
          "genfunc.expand", "genfunc.direct")
SELF_ONLY = ("triangles.rows", "triangles.diagonal", "incomplete.identity",
             "genfunc.compare")


def _verify_ids() -> List[str]:
    return list(load_expected()["verify-default"]["points"])


def per_layer_names() -> List[str]:
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer}.calls")
        if layer == "poly.evaluate":
            names.append("poly.evaluate.terms")
        if layer == "genfunc.expand":
            names.append("genfunc.expand.coeffs")
        names.append(f"{layer}.self_s")
        if layer in ("incomplete.poly", "genfunc.build"):
            names.append(f"{layer}.hit_ratio")
    names.append("sequences.binet_roots.calls")
    names.extend(f"{layer}.self_s" for layer in SELF_ONLY)
    names.extend(["verify.points", "verify.self_s"])
    names.extend(f"verify.id.{i}.s" for i in _verify_ids())
    names.extend(["cli.import_s", "cli.self_s", "trace.overhead_s"])
    return names


def per_layer(kind: str, imports: List[float], untraced: List[dict],
              traced: List[dict]) -> dict:
    """Per-layer metrics from the traced samples: counts from the first one
    (they repeat exactly), times as medians over all of them."""
    if not traced or not untraced:
        return {}

    def med(key: str, sample_value) -> float:
        return statistics.median(sample_value(t["layers"], key) for t in traced)

    def get(layers: dict, key: str) -> float:
        return layers.get(key, 0)

    def verify_self(layers: dict, _key: str) -> float:
        return sum(v for k, v in layers.items()
                   if k.startswith("verify.") and k.endswith(".self_s"))

    first = traced[0]["layers"]
    out: Dict[str, float] = {}
    for name in per_layer_names():
        if name.endswith(".hit_ratio"):
            if name in first:          # absent when the memo has no cache_info()
                out[name] = first[name]
        elif name.endswith(".calls") or name.endswith(".terms") or name.endswith(".coeffs"):
            out[name] = first.get(name, 0)
        elif name == "verify.points":
            out[name] = (sum(r["points_checked"] for r in json.loads(traced[0]["stdout"]))
                         if kind == "verify" else 0)
        elif name == "verify.self_s":
            out[name] = med(name, verify_self)
        elif name.startswith("verify.id."):
            out[name] = med(name[:-2] + ".total_s", get)
        elif name == "cli.import_s":
            out[name] = statistics.median(imports)
        elif name == "cli.self_s":
            out[name] = med("cli.main.self_s", get)
        elif name == "trace.overhead_s":
            out[name] = (statistics.median(t["work_s"] for t in traced)
                         - statistics.median(u["work_s"] for u in untraced))
        else:
            out[name] = med(name, get)
    return out


# -- provenance and output ---------------------------------------------------------------

def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit()}


def result_line(record: dict, trace: bool) -> dict:
    """The last stdout line: exactly correct, attempted, failed and metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = record.get("layers", {}) if trace else record["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    return {"correct": record["failed"] == 0 and record["attempted"] > 0,
            "attempted": max(1, record["attempted"]), "failed": record["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "triblucas" / "cli.py").is_file():
        sys.stderr.write(f"error: no triblucas sources under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in record["problems"][:5]:
        print(f"problem: {problem}")
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
