"""One fresh workload process: import the package, report readiness, run one job.

Usage: python3 perfbench/child.py '<job json>' <src directory>

The parent times setup from spawning this process until it reads the
``ready`` line, which is written right after ``triblucas.cli`` is imported.
The job then runs and one JSON line of results follows:

- ``probe``: nothing more (a set-up measurement only);
- ``verify``: ``cli.main(["verify", ...])`` with stdout captured;
- ``queries``: the seeded query list, one warm session, per-query latency
  and answer digest.

With ``"trace": true`` the job runs under ``tracer.Tracer`` and the result
carries the per-layer summary; the spans go to ``spans_path``.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import triblucas.cli  # noqa: E402  (the import is what set-up measures)

_import_s = time.perf_counter() - _t0
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import queries  # noqa: E402
import tracer  # noqa: E402


def _verify(job: dict) -> dict:
    buf = io.StringIO()
    argv = ["verify", "--format", "json"] + job["args"]
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        rc = triblucas.cli.main(argv)
        work_s = time.perf_counter() - start
    return {"rc": rc, "work_s": work_s, "stdout": buf.getvalue()}


def _queries(job: dict) -> dict:
    import triblucas as tb
    qs = queries.make_queries(job["seed"], job["count"])
    clock = time.perf_counter
    latencies = []
    digests = []
    errors = []
    renderer = queries.Renderer()
    for idx, q in enumerate(qs):
        start = clock()
        try:
            result = queries.run_query(tb, q)
        except Exception as exc:  # a failing query is counted, not fatal
            latencies.append(clock() - start)
            digests.append("")
            errors.append(f"{idx}: {queries.query_label(q)}: {exc!r}")
            continue
        latencies.append(clock() - start)
        digests.append(queries.digest(renderer.answer_text(q, result)))
    return {"work_s": sum(latencies), "latencies": latencies,
            "digests": digests, "errors": errors}


JOBS = {"verify": _verify, "queries": _queries}


def main() -> None:
    job = json.loads(sys.argv[1])
    result = {"import_s": _import_s}
    if job["kind"] != "probe":
        run = JOBS[job["kind"]]
        if job.get("trace"):
            tr = tracer.Tracer()
            tr.install()
            try:
                result.update(run(job))
            finally:
                tr.uninstall()
            result["layers"] = tr.summary()
            if job.get("spans_path"):
                tr.write_spans(job["spans_path"])
        else:
            result.update(run(job))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
