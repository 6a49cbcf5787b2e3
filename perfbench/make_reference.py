"""Regenerate the benchmark's committed references from the current sources.

    python3 perfbench/make_reference.py

Writes into perfbench/reference/:

- ``verify.json``: per-id point counts (which do not depend on the x points)
  for both verify workloads;
- ``verify-default-seed0.json`` and ``verify-large-seed0.json``: the exact
  ``verify --format json`` stdout at seed 0;
- ``query-mix-seed<k>.txt``: one answer digest per query for each shipped seed.

Only regenerate when the program's output is meant to change; the point of
the references is to catch output that changes by accident.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import REFERENCE, SRC, WORKLOADS, verify_args

import queries

QUERY_SEEDS = (0, 1, 2, 11)


def main() -> None:
    sys.path.insert(0, str(SRC))
    import triblucas
    from triblucas import cli

    expected = {}
    for workload in ("verify-default", "verify-large"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--format", "json"] + verify_args(workload, 0))
        if rc != 0:
            raise SystemExit(f"{workload}: verify exited {rc}")
        (REFERENCE / f"{workload}-seed0.json").write_bytes(buf.getvalue().encode("utf-8"))
        points = {r["id"]: r["points_checked"] for r in json.loads(buf.getvalue())}
        expected[workload] = {"args": WORKLOADS[workload]["args"],
                              "total_points": sum(points.values()),
                              "points": points}
    (REFERENCE / "verify.json").write_text(json.dumps(expected, indent=1) + "\n",
                                           encoding="utf-8")
    for seed in QUERY_SEEDS:
        renderer = queries.Renderer()
        lines = [queries.digest(renderer.answer_text(q, queries.run_query(triblucas, q)))
                 for q in queries.make_queries(seed)]
        (REFERENCE / f"query-mix-seed{seed}.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
