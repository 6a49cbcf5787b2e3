"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import queries  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY_VERIFY = ["--n-max", "6", "--s-max", "2", "--h-max", "2", "--order", "8"]


def _bench() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _gated() -> set:
    return {m["name"] for m in _bench()["end_to_end"]}


def test_metric_names_use_only_allowed_characters():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    names += run.per_layer_names()
    assert len(set(names) & set(run.per_layer_names())) == len(run.per_layer_names())
    for name in names:
        assert NAME.match(name), name


def test_benchmark_json_lists_what_the_run_reports():
    bench = _bench()
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", ["verify-default", "verify-large"])
def test_smoke_verify_traced(workload):
    record = run.run_benchmark(workload, 1, 0, True, args_override=TINY_VERIFY,
                               setup_probes=1)
    assert record["failed"] == 0, record["problems"]
    assert _gated() <= set(record["metrics"])
    layers = record["layers"]
    assert set(run.per_layer_names()) <= set(layers)
    assert layers["verify.points"] > 0
    assert layers["poly.evaluate.terms"] > 0
    assert layers["sequences.binet_roots.calls"] > 0
    line = run.result_line(record, True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_smoke_query_mix_traced():
    record = run.run_benchmark("query-mix", 5, 0, True, query_count=60, setup_probes=1)
    assert record["failed"] == 0, record["problems"]
    assert record["attempted"] == 1 + 2 * 60
    assert _gated() <= set(record["metrics"])
    assert record["layers"]["verify.points"] == 0
    line = run.result_line(record, False)
    assert set(line["metrics"]) == _gated()


def test_wrong_verify_byte_raises_fail_share():
    expected = run.load_expected()
    ref = (run.REFERENCE / "verify-default-seed0.json").read_text()
    assert run.check_verify("verify-default", 0, 0, ref, expected) == []
    at = ref.index("domain: ") + len("domain: ")
    wrong = ref[:at] + ("X" if ref[at] != "X" else "Y") + ref[at + 1:]
    ops = run.Ops()
    ops.record(run.check_verify("verify-default", 0, 0, wrong, expected))
    assert ops.fail_share > 0
    # a wrong status is caught at every seed, not only against the seed-0 bytes
    flipped = ref.replace('"status":"pass"', '"status":"fail"', 1)
    assert run.check_verify("verify-default", 3, 0, flipped, expected)


def test_wrong_query_answer_raises_fail_share():
    import triblucas
    count = 40
    qs = queries.make_queries(7, count)
    renderer = queries.Renderer()
    digests = [queries.digest(renderer.answer_text(q, queries.run_query(triblucas, q)))
               for q in qs]
    want = run.expected_digests(7, count)
    ops = run.Ops()
    run.check_session({"digests": digests}, want, None, qs, ops)
    assert ops.failed == 0
    digests[count // 2] = "00000000" if digests[count // 2] != "00000000" else "11111111"
    ops = run.Ops()
    run.check_session({"digests": digests}, want, None, qs, ops)
    assert ops.failed == 1 and ops.fail_share > 0


def test_shipped_query_references_agree_with_the_oracle():
    for path in sorted(run.REFERENCE.glob("query-mix-seed*.txt")):
        seed = int(path.stem.rsplit("seed", 1)[1])
        assert run.reference_digests(seed) == run.expected_digests(seed, queries.QUERY_COUNT)


def test_x_points_follow_the_stated_rule():
    assert run.x_points(0) is None
    for seed in range(1, 200):
        points = run.x_points(seed)
        assert len(set(points)) == 3
        assert all(p != 0 and abs(p.numerator) <= 9 and p.denominator <= 9
                   for p in points)
        assert any(p.denominator != 1 for p in points)
        assert isinstance(points[0], Fraction)
