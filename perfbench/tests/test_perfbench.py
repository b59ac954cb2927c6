"""Tests of the benchmark itself: seeded inputs, span accounting and the
reference checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return workloads.load_refs()


def run_worker(tmp_path, ops, traced=True):
    """One worker pass over `ops`; (records, spans or None)."""
    ops_path, result_path = tmp_path / "ops.json", tmp_path / "result.json"
    spans_path = tmp_path / "spans.jsonl"
    ops_path.write_text(json.dumps(ops))
    argv = [sys.executable, str(BENCH / "worker.py"), str(ops_path), str(result_path)]
    if traced:
        argv.append(str(spans_path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, check=True, env=env, cwd=ROOT, timeout=120)
    result = json.loads(result_path.read_text())
    spans = None
    if traced:
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        assert result["span_cost"] > 0
    return result["ops"], spans


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_workload(workload, refs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.build_ops(workload, 7, refs, a)
    ops_b = workloads.build_ops(workload, 7, refs, b)
    assert json.dumps(ops_a).replace(str(a), "") == json.dumps(ops_b).replace(str(b), "")
    files_a = {p.name: p.read_text() for p in a.iterdir()}
    assert files_a == {p.name: p.read_text() for p in b.iterdir()}
    if workload != "q1_scan":
        assert ops_a != workloads.build_ops(workload, 8, refs, a)


def test_seeds_keep_the_cost_spread(refs):
    """Each families draw takes one spec from every cost-sorted pair."""
    pool = refs["families"]
    for seed in (1, 2):
        ops = workloads.families_ops(seed, refs)
        chosen = {op["id"] for op in ops}
        for k in range(len(pool) // 2):
            pair = {pool[2 * k]["spec"], pool[2 * k + 1]["spec"]}
            assert len(pair & chosen) == 1


def test_seeds_draw_one_labelling_of_each_tree(refs, tmp_path):
    for seed in (1, 2):
        ops = workloads.large_ops(seed, refs, tmp_path)
        slots = sorted(int(op["id"].split("/")[0]) for op in ops[::4])
        assert slots == list(range(len(workloads.LARGE_SLOTS)))
    shapes = [sorted(sorted(sum(1 for e in workloads.large_tree(3, v) if x in e)
                            for x in range(workloads.LARGE_SLOTS[3])))
              for v in range(workloads.LARGE_VARIANTS)]
    assert all(s == shapes[0] for s in shapes)
    assert len({tuple(workloads.large_tree(3, v)) for v in range(workloads.LARGE_VARIANTS)}) == 4


def test_smoothed_percentile_averages_neighbours_in_rank():
    values = list(range(100))
    assert run.smoothed_percentile(values, 50) == pytest.approx(50.0)
    assert run.smoothed_percentile(values, 90) == pytest.approx(89.0)
    assert run.smoothed_percentile(values[:10], 90) == tracing.percentile(values[:10], 90)
    assert run.smoothed_percentile(values[:99] + [float("inf")], 90) < float("inf")
    assert run.smoothed_percentile(values[:90] + [float("inf")] * 10, 90) == float("inf")


def test_self_times_exclude_children():
    spans = [
        ["cli", 0.0, 10.0, None, "op", None],
        ["solve.bounds", 1.0, 6.0, 0, "op", None],
        ["trees.distances", 2.0, 3.0, 1, "op", {"cells": 4}],
        ["broadcasts.check", 7.0, 9.0, 0, "op", {"pairs": 3}],
    ]
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]
    m = tracing.layer_metrics(spans, 10.5, 0.25)
    assert m["cli.self_s"] == 3.0
    assert m["trace.overhead_s"] == 1.0
    assert m["trees.distances.cells"] == 4
    assert m["broadcasts.check.pairs"] == 3
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["trace.coverage"] == pytest.approx(7.0 / 10.5)


def test_span_self_times_sum_to_at_most_op_time(refs, tmp_path):
    ops = workloads.families_ops(3, refs)[:12]
    ops += workloads.large_ops(3, refs, tmp_path)[:8]
    records, spans = run_worker(tmp_path, ops)
    assert all(r["status"] == "ok" or r["id"] == "path:1100" for r in records)
    own = tracing.self_times(spans)
    assert min(own) > -1e-9
    for r in records:
        mine = sum(t for s, t in zip(spans, own) if s[tracing.OP] == r["id"])
        assert 0 < mine <= r["seconds"]
    layers = {s[tracing.NAME] for s in spans}
    assert {"cli", "corpus.input", "trees.build", "trees.distances", "solve.exact",
            "solve.bounds", "broadcasts.check"} <= layers


def test_wrong_reference_is_a_failed_op(refs, tmp_path):
    good = workloads.families_ops(1, refs)[:3]
    bad = json.loads(json.dumps(good[0]))
    bad["id"] = "tampered"
    bad["expect"]["exact"] += 1
    records, _ = run_worker(tmp_path, good + [bad], traced=False)
    status = {r["id"]: r["status"] for r in records}
    assert status["tampered"] == "mismatch"
    failed, correct = run.tally(records)
    assert [r["id"] for r in failed] == ["tampered"] and not correct


def test_wrong_order_reference_is_a_failed_scan(refs, tmp_path):
    argv = ["search", "--check", "question1", "--min-n", "1", "--max-n", "7", "--jobs", "1"]
    orders = {str(n): refs["q1_orders"][str(n)] for n in range(1, 8)}
    op = {"id": "scan", "argv": argv, "check": "search",
          "expect": workloads.q1_expect(refs, 7), "expect_orders": orders}
    wrong = json.loads(json.dumps(op))
    wrong["id"] = "wrong"
    wrong["expect_orders"]["7"]["exact_sum"] += 1
    records, _ = run_worker(tmp_path, [op, wrong])
    assert [r["status"] for r in records] == ["ok", "mismatch"]
    assert "order 7" in records[1]["detail"]


def test_only_the_recorded_failure_is_tolerated(refs, tmp_path):
    long = [op for op in workloads.families_ops(1, refs) if "known_failure" in op]
    assert [op["id"] for op in long] == ["path:1100"]
    known = long[0]
    second = dict(known, id="second")
    del second["known_failure"]
    other = dict(known, id="other", known_failure="ValueError")
    records, _ = run_worker(tmp_path, [known, second, other], traced=False)
    assert [r["status"] for r in records] == ["known_failure", "error", "error"]
    failed, correct = run.tally(records[:1])
    assert len(failed) == 1 and correct
    failed, correct = run.tally(records)
    assert len(failed) == 3 and not correct


@pytest.mark.parametrize("status", ["error", "exit", "mismatch", "crash"])
def test_any_other_failure_makes_the_run_incorrect(status):
    records = [{"id": "a", "status": "ok"}, {"id": "b", "status": "known_failure"},
               {"id": "c", "status": status}]
    failed, correct = run.tally(records)
    assert [r["id"] for r in failed] == ["b", "c"] and not correct


def test_untraced_scan_run_checks_every_order(refs, monkeypatch, capsys):
    wrong = json.loads(json.dumps(refs))
    wrong["q1_orders"]["6"]["exact_sum"] += 1
    monkeypatch.setattr(workloads, "Q1_MAX_N", 6)
    monkeypatch.setattr(workloads, "load_refs", lambda: wrong)
    run.main(["--workload", "q1_scan", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["attempted"] == 2 and result["failed"] == 1


def timed_pass(seconds):
    return run.Pass([{"id": k, "seconds": v, "status": "ok"} for k, v in seconds.items()],
                    0.0, 0.0)


def test_wall_is_the_sum_of_per_op_medians():
    passes = [timed_pass({"a": 1.0, "b": 5.0}), timed_pass({"a": 4.0, "b": 2.0}),
              timed_pass({"a": 1.5, "b": 2.5})]
    assert run.pass_seconds(passes) == pytest.approx(1.5 + 2.5)


def test_an_op_that_fails_in_any_pass_misses_every_latency_bound():
    passes = [timed_pass({"a": 1.0, "b": 5.0}), timed_pass({"a": 4.0, "b": 2.0})]
    passes[1].records[0]["status"] = "error"
    assert run.op_seconds(passes) == {"a": float("inf"), "b": 3.5}


def test_times_are_reported_at_the_nominal_host_speed():
    passes = [timed_pass({"a": 1.0, "b": 0.5}), timed_pass({"a": 3.0, "b": 0.5})]
    reference = [[2 * speed.REFERENCE_NOMINAL_S] * 3, [2 * speed.REFERENCE_NOMINAL_S]]
    factor = run.speed_factor(reference)
    assert factor == pytest.approx(0.5)
    metrics, measured, samples = run.end_to_end("families_exact", passes, [0.2, 0.4, 0.3],
                                                factor)
    assert measured["wall_s"] == pytest.approx(2.5) and metrics["wall_s"] == pytest.approx(1.25)
    assert metrics["setup_s"] == pytest.approx(0.15)
    assert metrics["op_ms.p90"] == pytest.approx(0.5 * measured["op_ms.p90"])
    assert metrics["peak_rss_mb"] == 0.0 and samples == 2


def test_the_speed_reference_does_the_same_work_every_time():
    dist, queue = [-1] * speed.N, [0] * speed.N
    assert speed.reference(dist, queue) == speed.reference(dist, queue)
    assert len(speed.measure(3)) == 3
