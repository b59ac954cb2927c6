"""End-to-end command-line tests driven through main()."""

import concurrent.futures
import io
import json
import logging
import os
import random
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbroadcast import (
    BadSpec,
    bn_number_restricted,
    broadcasts,
    build_family,
    cli,
    conjectured_upper_bound,
    emit_graph6,
    enumerate_trees,
    parse_family_spec,
    parse_graph6,
    solve,
    trees,
)
from bnbroadcast import cli
from bnbroadcast.cli import _dumps, build_parser, main

D14 = "dspider:2,2/5/2,2"


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return _run


def run_json(run, argv, stdin_text=None):
    code, out, err = run(argv + ["--json"], stdin_text)
    assert code == 0, err
    return json.loads(out)


def jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestAnalyze:
    def test_double_spider_profile(self, run):
        d = run_json(run, ["analyze", D14])
        assert d["schema"] == 4 and d["tool"]["name"] == "bnbroadcast"
        assert d["input"] == {"kind": "family", "value": D14}
        assert d["n"] == 14
        assert d["shapes"] == ["other"]
        assert d["branch"] == [0, 1] and d["branch_count"] == 2
        assert d["branch01_count"] == 0
        assert d["deg2_internal"] == [2, 3, 4, 5]
        assert d["deg2_internal_count"] == 4
        assert d["leaf_sets"] == {"0": [7, 9], "1": [11, 13]}
        assert d["loss"]["0"] == {"farthest": 2, "loss": 2, "total": 4}
        assert d["loss"]["1"] == {"farthest": 2, "loss": 2, "total": 4}
        assert d["interior"] == {
            "edges": [[2, 3], [3, 4], [4, 5]],
            "independence": 2,
            "order": 4,
            "vertices": [2, 3, 4, 5],
        }

    def test_human_output(self, run):
        code, out, _ = run(["analyze", D14])
        assert code == 0
        assert "n: 14" in out and "branch_count: 2" in out

    def test_path_is_caterpillar_too(self, run):
        d = run_json(run, ["analyze", "path:5"])
        assert d["shapes"] == ["caterpillar", "path"]


class TestBounds:
    def test_d14_exact(self, run):
        d = run_json(run, ["bounds", D14, "--exact"])
        r = d["report"]
        assert (r["lower"], r["exact"], r["upper"]) == (10, 11, 12)
        assert r["conjectured"] == 12
        assert r["formula"] == {"name": "two_branch", "value": 11}
        assert r["exact_status"] == "solved"
        assert r["conjecture_ok"] is True
        assert r["witness_lower"]["weight"] == 10
        assert r["witness_exact"]["weight"] == 11
        assert "flags" not in d
        assert "total_ms" in d["timings"]

    def test_deterministic_apart_from_timings(self, run):
        # the second stops part-way through the 1,208,903 states of path:1100
        for argv in (["bounds", D14, "--exact"],
                     ["bounds", "path:1100", "--exact", "--limits", "nodes=700000"]):
            a = run_json(run, argv)
            b = run_json(run, argv)
            a.pop("timings")
            b.pop("timings")
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_budget_exceeded(self, run):
        d = run_json(run, ["bounds", D14, "--exact", "--limits", "nodes=50"])
        r = d["report"]
        assert r["exact"] is None and r["exact_status"] == "budget_exceeded"
        assert "best_found" not in r and "flags" not in d
        assert r["witness_exact"] is None

    def test_without_exact_flag(self, run):
        d = run_json(run, ["bounds", D14])
        assert d["report"]["exact_status"] == "not_run"
        assert d["report"]["exact"] is None

    def test_bad_limits(self, run):
        code, _, err = run(["bounds", D14, "--limits", "nodes=lots"])
        assert code == 2 and "error" in err

    def test_limits_without_exact(self, run):
        # no solver runs without --exact, so a budget would go unused
        code, out, err = run(["bounds", "spider:1,1,1", "--limits", "nodes=5"])
        assert (code, out, err) == (2, "", "error: --limits applies to --exact only\n")

    @pytest.mark.parametrize("argv", [
        ["bounds", D14, "--limits", "nodes=lots"],
        ["bounds", "path:5", "--exact", "--limits", "nodes=0"],
        ["bounds", "path:5", "--exact", "--limits", "ms=-1"],
        ["bounds", "path:5", "--exact", "--limits", "ms=nan"],
        ["bounds", "path:5", "--exact", "--limits", "ms=40"],
        ["bounds", "path:5", "--exact", "--limits", "nodes=1,nodes=5"],
        ["search", "--max-n", "3", "--limits", "nodes=0"],
    ], ids=["nodes=lots", "nodes=0", "ms=-1", "ms=nan", "ms=40", "nodes-repeated",
            "search-nodes=0"])
    def test_bad_limits_exit_2(self, run, argv):
        code, _, err = run(argv)
        assert code == 2 and err.startswith("error: bad --limits")

    def test_large_path_exact(self, run):
        code, out, err = run(["bounds", "path:1100", "--exact", "--json"])
        assert code == 0 and err == ""
        r = json.loads(out)["report"]
        assert r["exact"] == 1099 and r["exact_status"] == "solved"
        assert r["witness_exact"]["weight"] == 1099


class TestWitness:
    def test_double_spider(self, run):
        d = run_json(run, ["witness", D14])
        assert d["weight"] == 10 and d["bn_independent"] is True
        assert d["broadcast"]["weight"] == 10

    def test_path_rejected(self, run):
        code, _, err = run(["witness", "path:5"])
        assert code == 2 and "error" in err


class TestVerify:
    def write(self, tmp_path, text):
        p = tmp_path / "f.txt"
        p.write_text(text)
        return str(p)

    def test_independent_pair(self, run, tmp_path):
        bpath = self.write(tmp_path, "0:2 4:2\n")
        d = run_json(run, ["verify", "path:5", "--broadcast", bpath])
        assert d["valid"] and d["dominating"]
        assert d["bn_independent"] is True and d["bn_violation"] is None
        assert d["hearing_independent"] is True
        assert d["maximal_bn"] is True and d["maximal_certificate"] is None

    def test_violating_pair(self, run, tmp_path):
        bpath = self.write(tmp_path, "0:2 3:2\n")
        d = run_json(run, ["verify", "path:4", "--broadcast", bpath])
        assert d["bn_independent"] is False
        assert d["bn_violation"] == {"u": 0, "v": 3, "vertex": 1, "edge": [1, 2]}
        assert d["maximal_bn"] is None and d["maximal_certificate"] is None

    def test_center_of_p3_is_maximal(self, run, tmp_path):
        bpath = self.write(tmp_path, "1:1\n")
        d = run_json(run, ["verify", "path:3", "--broadcast", bpath])
        assert d["maximal_bn"] is True

    def test_undominated_certificate(self, run, tmp_path):
        bpath = self.write(tmp_path, "0:1 5:1\n")
        d = run_json(run, ["verify", "path:6", "--broadcast", bpath])
        assert d["dominating"] is False and d["undominated"] == [2, 3]
        assert d["maximal_bn"] is False
        assert d["maximal_certificate"] == {
            "kind": "undominated_vertex",
            "vertex": 2,
        }

    def test_expandable_certificate(self, run, tmp_path):
        bpath = self.write(tmp_path, "0:1 3:1 6:1\n")
        d = run_json(run, ["verify", "path:7", "--broadcast", bpath])
        assert d["dominating"] is True and d["bn_independent"] is True
        assert d["maximal_bn"] is False
        assert d["maximal_certificate"]["kind"] == "expandable_broadcaster"
        assert d["maximal_certificate"]["vertex"] == 0

    def test_invalid_strength_exits_1(self, run, tmp_path):
        bpath = self.write(tmp_path, "0:3\n")
        code, _, err = run(["verify", "path:3", "--broadcast", bpath])
        assert code == 1 and "error" in err

    def test_unparsable_broadcast_exits_2(self, run, tmp_path):
        bpath = self.write(tmp_path, "0:x\n")
        code, _, _ = run(["verify", "path:3", "--broadcast", bpath])
        assert code == 2

    def test_binary_broadcast_exits_2(self, run, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"0:1 \xff\xfe\n")
        code, _, err = run(["verify", "path:3", "--broadcast", str(p)])
        assert code == 2 and "not UTF-8" in err

    @pytest.mark.parametrize("text, want", [
        ("7:7 11:2 13:2", {
            "dominating": True, "undominated": [],
            "bn_independent": True, "bn_violation": None,
            "maximal_bn": True, "maximal_certificate": None,
        }),
        ("4:2 7:2 9:2 11:1 13:1", {
            "dominating": True, "undominated": [],
            "bn_independent": True, "bn_violation": None,
            "maximal_bn": False,
            "maximal_certificate": {"kind": "expandable_broadcaster", "vertex": 4},
        }),
        ("7:3 9:2", {
            "dominating": False, "undominated": [1, 3, 4, 5, 10, 11, 12, 13],
            "bn_independent": False,
            "bn_violation": {"edge": [0, 8], "u": 7, "v": 9, "vertex": 0},
            "maximal_bn": None, "maximal_certificate": None,
        }),
    ])
    def test_d14_reports(self, run, tmp_path, text, want):
        d = run_json(run, ["verify", D14, "--broadcast", self.write(tmp_path, text)])
        strengths = [0] * 14
        for token in text.split():
            v, s = map(int, token.split(":"))
            strengths[v] = s
        assert d == {
            "schema": 4,
            "tool": d["tool"],
            "input": {"kind": "family", "value": D14},
            "broadcast": {
                "broadcasters": [v for v in range(14) if strengths[v]],
                "strengths": strengths,
                "text": text,
                "weight": sum(strengths),
            },
            "valid": True,
            "hearing_independent": True,
            "hearing_violation": None,
            **want,
        }

    def test_one_scan_per_verify(self, run, tmp_path, monkeypatch):
        # one bn_violation call; domination and maximality come from one
        # sweep, whether the broadcast is independent or not, never from
        # analyze, which reads every ball
        calls = Counter()
        original = broadcasts.bn_violation

        def counted(f):
            calls["bn_violation"] += 1
            return original(f)

        def refuse(f):
            raise AssertionError("analyze reads every ball")

        monkeypatch.setattr(broadcasts, "bn_violation", counted)
        monkeypatch.setattr(cli, "bn_violation", counted)
        monkeypatch.setattr(broadcasts, "analyze", refuse)
        assert not hasattr(cli, "analyze")
        bpath = self.write(tmp_path, "7:7 11:2 13:2\n")
        d = run_json(run, ["verify", D14, "--broadcast", bpath])
        assert d["maximal_bn"] is True
        assert calls == {"bn_violation": 1}

    def test_violating_verify_skips_analyze(self, run, tmp_path, monkeypatch):
        def refuse(f):
            raise AssertionError("analyze reads every ball")

        monkeypatch.setattr(broadcasts, "analyze", refuse)
        bpath = self.write(tmp_path, "7:3 9:2\n")
        d = run_json(run, ["verify", D14, "--broadcast", bpath])
        assert d["bn_independent"] is False
        assert d["undominated"] == [1, 3, 4, 5, 10, 11, 12, 13]


class TestExportDot:
    def test_plain(self, run):
        code, out, _ = run(["export-dot", "path:3"])
        assert code == 0
        assert out.startswith("graph tree {")
        assert "  0 -- 1;" in out and "  1 -- 2;" in out
        code2, out2, _ = run(["export-dot", "path:3"])
        assert out2 == out

    def test_broadcast_overlay(self, run, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("0:2\n")
        code, out, _ = run(["export-dot", "path:3", "--broadcast", str(p)])
        assert code == 0
        assert '0 [label="0/2", penwidth=2];' in out
        assert '2 [label="2", style=dashed];' in out

    def test_mismatched_broadcast(self, run, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("5:1\n")
        code, _, _ = run(["export-dot", "path:3", "--broadcast", str(p)])
        assert code == 2

    def test_json_is_a_usage_error(self, run):
        # DOT is the only output, so the option is not offered
        code, out, err = run(["export-dot", "path:3", "--json"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --json" in err


COUNT_KEYS = ("trees", "solved", "budget_exceeded", "not_applicable", "violations")


class TestSearch:
    def summary_of(self, out):
        recs = jsonl(out)
        assert recs and recs[-1]["type"] == "summary"
        return recs[-1], recs[:-1]

    def test_sandwich_clean(self, run):
        code, out, err = run(["search", "--max-n", "7", "--check", "sandwich"])
        assert code == 0 and not err
        summary, rest = self.summary_of(out)
        assert summary["check"] == "sandwich"
        assert summary["violations"] == 0
        assert summary["trees"] == 25
        # one pure path per order carries no branch vertex
        assert summary["not_applicable"] == 7
        assert summary["solved"] == 18
        assert [r["type"] for r in rest] == ["order"] * 7
        assert [r["n"] for r in rest] == list(range(1, 8))
        assert all(set(r) == {"type", "n", *COUNT_KEYS} for r in rest)
        for key in COUNT_KEYS:
            assert sum(r[key] for r in rest) == summary[key]

    def test_sandwich_checks_the_formulas(self, run, monkeypatch):
        two_branch_value = solve.two_branch_value
        monkeypatch.setattr(solve, "two_branch_value",
                            lambda tree: two_branch_value(tree) + 1)
        code, _, err = run(["search", "--max-n", "8", "--check", "sandwich"])
        assert code == 3
        assert "formula two_branch=" in err

    def test_sandwich_escape_is_recorded(self, run, monkeypatch):
        monkeypatch.setattr(solve, "upper_bound",
                            lambda tree: solve.lower_bound_witness(tree)[0] - 1)
        code, out, err = run(["search", "--max-n", "8", "--check", "sandwich"])
        assert code == 3
        assert "violation(s) of proven result 'sandwich'" in err
        summary, rest = self.summary_of(out)
        found = [r for r in rest if r["type"] == "violation"]
        assert len(found) == summary["violations"] == summary["solved"] > 0
        for rec in found:
            assert set(rec) == {"type", "check", "n", "status", "violation",
                                "nodes", "exact", "lower", "upper", "id"}
            assert rec["violation"] == {k: rec[k] for k in ("lower", "exact", "upper")}
            assert rec["upper"] < rec["lower"] <= rec["exact"]
            assert parse_graph6(rec["id"]).n == rec["n"]

    def test_characterization_clean(self, run):
        code, out, _ = run(["search", "--max-n", "7", "--check", "characterization"])
        assert code == 0
        summary, _ = self.summary_of(out)
        assert summary["violations"] == 0 and summary["solved"] == summary["trees"]

    def test_chain_clean(self, run):
        code, out, _ = run(["search", "--max-n", "7", "--check", "chain"])
        assert code == 0
        summary, _ = self.summary_of(out)
        assert summary["violations"] == 0
        assert summary["not_applicable"] == 1  # the one-vertex tree

    def test_question1_summary(self, run):
        code, out, err = run(["search", "--max-n", "7"])
        assert code == 0
        assert "FINDING" not in err
        summary, _ = self.summary_of(out)
        assert summary["check"] == "question1"
        assert summary["schema"] == 4 and summary["tool"]["name"] == "bnbroadcast"
        assert summary["min_n"] == 1 and summary["max_n"] == 7
        total = summary["solved"] + summary["budget_exceeded"] + summary["not_applicable"]
        assert summary["trees"] == total
        assert "elapsed_ms" in summary

    def test_question1_order_records(self, run):
        code, out, _ = run(["search", "--max-n", "8", "--check", "question1"])
        assert code == 0
        summary, rest = self.summary_of(out)
        orders = [r for r in rest if r["type"] == "order"]
        assert [r["n"] for r in orders] == list(range(1, 9))
        for rec in orders:
            trees = list(enumerate_trees(rec["n"]))
            margins = Counter()
            for t in trees:
                if any(t.degree(v) >= 3 for v in range(t.n)):
                    exact = bn_number_restricted(t).value
                    margins[str(conjectured_upper_bound(t) - exact)] += 1
            solved = sum(margins.values())
            assert rec == {
                "type": "order",
                "n": rec["n"],
                "trees": len(trees),
                "solved": solved,
                "budget_exceeded": 0,
                "not_applicable": len(trees) - solved,
                "violations": sum(c for m, c in margins.items() if int(m) < 0),
                "margins": dict(margins),
            }
        assert sum(r["margins"].get("0", 0) for r in orders) > 0
        for key in COUNT_KEYS:
            assert summary[key] == sum(r[key] for r in orders)

    def test_jobs_match_serial(self, run):
        # each shard's class table sees its own share of the trees
        argvs = [["--max-n", "6"]]
        for check in cli.ALL_CHECKS:
            argvs.append(["--check", check, "--max-n", "10"])
            argvs.append(["--check", check, "--max-n", "10", "--limits", "nodes=60"])
        for argv in argvs:
            _, out1, _ = run(["search", *argv, "--jobs", "1"])
            _, out2, _ = run(["search", *argv, "--jobs", "2"])
            s1, r1 = self.summary_of(out1)
            s2, r2 = self.summary_of(out2)
            assert r1 == r2, argv
            s1.pop("elapsed_ms")
            s2.pop("elapsed_ms")
            assert s1 == s2, argv

    def test_no_state_across_calls(self, run):
        # the scan's class table goes with the scan: two scans and a
        # standalone solve in one process print what each prints alone
        def untimed(out):
            # search prints a record a line, bounds --json one indented object
            recs = jsonl(out) if out.startswith('{"') else [json.loads(out)]
            for rec in recs:
                rec.pop("elapsed_ms", None)
                rec.get("timings", {}).pop("total_ms", None)
            return recs

        scan = ["search", "--check", "question1", "--max-n", "10"]
        solve_one = ["bounds", "path:1100", "--exact", "--json"]
        fresh = {}
        for argv in (scan, solve_one):
            code, out, err = fresh_process(argv)
            fresh[tuple(argv)] = (code, untimed(out), err)
        for argv in (scan, scan, solve_one):
            code, out, err = run(argv)
            assert (code, untimed(out), err) == fresh[tuple(argv)], argv

    @pytest.mark.parametrize(
        "case", json.loads((Path(__file__).parent / "search_records.json").read_text()),
        ids=lambda case: " ".join(case["argv"]),
    )
    def test_records_frozen(self, run, case):
        # order records and summaries of an earlier generator, which yielded
        # the trees of each order in another order and labelling
        code, out, _ = run(["search"] + case["argv"])
        assert code == 0
        recs = jsonl(out)
        recs[-1].pop("elapsed_ms")
        assert recs == case["records"]

    def test_three_shards_merge_in_enumeration_order(self, run, monkeypatch):
        # threads stand in for the pool's processes; at 20 states every
        # shard of order 9 prints budget records, which must interleave
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            ThreadPoolExecutor)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        for start in range(3):
            printed = cli._scan_shard(9, "question1", 20, start, 3)[2]
            assert printed
            assert all(pos % 3 == start for pos, _ in printed)
        for argv in (["--max-n", "9", "--limits", "nodes=20"],
                     ["--check", "chain", "--max-n", "9", "--limits", "nodes=60"],
                     ["--check", "sandwich", "--max-n", "9"]):
            _, out1, _ = run(["search", *argv, "--jobs", "1"])
            code, out3, _ = run(["search", *argv, "--jobs", "3"])
            assert code == 0
            assert self.summary_of(out3)[1] == self.summary_of(out1)[1], argv

    def test_sandwich_shares_the_shards_class_table(self, monkeypatch):
        # question1 and sandwich solve the same trees of a shard, so with
        # one class table per shard they fill the same classes
        fills = Counter()
        fill = solve._fill

        def counted(*args):
            fills[check] += 1
            return fill(*args)

        monkeypatch.setattr(solve, "_fill", counted)
        for check in ("question1", "sandwich"):
            cli._scan_shard(10, check, None)
        assert fills["sandwich"] == fills["question1"] > 0

    def test_budget_records(self, run):
        code, out, _ = run(
            ["search", "--min-n", "9", "--max-n", "9", "--limits", "nodes=20"]
        )
        assert code == 0
        summary, rest = self.summary_of(out)
        assert summary["budget_exceeded"] > 0
        budget = [r for r in rest if r["type"] == "budget_exceeded"]
        assert len(budget) == summary["budget_exceeded"]
        assert all("best_found" not in r for r in budget)

    def test_chain_budget_records_carry_the_exhausted_solvers_nodes(self, run):
        # at 50 states some trees of order 9 fit the boundary DP and then
        # exhaust the hearing DP; their records carry the hearing DP's count
        code, out, _ = run(["search", "--check", "chain", "--min-n", "9",
                            "--max-n", "9", "--limits", "nodes=50"])
        assert code == 0
        budget = [r for r in jsonl(out) if r["type"] == "budget_exceeded"]
        assert any("exact" in r for r in budget)
        assert budget and all(r["nodes"] > 50 for r in budget)

    def test_jobs_capped_at_usable_cpus(self, run, monkeypatch):
        # the pool starts all its workers at once; threads stand in for them
        made = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                made.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        _, serial, _ = run(["search", "--max-n", "6"])
        for jobs in ("100000", "2"):
            code, out, _ = run(["search", "--max-n", "6", "--jobs", jobs])
            assert code == 0
            assert self.summary_of(out)[1] == self.summary_of(serial)[1]
        assert made == [2, 2]
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert run(["search", "--max-n", "6", "--jobs", "8"])[0] == 0
        assert made == [2, 2]

    def test_usable_cpus(self):
        cpus = cli._usable_cpus()
        assert 1 <= cpus <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))

    def test_bad_ranges(self, run):
        assert run(["search", "--max-n", "0"])[0] == 2
        assert run(["search", "--min-n", "5", "--max-n", "4"])[0] == 2
        assert run(["search", "--max-n", "4", "--jobs", "0"])[0] == 2


class TestInputs:
    def test_stdin_edge_list(self, run):
        d = run_json(run, ["analyze", "-"], stdin_text="0 1\n1 2\n")
        assert d["n"] == 3 and d["input"]["kind"] == "stdin"

    def test_g6_flag(self, run):
        d = run_json(run, ["analyze", "--g6", "Bg"])
        assert d["n"] == 3 and d["input"] == {"kind": "graph6", "value": "Bg"}

    def test_edge_list_file(self, run, tmp_path):
        p = tmp_path / "t.edges"
        p.write_text("0 1\n0 2\n0 3\n")
        d = run_json(run, ["analyze", str(p)])
        assert d["n"] == 4
        assert d["input"]["kind"] == "file" and d["input"]["format"] == "edgelist"

    def test_graph6_file(self, run, tmp_path):
        p = tmp_path / "t.g6"
        p.write_text("Bg")
        d = run_json(run, ["analyze", str(p), "--format", "graph6"])
        assert d["n"] == 3 and d["input"]["format"] == "graph6"

    @pytest.mark.parametrize("argv", [
        ["analyze", "path:3", "--format", "graph6"],
        ["analyze", "--g6", "A_", "--format", "edgelist"],
    ], ids=["family", "g6"])
    def test_format_without_a_file(self, run, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == "error: --format applies to a file INPUT only\n"

    def test_missing_file(self, run):
        assert run(["analyze", "/no/such/file"])[0] == 2

    def test_binary_file(self, run, tmp_path):
        p = tmp_path / "t.edges"
        p.write_bytes(b"0 1\n\x80\x81\n")
        code, _, err = run(["analyze", str(p)])
        assert code == 2 and "not UTF-8" in err

    def test_no_input(self, run):
        assert run(["analyze"])[0] == 2

    def test_bad_family(self, run):
        # a known kind prefix, so parse_family_spec rejects it
        code, _, err = run(["analyze", "path:x"])
        assert code == 2 and err == "error: bad path order: 'x'\n"

    @pytest.mark.parametrize("spec, field", [
        ("cat:leafcounts=1,1;leafcounts=2,2,2", "leafcounts"),
        ("cat:leafcounts=1,1,1;spacing=2,2;spacing=3,3", "spacing"),
    ], ids=["leafcounts", "spacing"])
    def test_repeated_caterpillar_field(self, run, spec, field):
        # the last value used to win, silently
        code, out, err = run(["analyze", spec])
        assert (code, out) == (2, "")
        assert err == f"error: caterpillar field {field} given twice\n"

    def test_bad_g6(self, run):
        assert run(["analyze", "--g6", "B"])[0] == 2

    def test_self_loop_message(self, run):
        code, out, err = run(["analyze", "-"], stdin_text="0 1\n1 1\n1 2\n")
        assert code == 2 and out == ""
        assert err == "error: line 2: self-loop at vertex 1\n"

    def test_no_input_message(self, run):
        code, _, err = run(["analyze"])
        assert code == 2 and err == "error: no input given (positional or --g6)\n"

    @pytest.mark.parametrize("g6", ["BW", ""], ids=["graph6", "empty"])
    def test_input_and_g6_together(self, run, g6):
        code, out, err = run(["analyze", "path:5", "--g6", g6])
        assert (code, out) == (2, "")
        assert err == "error: give INPUT or --g6, not both\n"

    def test_empty_g6_is_read_as_graph6(self, run):
        code, out, err = run(["analyze", "--g6", ""])
        assert (code, out, err) == (2, "", "error: empty graph6 string\n")

    @pytest.mark.parametrize("command", ["verify", "export-dot"])
    def test_input_and_broadcast_both_from_stdin(self, run, command):
        code, out, err = run([command, "-", "--broadcast", "-"],
                             stdin_text="0 1\n1 2\n")
        assert (code, out) == (2, "")
        assert err == "error: INPUT and --broadcast cannot both read stdin\n"

    def test_family_option_is_gone(self, run):
        # the positional INPUT takes a family spec
        assert run(["analyze", "--family", "path:3"])[0] == 2

    def test_search_record_id_beyond_order_62(self, run):
        # search at order 63 would scan an astronomically large corpus, so
        # the record and its id come from the functions a shard calls
        path63 = build_family(parse_family_spec("path:63"))
        rec = cli._check_tree(path63, "characterization", 1, None)
        assert rec["status"] == "budget_exceeded"
        assert rec["nodes"] > 1 and "reason" not in rec
        g6 = emit_graph6(path63)
        assert g6.startswith("~??~")
        assert parse_graph6(g6).edges == path63.edges
        code, out, err = run(["analyze", "--g6", g6, "--json"])
        assert code == 0, err
        assert json.loads(out)["n"] == 63


SPIDER_3K = "spider:1000,1000,1000"
SPIDER_3K_WITNESS = "1000:1000 2000:1000 3000:1000"


class TestLargeInputs:
    """No command builds the n x n distance matrix; the broadcast checks
    read balls, the formulas and witnesses the profile and one BFS."""

    @pytest.fixture
    def no_matrix(self, monkeypatch):
        def refuse(tree):
            raise AssertionError(f"distance matrix built for order {tree.n}")

        monkeypatch.setattr(trees.Tree, "distances", property(refuse))

    def test_analyze_large_spider(self, run, no_matrix):
        d = run_json(run, ["analyze", "spider:1000,1000,1000"])
        assert d["n"] == 3001 and d["branch"] == [0]
        assert d["leaf_sets"] == {"0": [1000, 2000, 3000]}
        assert d["loss"]["0"] == {"farthest": 1000, "loss": 2000, "total": 3000}
        assert d["interior"]["order"] == 0

    def test_bounds_large_path(self, run, no_matrix):
        r = run_json(run, ["bounds", "path:3000"])["report"]
        assert r["formula"] == {"name": "path_spider", "value": 2999}
        assert r["lower"] is None and r["exact_status"] == "not_run"

    def test_export_dot_large_path(self, run, no_matrix):
        code, out, _ = run(["export-dot", "path:3000"])
        assert code == 0 and out.count(" -- ") == 2999
        assert "  2998 -- 2999;" in out

    def test_export_dot_large_path_with_broadcast(self, run, no_matrix, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("0:1000 2000:999\n")
        code, out, _ = run(["export-dot", "path:3000", "--broadcast", str(p)])
        assert code == 0
        dashed = [line for line in out.splitlines() if "style=dashed" in line]
        assert dashed == [
            '  1000 [label="1000", style=dashed];',
            '  1001 [label="1001", style=dashed];',
            '  2999 [label="2999", style=dashed];',
        ]
        assert '  2000 [label="2000/999", penwidth=2];' in out

    def test_analyze_large_double_spider(self, run, no_matrix):
        d = run_json(run, ["analyze", "dspider:1000,1000/5/1000,1000"])
        assert d["n"] == 4006 and d["branch"] == [0, 1]
        assert d["deg2_internal"] == [2, 3, 4, 5]
        assert d["leaf_sets"] == {"0": [1005, 2005], "1": [3005, 4005]}

    def test_analyze_large_spaced_caterpillar(self, run, no_matrix):
        d = run_json(run, ["analyze", "cat:leafcounts=2,1,2;spacing=700,900"])
        assert d["n"] == 1606 and d["branch"] == [0, 1, 2]
        assert d["deg2_internal_count"] == 1598
        assert d["interior"]["order"] == 1599
        assert d["interior"]["independence"] == 800

    def test_bounds_large_spider(self, run, no_matrix):
        r = run_json(run, ["bounds", SPIDER_3K])["report"]
        assert (r["lower"], r["upper"], r["conjectured"]) == (3000, 3000, 3000)
        assert r["formula"] == {"name": "path_spider", "value": 3000}
        assert r["witness_lower"]["text"] == SPIDER_3K_WITNESS

    def test_witness_and_verify_large_spider(self, run, no_matrix, tmp_path):
        d = run_json(run, ["witness", SPIDER_3K])
        assert d["weight"] == 3000
        assert d["broadcast"]["text"] == SPIDER_3K_WITNESS
        p = tmp_path / "w.txt"
        p.write_text(d["broadcast"]["text"] + "\n")
        v = run_json(run, ["verify", SPIDER_3K, "--broadcast", str(p)])
        assert v["bn_independent"] and v["hearing_independent"]
        assert v["dominating"] and v["maximal_bn"] is True

    @pytest.fixture
    def ball_sizes(self, monkeypatch):
        """The order of every ball `Tree.ball` returns, the only BFS the
        broadcast predicates run."""
        sizes = []
        ball = trees.Tree.ball

        def counted(self, v, radius=None):
            found = ball(self, v, radius)
            sizes.append(len(found))
            return found

        monkeypatch.setattr(trees.Tree, "ball", counted)
        assert not hasattr(broadcasts, "_bfs")
        return sizes

    def test_passing_checks_read_no_ball(self, run, no_matrix, ball_sizes):
        # the verdicts sweep the rooting; only a violation reads a ball
        r = run_json(run, ["bounds", SPIDER_3K, "--exact"])["report"]
        assert r["exact"] == 3000 and r["witness_lower"]["text"] == SPIDER_3K_WITNESS
        d = run_json(run, ["witness", SPIDER_3K])
        assert d["broadcast"]["text"] == SPIDER_3K_WITNESS
        tree = build_family(parse_family_spec(SPIDER_3K))
        f = broadcasts.parse_broadcast(SPIDER_3K_WITNESS, tree)
        assert broadcasts.bn_violation(f) is None
        assert broadcasts.is_dominating(f)
        assert broadcasts.hearing_violation(f) is None
        assert broadcasts.is_maximal_bn(f)
        v = run_json(run, ["verify", SPIDER_3K, "--broadcast", "-"],
                     SPIDER_3K_WITNESS + "\n")
        assert v["maximal_bn"] is True and v["undominated"] == []
        assert ball_sizes == []

    def test_verify_dense_path(self, run, no_matrix, ball_sizes, tmp_path):
        # every vertex at its eccentricity: each ball holds half the path
        # or more, so reading every ball would take n^2 / 2 vertices
        n = 2000
        p = tmp_path / "dense.txt"
        p.write_text(" ".join(f"{v}:{max(v, n - 1 - v)}" for v in range(n)) + "\n")
        v = run_json(run, ["verify", f"path:{n}", "--broadcast", str(p)])
        assert v["bn_violation"] == {"u": 0, "v": 1, "vertex": 0, "edge": [0, 1]}
        assert v["hearing_violation"] == [0, 1]
        assert v["dominating"] and v["maximal_bn"] is None
        assert sum(ball_sizes) <= 10 * n

    def test_verify_hearing_independent_spider(self, run, no_matrix, ball_sizes,
                                               tmp_path):
        # 1,500 legs of length 2, numbered centre-out, so the leaves are the
        # even vertices; at strength 3 every leaf's ball holds the centre and
        # every leg's middle vertex, but no other leaf
        spec = "spider:" + ",".join(["2"] * 1500)
        p = tmp_path / "legs.txt"
        p.write_text(" ".join(f"{v}:3" for v in range(2, 3001, 2)) + "\n")
        v = run_json(run, ["verify", spec, "--broadcast", str(p)])
        assert v["hearing_independent"] and v["hearing_violation"] is None
        assert v["bn_violation"] == {"u": 2, "v": 4, "vertex": 0, "edge": [0, 1]}
        assert v["dominating"] and v["maximal_bn"] is None
        assert sum(ball_sizes) <= 10 * 3001

    def test_export_dot_dense_path(self, run, no_matrix, monkeypatch, tmp_path):
        # the even vertices at their eccentricities: the balls hold n^2 / 4
        # vertices in all, and only the spheres are kept
        def refuse(f):
            raise AssertionError("export-dot analyzed the broadcast")

        monkeypatch.setattr(broadcasts, "analyze", refuse)
        n = 2000
        p = tmp_path / "dense.txt"
        p.write_text(" ".join(f"{v}:{max(v, n - 1 - v)}" for v in range(0, n, 2)))
        code, out, _ = run(["export-dot", f"path:{n}", "--broadcast", str(p)])
        assert code == 0 and out.count(" -- ") == n - 1
        dashed = [line for line in out.splitlines() if "style=dashed" in line]
        assert dashed == ['  1999 [label="1999", style=dashed];']
        assert '  1000 [label="1000/1000", penwidth=2];' in out
        assert '  1001 [label="1001"];' in out

    def test_verify_violating_broadcast_large_spider(self, run, no_matrix, tmp_path):
        # the certificate the definitional scan finds over the distance matrix
        p = tmp_path / "bad.txt"
        p.write_text(SPIDER_3K_WITNESS + " 1500:2\n")
        v = run_json(run, ["verify", SPIDER_3K, "--broadcast", str(p)])
        assert v["bn_independent"] is False
        assert v["bn_violation"] == {
            "u": 1500, "v": 2000, "vertex": 1498, "edge": [1498, 1499],
        }
        assert v["hearing_violation"] == [1500, 2000]
        assert v["maximal_bn"] is None and v["dominating"] is True

    def test_bounds_exact_large_path(self, run, no_matrix):
        r = run_json(run, ["bounds", "path:1100", "--exact"])["report"]
        assert r["exact"] == 1099 and r["exact_status"] == "solved"
        assert r["witness_exact"]["text"] == "0:1099"

    def test_bounds_two_branch_formula_large(self, run, no_matrix):
        r = run_json(run, ["bounds", "dspider:500,500/9/500,500"])["report"]
        assert r["formula"] == {"name": "two_branch", "value": 2004}
        assert (r["lower"], r["upper"]) == (2004, 2008)

    def test_one_edge_naming_a_huge_order(self, tmp_path):
        # the edge names vertex 10^9, so the order is 10^9 + 1; the edge
        # count must reject it before any per-vertex list is built, which
        # could not fit in the child's 512 MiB
        p = tmp_path / "huge.txt"
        p.write_text("0 1000000000\n")
        code, out, err = fresh_process(["analyze", str(p)],
                                       preexec_fn=cap_address_space, timeout=10)
        assert code == 2 and out == ""
        assert err == "error: order 1000000001 needs 1000000000 edges, got 1\n"


HUGE = 10**20


def cap_address_space():
    """Give a child process 512 MiB of address space: a tree built by
    mistake fails at once instead of filling the machine's memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))


class TestHugeFamilySpecs:
    """A spec's order is worked out before anything is built, and one above
    graph6's largest order is refused with exit 2."""

    @pytest.mark.parametrize("spec, order", [
        (f"path:{HUGE}", HUGE),
        (f"spider:{HUGE},1,1", HUGE + 3),
        (f"dspider:{HUGE},1/1/1,1", HUGE + 5),
        (f"dspider:1,1/{HUGE}/1,1", HUGE + 5),
        (f"cat:leafcounts={HUGE}", HUGE + 1),
        (f"cat:leafcounts=1,1;spacing={HUGE}", HUGE + 3),
    ])
    def test_refused_at_once(self, spec, order):
        start = time.perf_counter()
        code, out, err = fresh_process(["bounds", spec], preexec_fn=cap_address_space,
                                       timeout=10)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (f"error: order {order} exceeds 258047, the largest "
                       "order a family spec may have\n")

    def test_largest_order_is_built(self):
        assert build_family(parse_family_spec("path:258047")).n == 258047
        with pytest.raises(BadSpec, match="order 258048 "):
            build_family(parse_family_spec("path:258048"))


class TestOwnLoopsReadAdjacency:
    """The package's own loops read `Tree.adjacency`; the validating
    `neighbors` and `degree` are for callers."""

    @pytest.fixture
    def no_accessors(self, monkeypatch):
        def refuse(self, v):
            raise AssertionError(f"validating accessor called on vertex {v}")

        monkeypatch.setattr(trees.Tree, "neighbors", refuse)
        monkeypatch.setattr(trees.Tree, "degree", refuse)

    def test_every_subcommand(self, run, no_accessors, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text(run_json(run, ["witness", D14])["broadcast"]["text"] + "\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("0:2 1:2\n")
        for argv in (["analyze", D14], ["bounds", D14, "--exact"],
                     ["verify", D14, "--broadcast", str(good)],
                     ["verify", D14, "--broadcast", str(bad)]):
            run_json(run, argv)
        code, out, err = run(["export-dot", D14, "--broadcast", str(good)])
        assert code == 0 and out.startswith("graph tree {"), err

    @pytest.mark.parametrize("check", cli.ALL_CHECKS)
    def test_every_search_check(self, run, no_accessors, check):
        code, out, err = run(["search", "--max-n", "8", "--check", check])
        assert code == 0, err
        assert jsonl(out)[-1]["trees"] == 48

    @pytest.fixture
    def checked_vertices(self, monkeypatch):
        """The vertices `Tree._check_vertex` is called on."""
        calls = []
        check_vertex = trees.Tree._check_vertex

        def counted(self, v):
            calls.append(v)
            return check_vertex(self, v)

        monkeypatch.setattr(trees.Tree, "_check_vertex", counted)
        return calls

    def test_question1_scan_validates_no_vertex(self, run, checked_vertices):
        # every vertex the scan reads comes from the tree's own adjacency
        code, out, err = run(["search", "--check", "question1", "--max-n", "10"])
        assert code == 0, err
        assert jsonl(out)[-1]["solved"] > 0
        assert checked_vertices == []

    def test_question1_scan_roots_no_tree_by_bfs(self, run, monkeypatch):
        # every corpus tree is made with its rooting, read off its sequence
        calls = []
        centre_rooting = trees._centre_rooting

        def counted(adj):
            calls.append(len(adj))
            return centre_rooting(adj)

        monkeypatch.setattr(trees, "_centre_rooting", counted)
        code, out, err = run(["search", "--check", "question1", "--max-n", "10"])
        assert code == 0, err
        assert jsonl(out)[-1]["solved"] > 0
        assert calls == []

    @pytest.mark.parametrize("argv", (["analyze"], ["bounds", "--exact"], ["witness"],
                                      ["verify", "--broadcast", "f.txt"]))
    def test_per_tree_commands_build_only_the_input_tree(self, run, monkeypatch,
                                                         tmp_path, argv):
        # the interior and the formulas are read on the input tree's own
        # numbering, so no relabelled copy of it is made; the solvers, the
        # independence DP and the predicates all read its one rooting
        monkeypatch.chdir(tmp_path)
        rnd = random.Random(200)
        edges = tmp_path / "t200.txt"
        edges.write_text("".join(f"{rnd.randrange(v)} {v}\n" for v in range(1, 200)))
        (tmp_path / "f.txt").write_text("0:1\n")
        built, rooted = [], []
        tree_init = trees.Tree.__init__
        centre_rooting = trees._centre_rooting

        def counted_init(self, n, *args, **kwargs):
            built.append(n)
            return tree_init(self, n, *args, **kwargs)

        def counted_rooting(adj):
            rooted.append(len(adj))
            return centre_rooting(adj)

        monkeypatch.setattr(trees.Tree, "__init__", counted_init)
        monkeypatch.setattr(trees, "_centre_rooting", counted_rooting)
        for source, n in ((D14, 14), (str(edges), 200)):
            built.clear()
            rooted.clear()
            code, out, err = run([argv[0], source, *argv[1:], "--json"])
            assert code == 0, err
            assert built == rooted == [n], source

    def test_sandwich_scan_validates_no_vertex(self, run, checked_vertices):
        # the interior and the two-branch formula's distance read vertices
        # the profile picked
        code, out, err = run(["search", "--check", "sandwich", "--max-n", "10"])
        assert code == 0, err
        assert jsonl(out)[-1]["solved"] > 0
        assert checked_vertices == []


def fresh_env():
    """The environment of a new interpreter that imports this checkout,
    without the caller's BNB_LOG, whose progress lines would go to stderr."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("BNB_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def fresh_process(args, flags=(), preexec_fn=None, timeout=120):
    """(exit code, stdout, stderr) of the command line in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "bnbroadcast.cli", *args],
        env=fresh_env(), capture_output=True, text=True, timeout=timeout,
        preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOptimizedMode:
    """Under `python -O` every assert is gone; nothing the command line
    prints may depend on `__debug__`."""

    SPECS = (D14, "spider:5,1,6", "cat:leafcounts=2,1,2,0,3")

    def cli(self, flags, args):
        code, stdout, stderr = fresh_process(args, flags)
        out = json.loads(stdout)
        out.pop("timings", None)
        return code, out, stderr

    def test_sandwich_scan_without_assertions(self):
        argv = ["search", "--max-n", "8", "--check", "sandwich"]
        runs = []
        for flags in ((), ("-O",)):
            code, out, err = fresh_process(argv, flags)
            recs = jsonl(out)
            recs[-1].pop("elapsed_ms")
            runs.append((code, recs, err))
        assert runs[0][0] == 0 and runs[0] == runs[1]

    @pytest.mark.parametrize("spec", SPECS)
    def test_same_output_without_assertions(self, spec, tmp_path):
        witness = self.cli([], ["witness", spec, "--json"])[1]
        assert 0 not in witness["broadcast"]["broadcasters"]
        good = tmp_path / "good.txt"
        good.write_text(witness["broadcast"]["text"] + "\n")
        bad = tmp_path / "bad.txt"
        bad.write_text(witness["broadcast"]["text"] + " 0:1\n")
        commands = [
            ["bounds", spec, "--exact", "--json"],
            ["witness", spec, "--json"],
            ["verify", spec, "--broadcast", str(good), "--json"],
            ["verify", spec, "--broadcast", str(bad), "--json"],
        ]
        plain = [self.cli([], args) for args in commands]
        assert all(code == 0 for code, _, _ in plain), plain
        # one independent broadcast and one with a violation
        assert plain[2][1]["bn_independent"]
        assert plain[3][1]["bn_violation"] is not None
        for args, want in zip(commands, plain):
            assert self.cli(["-O"], args) == want, args


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, run):
        code, _, err = run([])
        assert code == 2 and "usage" in err

    def test_version(self, run):
        code, out, _ = run(["--version"])
        assert code == 0 and "bnbroadcast" in out

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_cached_parser_acts_like_a_fresh_one(self, run):
        # a usage error, a JSON report and --version in a row in one
        # process, each printing what it prints in a process of its own
        def untimed(result):
            code, out, err = result
            if out.startswith("{"):
                out = json.loads(out)
                out.pop("timings")
            return code, out, err

        for argv in (["bounds", D14, "--limits", "nodes=lots"],
                     ["bounds", D14, "--json"],
                     ["--version"]):
            assert untimed(run(argv)) == untimed(fresh_process(argv)), argv

    def test_closed_stdout_exits_141_quietly(self):
        # about 117 kB of records, more than a pipe holds, so the scan is
        # still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "bnbroadcast.cli", "search", "--max-n", "12",
             "--limits", "nodes=20"],
            env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert json.loads(proc.stdout.readline())["type"] == "order"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_only_a_parallel_search_imports_the_process_pool(self):
        script = ("import sys\n"
                  "from bnbroadcast import cli\n"
                  "for jobs in ('1', '2'):\n"
                  "    cli.main(['search', '--max-n', '3', '--jobs', jobs])\n"
                  "    print('concurrent.futures.process' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        flags = [line for line in proc.stdout.splitlines()
                 if line in ("True", "False")]
        assert flags == ["False", str(cli._usable_cpus() > 1)]

    @pytest.mark.skipif(cli._usable_cpus() < 2, reason="needs two usable CPUs")
    def test_a_parallel_search_pickles_no_tree(self, run):
        # each worker builds its own trees; only shard results cross over
        script = ("from bnbroadcast import cli, trees\n"
                  "def refuse(self, protocol):\n"
                  "    raise AssertionError('a tree was pickled')\n"
                  "trees.Tree.__reduce_ex__ = refuse\n"
                  "raise SystemExit(cli.main(['search', '--max-n', '9', '--jobs', '2']))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        _, serial, _ = run(["search", "--max-n", "9", "--jobs", "1"])
        recs, want = jsonl(proc.stdout), jsonl(serial)
        recs[-1].pop("elapsed_ms")
        want[-1].pop("elapsed_ms")
        assert recs == want


def modules_added(argv, environ=None):
    """The start-up-heavy modules that `cli.main(argv)` adds to a new
    interpreter, and whether logging is loaded afterwards."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "from bnbroadcast import cli\n"
              "cli.main(sys.argv[1:])\n"
              "heavy = ('dataclasses', 'inspect', 'logging')\n"
              "print(sorted(m for m in heavy\n"
              "             if m in sys.modules and m not in before))\n"
              "print('logging' in sys.modules)\n")
    env = dict(fresh_env(), **(environ or {}))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, added, logging_loaded = proc.stdout.splitlines()
    return added, logging_loaded == "True"


class TestStartUp:
    """A command imports what it runs: no dataclasses (and so no inspect),
    and logging only when BNB_LOG asks for it."""

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["bounds", "spider:3,4,5", "--exact", "--json"],
        ["search", "--max-n", "5"],
    ], ids=" ".join)
    def test_no_heavy_imports(self, argv):
        assert modules_added(argv) == ("[]", False)

    def test_bnb_log_loads_logging(self):
        _, logging_loaded = modules_added(["search", "--max-n", "3"],
                                          {"BNB_LOG": "info"})
        assert logging_loaded


class TestProgressLog:
    """BNB_LOG=info logs one line per finished order of a search on stderr,
    and nothing is logged without it."""

    LINES = [
        "INFO bnbroadcast: order 1: 1 trees, 0 solved, 0 over budget, 0 violations",
        "INFO bnbroadcast: order 2: 1 trees, 0 solved, 0 over budget, 0 violations",
        "INFO bnbroadcast: order 3: 1 trees, 0 solved, 0 over budget, 0 violations",
        "INFO bnbroadcast: order 4: 2 trees, 1 solved, 0 over budget, 0 violations",
    ]

    def search(self, environ):
        proc = subprocess.run(
            [sys.executable, "-m", "bnbroadcast.cli", "search", "--max-n", "4",
             "--jobs", "1"],
            env=dict(fresh_env(), **environ), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, proc.stderr

    def test_one_line_per_order(self):
        out, err = self.search({"BNB_LOG": "info"})
        assert err.splitlines() == self.LINES
        # the records, all but the timed summary, are the same without it
        assert out.splitlines()[:-1] == self.search({})[0].splitlines()[:-1]

    def test_silent_without_bnb_log(self):
        assert self.search({})[1] == ""

    def test_a_callers_own_logging_configuration(self, run, monkeypatch, caplog):
        monkeypatch.delenv("BNB_LOG", raising=False)
        caplog.set_level(logging.INFO, logger="bnbroadcast")
        code, _, _ = run(["search", "--max-n", "4", "--jobs", "1"])
        assert code == 0
        got = [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records]
        assert got == self.LINES


# JSON values as the commands build them and beyond: str keys; lists of
# ints with bools among them (a bool is an int to isinstance, a literal to
# json); int pairs as lists and tuples next to other lists; strings with
# quotes, control and non-ASCII characters; the floats json spells itself
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("-inf")]),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u2028\U0001f600"]),
)
INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), max_size=6)
INT_PAIRS = st.lists(
    st.one_of(st.tuples(st.integers(), st.integers()),
              st.lists(st.integers(), min_size=2, max_size=2),
              st.lists(st.integers(), max_size=3)),
    max_size=5,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES | INT_LISTS | INT_PAIRS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=25,
)


class TestJsonText:
    """`--json` output is written by cli._dumps, which must give the text
    of `json.dumps(..., indent=2, sort_keys=True)` on every value."""

    @settings(max_examples=400)
    @given(JSON_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}}, [[], {}, [[]], ()], [True, 1, False, 0],
        [[1, 2], [3, True]], [(1, 2), [3, 4], [5]], [[1, 2], (3, 4)],
        {"b": [[0, 1]], "a": [0, 1], "c": [0.5, 1]}, [-0.0, 1e300, float("nan")],
        "\"\u00e9\x07\u2028",
    ], ids=repr)
    def test_edge_cases(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        # A bare object's repr holds its address, so it gets a fixed id.
        pytest.param(object(), id="object()"),
        {"a": {1, 2}}, [1, b"x"], [[1, 2], [3, 1j]], {"a": [None, Path(".")]},
    ], ids=repr)
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _dumps(value)


def log_level(value):
    """The root logger's level after `main` in a fresh process run with
    BNB_LOG=value, and the process's stderr."""
    script = ("import logging\n"
              "from bnbroadcast import cli\n"
              "assert cli.main(['search', '--max-n', '1']) == 0\n"
              "print(logging.getLogger().level)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(fresh_env(), BNB_LOG=value),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1]), proc.stderr


class TestLogLevel:
    """BNB_LOG takes the five level names in any case and decimal integers;
    any other value logs at INFO, with no traceback."""

    @pytest.mark.parametrize("value, level", [
        ("debug", 10), ("Info", 20), ("WARNING", 30), ("error", 40),
        ("critical", 50), ("10", 10), ("35", 35),
    ])
    def test_names_and_numbers(self, value, level):
        got, err = log_level(value)
        assert got == level
        assert ("order 1:" in err) == (level <= logging.INFO)

    @pytest.mark.parametrize("value", ["basic_format", "verbose", "fatal", "1.5"])
    def test_anything_else_logs_at_info(self, value):
        assert log_level(value) == (20, "INFO bnbroadcast: order 1: 1 trees, "
                                        "0 solved, 0 over budget, 0 violations\n")

    def test_version_runs_under_any_value(self):
        for value in ("basic_format", "10"):
            proc = subprocess.run(
                [sys.executable, "-m", "bnbroadcast.cli", "--version"],
                env=dict(fresh_env(), BNB_LOG=value),
                capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), value
            assert proc.stdout.startswith("bnbroadcast ")
