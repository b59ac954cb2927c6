"""End-to-end command-line tests driven through main()."""

import io
import json
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bnbroadcast import (
    SolveLimits,
    bn_number_restricted,
    broadcasts,
    build_family,
    cli,
    conjectured_upper_bound,
    enumerate_trees,
    parse_family_spec,
    parse_graph6,
    trees,
)
from bnbroadcast import cli
from bnbroadcast.cli import _pool_map, build_parser, main

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
        calls = Counter()
        for name in ("bn_violation", "analyze"):
            original = getattr(broadcasts, name)

            def counted(f, _name=name, _original=original):
                calls[_name] += 1
                return _original(f)

            monkeypatch.setattr(broadcasts, name, counted)
            monkeypatch.setattr(cli, name, counted)
        bpath = self.write(tmp_path, "7:7 11:2 13:2\n")
        d = run_json(run, ["verify", D14, "--broadcast", bpath])
        assert d["maximal_bn"] is True
        assert calls == {"bn_violation": 1, "analyze": 1}

    def test_violating_verify_skips_analyze(self, run, tmp_path, monkeypatch):
        def refuse(f):
            raise AssertionError("analyze reads every ball")

        monkeypatch.setattr(cli, "analyze", refuse)
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
        _, out1, _ = run(["search", "--max-n", "6", "--jobs", "1"])
        _, out2, _ = run(["search", "--max-n", "6", "--jobs", "2"])
        s1, r1 = self.summary_of(out1)
        s2, r2 = self.summary_of(out2)
        assert r1 == r2
        s1.pop("elapsed_ms")
        s2.pop("elapsed_ms")
        assert s1 == s2

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

    def test_pool_map_keeps_order_across_batches(self):
        with ThreadPoolExecutor(2) as pool:
            out = list(_pool_map(pool, abs, iter(range(-2500, 0))))
        assert out == list(range(2500, 0, -1))

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
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
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
        assert d["n"] == 3

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

    def test_bad_g6(self, run):
        assert run(["analyze", "--g6", "B"])[0] == 2

    def test_no_input_message(self, run):
        code, _, err = run(["analyze"])
        assert code == 2 and err == "error: no input given (positional or --g6)\n"

    def test_family_option_is_gone(self, run):
        # the positional INPUT takes a family spec
        assert run(["analyze", "--family", "path:3"])[0] == 2

    def test_search_record_id_beyond_order_62(self, run):
        # search at order 63 would scan an astronomically large corpus, so
        # the record comes from the worker function directly
        path63 = build_family(parse_family_spec("path:63"))
        rec = cli._search_one(path63, "characterization", SolveLimits(max_nodes=1))
        assert rec["status"] == "budget_exceeded"
        assert rec["nodes"] > 1 and "reason" not in rec
        assert rec["id"].startswith("~??~")
        assert parse_graph6(rec["id"]).edges == path63.edges
        code, out, err = run(["analyze", "--g6", rec["id"], "--json"])
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

        monkeypatch.setattr(trees.Forest, "distances", property(refuse))

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
        """The order of every ball `Forest.ball` returns."""
        sizes = []
        ball = trees.Forest.ball

        def counted(self, v, radius=None):
            found = ball(self, v, radius)
            sizes.append(len(found))
            return found

        monkeypatch.setattr(trees.Forest, "ball", counted)
        return sizes

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

    def test_one_edge_naming_a_huge_order(self, run, monkeypatch, tmp_path):
        # the edge names vertex 10^9, so the order is 10^9 + 1; the edge
        # count must reject it before any per-vertex list is built
        forest_init = trees.Forest.__init__

        def bounded(self, n, *rest, **kw):
            if n > 10**6:
                raise AssertionError(f"per-vertex lists built for order {n}")
            forest_init(self, n, *rest, **kw)

        monkeypatch.setattr(trees.Forest, "__init__", bounded)
        p = tmp_path / "huge.txt"
        p.write_text("0 1000000000\n")
        code, out, err = run(["analyze", str(p)])
        assert code == 2 and out == ""
        assert err.startswith("error:")


def fresh_process(args, flags=()):
    """(exit code, stdout, stderr) of the command line in a new interpreter."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "bnbroadcast.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOptimizedMode:
    """Under `python -O` the assertion cross-checks are gone; the output must
    not change, so no result rests on them."""

    SPECS = (D14, "spider:5,1,6", "cat:leafcounts=2,1,2,0,3")

    def cli(self, flags, args):
        code, stdout, stderr = fresh_process(args, flags)
        out = json.loads(stdout)
        out.pop("timings", None)
        return code, out, stderr

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
