"""Seeded workload inputs for the bnbroadcast benchmark.

Every draw goes through `draw`, a SHA-256 of the key, so a seed gives the
same inputs on any Python version and machine.  The inputs of the two op
workloads are picked from pools recorded in refs.json together with their
reference outputs (see make_refs.py); the seed decides which pool entries
run and in which order.

* q1_scan: one `search --check question1` over every tree of order 1..N.
  The corpus is exhaustive, so the seed has no effect.
* families_exact: `bounds SPEC --exact --json` on family specs.  The pool
  is sorted by cost (the op's time, recorded by make_refs.py) and cut into
  consecutive pairs; the seed takes one spec of each pair.  Every seed therefore gets
  the same spread of solve costs, which keeps the latency percentiles
  comparable between seeds.  A fixed block of long paths and spiders
  runs first, including path:1100, which exhausts the recursion limit of the
  branch-and-bound solver: that op is expected to fail until the solver is
  fixed, and it counts as failed.  refs.json records the exception type as
  the op's known_failure; any other failure makes the run incorrect.
* large_structural: 25 random trees (decoded Prüfer sequences) of 100 to
  200 vertices, one per size slot, each read from an edge-list file by
  `analyze`, `bounds`, `witness`, and `verify` of that witness.  Each tree
  has four labellings in the pool (a random permutation of its vertices
  and of its edge lines); the seed takes one labelling per tree.  Trees
  of one size differ in cost by up to a third, so drawing the trees
  themselves by seed moved the latency percentiles from seed to seed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"

WORKLOADS = ("q1_scan", "families_exact", "large_structural")

Q1_MAX_N = 13
LARGE_SLOTS = tuple(100 + (100 * i + 12) // 24 for i in range(25))
LARGE_VARIANTS = 4
LONG_SPECS = (
    "path:400",
    "path:800",
    "spider:200,200,200",
    "spider:150,150,150,150",
    "spider:100,100,100,100,100,100,100",
    "path:1100",
)


def draw(*key) -> int:
    """Uniform 64-bit integer determined by `key` alone."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def prufer_edges(n: int, key: tuple) -> list:
    """Edges of the labelled tree on 0..n-1 whose Prüfer sequence is drawn from `key`."""
    seq = [draw(*key, i) % n for i in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)
    edges.append((u, w))
    return edges


def large_tree(slot: int, variant: int) -> list:
    """Edge lines of the slot's tree under the variant's labelling."""
    n = LARGE_SLOTS[slot]
    label = sorted(range(n), key=lambda v: draw("large-label", slot, variant, v))
    edges = [tuple(sorted((label[u], label[v]))) for u, v in prufer_edges(n, ("large", slot))]
    edges.sort(key=lambda e: draw("large-line", slot, variant, e))
    return edges


def load_refs() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


def q1_expect(refs: dict, max_n: int = Q1_MAX_N) -> dict:
    """Summary counts `search --check question1 --min-n 1 --max-n max_n` must print."""
    orders = [refs["q1_orders"][str(n)] for n in range(1, max_n + 1)]
    trees = sum(o["trees"] for o in orders)
    solved = sum(o["branch"] for o in orders)
    return {
        "trees": trees,
        "solved": solved,
        "not_applicable": trees - solved,
        "budget_exceeded": 0,
        "violations": 0,
    }


def q1_ops(seed: int, refs: dict) -> list:
    argv = ["search", "--check", "question1", "--min-n", "1",
            "--max-n", str(Q1_MAX_N), "--jobs", "1"]
    orders = {str(n): refs["q1_orders"][str(n)] for n in range(1, Q1_MAX_N + 1)}
    return [{"id": "scan", "argv": argv, "check": "search",
             "expect": q1_expect(refs, Q1_MAX_N), "expect_orders": orders}]


def families_ops(seed: int, refs: dict) -> list:
    pool = refs["families"]
    drawn = [pool[2 * k + draw(seed, "families", k) % 2] for k in range(len(pool) // 2)]
    drawn.sort(key=lambda e: draw(seed, "order", e["spec"]))
    # The long specs run first, in a fixed order, so the peak RSS they set
    # does not depend on which small specs ran before them.
    ops = [{"id": e["spec"], "argv": ["bounds", e["spec"], "--exact", "--json"],
            "check": "bounds", "expect": e["expect"]} for e in refs["long"] + drawn]
    for op, e in zip(ops, refs["long"]):
        if "known_failure" in e:
            op["known_failure"] = e["known_failure"]
    return ops


def large_ops(seed: int, refs: dict, workdir: Path) -> list:
    """Ops over edge-list files written into `workdir`, four per tree."""
    trees = [(slot, draw(seed, "large", slot) % LARGE_VARIANTS)
             for slot in range(len(LARGE_SLOTS))]
    trees.sort(key=lambda t: draw(seed, "order", t))
    ops = []
    for slot, variant in trees:
        key = f"{slot}/{variant}"
        expect = refs["large"][key]
        path = workdir / f"large-{slot}-{variant}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in large_tree(slot, variant)))
        bc = workdir / f"large-{slot}-{variant}.witness"
        name = str(path)
        ops.append({"id": f"{key}.analyze", "argv": ["analyze", name, "--json"],
                    "check": "analyze", "expect": expect["analyze"]})
        ops.append({"id": f"{key}.bounds", "argv": ["bounds", name, "--json"],
                    "check": "bounds", "expect": expect["bounds"]})
        ops.append({"id": f"{key}.witness", "argv": ["witness", name, "--json"],
                    "check": "witness", "expect": expect["witness"],
                    "save_broadcast": str(bc)})
        ops.append({"id": f"{key}.verify",
                    "argv": ["verify", name, "--broadcast", str(bc), "--json"],
                    "check": "verify", "expect": expect["verify"],
                    "needs": f"{key}.witness"})
    return ops


def build_ops(workload: str, seed: int, refs: dict, workdir: Path) -> list:
    if workload == "q1_scan":
        return q1_ops(seed, refs)
    if workload == "families_exact":
        return families_ops(seed, refs)
    if workload == "large_structural":
        return large_ops(seed, refs, workdir)
    raise ValueError(f"unknown workload {workload!r}")
