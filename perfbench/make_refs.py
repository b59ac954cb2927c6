"""Regenerate refs.json: the input pools and the reference outputs the
benchmark checks every op against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only when the pools or their references must change.  Every value
is produced by the package and then cross-checked once, here:

* tree counts per order against OEIS A000055;
* exact values against bn_number_restricted, against the closed formulas
  where one applies, and against bn_number_enum on orders up to 7;
* the long paths and spiders, whose exact solve may not finish, take their
  exact value from the closed formula n - 1;
* for the random trees, vertex degrees, branch and leaf-set counts, the
  upper bound and the witness's boundary independence are recomputed here
  from the edge list alone.

bn_number_restricted runs the same branch-and-bound engine as bn_number,
so it catches a wrong restriction but not a wrong engine.  An exact value
has an independent oracle only where bn_number_enum or a closed formula
covers it: in the question1 corpus, the 18 branch-vertex trees of orders
4 to 7 and 1210 of the 2257 of orders 8 to 13; in the family pool, 159 of
the 200 specs; and the six long specs.  The other exact values are checked
against the shared engine alone.

A long spec whose exact solve raises is recorded with the exception's type
as its known_failure; the benchmark tolerates that failure and no other.
Any disagreement stops the script before refs.json is written.

The family specs also get a cost: the op's time at the nominal host speed
(see speed.py), median of three sweeps over the pool.  The benchmark pairs
specs of like cost, so that every seed draws the same spread of op costs;
costs are only compared with each other.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from checks import observe  # noqa: E402
from worker import run_op  # noqa: E402

A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301)
FAMILY_POOL = 200
FAMILY_ORDERS = range(12, 25)
# Specs whose exact solve visits more nodes are left out of the pool, so that
# a pass over a draw stays short enough for several passes in one run.
FAMILY_MAX_NODES = 120_000


def cli_values(main, argv, check):
    seconds, rc, stdout, exc = run_op(main, argv)
    if exc is not None or rc != 0:
        raise SystemExit(f"{argv}: {exc or f'exit code {rc}'}")
    return observe(check, stdout), json.loads(stdout)


def family_candidate(i):
    """The i-th drawn family spec string."""
    def r(*key, lo, hi):
        return lo + workloads.draw("family-pool", i, *key) % (hi - lo + 1)

    def legs(tag, count, lo, hi):
        return ",".join(str(r(tag, j, lo=lo, hi=hi)) for j in range(count))

    kind = r("kind", lo=0, hi=4)
    if kind <= 1:
        return (f"dspider:{legs('a', r('ka', lo=2, hi=3), 1, 4)}/{r('b', lo=1, hi=8)}"
                f"/{legs('c', r('kc', lo=2, hi=3), 1, 4)}")
    if kind == 2:
        return f"cat:leafcounts={legs('l', r('m', lo=3, hi=8), 0, 3)}"
    if kind == 3:
        m = r("m", lo=3, hi=6)
        return f"cat:leafcounts={legs('l', m, 0, 3)};spacing={legs('s', m - 1, 1, 3)}"
    return f"spider:{legs('g', r('k', lo=3, hi=6), 1, 7)}"


def sweep_costs(main, argv_by_key, sweeps=3):
    """Key -> milliseconds its op takes at the nominal host speed: the median
    of `sweeps` sweeps over all keys, each scaled by the speed reference
    timed around it."""
    costs = {key: [] for key in argv_by_key}
    for _ in range(sweeps):
        reference = speed.measure(4 * speed.REFERENCES_PER_PASS)
        seconds = {key: run_op(main, argv)[0] for key, argv in argv_by_key.items()}
        reference += speed.measure(4 * speed.REFERENCES_PER_PASS)
        factor = speed.REFERENCE_NOMINAL_S / statistics.median(reference)
        for key, t in seconds.items():
            costs[key].append(t * factor)
    return {key: round(statistics.median(c) * 1000.0, 3) for key, c in costs.items()}


def check_exact(bn, tree, exact):
    """Cross-check one exact value; True when a closed formula covered it."""
    from bnbroadcast import bn_number_restricted
    from bnbroadcast.errors import ShapeMismatch
    from bnbroadcast.solve import caterpillar_value, path_spider_value, two_branch_value

    if bn_number_restricted(tree).value != exact:
        raise SystemExit(f"{bn}: restricted solver disagrees with exact {exact}")
    covered = False
    for formula in (path_spider_value, two_branch_value, caterpillar_value):
        try:
            value = formula(tree)
        except ShapeMismatch:
            continue
        if value != exact:
            raise SystemExit(f"{bn}: {formula.__name__} = {value} != exact {exact}")
        covered = True
    return covered


def family_pool(main):
    from bnbroadcast import build_family, parse_family_spec
    from bnbroadcast.errors import GraphError

    pool, seen, i, oracle = [], set(), 0, 0
    while len(pool) < FAMILY_POOL:
        spec = family_candidate(i)
        i += 1
        try:
            tree = build_family(parse_family_spec(spec))
        except GraphError:
            continue
        if spec in seen or tree.n not in FAMILY_ORDERS:
            continue
        seen.add(spec)
        expect, data = cli_values(main, ["bounds", spec, "--exact", "--json"], "bounds")
        if data["report"]["nodes"] > FAMILY_MAX_NODES:
            continue
        oracle += check_exact(spec, tree, expect["exact"])
        pool.append({"spec": spec, "nodes": data["report"]["nodes"], "expect": expect})
    costs = sweep_costs(main, {e["spec"]: ["bounds", e["spec"], "--exact", "--json"]
                               for e in pool})
    for e in pool:
        e["cost_ms"] = costs[e["spec"]]
    pool.sort(key=lambda e: (e["cost_ms"], e["spec"]))
    print(f"  {len(pool)} specs from {i} candidates; {oracle} covered by a closed formula")
    return pool


def long_specs(main):
    from bnbroadcast import build_family, parse_family_spec

    out = []
    for spec in workloads.LONG_SPECS:
        tree = build_family(parse_family_spec(spec))
        expect, _ = cli_values(main, ["bounds", spec, "--json"], "bounds")
        expect["exact"] = expect["witness_exact"] = tree.n - 1
        if expect["formula"] != ["path_spider", tree.n - 1]:
            raise SystemExit(f"{spec}: formula {expect['formula']}")
        seconds, rc, stdout, exc = run_op(main, ["bounds", spec, "--exact", "--json"])
        if exc is None and rc == 0 and observe("bounds", stdout) != expect:
            raise SystemExit(f"{spec}: exact run disagrees with the formula")
        print(f"  {spec}: exact {tree.n - 1}; solver run: {exc or 'ok'}")
        entry = {"spec": spec, "expect": expect}
        if exc is not None:
            entry["known_failure"] = exc.partition(":")[0]
        elif rc != 0:
            raise SystemExit(f"{spec}: exact run exited {rc}")
        out.append(entry)
    return out


def _bfs(adj, s):
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def structure(n, edges, strengths):
    """Degree counts, upper bound and edge-cover independence from edges alone."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    branch = [v for v in range(n) if deg[v] >= 3]
    leaf_sets = Counter()
    for leaf in (v for v in range(n) if deg[v] == 1):
        prev, cur = leaf, adj[leaf][0]
        while deg[cur] == 2:
            prev, cur = cur, adj[cur][0] if adj[cur][1] == prev else adj[cur][1]
        if deg[cur] >= 3:
            leaf_sets[cur] += 1
    branch01 = sum(1 for b in branch if leaf_sets[b] <= 1)
    covered = Counter()
    for x, s in enumerate(strengths):
        if s:
            d = _bfs(adj, x)
            for u, v in edges:
                if d[u] <= s and d[v] <= s and not (d[u] == s and d[v] == s):
                    covered[u, v] += 1
    return {
        "n": n,
        "leaves": sum(1 for v in range(n) if deg[v] == 1),
        "branch_count": len(branch),
        "branch01_count": branch01,
        "upper": n - len(branch) + branch01,
        "independent": all(c <= 1 for c in covered.values()),
    }


def large_pool(main, workdir):
    refs = {}
    for slot, n in enumerate(workloads.LARGE_SLOTS):
        for variant in range(workloads.LARGE_VARIANTS):
            edges = workloads.large_tree(slot, variant)
            path = workdir / "refs-tree.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in edges))
            bc = workdir / "refs-tree.witness"
            analyze, _ = cli_values(main, ["analyze", str(path), "--json"], "analyze")
            bounds, _ = cli_values(main, ["bounds", str(path), "--json"], "bounds")
            witness, data = cli_values(main, ["witness", str(path), "--json"], "witness")
            bc.write_text(data["broadcast"]["text"] + "\n")
            verify, _ = cli_values(
                main, ["verify", str(path), "--broadcast", str(bc), "--json"], "verify")
            own = structure(n, edges, data["broadcast"]["strengths"])
            key = f"{slot}/{variant}"
            if not (own["independent"] and verify["bn_independent"]
                    and witness["bn_independent"]):
                raise SystemExit(f"{key}: witness not boundary independent")
            for name, got in (("n", analyze["n"]), ("leaves", analyze["leaves"]),
                              ("branch_count", analyze["branch_count"]),
                              ("branch01_count", analyze["branch01_count"]),
                              ("upper", bounds["upper"])):
                if own[name] != got:
                    raise SystemExit(f"{key}: {name} {got} != recomputed {own[name]}")
            if not bounds["lower"] == witness["weight"] == verify["weight"] == bounds["witness_lower"]:
                raise SystemExit(f"{key}: lower bound and witness weights disagree")
            refs[key] = {"analyze": analyze, "bounds": bounds, "witness": witness,
                         "verify": verify}
        print(f"  large slot {slot} (n={n}) done")
    return refs


def q1_orders():
    from bnbroadcast import (bn_number, bn_number_enum, conjectured_upper_bound,
                             enumerate_trees)

    orders = {}
    for n in range(1, len(A000055) + 1):
        o = {"trees": 0, "branch": 0, "exact_sum": 0, "margins": Counter()}
        for tree in enumerate_trees(n):
            o["trees"] += 1
            if not tree.profile.branch:
                continue
            exact = bn_number(tree).value
            check_exact(f"order {n} tree {tree.edges}", tree, exact)
            if n <= 7 and bn_number_enum(tree).value != exact:
                raise SystemExit(f"order {n}: enumeration oracle disagrees")
            o["branch"] += 1
            o["exact_sum"] += exact
            o["margins"][str(conjectured_upper_bound(tree) - exact)] += 1
        if o["trees"] != A000055[n - 1]:
            raise SystemExit(f"order {n}: {o['trees']} trees, A000055 says {A000055[n - 1]}")
        o["margins"] = dict(sorted(o["margins"].items(), key=lambda kv: int(kv[0])))
        orders[str(n)] = o
        print(f"  order {n}: {o['trees']} trees")
    return orders


def main():
    from bnbroadcast import cli

    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    refs = {"generated_by": "perfbench/make_refs.py"}
    print("question1 orders")
    refs["q1_orders"] = q1_orders()
    print("family pool")
    refs["families"] = family_pool(cli.main)
    print("long specs")
    refs["long"] = long_specs(cli.main)
    print("large pool")
    refs["large"] = large_pool(cli.main, workdir)
    workloads.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS}")


if __name__ == "__main__":
    main()
