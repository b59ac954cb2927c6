"""Command-line front end.

Subcommands: analyze (structural profile), bounds (bounds, formulas and
optional exact solve), witness (constructive lower-bound broadcast), verify
(check a broadcast file against a host), search (scan the enumerated corpus
for violations of a chosen claim), export-dot (Graphviz rendering).

A tree comes from the positional argument or from a --g6 string.  The
positional argument is a family spec when it starts with a known kind
prefix, otherwise it names a file ('-' for stdin).  All structured output
is deterministic: identical inputs and limits give byte-identical JSON
apart from the timing fields.  The only solver budget, --limits nodes=N,
counts solver states, never time, so a budget stops at the same state on
every machine.

Exit codes: 0 success or recorded finding, 1 invalid broadcast, 2 parse or
usage error, 3 internal inconsistency (an implementation-bug signal, never
expected on released code paths).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import cache, partial
from itertools import islice

from . import __version__
from .broadcasts import (
    Broadcast,
    _maximality_certificate,
    _undominated,
    analyze,
    bn_violation,
    format_broadcast,
    hearing_violation,
    parse_broadcast,
)
from .corpus import (
    build_family,
    emit_graph6,
    enumerate_trees,
    looks_like_family,
    parse_edge_list,
    parse_family_spec,
    parse_graph6,
)
from .errors import (
    BadSpec,
    BudgetExceeded,
    GraphError,
    InternalInconsistency,
    InvalidBroadcast,
    NotBnIndependent,
    ParseError,
)
from .solve import (
    SolveLimits,
    bn_number_dp,
    compute_bounds,
    conjectured_upper_bound,
    hearing_number,
    independence_number,
    lower_bound_witness,
    upper_bound,
)
from .trees import Shape, classify_shape

log = logging.getLogger("bnbroadcast")

SCHEMA = 4

PROVEN_CHECKS = ("sandwich", "characterization", "chain")
ALL_CHECKS = ("question1",) + PROVEN_CHECKS


def _tool():
    return {"name": "bnbroadcast", "version": __version__}


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _load_tree(args):
    """Resolve the input flags to (tree, descriptor)."""
    if getattr(args, "g6", None):
        return parse_graph6(args.g6), {"kind": "graph6", "value": args.g6}
    source = args.target
    if source is None:
        raise BadSpec("no input given (positional or --g6)")
    if looks_like_family(source):
        spec = parse_family_spec(source)
        return build_family(spec), {"kind": "family", "value": source}
    text = _read_text(source)
    kind = "stdin" if source == "-" else "file"
    desc = {"kind": kind, "value": source, "format": args.format}
    if args.format == "graph6":
        return parse_graph6(text), desc
    return parse_edge_list(text), desc


def _broadcast_dict(f: Broadcast):
    return {
        "strengths": list(f.strengths),
        "weight": f.weight,
        "broadcasters": list(f.broadcasters),
        "text": format_broadcast(f),
    }


def _emit(data, args):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in _human_lines(data):
            print(line)


def _human_lines(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, dict) and v:
                yield f"{indent}{k}:"
                yield from _human_lines(v, indent + "  ")
            else:
                yield f"{indent}{k}: {_scalar(v)}"
    else:
        yield f"{indent}{_scalar(obj)}"


def _scalar(v):
    if isinstance(v, (dict, list, tuple)) or v is None or isinstance(v, bool):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _parse_limits(text):
    """`--limits nodes=N` as SolveLimits, None without the option."""
    if text is None:
        return None
    key, eq, val = text.partition("=")
    try:
        if key != "nodes" or not eq:
            raise ValueError
        return SolveLimits(max_nodes=int(val))
    except ValueError:
        raise BadSpec(f"bad --limits {text!r} (want nodes=N with N >= 1)") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args):
    tree, desc = _load_tree(args)
    p = tree.profile
    alpha_int, _ = independence_number(p.interior)
    data = {
        "schema": SCHEMA,
        "tool": _tool(),
        "input": desc,
        "n": tree.n,
        "edges": [list(e) for e in tree.edges],
        "shapes": sorted(s.value for s in classify_shape(tree)),
        "leaves": sorted(p.leaves),
        "stems": sorted(p.stems),
        "branch": sorted(p.branch),
        "branch_count": len(p.branch),
        "deg2_external": sorted(p.deg2_external),
        "deg2_internal": sorted(p.deg2_internal),
        "deg2_internal_count": len(p.deg2_internal),
        "branch0": sorted(p.branch0),
        "branch1": sorted(p.branch1),
        "branch2plus": sorted(p.branch2plus),
        "branch01_count": len(p.branch01),
        "leaf_sets": {str(b): sorted(p.leaf_sets[b]) for b in sorted(p.branch)},
        "loss": {
            str(b): {
                "farthest": p.loss_table[b].farthest,
                "total": p.loss_table[b].total,
                "loss": p.loss_table[b].loss,
            }
            for b in sorted(p.branch)
        },
        "interior": {
            "order": p.interior.n,
            "vertices": list(p.interior.labels),
            "edges": [
                sorted([p.interior.labels[u], p.interior.labels[v]])
                for u, v in p.interior.edges
            ],
            "independence": alpha_int,
        },
    }
    _emit(data, args)
    return 0


def _report_dict(report):
    out = {
        "n": report.n,
        "branch_count": report.branch_count,
        "branch01_count": report.branch01_count,
        "deg2_internal_count": report.deg2_internal_count,
        "interior_independence": report.interior_independence,
        "lower": report.lower,
        "upper": report.upper,
        "conjectured": report.conjectured,
        "formula": None,
        "exact": report.exact,
        "exact_status": report.exact_status,
        "nodes": report.nodes,
        "witness_lower": None,
        "witness_exact": None,
        "conjecture_ok": report.conjecture_ok,
    }
    if report.formula_name is not None:
        out["formula"] = {"name": report.formula_name, "value": report.formula_value}
    if report.witness_lower is not None:
        out["witness_lower"] = _broadcast_dict(report.witness_lower)
    if report.witness_exact is not None:
        out["witness_exact"] = _broadcast_dict(report.witness_exact)
    return out


def cmd_bounds(args):
    tree, desc = _load_tree(args)
    limits = _parse_limits(args.limits)
    t0 = time.perf_counter()
    report = compute_bounds(tree, limits, exact=args.exact)
    elapsed = (time.perf_counter() - t0) * 1000.0
    data = {
        "schema": SCHEMA,
        "tool": _tool(),
        "input": desc,
        "report": _report_dict(report),
        "timings": {"total_ms": round(elapsed, 3)},
    }
    _emit(data, args)
    return 0


def cmd_witness(args):
    tree, desc = _load_tree(args)
    weight, f = lower_bound_witness(tree)
    data = {
        "schema": SCHEMA,
        "tool": _tool(),
        "input": desc,
        "weight": weight,
        "bn_independent": True,
        "broadcast": _broadcast_dict(f),
    }
    _emit(data, args)
    return 0


def cmd_verify(args):
    tree, desc = _load_tree(args)
    f = parse_broadcast(_read_text(args.broadcast), tree)
    violation = bn_violation(f)
    bn_ok = violation is None
    hearing = hearing_violation(f)

    maximal = None
    maximal_cert = None
    if bn_ok:
        a = analyze(f)
        undominated = a.undominated
        cert = _maximality_certificate(f, a)
        maximal = cert is None
        if not maximal:
            kind, v = cert
            maximal_cert = {"kind": kind, "vertex": v}
    else:
        # the balls overlap, so reading them all could take O(n^2)
        undominated = _undominated(f)

    data = {
        "schema": SCHEMA,
        "tool": _tool(),
        "input": desc,
        "broadcast": _broadcast_dict(f),
        "valid": True,
        "dominating": not undominated,
        "undominated": sorted(undominated),
        "bn_independent": bn_ok,
        "bn_violation": None
        if bn_ok
        else {
            "u": violation.u,
            "v": violation.v,
            "vertex": violation.vertex,
            "edge": list(violation.edge),
        },
        "hearing_independent": hearing is None,
        "hearing_violation": None if hearing is None else list(hearing),
        "maximal_bn": maximal,
        "maximal_certificate": maximal_cert,
    }
    _emit(data, args)
    return 0


def dot_source(tree, f=None):
    """Graphviz text; broadcasters labeled v/strength, boundaries dashed."""
    strengths = f.strengths if f is not None else (0,) * tree.n
    boundary = set()
    if f is not None:
        boundary.update(*analyze(f).boundary.values())
    lines = ["graph tree {", "  node [shape=circle];"]
    for v in range(tree.n):
        attrs = []
        if strengths[v] > 0:
            attrs.append(f'label="{v}/{strengths[v]}"')
            attrs.append("penwidth=2")
        else:
            attrs.append(f'label="{v}"')
        if v in boundary and strengths[v] == 0:
            attrs.append("style=dashed")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in sorted(tree.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args):
    tree, _ = _load_tree(args)
    f = None
    if args.broadcast:
        f = parse_broadcast(_read_text(args.broadcast), tree)
    sys.stdout.write(dot_source(tree, f))
    return 0


# ---------------------------------------------------------------------------
# corpus search


def _over_budget(rec, exc):
    rec.update(status="budget_exceeded", nodes=exc.nodes)
    return rec


def _check_tree(tree, check, limits):
    """One check on one tree: the search record, without its id."""
    rec = {"n": tree.n, "status": "solved", "violation": None}
    p = tree.profile

    if check in ("question1", "sandwich") and not p.branch:
        rec["status"] = "not_applicable"
        return rec
    if check == "chain" and tree.n < 2:
        rec["status"] = "not_applicable"
        return rec

    try:
        res = bn_number_dp(tree, limits)
    except BudgetExceeded as exc:
        return _over_budget(rec, exc)
    rec["nodes"] = res.nodes
    exact = rec["exact"] = res.value

    if check == "question1":
        conjectured = conjectured_upper_bound(tree)
        rec["conjectured"] = conjectured
        if exact > conjectured:
            rec["violation"] = {"exact": exact, "conjectured": conjectured}
    elif check == "sandwich":
        lower, _ = lower_bound_witness(tree)
        upper = upper_bound(tree)
        rec["lower"], rec["upper"] = lower, upper
        if not lower <= exact <= upper:
            rec["violation"] = {"lower": lower, "exact": exact, "upper": upper}
    elif check == "characterization":
        path_or_spider = bool(
            classify_shape(tree) & {Shape.PATH, Shape.SPIDER}
        )
        if (exact == tree.n - 1) != path_or_spider:
            rec["violation"] = {
                "exact": exact,
                "n_minus_1": tree.n - 1,
                "path_or_spider": path_or_spider,
            }
    elif check == "chain":
        alpha, _ = independence_number(tree)
        try:
            hres = hearing_number(tree, limits)
        except BudgetExceeded as exc:
            return _over_budget(rec, exc)
        rec["alpha"], rec["hearing"] = alpha, hres.value
        if not (alpha <= exact <= hres.value < 2 * exact):
            rec["violation"] = {
                "alpha": alpha,
                "bn": exact,
                "hearing": hres.value,
            }
    return rec


def _search_one(tree, check, limits):
    """Evaluate one check on one tree; returns a picklable record.

    Only the records that get printed (budget exceeded or violation) carry
    the tree's graph6 id.
    """
    rec = _check_tree(tree, check, limits)
    if rec["status"] == "budget_exceeded" or rec["violation"] is not None:
        rec["id"] = emit_graph6(tree)
    return rec


def _pool_map(pool, fn, trees):
    """pool.map over a stream of trees in batches of 1024.

    Executor.map submits its whole input at once; batching keeps the trees
    held by the pool bounded however large an order is.
    """
    while chunk := list(islice(trees, 1024)):
        yield from pool.map(fn, chunk, chunksize=8)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _print_record(rec):
    print(json.dumps(rec, sort_keys=True))


def cmd_search(args):
    if args.min_n < 1 or args.max_n < args.min_n:
        raise BadSpec("need 1 <= min-n <= max-n")
    if args.jobs < 1:
        raise BadSpec("--jobs must be at least 1")
    work = partial(_search_one, check=args.check,
                   limits=_parse_limits(args.limits))

    t0 = time.perf_counter()
    keys = ("trees", "solved", "budget_exceeded", "not_applicable", "violations")
    totals = dict.fromkeys(keys, 0)
    # the records do not depend on --jobs; the pool starts every worker at
    # once, so it gets no more of them than there are CPUs to run them
    jobs = min(args.jobs, _usable_cpus())
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        mapper = partial(_pool_map, pool) if pool else map
        for n in range(args.min_n, args.max_n + 1):
            order = {"type": "order", "n": n, **dict.fromkeys(keys, 0)}
            margins = Counter()
            for rec in mapper(work, enumerate_trees(n)):
                order["trees"] += 1
                order[rec["status"]] += 1
                if rec["status"] == "budget_exceeded":
                    _print_record({"type": "budget_exceeded", **rec})
                if rec["violation"] is not None:
                    order["violations"] += 1
                    _print_record({"type": "violation", "check": args.check, **rec})
                if args.check == "question1" and rec["status"] == "solved":
                    margins[str(rec["conjectured"] - rec["exact"])] += 1
            if args.check == "question1":
                order["margins"] = dict(margins)
            _print_record(order)
            log.info("order %d: %d trees, %d solved, %d over budget, %d violations",
                     n, order["trees"], order["solved"],
                     order["budget_exceeded"], order["violations"])
            for key in keys:
                totals[key] += order[key]
    elapsed = (time.perf_counter() - t0) * 1000.0

    summary = {
        "type": "summary",
        "schema": SCHEMA,
        "tool": _tool(),
        "check": args.check,
        "min_n": args.min_n,
        "max_n": args.max_n,
        **totals,
        "elapsed_ms": round(elapsed, 3),
    }
    _print_record(summary)

    violations = totals["violations"]
    if violations and args.check in PROVEN_CHECKS:
        print(
            f"error: {violations} violation(s) of proven result "
            f"'{args.check}' (implementation bug)",
            file=sys.stderr,
        )
        return 3
    if violations:
        print(
            f"FINDING: {violations} tree(s) exceed the conjectured bound; "
            "see violation records above",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_input_args(sub):
    sub.add_argument("target", nargs="?", default=None, metavar="INPUT",
                     help="family spec (kind:..., e.g. dspider:2,2/5/2,2) or file "
                     "path ('-' for stdin)")
    sub.add_argument("--g6", help="graph6 string")
    sub.add_argument("--format", choices=("edgelist", "graph6"),
                     default="edgelist", help="file format (default edgelist)")
    sub.add_argument("--json", action="store_true", help="emit JSON")


@cache
def build_parser():
    """The argument parser, built once per process and shared, so callers
    must not change it.

    parse_args returns a fresh namespace on every call, and argparse looks
    up sys.stdout and sys.stderr only when it prints, so one parser serves
    every main() call."""
    parser = argparse.ArgumentParser(
        prog="bnbroadcast",
        description="Boundary-independent broadcasts on trees: exact values, "
        "bounds, witnesses, and corpus searches.",
    )
    parser.add_argument("--version", action="version",
                        version=f"bnbroadcast {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("analyze", help="structural profile of a tree")
    _add_input_args(s)
    s.set_defaults(func=cmd_analyze)

    s = subs.add_parser("bounds", help="bounds, formulas, optional exact value")
    _add_input_args(s)
    s.add_argument("--exact", action="store_true", help="run the exact solver")
    s.add_argument("--limits", metavar="nodes=N",
                   help="solver budget: at most N solver states")
    s.set_defaults(func=cmd_bounds)

    s = subs.add_parser("witness", help="constructive lower-bound broadcast")
    _add_input_args(s)
    s.set_defaults(func=cmd_witness)

    s = subs.add_parser("verify", help="check a broadcast file against a host")
    _add_input_args(s)
    s.add_argument("--broadcast", required=True,
                   help="file of v:strength tokens ('-' for stdin)")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("search", help="scan all trees in a range for violations")
    s.add_argument("--min-n", type=int, default=1)
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--check", choices=ALL_CHECKS, default="question1")
    s.add_argument("--limits", metavar="nodes=N",
                   help="per-tree solver budget: at most N solver states")
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes across trees, at most the usable "
                   "CPUs (default 1)")
    s.set_defaults(func=cmd_search)

    s = subs.add_parser("export-dot", help="Graphviz DOT rendering")
    _add_input_args(s)
    s.add_argument("--broadcast", help="overlay this broadcast file")
    s.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("BNB_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidBroadcast, NotBnIndependent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
