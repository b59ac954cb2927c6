"""Command-line front end.

Subcommands: analyze (structural profile), bounds (bounds, formulas and
optional exact solve), witness (constructive lower-bound broadcast), verify
(check a broadcast file against a host), search (scan the enumerated corpus
for violations of a chosen claim), export-dot (Graphviz rendering).

A tree comes from the positional argument or from a --g6 string, not
both.  The positional argument is a family spec when it starts with a known
kind prefix, otherwise it names a file ('-' for stdin, which a --broadcast
file may not read as well) of graph6 or, unless its text looks like graph6
(`looks_like_graph6`), an edge list.  All structured output is
deterministic: identical inputs and limits give byte-identical JSON apart
from the timing fields.  Every per-tree output is the envelope (schema,
tool, input) followed by the command's fields (`_emit`), and a record's
object lists its fields in order.  `--json` prints the text of
`json.dumps(data, indent=2, sort_keys=True)`, written by `_dumps`.  The
only solver budget, --limits nodes=N, counts solver states, never time, so
a budget stops at the same state on every machine.

Exit codes: 0 success or recorded finding, 1 invalid broadcast, 2 parse or
usage error, 3 internal inconsistency (an implementation-bug signal, never
expected on released code paths), 141 (128 + SIGPIPE) when the reader of
stdout closes it early, as in `bnbroadcast search ... | head -1`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext
from functools import cache, partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .broadcasts import (
    Broadcast,
    _maximality_certificate,
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
    looks_like_graph6,
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
    _ClassTable,
    _SandwichEscape,
    _max_independent_set,
    bn_number_dp,
    compute_bounds,
    conjectured_upper_bound,
    hearing_number,
    independence_number,
    lower_bound_witness,
)
from .trees import Shape, classify_shape

SCHEMA = 4
TOOL = {"name": "bnbroadcast", "version": __version__}

PROVEN_CHECKS = ("sandwich", "characterization", "chain")
ALL_CHECKS = ("question1",) + PROVEN_CHECKS


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
    source = args.target
    if args.g6 is not None:
        if source is not None:
            raise BadSpec("give INPUT or --g6, not both")
        return parse_graph6(args.g6), {"kind": "graph6", "value": args.g6}
    if source is None:
        raise BadSpec("no input given (positional or --g6)")
    if source == "-" == getattr(args, "broadcast", None):
        raise BadSpec("INPUT and --broadcast cannot both read stdin")
    if looks_like_family(source):
        spec = parse_family_spec(source)
        return build_family(spec), {"kind": "family", "value": source}
    text = _read_text(source)
    kind = "stdin" if source == "-" else "file"
    if looks_like_graph6(text):
        return parse_graph6(text), {"kind": kind, "value": source, "format": "graph6"}
    return parse_edge_list(text), {"kind": kind, "value": source, "format": "edgelist"}


def _broadcast_dict(f: Broadcast):
    return {
        "strengths": f.strengths,
        "weight": f.weight,
        "broadcasters": f.broadcasters,
        "text": format_broadcast(f),
    }


def _emit(args, desc, **fields):
    """Print the envelope (schema, tool, input) followed by `fields`, as
    JSON under --json and as indented lines otherwise; returns exit code 0."""
    data = {"schema": SCHEMA, "tool": TOOL, "input": desc, **fields}
    if args.json:
        print(_dumps(data))
    else:
        for line in _human_lines(data):
            print(line)
    return 0


_INF = float("inf")


def _dumps(obj, nl="\n"):
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, where every
    dict key is a str; `nl` is the line break and indent of obj's own line.

    CPython's json writes indented text with its pure-Python encoder; this
    walk writes the same text in a fraction of the time.  A list of plain
    ints, and a list of int pairs such as `edges`, are written with one
    join each.  A value json cannot write raises TypeError, as it does in
    json.dumps; so does a key that is not a str, which json would convert.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # exact types: a bool is an int, but json writes it as a literal
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = sep.join(["%d"] * len(obj)) % tuple(obj)
        elif (kinds <= {list, tuple} and set(map(len, obj)) == {2}
              and set(map(type, chain.from_iterable(obj))) == {int}):
            pair = f"[{inner}  %d,{inner}  %d{inner}]"
            body = sep.join([pair] * len(obj)) % tuple(chain.from_iterable(obj))
        else:
            body = sep.join([_dumps(v, inner) for v in obj])
        return f"[{inner}{body}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                         for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{nl}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
    """The N of `--limits nodes=N`, the solvers' max_nodes; None without
    the option."""
    if text is None:
        return None
    key, _, val = text.partition("=")
    try:
        max_nodes = int(val)
    except ValueError:
        max_nodes = 0
    if key != "nodes" or max_nodes < 1:
        raise BadSpec(f"bad --limits {text!r} (want nodes=N with N >= 1)")
    return max_nodes


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args):
    tree, desc = _load_tree(args)
    p = tree.profile
    inner = p.interior
    alpha_int, _ = _max_independent_set(tree, inner)
    branch = sorted(p.branch)
    return _emit(
        args, desc,
        n=tree.n,
        edges=tree.edges,
        shapes=sorted(s.value for s in classify_shape(tree)),
        leaves=sorted(p.leaves),
        stems=sorted(p.stems),
        branch=branch,
        branch_count=len(branch),
        deg2_external=sorted(p.deg2_external),
        deg2_internal=sorted(p.deg2_internal),
        deg2_internal_count=len(p.deg2_internal),
        branch0=sorted(p.branch0),
        branch1=sorted(p.branch1),
        branch2plus=sorted(p.branch2plus),
        branch01_count=len(p.branch01),
        leaf_sets={str(b): sorted(p.leaf_distances[b]) for b in branch},
        loss={str(b): p.loss_table[b]._asdict() for b in branch},
        interior={
            "order": len(inner),
            "vertices": sorted(inner),
            "edges": [e for e in tree.edges if e[0] in inner and e[1] in inner],
            "independence": alpha_int,
        },
    )


def _report_dict(report):
    """The report's fields in order, each broadcast by _broadcast_dict;
    `formula` ({name, value} or null) stands for formula_name and
    formula_value."""
    out = {}
    for key, value in report._asdict().items():
        if key == "formula_name":
            out["formula"] = None if value is None else {
                "name": value, "value": report.formula_value}
        elif key != "formula_value":
            out[key] = _broadcast_dict(value) if isinstance(value, Broadcast) else value
    return out


def cmd_bounds(args):
    max_nodes = _parse_limits(args.limits)
    if max_nodes is not None and not args.exact:
        raise BadSpec("--limits applies to --exact only")
    tree, desc = _load_tree(args)
    t0 = time.perf_counter()
    report = compute_bounds(tree, max_nodes, exact=args.exact)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return _emit(args, desc, report=_report_dict(report),
                 timings={"total_ms": round(elapsed, 3)})


def cmd_witness(args):
    tree, desc = _load_tree(args)
    weight, f = lower_bound_witness(tree)
    return _emit(args, desc, weight=weight, bn_independent=True,
                 broadcast=_broadcast_dict(f))


def cmd_verify(args):
    tree, desc = _load_tree(args)
    f = parse_broadcast(_read_text(args.broadcast), tree)
    violation = bn_violation(f)
    bn_ok = violation is None
    hearing = hearing_violation(f)
    undominated, cert = _maximality_certificate(f)
    maximal = maximal_cert = None
    if bn_ok:
        maximal = cert is None
        if cert is not None:
            maximal_cert = {"kind": cert[0], "vertex": cert[1]}
    return _emit(
        args, desc,
        broadcast=_broadcast_dict(f),
        valid=True,
        dominating=not undominated,
        undominated=sorted(undominated),
        bn_independent=bn_ok,
        bn_violation=None if bn_ok else violation._asdict(),
        hearing_independent=hearing is None,
        hearing_violation=hearing,
        maximal_bn=maximal,
        maximal_certificate=maximal_cert,
    )


def dot_source(tree, f=None):
    """Graphviz text; broadcasters labeled v/strength, boundaries dashed.
    One ball is held at a time, so memory stays linear however they overlap."""
    strengths = f.strengths if f is not None else (0,) * tree.n
    boundary = set()
    for v, s in enumerate(strengths):
        if s:
            boundary.update(u for u, d in tree.ball(v, s).items() if d == s)
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


def _over_budget(rec, nodes):
    rec.update(status="budget_exceeded", nodes=nodes)
    return rec


def _check_tree(tree, check, max_nodes, classes):
    """One check on one tree: the search record, without its id.

    `classes` is the shard's class table, which every bn_number_dp call of
    the shard shares, the sandwich check's inside compute_bounds included
    (see bn_number_dp), or None for solves of their own."""
    rec = {"n": tree.n, "status": "solved", "violation": None}

    if check in ("question1", "sandwich") and not tree.profile.branch:
        rec["status"] = "not_applicable"
        return rec
    if check == "chain" and tree.n < 2:
        rec["status"] = "not_applicable"
        return rec

    if check == "sandwich":
        # compute_bounds checks the sandwich and the closed formulas; an
        # escape from the sandwich is recorded, a formula mismatch raises
        try:
            report = compute_bounds(tree, max_nodes, exact=True, classes=classes)
        except _SandwichEscape as exc:
            report = exc.report
            rec["violation"] = {"lower": report.lower, "exact": report.exact,
                                "upper": report.upper}
        if report.exact is None:
            return _over_budget(rec, report.nodes)
        rec.update(nodes=report.nodes, exact=report.exact,
                   lower=report.lower, upper=report.upper)
        return rec

    try:
        res = bn_number_dp(tree, max_nodes, classes=classes)
    except BudgetExceeded as exc:
        return _over_budget(rec, exc.nodes)
    rec["nodes"] = res.nodes
    exact = rec["exact"] = res.value

    if check == "question1":
        conjectured = conjectured_upper_bound(tree)
        rec["conjectured"] = conjectured
        if exact > conjectured:
            rec["violation"] = {"exact": exact, "conjectured": conjectured}
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
            hres = hearing_number(tree, max_nodes)
        except BudgetExceeded as exc:
            return _over_budget(rec, exc.nodes)
        rec["alpha"], rec["hearing"] = alpha, hres.value
        if not (alpha <= exact <= hres.value < 2 * exact):
            rec["violation"] = {
                "alpha": alpha,
                "bn": exact,
                "hearing": hres.value,
            }
    return rec


def _scan_shard(n, check, max_nodes, start=0, step=1):
    """Shard `start` of `step` of order n: the trees at positions start,
    start + step, ... of enumerate_trees(n), each checked by _check_tree
    with a class table of the shard's own.

    Returns the counts (trees, each status, violations), the question1
    margins, and the records to print as (position, record) pairs in
    position order.  Only these records carry the tree's graph6 id.
    """
    classes = _ClassTable()
    counts, margins, printed = Counter(), Counter(), []
    for pos, tree in islice(enumerate(enumerate_trees(n)), start, None, step):
        rec = _check_tree(tree, check, max_nodes, classes)
        status = rec["status"]
        counts["trees"] += 1
        counts[status] += 1
        if status == "budget_exceeded" or rec["violation"] is not None:
            rec["id"] = emit_graph6(tree)
            if status == "budget_exceeded":
                printed.append((pos, {"type": "budget_exceeded", **rec}))
            if rec["violation"] is not None:
                counts["violations"] += 1
                printed.append((pos, {"type": "violation", "check": check, **rec}))
        if check == "question1" and status == "solved":
            margins[str(rec["conjectured"] - rec["exact"])] += 1
    return counts, margins, printed


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _print_record(rec):
    print(json.dumps(rec, sort_keys=True))


def _log_info(msg, *args):
    """Log msg at INFO on the "bnbroadcast" logger, if logging is loaded.

    main imports logging only under BNB_LOG, and a caller that configures
    logging has loaded it too.  Without the module no handler exists, and
    logging's last-resort handler drops INFO anyway, so nothing is lost."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("bnbroadcast").info(msg, *args)


def cmd_search(args):
    if args.min_n < 1 or args.max_n < args.min_n:
        raise BadSpec("need 1 <= min-n <= max-n")
    if args.jobs < 1:
        raise BadSpec("--jobs must be at least 1")
    max_nodes = _parse_limits(args.limits)

    t0 = time.perf_counter()
    keys = ("trees", "solved", "budget_exceeded", "not_applicable", "violations")
    totals = dict.fromkeys(keys, 0)
    # shard s of J takes every J-th tree of an order from position s, so
    # the records do not depend on --jobs; the pool starts every worker at
    # once, so it gets no more of them than there are CPUs to run them
    jobs = min(args.jobs, _usable_cpus())
    if jobs > 1:
        # imported here: the process pool's modules would add about a third
        # to the start-up of every other command
        from concurrent.futures import ProcessPoolExecutor
        context = ProcessPoolExecutor(jobs)
    else:
        context = nullcontext()
    with context as pool:
        mapper = pool.map if pool else map
        for n in range(args.min_n, args.max_n + 1):
            counts, margins, printed = Counter(), Counter(), []
            scan = partial(_scan_shard, n, args.check, max_nodes, step=jobs)
            for c, m, p in mapper(scan, range(jobs)):
                counts += c
                margins += m
                printed += p
            # an order's records print when it ends, in enumeration order
            for _, rec in sorted(printed, key=itemgetter(0)):
                _print_record(rec)
            order = {"type": "order", "n": n, **{k: counts[k] for k in keys}}
            if args.check == "question1":
                order["margins"] = dict(margins)
            _print_record(order)
            _log_info("order %d: %d trees, %d solved, %d over budget, "
                      "%d violations", n, order["trees"], order["solved"],
                      order["budget_exceeded"], order["violations"])
            for key in keys:
                totals[key] += order[key]
    elapsed = (time.perf_counter() - t0) * 1000.0

    summary = {
        "type": "summary",
        "schema": SCHEMA,
        "tool": TOOL,
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


def _add_input_args(sub, json_option=True):
    sub.add_argument("target", nargs="?", default=None, metavar="INPUT",
                     help="family spec (kind:..., e.g. dspider:2,2/5/2,2) or file "
                     "path ('-' for stdin)")
    sub.add_argument("--g6", help="graph6 string")
    if json_option:
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
                   help="budget of --exact: at most N solver states")
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
                   help="worker processes, each checking every N-th tree of "
                   "an order; at most the usable CPUs (default 1)")
    s.set_defaults(func=cmd_search)

    s = subs.add_parser("export-dot", help="Graphviz DOT rendering")
    _add_input_args(s, json_option=False)
    s.add_argument("--broadcast", help="overlay this broadcast file")
    s.set_defaults(func=cmd_export_dot)

    return parser


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _log_level(text):
    """The logging level BNB_LOG names: one of _LOG_LEVELS in any case, or
    a decimal integer; anything else means INFO."""
    if text.upper() in _LOG_LEVELS:
        return text.upper()
    try:
        return int(text)
    except ValueError:
        return "INFO"


def main(argv=None) -> int:
    level = os.environ.get("BNB_LOG")
    if level:
        # imported only here, so that no other run pays for loading it
        import logging
        logging.basicConfig(
            level=_log_level(level),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # a reader that closed the pipe early shows up here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the interpreter's final flush stays silent, and exit as a
        # SIGPIPE'd process would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
