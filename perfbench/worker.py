"""One pass of a workload's ops, in a fresh single-threaded process.

    python perfbench/worker.py OPS.json RESULT.json [SPANS.jsonl]

Each op is one in-process `bnbroadcast.cli.main(argv)` call with stdout
and stderr captured; the timer covers the call alone.  After the call the
output is checked against the op's reference (outside the timer).  An op
fails when it raises, exits nonzero, or prints a value that differs from
the reference; the last kind is also recorded as a mismatch.  An op that
raises the exception type recorded as its known_failure is recorded as
known_failure instead of error.

Without SPANS.jsonl the worker also times the speed reference after every
op, outside the op's timer (see speed.py), and returns those times.

With SPANS.jsonl the package is traced (see tracing.py) and the spans are
written there when the pass ends; the result then also holds the measured
cost of one span.  The package is imported from
PYTHONPATH, which the benchmark points at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import mismatches, observe  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def run_op(main, argv):
    """(seconds, exit code or None, stdout, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    exc_text = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # the op failed; record it and go on
            exc_text = f"{type(exc).__name__}: {str(exc)[:200]}"
        seconds = perf_counter() - t0
    return seconds, rc, out.getvalue(), exc_text


def check_op(op, rc, stdout, exc_text, tracer=None):
    """(status, detail): ok, known_failure, error, exit or mismatch."""
    if exc_text is not None:
        known = op.get("known_failure")
        if known is not None and exc_text.startswith(f"{known}:"):
            return "known_failure", exc_text
        return "error", exc_text
    if rc != 0:
        return "exit", f"exit code {rc}"
    try:
        bad = mismatches(observe(op["check"], stdout), op["expect"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "mismatch", f"unreadable output: {type(exc).__name__}: {exc}"
    if tracer is not None and "expect_orders" in op:
        spans = [s for s in tracer.spans if s[tracing.OP] == op["id"]]
        got = tracing.q1_orders(spans)
        bad += [f"order {n}: got {got.get(n)!r}, want {want!r}"
                for n, want in op["expect_orders"].items() if got.get(n) != want]
    return ("mismatch", "; ".join(bad)) if bad else ("ok", "")


def run_pass(ops, main, tracer=None, reference=None):
    """Records of one pass over `ops`; with a `reference` list, the speed
    reference is timed after every op (outside its timer) into that list."""
    records = []
    status_of = {}
    for op in ops:
        need = op.get("needs")
        if need is not None and status_of.get(need) != "ok":
            records.append({"id": op["id"], "seconds": None, "status": "error",
                            "detail": f"input op {need} did not succeed"})
            status_of[op["id"]] = "error"
            continue
        if tracer is not None:
            tracer.op = op["id"]
        seconds, rc, stdout, exc_text = run_op(main, op["argv"])
        if tracer is not None:
            tracer.op = None
        if reference is not None:
            reference.extend(speed.after_op(seconds))
        status, detail = check_op(op, rc, stdout, exc_text, tracer)
        if status == "ok" and "save_broadcast" in op:
            text = json.loads(stdout)["broadcast"]["text"]
            Path(op["save_broadcast"]).write_text(text + "\n", encoding="utf-8")
        status_of[op["id"]] = status
        records.append({"id": op["id"], "seconds": seconds, "status": status,
                        "detail": detail})
    return records


def main(argv):
    ops_path, result_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[2]) if len(argv) > 2 else None
    ops = json.loads(ops_path.read_text(encoding="utf-8"))

    from bnbroadcast import cli

    run_op(cli.main, ["analyze", "path:3", "--json"])  # warm-up, not timed
    tracer, reference = None, []
    if spans_path is not None:
        tracer, reference = tracing.Tracer(), None
        tracing.install(tracer)
    records = run_pass(ops, cli.main, tracer, reference)
    result = {"assertions": __debug__, "ops": records, "reference": reference}
    if tracer is not None:
        result["span_cost"] = tracing.span_cost()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
