"""The benchmark's span tracer still finds every package name it wraps.

perfbench/tracing.py names its targets by string ("trees:Forest.distances",
"solve:bn_number*", ...), so renaming one of them breaks every traced
benchmark run.  Its "trees:Forest.*" targets resolve through the alias
`trees.Forest = Tree`, which the package keeps for them alone.  This runs two commands under the tracer in a fresh
interpreter and checks that the layers it expects recorded spans.

The benchmark's q1_scan check also reads its per-order values off the
spans: one `enumerate_trees` yield per tree, and one `bn_number*` and one
`conjectured_upper_bound` call per tree with a branch vertex.  A question1
scan that skips those calls fails here, not only in the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from collections import Counter
sys.path.insert(0, "perfbench")
import tracing
from bnbroadcast import cli

tracer = tracing.Tracer()
tracing.install(tracer)
codes = [cli.main(["bounds", "path:5", "--exact", "--json"]),
         cli.main(["search", "--max-n", "5"])]
spans = Counter(span[tracing.NAME] for span in tracer.spans)
print(json.dumps({"codes": codes, "spans": spans}))
"""


Q1_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import tracing
from bnbroadcast import cli

tracer = tracing.Tracer()
tracing.install(tracer)
code = cli.main(["search", "--check", "question1", "--max-n", "8"])
print(json.dumps({"code": code, "orders": tracing.q1_orders(tracer.spans)}))
"""


def traced(script):
    """The last stdout line of `script`, run from the repository root in a
    fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_commands_record_spans():
    result = traced(SCRIPT)
    assert result["codes"] == [0, 0]
    assert result["spans"].get("trees.distances", 0) >= 1
    assert result["spans"].get("solve.exact", 0) >= 1


def test_traced_question1_scan_matches_the_benchmark_references():
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text())
    result = traced(Q1_SCRIPT)
    assert result["code"] == 0
    want = {str(n): refs["q1_orders"][str(n)] for n in range(1, 9)}
    assert result["orders"] == want
