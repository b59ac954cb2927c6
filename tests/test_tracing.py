"""The benchmark's span tracer still finds every package name it wraps.

perfbench/tracing.py names its targets by string ("trees:Forest.distances",
"solve:bn_number*", ...), so renaming one of them breaks every traced
benchmark run.  This runs two commands under the tracer in a fresh
interpreter and checks that the layers it expects recorded spans.
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


def test_traced_commands_record_spans():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["spans"].get("trees.distances", 0) >= 1
    assert result["spans"].get("solve.exact", 0) >= 1
