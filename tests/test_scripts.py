"""Smoke tests for the command-line scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_betweenness_family_verify():
    proc = run_script("betweenness_family.py", "--max-leg", "2",
                      "--max-bridge", "4", "--verify")
    assert proc.returncode == 0, proc.stderr
    assert "dspider:1,1/1/1,1" in proc.stdout


def test_betweenness_family_bad_argument():
    # a head with one leg is no branch vertex, so no double spider exists
    proc = run_script("betweenness_family.py", "--legs-per-head", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: each double-spider head needs at least 2 legs"
    ]
    proc = run_script("betweenness_family.py", "--legs-per-head", "-1")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
