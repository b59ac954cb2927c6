"""Frozen per-tree outputs: one sha256 per command over a fixed input set.

Each hash covers, for every input, the exit code, stdout and stderr of the
command in JSON and in human-readable form, with the timing fields
dropped.  The inputs are every tree of order <= 9 (given by --g6) and
three family specs.  A change that should leave the outputs alone (a
refactor, a deletion) must pass this file unchanged; a change that alters
an output on purpose updates the hash and says why.
"""

import hashlib
import json

import pytest

from bnbroadcast import emit_graph6, enumerate_trees
from bnbroadcast.cli import main

SPECS = ("dspider:2,2/5/2,2", "cat:leafcounts=2,2,2,2", "spider:200,200,200")

FROZEN = {
    "analyze":
        "de727334f6ecbf1178453bbb676b68873e8f9abf06650721e1d4822caf48449c",
    "bounds":
        "2b6a5b9737af8f1d82458d1dc0f5e2393b3e9f1a84ab4558d2975a2619db14e7",
    "bounds --exact":
        "78bd72ee032cf2ca5ce235a4901fc2d50183637d750c7d7e127bf8508318fc6c",
    "witness":
        "7081c62687e7d30315e40e9e9985bf77b2786b252699b32a6de4eeafa27d1635",
}


def _inputs():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            yield ["--g6", emit_graph6(t)]
    for spec in SPECS:
        yield [spec]


def _untimed(out, as_json):
    if as_json and out:
        data = json.loads(out)
        data.pop("timings", None)
        return json.dumps(data, indent=2, sort_keys=True)
    return "\n".join(line for line in out.splitlines()
                     if line != "timings:" and not line.startswith("  total_ms:"))


@pytest.mark.parametrize("command", sorted(FROZEN))
def test_outputs_match_the_frozen_hash(command, capsys):
    digest = hashlib.sha256()
    for source in _inputs():
        for fmt in ([], ["--json"]):
            argv = command.split() + source + fmt
            code = main(argv)
            cap = capsys.readouterr()
            record = [argv, code, _untimed(cap.out, bool(fmt)), cap.err]
            digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == FROZEN[command]
