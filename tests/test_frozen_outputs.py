"""Frozen per-tree outputs: one sha256 per command over a fixed input set.

Each hash covers, for every input, the exit code and the bytes the command
printed on stdout and stderr, in JSON and in human-readable form, with
only the timing block cut out as text.  Nothing is parsed and written
again, so a change of whitespace, key order or escaping in the printed
JSON changes the hash.  The inputs are every tree of order <= 9 (given
by --g6), three family specs, and one hand-written edge-list file with
comments, blank lines, CRLF line ends, tabs and reversed pairs.  `verify`
checks two broadcasts on each input: every vertex at strength 1, and the
lower-bound witness where the tree has one.  A change that should leave
the outputs alone (a refactor, a deletion) must pass this file unchanged;
a change that alters an output on purpose updates the hash and says why.
"""

import hashlib
import json
import re

import pytest

from bnbroadcast import emit_graph6, enumerate_trees
from bnbroadcast.broadcasts import format_broadcast
from bnbroadcast.cli import _load_tree, build_parser, main
from bnbroadcast.solve import lower_bound_witness

SPECS = ("dspider:2,2/5/2,2", "cat:leafcounts=2,2,2,2", "spider:200,200,200")

EDGE_FILE = "mixed.edges"
EDGE_TEXT = (b"# a tree of order 9\r\n0 1\r\n\r\n2\t1  # reversed\r\n1 3\r\n"
             b"   \r\n3\t4\r\n5 3\r\n# two more branches\r\n4 6\r\n7 4\r\n6 8\r\n")
BROADCAST_FILE = "broadcast.txt"

FROZEN = {
    "analyze":
        "626e4d5ccb911b20fe9b80759c35a669c9a084377c52425274a58e76da54ede8",
    "bounds":
        "04de177986247b69e4e8f6e5698bb852459f9d5dce0a1511f36c7a0292abd2e2",
    "bounds --exact":
        "5f4ead05a4060686ca44daf161430f813b828a87e09a3bd1eae228ae31354bdc",
    "verify":
        "be009819f1ec01a28d13cafb67751322ba077557a3bb9f1852559a1f95823296",
    "witness":
        "7bedced0934805c8cb14e330433a3524a1ad272d0d631614554796c67a65799f",
}

# the timing block, as `json.dumps(..., indent=2, sort_keys=True)` and
# the human-readable form print it
TIMINGS_JSON = re.compile(r'\n  "timings": \{\n    "total_ms": [^\n]*\n  \},')
TIMINGS_HUMAN = re.compile(r"\ntimings:\n  total_ms: [^\n]*")


def _inputs():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            yield ["--g6", emit_graph6(t)]
    for spec in SPECS:
        yield [spec]
    yield [EDGE_FILE]


def _broadcasts(source):
    """The texts `verify` checks on the input: every vertex at strength 1,
    then the lower-bound witness where the tree has a branch vertex."""
    tree, _ = _load_tree(build_parser().parse_args(["analyze", *source]))
    texts = [" ".join(f"{v}:1" for v in range(tree.n))]
    if tree.profile.branch:
        texts.append(format_broadcast(lower_bound_witness(tree)[1]))
    return texts


def _runs(command):
    """The argument lists of one command over the inputs; verify writes
    each broadcast to BROADCAST_FILE before its run."""
    for source in _inputs():
        if command != "verify":
            yield command.split() + source, None
            continue
        for text in _broadcasts(source):
            yield ["verify", *source, "--broadcast", BROADCAST_FILE], text


@pytest.mark.parametrize("command", sorted(FROZEN))
def test_outputs_match_the_frozen_hash(command, capsys, tmp_path, monkeypatch):
    # relative file names, so that the paths printed do not depend on the
    # temporary directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / EDGE_FILE).write_bytes(EDGE_TEXT)
    digest = hashlib.sha256()
    for argv, broadcast in _runs(command):
        if broadcast is not None:
            (tmp_path / BROADCAST_FILE).write_text(broadcast + "\n")
        for fmt in ([], ["--json"]):
            code = main(argv + fmt)
            cap = capsys.readouterr()
            out = (TIMINGS_JSON if fmt else TIMINGS_HUMAN).sub("", cap.out)
            assert "total_ms" not in out
            digest.update(json.dumps([argv + fmt, code, broadcast]).encode())
            digest.update(b"\0" + out.encode() + b"\0" + cap.err.encode() + b"\0")
    assert digest.hexdigest() == FROZEN[command]
