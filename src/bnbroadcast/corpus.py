"""Tree corpora: exhaustive non-isomorphic enumeration, parametric
families, and text interchange formats.

Enumeration follows Wright, Richmond, Odlyzko and McKay, "Constant time
generation of free trees" (SIAM J. Comput. 15, 1986).  It walks canonical
level sequences of rooted trees with the successor rule of Beyer and
Hedetniemi (drop the last level above 2 to its parent's level and tile the
tail periodically from there), starting at the path rooted at its centre,
and visits only the primary ones: those rooted at a centre, with a fixed
choice between the two centres of a bicentral tree.  Every free tree comes
out exactly once, and no sequence is generated only to be rejected.  The
paper's in-place version takes constant amortized time per tree; the list
version here takes O(n), no more than building the `Tree` does.

Family builders use documented labelings: heads and spine vertices take the
lowest indices, then bridge or spacing chains, then leaves, each group in
declaration order.  This keeps golden outputs readable and stable.

Interchange formats are a plain "u v" edge list and graph6, whose order
header is one byte below order 63 and four bytes ('~' and 18 bits) up to
order 258047; the eight-byte header of larger orders ('~~') raises
UnsupportedLongForm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Optional, Union

from .errors import BadSpec, NotATree, ParseError, UnsupportedLongForm
from .trees import Tree


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _successor(seq, p=None):
    """The canonical rooted level sequence after `seq` in Beyer-Hedetniemi
    order (decreasing lexicographic), or None after the star.

    Position p (by default the last one above level 2) drops to the level of
    its parent q, and the tail repeats seq[q:p] periodically.  Given p, with
    seq[p] >= 3, this skips every sequence that keeps seq[:p + 1].
    """
    n = len(seq)
    if p is None:
        p = n - 1
        while p > 0 and seq[p] <= 2:
            p -= 1
        if p == 0:
            return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    period = p - q
    return seq[:p] + (seq[q:p] * ((n - p) // period + 1))[: n - p]


def _second_branch(seq):
    """Index of the root's second child in a level sequence, or its length."""
    try:
        return seq.index(2, 2)
    except ValueError:
        return len(seq)


def _is_primary(seq, m):
    """Whether the canonical rooted sequence `seq`, whose root's second child
    is at m, is the centre rooting that represents its free tree.

    The first branch seq[1:m] is the deepest.  The root is a centre when the
    rest of the tree reaches to within one level of it.  When it reaches
    exactly one level less, the root and its first child are both centres,
    and the edge between them splits the tree into two parts of equal
    height; the rooting kept is the one whose first branch is the smaller
    part: fewer vertices, then the lexicographically smaller sequence.
    """
    n = len(seq)
    deep = max(seq) - 1
    rest = max(seq[m:], default=1)
    if rest < deep:
        return False
    if rest > deep:
        return True
    size = m - 1
    if size != n - size:
        return size < n - size
    return [x - 1 for x in seq[1:m]] <= [1] + seq[m:]


def _free_sequences(n: int) -> Iterator[list]:
    """Level sequences of the free trees of order n, one per isomorphism
    class, each rooted at a centre (Wright, Richmond, Odlyzko and McKay).

    The walk is the Beyer-Hedetniemi one from the path rooted at its centre.
    A sequence that is not primary jumps past every sequence with the same
    first branch, which are all not primary either.  If the jump leaves the
    root a single child, the last max(seq) - 1 levels become a path hanging
    from the root, as deep as the first branch: the next primary sequence.
    """
    if n <= 2:
        yield list(range(1, n + 1))
        return
    seq = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while seq is not None:
        m = _second_branch(seq)
        if not _is_primary(seq, m):
            # the jump tiles the tail with copies of a block that hangs from
            # the last vertex's parent; below level 2 every copy stays in
            # the first branch, and the root is left with one child
            one_branch = seq[m - 1] > 3
            seq = _successor(seq, m - 1)
            if one_branch:
                top = max(seq)
                seq[n - top + 1 :] = range(2, top + 1)
        yield seq
        seq = _successor(seq)


def _seq_to_parents(seq):
    """Parent array from a level sequence (root first, parent of root -1)."""
    parents = [-1] * len(seq)
    stack = []  # vertices on the path to the current node, by level
    for v, level in enumerate(seq):
        del stack[level - 1 :]
        if stack:
            parents[v] = stack[-1]
        stack.append(v)
    return parents


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All non-isomorphic trees of order n, one per class, fixed order.

    Trees come in the order of `_free_sequences`, with nothing generated and
    rejected.  Vertices are numbered in the order of the level sequence of
    the centre rooting (a preorder), so vertex 0 is a centre.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    for seq in _free_sequences(n):
        parents = _seq_to_parents(seq)
        yield Tree(n, [(parents[v], v) for v in range(1, n)])


# ---------------------------------------------------------------------------
# parametric families


@dataclass(frozen=True)
class PathSpec:
    n: int


@dataclass(frozen=True)
class SpiderSpec:
    legs: tuple


@dataclass(frozen=True)
class DoubleSpiderSpec:
    legs1: tuple
    bridge: int
    legs2: tuple


@dataclass(frozen=True)
class CaterpillarSpec:
    """Spine with leaf_counts[i] leaves at spine vertex i; spacing[i] is the
    distance between spine vertices i and i+1 (default 1 everywhere)."""

    leaf_counts: tuple
    spacing: Optional[tuple] = None


FamilySpec = Union[PathSpec, SpiderSpec, DoubleSpiderSpec, CaterpillarSpec]


def _grow_leg(edges, attach, length, nxt):
    cur = attach
    for _ in range(length):
        edges.append((cur, nxt))
        cur = nxt
        nxt += 1
    return nxt


def build_family(spec: FamilySpec) -> Tree:
    """Construct the labeled tree a family spec describes.

    Labelings (asserted below): paths run 0..n-1 in order.  A spider's head
    is 0 and legs take consecutive indices in declaration order.  A double
    spider's heads are 0 and 1, then the bridge interior from head 0's side,
    then head 0's legs, then head 1's.  A caterpillar's spine is 0..m-1 in
    order, then the spacing chains, then the leaves grouped by spine vertex.
    """
    if isinstance(spec, PathSpec):
        if spec.n < 1:
            raise BadSpec("path needs at least one vertex")
        return Tree(spec.n, [(i, i + 1) for i in range(spec.n - 1)])

    if isinstance(spec, SpiderSpec):
        legs = tuple(spec.legs)
        if len(legs) < 3:
            raise BadSpec("a spider needs at least 3 legs")
        if any(not isinstance(l, int) or l < 1 for l in legs):
            raise BadSpec("spider leg lengths must be integers >= 1")
        edges = []
        nxt = 1
        for l in legs:
            nxt = _grow_leg(edges, 0, l, nxt)
        t = Tree(1 + sum(legs), edges)
        assert t.degree(0) == len(legs)
        return t

    if isinstance(spec, DoubleSpiderSpec):
        legs1, legs2 = tuple(spec.legs1), tuple(spec.legs2)
        for legs in (legs1, legs2):
            if len(legs) < 2:
                raise BadSpec("each double-spider head needs at least 2 legs")
            if any(not isinstance(l, int) or l < 1 for l in legs):
                raise BadSpec("leg lengths must be integers >= 1")
        if not isinstance(spec.bridge, int) or spec.bridge < 1:
            raise BadSpec("bridge length must be an integer >= 1")
        edges = []
        nxt = 2
        cur = 0
        for _ in range(spec.bridge - 1):
            edges.append((cur, nxt))
            cur = nxt
            nxt += 1
        edges.append((cur, 1))
        for l in legs1:
            nxt = _grow_leg(edges, 0, l, nxt)
        for l in legs2:
            nxt = _grow_leg(edges, 1, l, nxt)
        t = Tree(2 + sum(legs1) + sum(legs2) + spec.bridge - 1, edges)
        assert t.ball(0)[1] == spec.bridge
        assert t.degree(0) == len(legs1) + 1 and t.degree(1) == len(legs2) + 1
        return t

    if isinstance(spec, CaterpillarSpec):
        counts = tuple(spec.leaf_counts)
        if not counts:
            raise BadSpec("caterpillar needs at least one spine vertex")
        if any(not isinstance(c, int) or c < 0 for c in counts):
            raise BadSpec("leaf counts must be integers >= 0")
        spacing = tuple(spec.spacing) if spec.spacing is not None else (1,) * (len(counts) - 1)
        if len(spacing) != len(counts) - 1:
            raise BadSpec("need one spacing entry per consecutive spine pair")
        if any(not isinstance(s, int) or s < 1 for s in spacing):
            raise BadSpec("spacing entries must be integers >= 1")
        m = len(counts)
        edges = []
        nxt = m
        for i, gap in enumerate(spacing):
            nxt = _grow_leg(edges, i, gap - 1, nxt)
            attach = nxt - 1 if gap > 1 else i
            edges.append((attach, i + 1))
        for i, c in enumerate(counts):
            for _ in range(c):
                edges.append((i, nxt))
                nxt += 1
        t = Tree(m + sum(spacing) - (m - 1) + sum(counts), edges)
        if __debug__:
            d0 = t.ball(0)
            assert all(d0[i + 1] - d0[i] == gap for i, gap in enumerate(spacing))
        return t

    raise BadSpec(f"unknown family spec {spec!r}")


def _ints(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadSpec(f"bad {what} list: {text!r}") from None


FAMILY_KINDS = ("path", "spider", "dspider", "cat")


def parse_family_spec(text: str) -> FamilySpec:
    """Mini-language: path:9 | spider:2,2,2 | dspider:2,2/5/2,2 |
    cat:leafcounts=2,1,2[;spacing=2,2]."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in FAMILY_KINDS:
        raise BadSpec(f"unknown family kind in {text!r}")
    if kind == "path":
        try:
            return PathSpec(int(rest))
        except ValueError:
            raise BadSpec(f"bad path order: {rest!r}") from None
    if kind == "spider":
        return SpiderSpec(_ints(rest, "leg"))
    if kind == "dspider":
        parts = rest.split("/")
        if len(parts) != 3:
            raise BadSpec("double spider takes legs/bridge/legs")
        try:
            bridge = int(parts[1])
        except ValueError:
            raise BadSpec(f"bad bridge length: {parts[1]!r}") from None
        return DoubleSpiderSpec(_ints(parts[0], "leg"), bridge, _ints(parts[2], "leg"))
    fields = {}
    for piece in rest.split(";"):
        key, eq, val = piece.partition("=")
        if not eq or key not in ("leafcounts", "spacing"):
            raise BadSpec(f"bad caterpillar field: {piece!r}")
        fields[key] = _ints(val, key)
    if "leafcounts" not in fields:
        raise BadSpec("caterpillar spec needs leafcounts=...")
    return CaterpillarSpec(fields["leafcounts"], fields.get("spacing"))


def looks_like_family(text: str) -> bool:
    return text.partition(":")[0] in FAMILY_KINDS


# ---------------------------------------------------------------------------
# edge-list format


def parse_edge_list(text: str) -> Tree:
    """Lines "u v" of 0-based endpoints; '#' comments and blank lines are
    ignored.  No edges at all means the one-vertex tree."""
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex in {raw!r}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {key}", line=lineno)
        seen.add(key)
        edges.append(key)
    n = 1 + max((max(e) for e in edges), default=0)
    return Tree(n, edges)


def emit_edge_list(t: Tree) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted(t.edges))


# ---------------------------------------------------------------------------
# graph6 format

_G6_HEADER = ">>graph6<<"
_G6_MAX_ORDER = 258047  # the largest order the 4-byte header holds
# a 6-bit chunk c is printed as the byte c + 63
_G6_CHUNK_TO_BYTE = bytes(range(63, 127)) + bytes(192)


def _g6_order(n):
    """The order header: byte n+63 below 63, else '~' and n in 18 bits,
    big-endian, in three bytes of 6 bits + 63."""
    if n < 63:
        return chr(n + 63)
    if n > _G6_MAX_ORDER:
        raise UnsupportedLongForm()
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def emit_graph6(t: Tree) -> str:
    """graph6: the order header, then the upper triangle column-major in
    big-endian 6-bit chunks, each +63.  Bit k = j(j-1)/2 + i stands for the
    pair i < j."""
    n = t.n
    header = _g6_order(n)
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in t.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> k % 6
    return header + body.translate(_G6_CHUNK_TO_BYTE).decode("ascii")


def parse_graph6(text: str) -> Tree:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ParseError("empty graph6 string")
    if s.startswith("~~"):
        raise UnsupportedLongForm()
    if s[0] == "~":
        header, body = s[1:4], s[4:]
        if len(header) < 3:
            raise ParseError("truncated graph6 order header")
    else:
        header, body = s[0], s[1:]
    n = 0
    for ch in header:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"bad graph6 order byte {ch!r}")
        n = n << 6 | val
    if n == 0:
        raise NotATree("graph6 string encodes the empty graph")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6}"
        )
    edges = []
    for c, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"byte {ch!r} out of graph6 range")
        if not val:  # most chunks of a tree's body are empty
            continue
        for b in range(6):
            if val & 32 >> b:
                k = 6 * c + b
                if k >= nbits:
                    raise ParseError("nonzero padding bits in graph6 body")
                j = (1 + isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    return Tree(n, edges)
