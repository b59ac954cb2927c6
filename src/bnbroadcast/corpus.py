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
version here takes O(n), no more than building the `Tree` does.  Each tree
is built from its sequence in one pass, with its edges, its adjacency and
its rooting at the centre the sequence is rooted at (`_level_tree`), so no
scanned tree is rooted again by BFS.

Every family spec is built by one labelling rule (`build_family`): the
heads take indices 0..m-1 in order; the interiors of the paths joining
head i to head i + 1 take the next ones, path by path; then, head by head,
come the head's legs, in declaration order, and its pendant leaves.  This
keeps golden outputs readable and stable.  A spec whose order exceeds
258047, the largest order graph6 holds, raises BadSpec before any of its
tree is built.

Interchange formats are a plain "u v" edge list, which is only read, and
graph6, whose order header is one byte below order 63 and four bytes ('~'
and 18 bits) up to order 258047; the eight-byte header of larger orders
('~~') raises UnsupportedLongForm.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt
from typing import Iterator, NamedTuple, Optional, Union

from .errors import BadSpec, GraphError, NotATree, ParseError, UnsupportedLongForm
from .trees import Rooting, Tree, _cycle_edge


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


def _level_tree(seq):
    """The tree of a level sequence from `_free_sequences`, with its rooting
    at vertex 0, in one pass over the sequence.

    Vertices are numbered in sequence order, a preorder: a vertex's parent
    is the last vertex before it one level up, and is its least neighbour,
    and its children follow in index order.  The vertices of a level have
    their parents in the order of the level above, so the BFS order from
    the root sorts the vertices by (level, index).  The root is the
    least-index centre; its eccentricity R is the depth of the first
    branch, the deepest.  ecc(v) = depth(v) + R, except on the first branch
    of a bicentral sequence (see `_is_primary`), the side of the other
    centre, vertex 1, where ecc(v) = depth(v) + R - 1.
    """
    n = len(seq)
    parent = [-1] * n
    kids = [[] for _ in range(n)]
    last = [0] * (n + 1)  # last[l]: the latest vertex at level l
    for v in range(1, n):
        level = seq[v]
        parent[v] = p = last[level - 1]
        kids[p].append(v)
        last[level] = v
    adj = (tuple(kids[0]), *[(p, *ks) for p, ks in zip(parent[1:], kids[1:])])
    edges = tuple([(p, c) for p, ks in enumerate(kids) for c in ks])
    r = max(seq) - 1
    ecc = [level + r - 1 for level in seq]
    m = _second_branch(seq)
    if max(seq[m:], default=1) == r:
        ecc[1:m] = [e - 1 for e in ecc[1:m]]
    order = sorted(range(n), key=seq.__getitem__)
    return Tree._from_rooting(edges, adj, Rooting(order, parent, kids, tuple(ecc)))


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All non-isomorphic trees of order n, one per class, fixed order.

    Trees come in the order of `_free_sequences`, with nothing generated and
    rejected.  Vertices are numbered in the order of the level sequence of
    the centre rooting (a preorder), so vertex 0 is a centre, and each tree
    comes with that rooting (`Tree.rooting`), read off its sequence.
    """
    if type(n) is not int:  # refuses a bool too
        raise ValueError(f"order {n!r} is not an integer")
    if n < 1:
        raise ValueError("order must be at least 1")
    for seq in _free_sequences(n):
        yield _level_tree(seq)


# ---------------------------------------------------------------------------
# parametric families


class PathSpec(NamedTuple):
    n: int


class SpiderSpec(NamedTuple):
    legs: tuple


class DoubleSpiderSpec(NamedTuple):
    legs1: tuple
    bridge: int
    legs2: tuple


class CaterpillarSpec(NamedTuple):
    """Spine with leaf_counts[i] leaves at spine vertex i; spacing[i] is the
    distance between spine vertices i and i+1 (default 1 everywhere)."""

    leaf_counts: tuple
    spacing: Optional[tuple] = None


FamilySpec = Union[PathSpec, SpiderSpec, DoubleSpiderSpec, CaterpillarSpec]


def _grow_leg(edges, head, length, nxt):
    """Append a path from `head` through `length` new vertices nxt, nxt + 1,
    ...; returns the next free index."""
    for v in range(nxt, nxt + length):
        edges.append((head, v))
        head = v
    return nxt + length


def _lengths(values, least, message, fewest=0, few=None):
    """values as a tuple: BadSpec(few) if there are fewer than `fewest`, and
    BadSpec(message) unless they are iterable and each is a plain int, not
    a bool, >= `least`."""
    try:
        values = tuple(values)
    except TypeError:
        raise BadSpec(message) from None
    if len(values) < fewest:
        raise BadSpec(few)
    if any(type(x) is not int or x < least for x in values):
        raise BadSpec(message)
    return values


def _build(bridges, legs, leaves):
    """The tree the labelling rule makes of bridge lengths, each head's leg
    lengths and leaf counts; BadSpec if its order is above graph6's."""
    m = len(legs)
    # m heads and the m - 1 bridges' interiors, then the legs and leaves
    n = 1 + sum(bridges) + sum(map(sum, legs)) + sum(leaves)
    if n > _G6_MAX_ORDER:
        raise BadSpec(f"order {n} exceeds {_G6_MAX_ORDER}, the largest "
                      "order a family spec may have")
    edges, nxt = [], m
    for i, length in enumerate(bridges):
        nxt = _grow_leg(edges, i, length - 1, nxt)
        edges.append((nxt - 1 if length > 1 else i, i + 1))
    for i, (lengths, count) in enumerate(zip(legs, leaves)):
        for length in lengths:
            nxt = _grow_leg(edges, i, length, nxt)
        for v in range(nxt, nxt + count):
            edges.append((i, v))
        nxt += count
    t = Tree(n, edges)
    assert all(len(t.adjacency[i]) == (0 < i) + (i < m - 1) + len(ls) + c
               for i, (ls, c) in enumerate(zip(legs, leaves)))
    if __debug__ and m > 1:  # one BFS, which paths and spiders skip
        d0 = t.ball(0)
        assert all(d0[i + 1] - d0[i] == length for i, length in enumerate(bridges))
    return t


def build_family(spec: FamilySpec) -> Tree:
    """Construct the labeled tree a family spec describes, by the module's
    labelling rule: a path is one head with one leg, so it runs 0..n-1; a
    spider is one head with its legs; a double spider two heads joined by
    its bridge; a caterpillar its spine vertices, joined by its spacing,
    with their leaf counts.  Every field is a plain int, not a bool."""
    if isinstance(spec, PathSpec):
        (n,) = _lengths((spec.n,), 1, "path needs at least one vertex")
        return _build((), [(n - 1,) if n > 1 else ()], [0])
    if isinstance(spec, SpiderSpec):
        legs = _lengths(spec.legs, 1, "spider leg lengths must be integers >= 1",
                        3, "a spider needs at least 3 legs")
        return _build((), [legs], [0])
    if isinstance(spec, DoubleSpiderSpec):
        heads = [_lengths(legs, 1, "leg lengths must be integers >= 1",
                          2, "each double-spider head needs at least 2 legs")
                 for legs in (spec.legs1, spec.legs2)]
        bridge = _lengths((spec.bridge,), 1, "bridge length must be an integer >= 1")
        return _build(bridge, heads, [0, 0])
    if isinstance(spec, CaterpillarSpec):
        counts = _lengths(spec.leaf_counts, 0, "leaf counts must be integers >= 0",
                          1, "caterpillar needs at least one spine vertex")
        spacing = ((1,) * (len(counts) - 1) if spec.spacing is None else
                   _lengths(spec.spacing, 1, "spacing entries must be integers >= 1"))
        if len(spacing) != len(counts) - 1:
            raise BadSpec("need one spacing entry per consecutive spine pair")
        return _build(spacing, [()] * len(counts), counts)
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
        if key in fields:
            raise BadSpec(f"caterpillar field {key} given twice")
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
    ignored.  No edges at all means the one-vertex tree.

    One pass splits the lines into words and reads the endpoints, and
    `Tree` checks range, loops, repeats and cycles.  Text that either
    rejects is read again line by line (`_parse_edge_lines`), which raises
    the error naming its line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(map(str.split, lines))
    if set(map(len, rows)) <= {0, 2}:
        try:
            ends = list(map(int, chain.from_iterable(rows)))
            return Tree(1 + max(ends, default=0), zip(ends[0::2], ends[1::2]))
        except (ValueError, GraphError):
            pass
    return _parse_edge_lines(text)


def _parse_edge_lines(text):
    """`parse_edge_list` one line at a time, checking each edge as it is
    read: slower, but its errors name the line at fault."""
    lines = {}  # each edge read -> its line, in reading order
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
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in lines:
            raise ParseError(f"duplicate edge {key}", line=lineno)
        lines[key] = lineno
    n = 1 + max((max(e) for e in lines), default=0)
    # as in Tree, a wrong count is named before a cycle
    if len(lines) == n - 1:
        cycle = _cycle_edge(n, lines)
        if cycle is not None:
            raise ParseError(f"edge {cycle} closes a cycle", line=lines[cycle])
    return Tree(n, lines)


# ---------------------------------------------------------------------------
# graph6 format

_G6_HEADER = ">>graph6<<"
_G6_MAX_ORDER = 258047  # the largest order the 4-byte header holds
# a 6-bit chunk c is printed as the byte c + 63, so graph6 writes '?'..'~'
_G6_BYTES = bytes(range(63, 127))
_G6_CHUNK_TO_BYTE = _G6_BYTES + bytes(192)


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


def looks_like_graph6(text: str) -> bool:
    """Whether text is graph6: it starts with the header, or is one word of
    graph6's bytes '?'..'~', above the digits, '#', '-' and whitespace of
    an edge list with an edge or a comment."""
    s = text.strip()
    # stripping stops at the first other byte, at once on an edge list
    return s.startswith(_G6_HEADER) or (s != "" and not s.strip(_G6_BYTES.decode()))


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
