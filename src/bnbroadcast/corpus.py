"""Tree corpora: exhaustive non-isomorphic enumeration, parametric
families, and text interchange formats.

Enumeration generates canonical level sequences of rooted trees with the
successor rule of Beyer and Hedetniemi (start at the path [1, 2, ..., n],
repeatedly truncate the last level > 2 and tile the tail periodically from
the previous occurrence of its parent level).  A rooted tree is kept as the
representative of its free isomorphism class when its root is a centroid
and its canonical sequence is the lexicographically minimal one among all
centroid rootings, so every free tree appears exactly once.

Family builders use documented labelings: heads and spine vertices take the
lowest indices, then bridge or spacing chains, then leaves, each group in
declaration order.  This keeps golden outputs readable and stable.

Interchange formats are a plain "u v" edge list and graph6 (short form
only, order below 63; anything longer raises UnsupportedLongForm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import BadSpec, NotATree, ParseError, UnsupportedLongForm
from .trees import Tree


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _successor(seq):
    """Next canonical rooted level sequence, or None after the star."""
    n = len(seq)
    p = max((i for i in range(n) if seq[i] > 2), default=None)
    if p is None:
        return None
    q = next(i for i in range(p - 1, -1, -1) if seq[i] == seq[p] - 1)
    out = list(seq[:p])
    period = p - q
    for i in range(p, n):
        out.append(out[i - period])
    return out


def _rooted_sequences(n: int) -> Iterator[list]:
    seq = list(range(1, n + 1))
    while seq is not None:
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


def _centroids(n, adj):
    """The one or two vertices minimizing the largest component of T - v."""
    if n == 1:
        return [0]
    size = [1] * n
    order = [0]
    parent = [-1] * n
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    best = n
    out = []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if w != parent[v] and size[w] > heaviest:
                heaviest = size[w]
        if heaviest < best:
            best, out = heaviest, [v]
        elif heaviest == best:
            out.append(v)
    return out


def _canon_levels(adj, root, parent=-1):
    """Canonical level sequence of (T, root): child blocks sorted high first."""
    blocks = sorted(
        (_canon_levels(adj, w, root) for w in adj[root] if w != parent),
        reverse=True,
    )
    seq = [1]
    for b in blocks:
        seq.extend(x + 1 for x in b)
    return tuple(seq)


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All non-isomorphic trees of order n, one per class, fixed order.

    Practical up to n around 16.  Vertices are numbered in level order of
    the surviving centroid rooting.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    for seq in _rooted_sequences(n):
        parents = _seq_to_parents(seq)
        edges = [(parents[v], v) for v in range(1, n)]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        cents = _centroids(n, adj)
        if 0 not in cents:
            continue
        forms = {c: _canon_levels(adj, c) for c in cents}
        if forms[0] == min(forms.values()):
            yield Tree(n, edges)


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


def emit_graph6(t: Tree) -> str:
    """Short-form graph6: byte n+63, then the upper triangle column-major
    in big-endian 6-bit chunks, each +63."""
    n = t.n
    if n >= 63:
        raise UnsupportedLongForm()
    adj = set(t.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        chunk = 0
        for b in bits[k : k + 6]:
            chunk = chunk << 1 | b
        out.append(chr(chunk + 63))
    return "".join(out)


def parse_graph6(text: str) -> Tree:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ParseError("empty graph6 string")
    if ord(s[0]) == 126:
        raise UnsupportedLongForm()
    n = ord(s[0]) - 63
    if not 0 <= n < 63:
        raise ParseError(f"bad graph6 order byte {s[0]!r}")
    if n == 0:
        raise NotATree("graph6 string encodes the empty graph")
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (nbits + 5) // 6:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"byte {ch!r} out of graph6 range")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Tree(n, edges)
