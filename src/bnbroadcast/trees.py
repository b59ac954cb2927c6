"""The immutable tree plus its structural decomposition.

Vertices are dense integers 0..n-1.  A Tree is a connected acyclic graph
with n >= 1.  It is immutable after construction and caches derived data
(rooting, eccentricities, profile, distance matrix) on first use, so it is
cheap to pass around.

The decomposition vocabulary used throughout the package:

* leaf: vertex of degree <= 1 (the order-1 tree counts its only vertex).
* stem: neighbour of a leaf.
* branch vertex: degree >= 3.
* endpath: path ending in a leaf whose internal vertices all have degree 2.
* external degree-2 vertex: lies on an endpath; internal otherwise.  On a
  path every degree-2 vertex is external.
* leaf set of a branch vertex b: leaves joined to b by an endpath.  Branch
  vertices are split by leaf-set size into branch0 / branch1 / branch2plus.
* interior: the vertices of branch0 + branch1 + internal degree-2 vertices;
  its induced forest is read off the tree's own rooting, never copied.
* loss of a branch vertex: total leaf-set distance minus the largest one.

Construction and the structural profile take near-linear time.
Construction checks the edges one by one (`_check_edges`) and their count,
takes each vertex's sorted neighbours straight from the sorted edges, and
tells that n - 1 edges make a tree by one connectivity sweep
(`_connected`); a union-find (`_check_acyclic`) runs only to name the edge
that closes a cycle.  Every tree has one rooting (`Tree.rooting`: BFS
order, parents, child lists and eccentricities, at its least-index
centre); the eccentricities, the diameter, the solvers' rooted DPs, the
independence DP on an induced forest and the broadcast predicates' sweeps
all read it.  A corpus tree is made with its rooting, read off its level
sequence with its edges and adjacency (`Tree._from_rooting`, which checks
nothing); any other tree roots itself on first use by three BFS passes
(`_centre_rooting`).  A Tree's profile
(TreeProfile) computes its degrees, leaves, branch, branch0 and branch1
when it is made, by one endpath walk per leaf, and each other field on
first read; it keeps the tree's order and adjacency, not the tree, so
that a tree holds no reference cycle and is freed as soon as its last
reference goes.  Every vertex set of the profile, the interior included,
is in the tree's own numbering: the package makes no relabelled copy of
a tree or of a subgraph.  `Tree.ball` returns the vertices within a
radius of one vertex with their distances, by a BFS that stops at the
radius (`_bfs`), so it costs the size of the ball, not the order of the
tree; the witnesses, the closed formulas and the broadcast predicates
(these only to name a violation, or in `analyze`) read distances only
this way or from the rooting, and the package's own loops call `_bfs`
directly on vertices they know to be valid.  `Tree.distance` and
`Tree.distances` answer pairwise queries from an n x n matrix of one BFS
row per vertex (O(n^2) time and space), built on the first pairwise read:
only the oracle solvers and the tests make one.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .errors import BadVertexIndex, NotATree


def _bfs(adj, src, radius=None):
    """Distances from src to the vertices within `radius` of it (its whole
    component when radius is None), as a dict in BFS order.

    Only the neighbours of vertices strictly inside the radius are read, so
    the cost is linear in the size of the ball, not in the order of the graph.
    """
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier and d != radius:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class Rooting(NamedTuple):
    """A tree rooted at its least-index centre; read-only.

    order lists the vertices in BFS order from the root (as
    `_bfs(adj, root)` inserts them); parent[v] is -1 at the root, kids[v]
    lists v's children in adjacency order, and ecc holds the
    eccentricities.
    """

    order: list
    parent: list
    kids: list
    ecc: tuple


def _tree_bfs(adj, src, parent):
    """The vertices of the tree in BFS order from src, writing each one's
    parent into `parent` (-1 at src); in a tree no visited set is needed."""
    parent[src] = -1
    order = [src]
    for u in order:
        p = parent[u]
        for w in adj[u]:
            if w != p:
                parent[w] = u
                order.append(w)
    return order


def _centre_rooting(adj):
    """The tree of adjacency adj rooted at its least-index centre, by three
    BFS passes.

    A BFS from vertex 0 ends at a, and one from a ends at b, so a and b end
    a longest path, of length D.  Its middle vertices, D // 2 and
    (D + 1) // 2 steps from b, are the centres, and R = (D + 1) // 2 is
    their eccentricity.  The third BFS, from the least-index centre c,
    gives the order and the parents; one pass over that order fills the
    child lists and sets ecc(v) = depth(v) + R - 1 on the other centre's
    side of a bicentral tree and depth(v) + R everywhere else.
    """
    n = len(adj)
    parent = [-1] * n
    a = _tree_bfs(adj, 0, parent)[-1]
    v = _tree_bfs(adj, a, parent)[-1]
    path = [v]
    while parent[v] >= 0:
        v = parent[v]
        path.append(v)
    d = len(path) - 1
    r = (d + 1) // 2
    c, other = sorted((path[d // 2], path[r]))  # equal when d is even
    order = _tree_bfs(adj, c, parent)
    kids = [[] for _ in range(n)]
    ecc = [r] * n
    for w in order[1:]:
        p = parent[w]
        kids[p].append(w)
        ecc[w] = ecc[p] + (w != other)
    return Rooting(order, parent, kids, tuple(ecc))


def _root(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _connected(adj):
    """Whether the graph of adjacency `adj`, on at least one vertex, is
    connected: one sweep from vertex 0."""
    seen = [False] * len(adj)
    seen[0] = True
    reached = [0]
    for u in reached:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                reached.append(w)
    return len(reached) == len(adj)


def _check_acyclic(n, edges):
    """Raise NotATree naming the first edge, in the given order, that
    closes a cycle; a union-find over the vertices 0..n-1."""
    parent = list(range(n))
    for u, v in edges:
        ru, rv = _root(parent, u), _root(parent, v)
        if ru == rv:
            raise NotATree(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv


def _check_edges(n, edges):
    """Normalize an edge iterable to sorted tuples, validating references."""
    seen = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise NotATree(f"edge {e!r} is not a pair") from None
        if not (type(u) is int and type(v) is int):  # refuses a bool too
            raise BadVertexIndex(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexIndex(f"edge {e!r} out of range for order {n}")
        if u == v:
            raise NotATree(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise NotATree(f"repeated edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


class Tree:
    """Connected acyclic graph on 0..n-1 with n >= 1, immutable after
    construction."""

    def __init__(self, n: int, edges: Iterable = ()):
        if type(n) is not int:  # refuses a bool too
            raise NotATree(f"order {n!r} is not an integer")
        if n < 1:
            raise NotATree("a tree has at least one vertex")
        keys = _check_edges(n, edges)
        # counted before the O(n) lists are built, so a huge order named by
        # a few edges costs nothing
        if len(keys) != n - 1:
            raise NotATree(f"order {n} needs {n - 1} edges, got {len(keys)}")
        adj = [[] for _ in range(n)]
        # in sorted edge order every vertex meets its lesser neighbours
        # first, in increasing order, then its greater ones
        for u, v in keys:
            adj[u].append(v)
            adj[v].append(u)
        adj = tuple(map(tuple, adj))
        # n - 1 edges are acyclic exactly when they connect the n vertices
        if not _connected(adj):
            _check_acyclic(n, keys)
        self._n = n
        self._edges = keys
        self._adj = adj

    @classmethod
    def _from_rooting(cls, edges, adj, rooting) -> "Tree":
        """The tree with these sorted edges, this sorted adjacency and this
        rooting at its least-index centre, none of them checked: the caller
        builds all three together (`corpus.enumerate_trees` does, from a
        level sequence) and they must be what `Tree(n, edges)` makes."""
        tree = cls.__new__(cls)
        tree._n = len(adj)
        tree._edges = edges
        tree._adj = adj
        tree.rooting = rooting
        return tree

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def adjacency(self) -> tuple:
        """Every vertex's sorted neighbours, indexed by vertex."""
        return self._adj

    def neighbors(self, v: int) -> tuple:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def _check_vertex(self, v):
        if not (type(v) is int and 0 <= v < self._n):
            raise BadVertexIndex(f"vertex {v!r} out of range for order {self._n}")

    def ball(self, v: int, radius: Optional[int] = None) -> dict:
        """Distance from v of every vertex within `radius` of v (every
        vertex when radius is None), in BFS order; O(size of the ball)."""
        self._check_vertex(v)
        if radius is not None:
            if type(radius) is not int:  # refuses a bool too
                raise ValueError(f"radius {radius!r} is not an integer")
            if radius < 0:
                raise ValueError(f"radius {radius} is negative")
        return _bfs(self._adj, v, radius)

    @cached_property
    def distances(self) -> tuple:
        """Full distance matrix, one BFS row per vertex."""
        n = self._n
        return tuple(tuple(map(_bfs(self._adj, s).__getitem__, range(n)))
                     for s in range(n))

    def distance(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.distances[u][v]

    @cached_property
    def rooting(self) -> Rooting:
        """The tree rooted at its least-index centre by `_centre_rooting`;
        a corpus tree is made with it."""
        return _centre_rooting(self._adj)

    @cached_property
    def eccentricities(self) -> tuple:
        """Per-vertex eccentricity, read off the rooting."""
        return self.rooting.ecc

    def eccentricity(self, v: int) -> int:
        self._check_vertex(v)
        return self.eccentricities[v]

    @cached_property
    def diameter(self) -> int:
        # the last vertex in BFS order is a deepest one, an end of a longest path
        rooting = self.rooting
        return rooting.ecc[rooting.order[-1]]

    @cached_property
    def profile(self) -> "TreeProfile":
        return TreeProfile(self)

    def __repr__(self):
        return f"{type(self).__name__}(n={self._n}, edges={list(self._edges)!r})"


# perfbench/tracing.py wraps trees:Forest.__init__, Forest.distances and
# Forest.eccentricities by name; ROADMAP item 1a renames those targets to
# Tree.* and deletes this line.
Forest = Tree


class Shape(Enum):
    PATH = "path"
    SPIDER = "spider"
    CATERPILLAR = "caterpillar"
    OTHER = "other"


class LeafDistances(NamedTuple):
    """Leaf-set distance statistics of one branch vertex."""

    farthest: int
    total: int
    loss: int


class TreeProfile:
    """Structural decomposition of one tree; treat its fields as read-only.

    Made from the tree, it computes at once only what a corpus scan reads:
    the degrees, leaves, branch, branch0 and branch1, from one endpath walk
    per leaf.  Every other field is computed on first read from that walk
    and cached.  leaf_sets maps each branch vertex to the leaves its
    endpaths reach, leaf_distance each of those leaves to its distance from
    that branch vertex, and loss_table each branch vertex to its leaf set's
    distance statistics.  interior is the vertex set branch01 union the
    internal degree-2 vertices, in the tree's own numbering.
    """

    def __init__(self, tree: Tree):
        # the profile keeps what it reads, not the tree, which caches it:
        # a back reference would leave every tree to the cycle collector
        self._n = n = tree.n
        self._adj = adj = tree.adjacency
        self._deg = deg = [len(a) for a in adj]
        self.leaves = frozenset(v for v in range(n) if deg[v] <= 1)
        self.branch = branch = frozenset(v for v in range(n) if deg[v] >= 3)
        # per leaf of degree one, in increasing order: (leaf, the endpath's
        # other end, the degree-2 vertices between them)
        walks = self._walks = []
        counts = dict.fromkeys(branch, 0)
        for l in sorted(self.leaves):
            if deg[l] == 0:
                continue
            prev, end = l, adj[l][0]
            chain = []
            while deg[end] == 2:
                chain.append(end)
                a, b = adj[end]
                prev, end = end, (b if a == prev else a)
            walks.append((l, end, chain))
            if end in counts:
                counts[end] += 1
        self.branch0 = frozenset(b for b in branch if not counts[b])
        self.branch1 = frozenset(b for b in branch if counts[b] == 1)

    @cached_property
    def stems(self) -> frozenset:
        adj, deg = self._adj, self._deg
        return frozenset(w for v in self.leaves if deg[v] == 1 for w in adj[v])

    @cached_property
    def deg2_external(self) -> frozenset:
        external = set()
        for _, _, chain in self._walks:
            external.update(chain)
        return frozenset(external)

    @cached_property
    def deg2_internal(self) -> frozenset:
        deg = self._deg
        return frozenset(v for v in range(self._n) if deg[v] == 2) - self.deg2_external

    @cached_property
    def _leaf_dists(self) -> dict:
        """Per branch vertex: each leaf of its endpaths -> its distance."""
        dists = {b: {} for b in self.branch}
        for l, end, chain in self._walks:
            if end in dists:
                dists[end][l] = len(chain) + 1
        return dists

    @cached_property
    def leaf_sets(self) -> dict:
        return {b: frozenset(s) for b, s in self._leaf_dists.items()}

    @cached_property
    def leaf_distance(self) -> dict:
        return {l: d for s in self._leaf_dists.values() for l, d in s.items()}

    @cached_property
    def branch2plus(self) -> frozenset:
        return self.branch - self.branch0 - self.branch1

    @cached_property
    def loss_table(self) -> dict:
        table = {}
        for b in self.branch:
            ds = sorted(self._leaf_dists[b].values())
            farthest = ds[-1] if ds else 0
            total = sum(ds)
            table[b] = LeafDistances(farthest=farthest, total=total, loss=total - farthest)
        return table

    @property
    def branch01(self) -> frozenset:
        """Branch vertices with at most one endpath leaf."""
        return self.branch0 | self.branch1

    @cached_property
    def interior(self) -> frozenset:
        return self.branch01 | self.deg2_internal


def classify_shape(tree: Tree) -> frozenset:
    """Shape predicates; not mutually exclusive, OTHER only when none apply.

    A caterpillar is a tree whose leaf removal leaves a nonempty path, so the
    order-2 path and the order-1 tree are paths but not caterpillars.
    """
    p = tree.profile
    shapes = set()
    if not p.branch:
        shapes.add(Shape.PATH)
    if len(p.branch) == 1:
        shapes.add(Shape.SPIDER)
    rest = [v for v in range(tree.n) if v not in p.leaves]
    if rest:
        keep = set(rest)
        adj = tree.adjacency
        if all(sum(1 for w in adj[v] if w in keep) <= 2 for v in rest):
            shapes.add(Shape.CATERPILLAR)
    if not shapes:
        shapes.add(Shape.OTHER)
    return frozenset(shapes)
