"""Immutable tree and forest structures plus the structural decomposition.

Vertices are dense integers 0..n-1.  A Forest is any simple acyclic graph;
a Tree is a connected Forest with n >= 1.  Both are immutable after
construction and cache derived data (adjacency, distance matrix,
eccentricities) on first use, so they are cheap to pass around.

The decomposition vocabulary used throughout the package:

* leaf: vertex of degree <= 1 (the order-1 tree counts its only vertex).
* stem: neighbour of a leaf.
* branch vertex: degree >= 3.
* endpath: path ending in a leaf whose internal vertices all have degree 2.
* external degree-2 vertex: lies on an endpath; internal otherwise.  On a
  path every degree-2 vertex is external.
* leaf set of a branch vertex b: leaves joined to b by an endpath.  Branch
  vertices are split by leaf-set size into branch0 / branch1 / branch2plus.
* interior: the forest induced by branch0 + branch1 + internal degree-2
  vertices.
* loss of a branch vertex: total leaf-set distance minus the largest one.

Construction, components and the structural profile take near-linear
time, and eccentricities three BFS runs per component.  `Forest.ball`
returns the vertices within a radius of one vertex with their distances,
by a BFS that stops at the radius, so it costs the size of the ball, not
the order of the forest; the broadcast predicates, the witnesses and the
closed formulas read distances only this way.  `Forest.distance` and
`Forest.distances` answer pairwise queries from an n x n matrix of one BFS
row per vertex (O(n^2) time and space), built on the first pairwise read:
only the oracle solvers and the tests make one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from .errors import (
    BadVertexIndex,
    DegeneratePath,
    NoBranchVertices,
    NotAForest,
    NotATree,
    NotBranchVertex,
)


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


def _root(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _check_edges(n, edges):
    """Normalize an edge iterable to sorted tuples, validating references."""
    seen = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise NotAForest(f"edge {e!r} is not a pair") from None
        if not (isinstance(u, int) and isinstance(v, int)):
            raise BadVertexIndex(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexIndex(f"edge {e!r} out of range for order {n}")
        if u == v:
            raise NotAForest(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise NotAForest(f"repeated edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


class Forest:
    """Simple acyclic graph on 0..n-1, immutable after construction.

    `labels` optionally records, per local vertex, the vertex name in a host
    graph this forest was cut from.  It is carried along but never
    interpreted here.
    """

    def __init__(self, n: int, edges: Iterable = (), labels: Optional[tuple] = None):
        if n < 0:
            raise NotAForest("order must be nonnegative")
        self._n = n
        self._edges = _check_edges(n, edges)
        adj = [[] for _ in range(n)]
        parent = list(range(n))
        for u, v in self._edges:
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                raise NotAForest(f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise BadVertexIndex("labels length must equal order")
        self._labels = labels

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def labels(self) -> Optional[tuple]:
        return self._labels

    def neighbors(self, v: int) -> tuple:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def _check_vertex(self, v):
        if not (isinstance(v, int) and 0 <= v < self._n):
            raise BadVertexIndex(f"vertex {v!r} out of range for order {self._n}")

    @cached_property
    def components(self) -> tuple:
        """Vertex sets of the connected components, each sorted, ordered by minimum."""
        parent = list(range(self._n))
        for u, v in self._edges:
            parent[_root(parent, u)] = _root(parent, v)
        comps = {}
        for v in range(self._n):
            comps.setdefault(_root(parent, v), []).append(v)
        return tuple(tuple(c) for c in comps.values())

    def ball(self, v: int, radius: Optional[int] = None) -> dict:
        """Distance from v of every vertex within `radius` of v (all of v's
        component when radius is None), in BFS order; O(size of the ball)."""
        self._check_vertex(v)
        if radius is not None and radius < 0:
            raise ValueError(f"radius {radius} is negative")
        return _bfs(self._adj, v, radius)

    @cached_property
    def distances(self) -> tuple:
        """Full distance matrix; -1 marks vertex pairs in different components."""
        rows = (_bfs(self._adj, s) for s in range(self._n))
        return tuple(tuple(r.get(v, -1) for v in range(self._n)) for r in rows)

    def distance(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.distances[u][v]

    @cached_property
    def eccentricities(self) -> tuple:
        """Per-vertex eccentricity measured inside the vertex's own component.

        Per component, a BFS from any vertex ends at a and one from a ends at
        b, so a and b are the ends of a longest path and every vertex is
        farthest from one of them: ecc(v) = max(d(v, a), d(v, b)).
        """
        ecc = [-1] * self._n
        for s in range(self._n):
            if ecc[s] < 0:
                a = next(reversed(_bfs(self._adj, s)))
                da = _bfs(self._adj, a)
                db = _bfs(self._adj, next(reversed(da)))
                for v, d in da.items():
                    ecc[v] = max(d, db[v])
        return tuple(ecc)

    def eccentricity(self, v: int) -> int:
        self._check_vertex(v)
        return self.eccentricities[v]

    def __repr__(self):
        return f"{type(self).__name__}(n={self._n}, edges={list(self._edges)!r})"


class Tree(Forest):
    """Connected forest with n >= 1."""

    def __init__(self, n: int, edges: Iterable = (), labels: Optional[tuple] = None):
        if n < 1:
            raise NotATree("a tree has at least one vertex")
        try:
            super().__init__(n, edges, labels)
        except NotAForest as exc:
            raise NotATree(str(exc)) from None
        # acyclic with n - 1 edges, hence connected
        if len(self._edges) != n - 1:
            raise NotATree(f"order {n} needs {n - 1} edges, got {len(self._edges)}")

    @cached_property
    def diameter(self) -> int:
        return max(self.eccentricities)

    @cached_property
    def profile(self) -> "TreeProfile":
        return _compute_profile(self)


class Shape(Enum):
    PATH = "path"
    SPIDER = "spider"
    CATERPILLAR = "caterpillar"
    OTHER = "other"


@dataclass(frozen=True)
class LeafDistances:
    """Leaf-set distance statistics of one branch vertex."""

    farthest: int
    total: int
    loss: int


@dataclass(frozen=True)
class TreeProfile:
    """Structural decomposition of one tree; all fields are read-only.

    leaf_sets maps each branch vertex to the leaves its endpaths reach,
    leaf_distance each of those leaves to its distance from that branch
    vertex, and loss_table each branch vertex to its leaf set's distance
    statistics.  interior, built on first read, is the forest induced by
    branch01 union the internal degree-2 vertices; its `labels` map interior
    indices back to tree vertices.
    """

    tree: Tree
    leaves: frozenset
    stems: frozenset
    branch: frozenset
    deg2_external: frozenset
    deg2_internal: frozenset
    leaf_sets: dict
    leaf_distance: dict
    branch0: frozenset
    branch1: frozenset
    branch2plus: frozenset
    loss_table: dict

    @property
    def branch01(self) -> frozenset:
        """Branch vertices with at most one endpath leaf."""
        return self.branch0 | self.branch1

    @cached_property
    def interior(self) -> Forest:
        return induced_subgraph(self.tree, self.branch01 | self.deg2_internal)


def induced_subgraph(tree: Forest, vertices) -> Forest:
    """Forest induced on `vertices`; local index i is original `labels[i]`."""
    vs = sorted(set(vertices))
    for v in vs:
        tree._check_vertex(v)
    index = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    edges = [(index[u], index[v]) for u, v in tree.edges if u in keep and v in keep]
    return Forest(len(vs), edges, labels=tuple(vs))


def _walk_past_deg2(tree, start, first):
    """Follow the degree-2 chain leaving `start` through `first`.

    Returns (endpoint, chain) where chain lists the degree-2 vertices passed
    and endpoint is the first vertex of degree != 2.
    """
    chain = []
    prev, cur = start, first
    while tree.degree(cur) == 2:
        chain.append(cur)
        a, b = tree.neighbors(cur)
        prev, cur = cur, (b if a == prev else a)
    return cur, chain


def _compute_profile(tree: Tree) -> TreeProfile:
    n = tree.n
    deg = [tree.degree(v) for v in range(n)]
    leaves = frozenset(v for v in range(n) if deg[v] <= 1)
    stems = frozenset(w for v in leaves if deg[v] == 1 for w in tree.neighbors(v))
    branch = frozenset(v for v in range(n) if deg[v] >= 3)

    # leaf_sets[b] maps each leaf of b's endpaths to its distance from b
    leaf_sets = {b: {} for b in branch}
    external = set()
    for l in sorted(leaves):
        if deg[l] == 0:
            continue
        end, chain = _walk_past_deg2(tree, l, tree.neighbors(l)[0])
        external.update(chain)
        if end in branch:
            leaf_sets[end][l] = len(chain) + 1
    deg2_external = frozenset(external)
    deg2_internal = frozenset(v for v in range(n) if deg[v] == 2) - deg2_external

    branch0 = frozenset(b for b in branch if not leaf_sets[b])
    branch1 = frozenset(b for b in branch if len(leaf_sets[b]) == 1)
    branch2plus = branch - branch0 - branch1

    loss_table = {}
    for b in branch:
        ds = sorted(leaf_sets[b].values())
        farthest = ds[-1] if ds else 0
        total = sum(ds)
        loss_table[b] = LeafDistances(farthest=farthest, total=total, loss=total - farthest)

    return TreeProfile(
        tree=tree,
        leaves=leaves,
        stems=stems,
        branch=branch,
        deg2_external=deg2_external,
        deg2_internal=deg2_internal,
        leaf_sets={b: frozenset(s) for b, s in leaf_sets.items()},
        leaf_distance={l: d for s in leaf_sets.values() for l, d in s.items()},
        branch0=branch0,
        branch1=branch1,
        branch2plus=branch2plus,
        loss_table=loss_table,
    )


def leaf_set(tree: Tree, b: int) -> frozenset:
    """Leaves joined to branch vertex b by an endpath."""
    tree._check_vertex(b)
    if b not in tree.profile.branch:
        raise NotBranchVertex(f"vertex {b} has degree {tree.degree(b)}")
    return tree.profile.leaf_sets[b]


def branch_subtree(tree: Tree, b: int) -> Tree:
    """Subtree spanned by the paths from b to each leaf in its leaf set.

    Order 1 when the leaf set is empty.  Local labels map back to the tree.
    """
    ls = leaf_set(tree, b)
    vs = {b}
    for l in ls:
        end, chain = _walk_past_deg2(tree, l, tree.neighbors(l)[0])
        vs.add(l)
        vs.update(chain)
    sub = induced_subgraph(tree, vs)
    return Tree(sub.n, sub.edges, labels=sub.labels)


def branch_leaf_representation(tree: Tree) -> Tree:
    """Suppress every degree-2 vertex; defined only off paths.

    The result keeps the leaves and branch vertices and joins two of them
    when their connecting path in the tree is internally degree-2.
    """
    p = tree.profile
    if not p.branch:
        raise DegeneratePath("branch-leaf representation is undefined on paths")
    kept = sorted(p.leaves | p.branch)
    index = {v: i for i, v in enumerate(kept)}
    edges = set()
    for v in kept:
        for nb in tree.neighbors(v):
            end, _ = _walk_past_deg2(tree, v, nb)
            if v < end:
                edges.add((index[v], index[end]))
    return Tree(len(kept), edges, labels=tuple(kept))


def branch_representation(tree: Tree) -> Forest:
    """Graph on the branch vertices: adjacent when no branch vertex separates them."""
    p = tree.profile
    if not p.branch:
        raise NoBranchVertices("tree has no vertex of degree >= 3")
    kept = sorted(p.branch)
    index = {v: i for i, v in enumerate(kept)}
    edges = set()
    for v in kept:
        for nb in tree.neighbors(v):
            end, _ = _walk_past_deg2(tree, v, nb)
            if end in p.branch and v < end:
                edges.add((index[v], index[end]))
    return Forest(len(kept), edges, labels=tuple(kept))


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
        if all(sum(1 for w in tree.neighbors(v) if w in keep) <= 2 for v in rest):
            shapes.add(Shape.CATERPILLAR)
    if not shapes:
        shapes.add(Shape.OTHER)
    return frozenset(shapes)
