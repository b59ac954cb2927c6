"""Independent reference implementations used only by the test suite.

Nothing here imports from the package's solver internals: tree counting
goes through Prüfer sequences and an AHU-style canonical form minimized
over all rootings, the independence number and the lexicographically least
maximum independent set are brute force over vertex subsets, distances come
from Floyd-Warshall, the broadcast analysis, the violation certificate and
the hearing scan are read off a distance matrix by direct definition, and
the hearing-independence number is a maximum over broadcaster sets, and
every optimal boundary-independent broadcast comes from the definitional
scan over all strength vectors (bn_optima), for optima_properties to read.
Maximality of a boundary-independent broadcast has a second criterion,
the component count of maximal_by_components, and its certificate a
reference rule over the analysis (maximality_certificate); bn_strengths
lists every boundary-independent broadcast of a small tree.
bn_number_dp_full is the package's boundary-independence DP with every
state kept in a table: it shares the recurrence, so it checks the closed
form by which the package leaves out the states of a vertex v from
height(v) - 1 up.
tree_profile is the structural profile computed eagerly, every field at
once, by its own endpath walk; the package's TreeProfile computes most of
its fields on first read.
parse_edge_list is the package's former edge-list parser, which checked
each line as it read it; tree_parts is the former Tree construction,
`trees._check_edges` and the edge count followed by a union-find over the
sorted edges and a sort of every adjacency list.
family_edges labels a family spec's tree by the documented rule with a
label counter and vertex walks, for comparison with corpus.build_family.
The enumeration internal used is the rooted successor
(`corpus._successor`, counted against A000081 on its own), with a
level-sequence decoder of its own (seq_to_parents): the centroid generator
walks every rooted tree and keeps representatives by centroid and
canonical form, where the package picks centre rootings without generating
the rest.  Agreement between
these and the shipped code is the point of the tests that use them.
"""

import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, count, product

from bnbroadcast import (Broadcast, LeafDistances, NotATree, ParseError,
                         SolveResult, Tree)
from bnbroadcast.broadcasts import BnViolation, BroadcastAnalysis, overlap_scan
from bnbroadcast.corpus import _successor
from bnbroadcast.trees import _check_edges


def prufer_decode(seq, n):
    """Edges of the labeled tree on 0..n-1 with Prüfer sequence seq."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    u, w = leaves
    edges.append((min(u, w), max(u, w)))
    return edges


def _rooted_form(adj, v, parent):
    return tuple(
        sorted(_rooted_form(adj, w, v) for w in adj[v] if w != parent)
    )


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


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
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {key}", line=lineno)
        seen.add(key)
        edges.append(key)
    n = 1 + max((max(e) for e in edges), default=0)
    return Tree(n, edges)


def _uf_root(parent, x):
    """Union-find root of x, without path compression."""
    while parent[x] != x:
        x = parent[x]
    return x


def hub_tree(n, edges):
    """The tree of the forest (n, edges) and one hub vertex n, joined to
    the least vertex of each component: it induces the forest on range(n)."""
    parent = list(range(n))
    for u, v in edges:
        parent[_uf_root(parent, u)] = _uf_root(parent, v)
    least = {}
    for v in range(n):
        least.setdefault(_uf_root(parent, v), v)
    return Tree(n + 1, [*edges, *((v, n) for v in least.values())])


def tree_parts(n, edges):
    """(edges, adjacency) of Tree(n, edges), or the NotATree (or
    BadVertexIndex) it raises: the edges checked one by one and counted,
    then joined by a union-find in sorted order, which names the first edge
    that closes a cycle."""
    if n < 1:
        raise NotATree("a tree has at least one vertex")
    edges = _check_edges(n, edges)
    if len(edges) != n - 1:
        raise NotATree(f"order {n} needs {n - 1} edges, got {len(edges)}")
    adj = [[] for _ in range(n)]
    parent = list(range(n))
    for u, v in edges:
        ru, rv = _uf_root(parent, u), _uf_root(parent, v)
        if ru == rv:
            raise NotATree(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
        adj[u].append(v)
        adj[v].append(u)
    return edges, tuple(tuple(sorted(a)) for a in adj)


def free_canon(n, edges):
    """Canonical form of a free tree: minimal rooted AHU form over all roots."""
    adj = _adjacency(n, edges)
    return min(_rooted_form(adj, r, -1) for r in range(n))


def free_trees_by_prufer(n):
    """Set of canonical forms of all free trees of order n.

    Only non-decreasing Prüfer sequences are decoded.  That suffices: label
    any tree by decreasing breadth-first order from any root (parents always
    get larger labels than children, and earlier children larger parents).
    Then the Prüfer removal order is exactly 0, 1, 2, ... and the recorded
    parent labels are non-decreasing, so every isomorphism class owns at
    least one non-decreasing sequence.
    """
    if n == 1:
        return {()}
    if n == 2:
        return {free_canon(2, [(0, 1)])}
    return {
        free_canon(n, prufer_decode(seq, n))
        for seq in combinations_with_replacement(range(n), n - 2)
    }


def free_trees_by_prufer_full(n):
    """Same set via every Prüfer sequence; feasible only for small n."""
    if n <= 2:
        return free_trees_by_prufer(n)
    return {
        free_canon(n, prufer_decode(seq, n))
        for seq in product(range(n), repeat=n - 2)
    }


def rooted_sequences(n):
    """Every canonical rooted level sequence of order n (A000081 of them),
    from the path down to the star."""
    seq = list(range(1, n + 1))
    while seq is not None:
        yield seq
        seq = _successor(seq)


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


def centroid_canon(n, edges):
    """Canonical form of a free tree: the least canonical level sequence
    over its centroid rootings."""
    adj = _adjacency(n, edges)
    return min(_canon_levels(adj, c) for c in _centroids(n, adj))


def seq_to_parents(seq):
    """Parent array from a level sequence (root first, parent of root -1)."""
    parents = [-1] * len(seq)
    stack = []  # vertices on the path to the current node, by level
    for v, level in enumerate(seq):
        del stack[level - 1 :]
        if stack:
            parents[v] = stack[-1]
        stack.append(v)
    return parents


def enumerate_trees_by_centroid(n):
    """All free trees of order n, one per class, by rejection: walk every
    rooted level sequence and keep it when its root is a centroid whose
    canonical sequence is the least among the centroid rootings.  Vertices
    are numbered in level-sequence order."""
    for seq in rooted_sequences(n):
        parents = seq_to_parents(seq)
        edges = [(parents[v], v) for v in range(1, n)]
        adj = _adjacency(n, edges)
        cents = _centroids(n, adj)
        if 0 not in cents:
            continue
        forms = {c: _canon_levels(adj, c) for c in cents}
        if forms[0] == min(forms.values()):
            yield Tree(n, edges)


def brute_independence(n, edges):
    """Maximum independent set size by subset enumeration (n <= ~16)."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = 0
    for s in range(1 << n):
        if s.bit_count() <= best:
            continue
        ok = True
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if masks[v] & s:
                ok = False
                break
            t &= t - 1
        if ok:
            best = s.bit_count()
    return best


def lex_least_independent_set(n, edges):
    """(size, set) of the lexicographically least maximum independent set:
    the largest size first, then the least sorted tuple (n <= ~16)."""
    for k in range(n, -1, -1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if not any(u in chosen and v in chosen for u, v in edges):
                return k, frozenset(combo)


def induced_edges(vertices, edges):
    """(k, edges) of the forest that `edges` induce on `vertices`, with the
    vertices renumbered 0..k-1 in increasing order, for the two oracles
    above."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return len(index), [(index[u], index[v]) for u, v in edges
                        if u in index and v in index]


def distance_rows(n, edges):
    """All-pairs distances by Floyd-Warshall; -1 across components."""
    inf = n + 1
    d = [[0 if u == v else inf for v in range(n)] for u in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for row in d:
            via = row[k]
            if via < inf:
                for j in range(n):
                    if via + dk[j] < row[j]:
                        row[j] = via + dk[j]
    return [[x if x < inf else -1 for x in row] for row in d]


def analyze_by_matrix(f, dist):
    """Every field of `broadcasts.analyze(f)` by direct definition over the
    distance matrix `dist` (-1 across components)."""
    host = f.host
    n = host.n
    strengths = f.strengths
    v_plus = f.broadcasters

    heard = {}
    boundary = {}
    for v in v_plus:
        s = strengths[v]
        row = dist[v]
        heard[v] = frozenset(u for u in range(n) if 0 <= row[u] <= s)
        boundary[v] = frozenset(u for u in range(n) if row[u] == s)

    private_heard = {
        v: frozenset(
            u
            for u in heard[v]
            if not any(u in heard[w] for w in v_plus if w != v)
        )
        for v in v_plus
    }

    # reduction form: u hears v but nobody once v's strength drops by one
    private_boundary = {}
    for v in v_plus:
        reduced = list(strengths)
        reduced[v] -= 1
        private_boundary[v] = frozenset(
            u
            for u in heard[v]
            if not any(
                0 <= dist[w][u] <= reduced[w] for w in range(n) if reduced[w] > 0
            )
        )

    undominated = frozenset(
        u for u in range(n) if not any(u in heard[v] for v in v_plus)
    )

    covered_by = {}
    for e in host.edges:
        a, b = e
        covered_by[e] = tuple(
            x
            for x in v_plus
            if a in heard[x]
            and b in heard[x]
            and not (a in boundary[x] and b in boundary[x])
        )
    uncovered = frozenset(e for e, xs in covered_by.items() if not xs)

    return BroadcastAnalysis(
        broadcast=f,
        v_plus=v_plus,
        v_one=frozenset(v for v in v_plus if strengths[v] == 1),
        v_plusplus=frozenset(v for v in v_plus if strengths[v] >= 2),
        heard=heard,
        boundary=boundary,
        private_heard=private_heard,
        private_boundary=private_boundary,
        undominated=undominated,
        covered_by=covered_by,
        uncovered_edges=uncovered,
    )


def maximal_by_components(f, a):
    """`broadcasts.is_maximal_bn(f)` for a boundary-independent broadcast
    with two or more broadcasters, by the component criterion:
    once the edges that no ball covers are deleted, every component keeps
    two broadcasters.  `a` is the broadcast's analysis."""
    parent = list(range(f.host.n))
    for (u, v), xs in a.covered_by.items():
        if xs:
            parent[_uf_root(parent, u)] = _uf_root(parent, v)
    per_root = Counter(_uf_root(parent, v) for v in a.v_plus)
    return all(per_root[_uf_root(parent, v)] >= 2 for v in range(f.host.n))


def maximality_certificate(a):
    """The certificate of `broadcasts._maximality_certificate` for a
    boundary-independent broadcast, read off its analysis `a` (from
    analyze_by_matrix): the least undominated vertex, or, with two or more
    broadcasters, the least broadcaster whose boundary is all private."""
    if a.undominated:
        return "undominated_vertex", min(a.undominated)
    if len(a.v_plus) >= 2:
        return next((("expandable_broadcaster", v) for v in a.v_plus
                     if not a.boundary[v] - a.private_boundary[v]), None)
    return None


def bn_strengths(dist):
    """Every boundary-independent strength vector over the distance matrix
    `dist` of a tree, in lexicographic order: each vector grows one vertex
    at a time, and a prefix that overlap_scan rejects (the rest silent)
    grows no further, as every extension of it overlaps too."""
    n = len(dist)
    found = []

    def grow(prefix):
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        rest = [0] * (n - len(prefix) - 1)
        for s in range(max(dist[len(prefix)]) + 1):
            if overlap_scan(prefix + [s] + rest, dist) is None:
                grow(prefix + [s])

    grow([])
    return found


def bn_certificate(f, dist):
    """`broadcasts.bn_violation(f)` over the distance matrix `dist`: the first
    (u, v, w) of the definitional scan, and the edge at w toward the centre
    of a ball that holds w inside its boundary (toward v when w is u)."""
    hit = overlap_scan(f.strengths, dist)
    if hit is None:
        return None
    u, v, w = hit

    def toward(c):
        return next(x for x in f.host.neighbors(w) if dist[c][x] == dist[c][w] - 1)

    inside_u = dist[u][w] < f.strengths[u]
    inside_v = dist[v][w] < f.strengths[v]
    if inside_u and inside_v:
        x = toward(u) if w != u else toward(v)
    elif inside_u:
        x = toward(v)
    else:
        x = toward(u)
    return BnViolation(u=u, v=v, vertex=w, edge=(min(w, x), max(w, x)))


def hearing_scan(strengths, dist):
    """First pair of broadcasters u < v in a raw strength vector where one
    hears the other, or None."""
    bs = [v for v in range(len(strengths)) if strengths[v] > 0]
    for i, u in enumerate(bs):
        for v in bs[i + 1 :]:
            d = dist[u][v]
            if 0 <= d <= max(strengths[u], strengths[v]):
                return (u, v)
    return None


def hearing_by_subsets(tree):
    """Hearing-independence number by definition over broadcaster sets.

    For a fixed set S of broadcasters, the constraints separate per vertex:
    v in S may broadcast up to min(ecc(v), d_S(v) - 1), where d_S(v) is the
    distance to the nearest other member of S.  The maximum over every S of
    the sum is the value (n <= ~12).
    """
    n = tree.n
    dist = distance_rows(n, tree.edges)
    ecc = [max(row) for row in dist]
    best = 0
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        total = 0
        for v in members:
            near = min((dist[v][u] for u in members if u != v), default=n + 1)
            total += max(0, min(ecc[v], near - 1))
        best = max(best, total)
    return best


def tree_profile(tree):
    """Every field of `tree.profile`, computed at once, as a dict."""
    n = tree.n
    adj = tree.adjacency
    deg = [len(a) for a in adj]
    leaves = frozenset(v for v in range(n) if deg[v] <= 1)
    stems = frozenset(w for v in leaves if deg[v] == 1 for w in adj[v])
    branch = frozenset(v for v in range(n) if deg[v] >= 3)

    # leaf_sets[b] maps each leaf of b's endpaths to its distance from b
    leaf_sets = {b: {} for b in branch}
    external = set()
    for l in sorted(leaves):
        if deg[l] == 0:
            continue
        prev, cur = l, adj[l][0]
        chain = []
        while deg[cur] == 2:
            chain.append(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        external.update(chain)
        if cur in branch:
            leaf_sets[cur][l] = len(chain) + 1
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

    return {
        "tree": tree,
        "leaves": leaves,
        "stems": stems,
        "branch": branch,
        "deg2_external": deg2_external,
        "deg2_internal": deg2_internal,
        "leaf_sets": {b: frozenset(s) for b, s in leaf_sets.items()},
        "leaf_distance": {l: d for s in leaf_sets.values() for l, d in s.items()},
        "branch0": branch0,
        "branch1": branch1,
        "branch2plus": branch2plus,
        "branch01": branch0 | branch1,
        "loss_table": loss_table,
        "interior": branch0 | branch1 | deg2_internal,
    }


PROFILE_FIELDS = ("leaves", "stems", "branch", "deg2_external", "deg2_internal",
                  "leaf_sets", "leaf_distance", "branch0", "branch1",
                  "branch2plus", "branch01", "loss_table", "interior")


def profile_mismatches(tree, names=PROFILE_FIELDS):
    """The fields of `tree.profile`, read in the order of `names`, whose
    value, or a dict's key order, differs from tree_profile's."""
    want = tree_profile(tree)
    p = tree.profile
    bad = []
    for name in names:
        got = getattr(p, name)
        if got != want[name] or (isinstance(got, dict) and list(got) != list(want[name])):
            bad.append(name)
    return bad


def bn_dp_tables(tree):
    """Every state of the boundary-independence DP, kept for every vertex:
    (root, kids, height, out, inn, ends, pick) with out[v][r] for
    r < max(height(v), 1), and inn[v][k], pick[v][k] for every k < ecc(v)."""
    n = tree.n
    ecc = tree.eccentricities
    root = min(range(n), key=ecc.__getitem__)
    depth = tree.ball(root)
    kids = [[c for c in tree.neighbors(v) if depth[c] > depth[v]] for v in range(n)]
    height = [0] * n
    out = [None] * n
    inn = [None] * n
    ends = [False] * n
    pick = [None] * n
    for v in reversed(depth):
        e = ecc[v]
        S = [0] * e
        bonus = list(range(1, e + 1))
        up = [-1] * e
        g = 0
        for c in kids[v]:
            ic, oc = inn[c], out[c]
            for k, x in enumerate(oc):
                S[k] += x
            for k in range(min(e, len(ic) - 1)):
                t = ic[k + 1] - (oc[k] if k < len(oc) else 0)
                if t > bonus[k] or (t == bonus[k] and up[k] < 0):
                    bonus[k] = t
                    up[k] = c
            height[v] = max(height[v], height[c] + 1)
            ends[c] = ic[0] >= oc[0]
            g += max(oc[0], ic[0])
        out[v] = [g] + S[: height[v] - 1] if kids[v] else [g]
        inn[v] = [s + b for s, b in zip(S, bonus)]
        pick[v] = up
    return root, kids, height, out, inn, ends, pick


def bn_number_dp_full(tree):
    """`solve.bn_number_dp` without budgets and with every state stored,
    with the same tie rules, traceback and node count."""
    root, kids, height, out, inn, ends, pick = bn_dp_tables(tree)
    nodes = sum(len(o) + len(i) for o, i in zip(out, inn))
    value = out[root][0]
    ecc = tree.eccentricities
    state = 0
    for k in range(ecc[root] - 1, -1, -1):
        if inn[root][k] > value or (inn[root][k] == value and state == 0):
            value, state = inn[root][k], -(k + 1)
    strengths = [0] * tree.n
    stack = [(root, state)]
    while stack:
        v, state = stack.pop()
        if state == 0:
            stack.extend((c, -1 if ends[c] else 0) for c in kids[v])
        elif state > 0:
            if state < height[v]:
                stack.extend((c, state - 1) for c in kids[v])
        else:
            k = -state - 1
            c0 = pick[v][k]
            if c0 < 0:
                strengths[v] = k + 1
            stack.extend((c, -(k + 2) if c == c0 else k) for c in kids[v])
    return SolveResult(value=value, witness=Broadcast(tree, strengths), nodes=nodes)


def bn_optima(tree):
    """Every maximum-weight boundary-independent broadcast of `tree`, in
    lexicographic order of the strengths: the definitional scan over every
    strength vector (n <= ~7)."""
    dist = distance_rows(tree.n, tree.edges)
    best, optima = -1, []
    for arr in product(*(range(max(row) + 1) for row in dist)):
        if overlap_scan(arr, dist) is not None:
            continue
        w = sum(arr)
        if w > best:
            best, optima = w, []
        if w == best:
            optima.append(Broadcast(tree, arr))
    return tuple(optima)


@dataclass(frozen=True)
class OptimaReport:
    """Observed structure of a tree's optimal broadcasts.

    leaf_hears_nonleaf lists (optimum index, leaf, broadcaster) triples where
    a leaf hears a non-leaf broadcaster; expected empty.  The by-2 counter
    reports, among optima whose non-leaf strengths are all at most one, how
    many contain a leaf overdominating some branch vertex by exactly two.
    It is reported, never asserted.
    """

    weight: int
    optima_count: int
    leaf_hears_nonleaf: tuple
    low_strength_exists: bool
    low_strength_count: int
    overdominated_by2_count: int


def optima_properties(tree, optima) -> OptimaReport:
    """Scan a collection of optimal broadcasts for the structural facts above."""
    p = tree.profile
    leaves = p.leaves
    violations = []
    low_count = 0
    by2 = 0
    weight = optima[0].weight if optima else 0
    for idx, f in enumerate(optima):
        for v in f.broadcasters:
            if v in leaves:
                continue
            ball = tree.ball(v, f.strengths[v])
            for l in leaves:
                if l in ball:
                    violations.append((idx, l, v))
        if all(f.strengths[v] <= 1 for v in range(tree.n) if v not in leaves):
            low_count += 1
            if any(
                d == f.strengths[l] - 2 and b in p.branch
                for l in f.broadcasters
                if l in leaves
                for b, d in tree.ball(l, f.strengths[l]).items()
            ):
                by2 += 1
    return OptimaReport(
        weight=weight,
        optima_count=len(optima),
        leaf_hears_nonleaf=tuple(violations),
        low_strength_exists=low_count > 0,
        low_strength_count=low_count,
        overdominated_by2_count=by2,
    )


def family_edges(spec):
    """Sorted edges of a family spec's tree, labelled by the documented rule
    with a counter handing out labels: heads 0..m-1, then each joining
    path's interior, then each head's legs and then its leaves.  A path is
    one head with one leg, a spider one head with its legs, a double spider
    two heads and one bridge, a caterpillar its spine heads with leaves."""
    kind = type(spec).__name__
    if kind == "PathSpec":
        joins, heads = [], [([spec.n - 1], 0)]
    elif kind == "SpiderSpec":
        joins, heads = [], [(list(spec.legs), 0)]
    elif kind == "DoubleSpiderSpec":
        joins, heads = [spec.bridge], [(list(spec.legs1), 0), (list(spec.legs2), 0)]
    else:
        heads = [([], c) for c in spec.leaf_counts]
        joins = [1] * (len(heads) - 1) if spec.spacing is None else list(spec.spacing)
    label = count(len(heads))
    walks = [[i, *(next(label) for _ in range(j - 1)), i + 1] for i, j in enumerate(joins)]
    for i, (legs, leaves) in enumerate(heads):
        walks += [[i, *(next(label) for _ in range(leg))] for leg in legs]
        walks += [[i, next(label)] for _ in range(leaves)]
    return tuple(sorted((min(e), max(e)) for w in walks for e in zip(w, w[1:])))
