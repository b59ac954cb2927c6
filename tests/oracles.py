"""Independent reference implementations used only by the test suite.

Nothing here imports from the package's enumeration or solver internals:
tree counting goes through Prüfer sequences and an AHU-style canonical form
minimized over all rootings, the independence number is brute force over
vertex subsets, distances come from Floyd-Warshall, and the broadcast
analysis and violation certificate are read off a distance matrix by
direct definition.  Agreement between these and the shipped code is the
point of the tests that use them.
"""

import bisect
from itertools import combinations_with_replacement, product

from bnbroadcast.broadcasts import BnViolation, BroadcastAnalysis, overlap_scan


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


def free_canon(n, edges):
    """Canonical form of a free tree: minimal rooted AHU form over all roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
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
