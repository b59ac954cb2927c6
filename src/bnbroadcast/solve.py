"""Exact solvers, bounds, witness construction, and closed formulas.

On a tree a broadcast is boundary independent exactly when no edge is
covered by two broadcasters, so its maximum weight is the largest total
radius of edge-disjoint balls B(v, s) with 1 <= s <= ecc(v).

Every solver on a command-line path is an iterative rooted DP that reads an
optimal broadcast back, checks it with the linear predicate of its rule and
counts its states as `nodes`:

* bn_number_dp computes the boundary-independence number in
  O(n * diameter) states.  compute_bounds and the corpus search call it.
  Below the root, the states of a vertex v whose ball reaches the parent
  with height(v) - 1 or more to spare have a closed form (a ball from a
  deepest descendant of v), so only the states below that are stored,
  about half of them on a path.  `nodes` counts every state, stored or
  not.

* hearing_number computes the hearing-independence number (no broadcaster
  in another's ball; the balls may overlap) over Pareto sets of (nearest
  broadcaster, largest reach) states.  `search --check chain` calls it.

* independence_number finds the lexicographically least maximum
  independent set with one weighted DP (_max_independent_set), which
  conjectured_upper_bound also runs on the branch01 vertices.

Every exact solver, DP or oracle, returns SolveResult(value, witness,
nodes), or raises BudgetExceeded(nodes) when it counts more nodes than its
SolveLimits allow; no solver reports a partial optimum.  The node count is
the only budget and no solver reads a clock, so a solve and its outcome
depend only on the tree and the limits.

The other solvers are slower, independent routes that the tests compare
the boundary-independence DP against:

* bn_number_enum walks the complete strength space and keeps whatever
  passes the definitional scan (broadcasts.overlap_scan).  It shares no
  pruning logic with anything else and serves as the ground-truth oracle on
  small trees.

* bn_number runs a depth-first search over vertices in order of decreasing
  eccentricity with three pruning rules: pairwise compatibility of the
  assigned prefix, a disjoint covered-edge budget, and an optimistic
  completion bound.  On a tree two broadcasters overlap somewhere off both
  boundaries exactly when the sum of their strengths exceeds their
  distance, and a broadcaster of strength s covers the ball(v, s) subtree's
  edges, which is where the edge budget comes from.  Every improving
  assignment is re-validated against the definitional scan.

* bn_number_restricted caps non-leaf strengths at one; for trees this loses
  nothing, which is itself one of the facts the test suite checks.

The lower-bound witness assigns, for a maximum independent set X of the
interior forest: full leaf-set distances for branch vertices with two or
more leaves and for one-leaf branch vertices outside X, distance plus one
for the single leaf of one-leaf branch vertices in X, and strength one to
the remaining X vertices.  The result is verified before being returned.

The DPs, the bounds, the witnesses and the closed formulas read distances
only from BFS balls (`Forest.ball`) and from the structural profile, so
none of them builds the O(n^2) distance matrix; bn_number_enum and
_max_weight_dfs (bn_number, bn_number_restricted) and their definitional
scan read it, and serve only as oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .broadcasts import (
    Broadcast,
    bn_violation,
    hearing_violation,
    is_bn_independent,
    overlap_scan,
)
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NoBranchVertices,
    ShapeMismatch,
)
from .trees import Forest, Shape, Tree, classify_shape


@dataclass(frozen=True)
class SolveLimits:
    """The exact solvers' budget: at most max_nodes nodes (each solver's
    states), None meaning unlimited."""

    max_nodes: Optional[int] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Broadcast
    nodes: int


def _max_independent_set(neighbors, vertices) -> tuple:
    """Lexicographically least maximum independent set of the forest induced
    on `vertices`, as (size, frozenset); `neighbors(v)` is read only for v in
    `vertices`.

    One weighted tree DP per component: the vertex of rank i among the k
    vertices weighs 2^k + 2^(k-1-i).  The 2^k terms make every optimum a
    maximum independent set, and the low bits, read as a binary number,
    rank the sets of equal size lexicographically, least sorted tuple
    highest.  Distinct sets have distinct weights, so the optimum is unique
    and the traceback never meets a tie.
    """
    rank = {v: i for i, v in enumerate(sorted(vertices))}
    k = len(rank)
    top = 1 << k
    parent = {}
    chosen = []
    for r in rank:
        if r in parent:
            continue
        order = [r]
        parent[r] = None
        for u in order:
            for w in neighbors(u):
                if w in rank and w not in parent:
                    parent[w] = u
                    order.append(w)
        # per vertex: the best weight without it and the best at all, kept
        # only until its parent reads them; `better`: taking it beats not
        excl = {}
        best = {}
        better = {}
        for u in reversed(order):
            i = top | (1 << (k - 1 - rank[u]))
            e = 0
            for w in neighbors(u):
                if w in rank and w != parent[u]:
                    i += excl.pop(w)
                    e += best.pop(w)
            better[u] = i > e
            excl[u], best[u] = e, max(i, e)
        taken = set()
        for u in order:
            if better[u] and parent[u] not in taken:
                taken.add(u)
        chosen.extend(taken)
    return len(chosen), frozenset(chosen)


def independence_number(g: Forest) -> tuple:
    """Maximum independent set size of a forest, with one witness set: the
    lexicographically least maximum independent set."""
    return _max_independent_set(g.neighbors, range(g.n))


class _Budget:
    """A solver's node counter and its cap from SolveLimits."""

    __slots__ = ("nodes", "max_nodes")

    def __init__(self, limits):
        self.nodes = 0
        self.max_nodes = limits.max_nodes if limits else None

    def spend(self, count=1):
        """Count `count` nodes; past the cap, raise BudgetExceeded."""
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceeded(self.nodes)


def bn_number_enum(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Ground-truth oracle: enumerate every broadcast, filter, take the max.

    Feasible up to seven or so vertices.
    """
    dist = tree.distances
    budget = _Budget(limits)
    best = 0
    best_arr = (0,) * tree.n
    for arr in itertools.product(*(range(e + 1) for e in tree.eccentricities)):
        budget.spend()
        if overlap_scan(arr, dist) is not None:
            continue
        w = sum(arr)
        if w > best:
            best = w
            best_arr = arr
    return SolveResult(value=best, witness=Broadcast(tree, best_arr), nodes=budget.nodes)


def _max_weight_dfs(tree, caps, limits):
    """Branch-and-bound engine of the two boundary-independence oracles.

    caps bounds the strength domain per vertex.  Two broadcasters are
    compatible when their distance is at least the sum of their strengths,
    and the balls' covered edges are charged to a budget of n - 1 edges.
    """
    n = tree.n
    dist = tree.distances
    order = sorted(range(n), key=lambda v: (-tree.eccentricities[v], v))
    edge_total = n - 1

    ball_edges = []
    for v in range(n):
        counts = [0] * (tree.eccentricities[v] + 1)
        for d in dist[v]:
            counts[d] += 1
        acc = []
        run = 0
        for c in counts:
            run += c
            acc.append(run - 1)
        ball_edges.append(acc)

    suffix = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + caps[order[k]]

    budget = _Budget(limits)
    best = 0
    best_arr = [0] * n
    cur = [0] * n
    assigned = []  # (vertex, strength) for broadcasters in the prefix

    def visit(k, weight, edges_used):
        nonlocal best, best_arr
        budget.spend()
        if k == n:
            if weight > best:
                # the pair rule is exact on trees and filters these early
                if overlap_scan(cur, dist) is not None:
                    raise InternalInconsistency(
                        f"search reached a dependent assignment {cur}"
                    )
                best = weight
                best_arr = cur[:]
            return
        v = order[k]
        cap = caps[v]
        if cap > 0:
            dv = dist[v]
            for u, su in assigned:
                limit = dv[u] - su
                if limit < cap:
                    cap = limit
                    if cap <= 0:
                        break
        if cap > 0:
            bev = ball_edges[v]
            for s in range(cap, 0, -1):
                ce = bev[s]
                if edges_used + ce > edge_total:
                    continue
                new_edges = edges_used + ce
                future = min(suffix[k + 1], edge_total - new_edges)
                if weight + s + future <= best:
                    continue
                cur[v] = s
                assigned.append((v, s))
                visit(k + 1, weight + s, new_edges)
                assigned.pop()
                cur[v] = 0
        if weight + min(suffix[k + 1], edge_total - edges_used) <= best:
            return
        visit(k + 1, weight, edges_used)

    visit(0, 0, 0)
    return SolveResult(value=best, witness=Broadcast(tree, best_arr), nodes=budget.nodes)


def bn_number(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact maximum boundary-independent broadcast weight (pruned search).

    A recursive oracle for small trees: the search recurses once per
    vertex, so it exhausts the interpreter's recursion limit near a
    thousand vertices.  bn_number_dp is the solver for every tree size.
    """
    caps = list(tree.eccentricities)
    return _max_weight_dfs(tree, caps, limits)


def bn_number_restricted(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact value under the loss-free restriction: non-leaf strengths <= 1."""
    leaves = tree.profile.leaves
    caps = [e if v in leaves else min(e, 1) for v, e in enumerate(tree.eccentricities)]
    return _max_weight_dfs(tree, caps, limits)


def bn_number_dp(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact maximum boundary-independent broadcast weight by a tree DP.

    The value is the largest total radius of edge-disjoint balls B(v, s),
    1 <= s <= ecc(v).  Rooted at a centre, every vertex v keeps three
    families of states about the edge to its parent:

    * g[v]: no ball from below crosses the edge;
    * out[v][r], r >= 1: a ball from above reaches v with r to spare, so
      it covers every child edge (out[v][0] is g[v]; zero from height(v));
    * inn[v][k], k < ecc(v): a ball centred at v or below crosses the edge
      and reaches the parent with k to spare; pick[v][k] is the child that
      passes it up, or -1 when v is the centre.

    Below the root only the states k < height(v) - 1 are stored; above
    them the tail has a closed form.  For a non-root v and
    height(v) - 1 <= k < ecc(v):

        inn[v][k] = k + 1 + height(v), and pick[v][k] is the first child
        of greatest height (-1 for a leaf).

    Such a ball covers the whole subtree of v, so the best one has the
    largest radius, from a deepest descendant w.  Its strength
    k + 1 + depth(w) - depth(v) is available: rooted at a centre with
    R = ecc(root), ecc(w) = depth(w) + R - delta, where delta is 1 on the
    other centre's side of a bicentral tree and 0 otherwise, so the
    strength is at most ecc(w) exactly when k < ecc(v).  A child's tail
    k + 2 + height(c) beats v's own k + 1, and ties keep the first child.
    The root keeps its full table: the argument needs w on v's side, and
    in a bicentral tree the root's deepest descendants on the other
    centre's side have eccentricity 2R - 1, one short of the tail's ball.

    The states are filled in one iterative post-order and an optimal
    broadcast is read back top-down.  `nodes` counts every state,
    len(out[v]) + ecc(v) per vertex, whether stored or in a closed-form
    tail, so where a node budget stops does not depend on how much is
    stored.  The witness is checked by bn_violation, linear on an
    independent broadcast, before it is returned.  Running out of budget
    raises BudgetExceeded with the states counted so far.
    """
    n = tree.n
    adj = [tree.neighbors(v) for v in range(n)]
    ecc = tree.eccentricities
    root = min(range(n), key=ecc.__getitem__)
    depth = tree.ball(root)

    budget = _Budget(limits)
    kids = [[c for c in adj[v] if depth[c] > depth[v]] for v in range(n)]
    height = [0] * n
    out = [None] * n
    inn = [None] * n
    # what the traceback needs once a child's lists are dropped: whether a
    # ball ending at the parent beats an empty edge, and the stored part of
    # pick
    ends = [False] * n
    pick = [None] * n
    deep = [-1] * n  # the first child of greatest height: the tail's pick
    for v in reversed(depth):
        e = ecc[v]
        h = 0
        for c in kids[v]:
            if height[c] + 1 > h:
                h = height[c] + 1
                deep[v] = c
        height[v] = h
        # the stored states: all of them at the root, below h - 1 elsewhere
        top = e if v == root else h - 1 if h else 0
        # S[k]: the children under a ball that reaches v with k+1 to spare;
        # bonus[k]: the ball's own radius, from v as centre or passed up
        S = [0] * top
        bonus = list(range(1, top + 1))
        up = [-1] * top
        g = 0
        for c in kids[v]:
            ic, oc, hc = inn[c], out[c], height[c]
            li, lo = len(ic), len(oc)
            # out[c] is no longer than S, except a leaf's [0] when top is 0
            if top:
                for k, x in enumerate(oc):
                    S[k] += x
            m = ecc[c] - 1
            if m > top:
                m = top
            for k in range(m):
                t = ((ic[k + 1] if k + 1 < li else k + 2 + hc)
                     - (oc[k] if k < lo else 0))
                if t > bonus[k] or (t == bonus[k] and up[k] < 0):
                    bonus[k] = t
                    up[k] = c
            i0 = ic[0] if li else 1 + hc
            ends[c] = i0 >= oc[0]
            g += max(oc[0], i0)
            out[c] = inn[c] = None
        out[v] = [g] + S[: h - 1] if kids[v] else [g]
        inn[v] = [s + b for s, b in zip(S, bonus)]
        pick[v] = up
        budget.spend(len(out[v]) + e)

    # traceback: state r >= 0 is out[v][r], state -(k+1) is inn[v][k]; ties
    # go to the larger ball, which keeps the witness's broadcasters few
    value = out[root][0]
    state = 0
    for k in range(ecc[root] - 1, -1, -1):
        if inn[root][k] > value or (inn[root][k] == value and state == 0):
            value, state = inn[root][k], -(k + 1)
    strengths = [0] * n
    stack = [(root, state)]
    while stack:
        v, state = stack.pop()
        if state == 0:
            stack.extend((c, -1 if ends[c] else 0) for c in kids[v])
        elif state > 0:
            # r >= height(v): the ball from above covers the whole subtree
            if state < height[v]:
                stack.extend((c, state - 1) for c in kids[v])
        else:
            k = -state - 1
            c0 = pick[v][k] if k < len(pick[v]) else deep[v]
            if c0 < 0:
                strengths[v] = k + 1
            stack.extend((c, -(k + 2) if c == c0 else k) for c in kids[v])

    witness = Broadcast(tree, strengths)
    if witness.weight != value or bn_violation(witness) is not None:
        raise InternalInconsistency(
            f"DP witness {strengths} does not realise the value {value}"
        )
    return SolveResult(value=value, witness=witness, nodes=budget.nodes)


def _pareto(cands):
    """The states of `cands`, a dict (D, R) -> (weight, link), that no other
    state beats: (D', R', w') beats (D, R, w) when D' >= D, R' <= R and
    w' >= w."""
    kept = {}
    top = max(r for _, r in cands)
    best = [-1] * (top + 1)  # best[r]: the largest weight kept with R <= r
    for key in sorted(cands, key=lambda k: (-k[0], k[1])):
        entry = cands[key]
        w = entry[0]
        r = key[1]
        if best[r] >= w:
            continue
        kept[key] = entry
        while r <= top and best[r] < w:
            best[r] = w
            r += 1
    return kept


def hearing_number(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact maximum hearing-independent broadcast weight by a tree DP.

    Hearing independence asks that no broadcaster lies in another's ball;
    the balls themselves may overlap.  Rooted at a centre, every vertex v
    keeps a Pareto set of states (D, R) -> best weight of its subtree:

    * D: the distance from v to the nearest broadcaster below or at v (n
      when there is none);
    * R: the largest f(w) - d(w, v) over those broadcasters w, floored at
      0.  Every vertex outside the subtree is at least 1 from v, so no
      outside broadcaster hears one inside when R is 0 or less.

    A subtree fits an outside part (D', R') exactly when R < D' and R' < D,
    so at a silent v the children's states, shifted one step up, merge in
    pairs that pass that test into (min D, max R).  v broadcasts with
    strength s <= ecc(v) over children whose shifted states have D > s and
    no broadcaster reaching v, giving the state (0, s).  A state beaten by
    another with a larger or equal D, a smaller or equal R and a larger or
    equal weight is dropped.

    The states are filled in one iterative post-order and an optimal
    broadcast is read back top-down; `nodes` counts the states kept.  The
    witness is checked by hearing_violation before it is returned.  Running
    out of budget raises BudgetExceeded with the states counted so far.
    """
    n = tree.n
    ecc = tree.eccentricities
    root = min(range(n), key=ecc.__getitem__)
    depth = tree.ball(root)
    kids = [[c for c in tree.neighbors(v) if depth[c] > depth[v]] for v in range(n)]

    budget = _Budget(limits)
    # states[v]: (D, R) -> (weight, link); a silent v links the children's
    # states it merged as (last child's key, (previous child's key, ...))
    states = [None] * n
    for v in reversed(depth):
        acc = {(n, 0): (0, None)}
        for c in kids[v]:
            shifted = {}
            for (d, r), (w, _) in states[c].items():
                key = (d + 1 if d < n else n, r - 1 if r else 0)
                if key not in shifted or shifted[key][0] < w:
                    shifted[key] = (w, (d, r))
            merged = {}
            for (da, ra), (wa, link) in acc.items():
                for (db, rb), (wb, ck) in shifted.items():
                    if db > ra and da > rb:
                        key = (da if da < db else db, ra if ra > rb else rb)
                        w = wa + wb
                        if key not in merged or merged[key][0] < w:
                            merged[key] = (w, (ck, link))
            acc = _pareto(merged)
        # v broadcasts with strength s: every child keeps its best state with
        # R = 0 and D >= s, which is the one with the least such D
        quiet = [sorted((d, w) for (d, r), (w, _) in states[c].items() if r == 0)
                 for c in kids[v]]
        at = [0] * len(quiet)
        for s in range(1, ecc[v] + 1):
            w = s
            for i, q in enumerate(quiet):
                while q[at[i]][0] < s:
                    at[i] += 1
                w += q[at[i]][1]
            acc[(0, s)] = (w, None)
        states[v] = _pareto(acc)
        budget.spend(len(states[v]))

    value, key = max((w, k) for k, (w, _) in states[root].items())
    strengths = [0] * n
    stack = [(root, key)]
    while stack:
        v, (d, r) = stack.pop()
        if d == 0:
            strengths[v] = r
            for c in kids[v]:
                stack.append((c, min(k for k in states[c] if k[1] == 0 and k[0] >= r)))
        else:
            link = states[v][(d, r)][1]
            for c in reversed(kids[v]):
                ck, link = link
                stack.append((c, ck))

    witness = Broadcast(tree, strengths)
    if witness.weight != value or hearing_violation(witness) is not None:
        raise InternalInconsistency(
            f"hearing DP witness {strengths} does not realise the value {value}"
        )
    return SolveResult(value=value, witness=witness, nodes=budget.nodes)


def lower_bound_witness(tree: Tree) -> tuple:
    """Constructive lower bound for trees with a branch vertex.

    Returns (weight, broadcast) where weight equals
    n - #branch - #internal-degree-2 + independence(interior)
    and the broadcast is re-verified to be boundary independent before being
    returned; a failure here is a bug, not bad input.
    """
    p = tree.profile
    if not p.branch:
        raise NoBranchVertices("the lower bound needs a branch vertex")
    return _lower_bound_witness(tree, independence_number(p.interior))


def _lower_bound_witness(tree, interior_mis):
    """lower_bound_witness given (alpha, X) of the interior forest, X in the
    forest's own vertex numbers."""
    p = tree.profile
    alpha_int, x_local = interior_mis
    x = frozenset(p.interior.labels[i] for i in x_local)

    strengths = [0] * tree.n
    for b in p.branch2plus | (p.branch1 - x):
        for l in p.leaf_sets[b]:
            strengths[l] = p.leaf_distance[l]
    for b in p.branch1 & x:
        (l,) = p.leaf_sets[b]
        strengths[l] = p.leaf_distance[l] + 1
    for v in x & (p.branch0 | p.deg2_internal):
        strengths[v] = 1

    f = Broadcast(tree, strengths)
    expected = tree.n - len(p.branch) - len(p.deg2_internal) + alpha_int
    if f.weight != expected:
        raise InternalInconsistency(
            f"witness weight {f.weight} != expected lower bound {expected}"
        )
    if not is_bn_independent(f):
        raise InternalInconsistency("lower-bound witness is not boundary independent")
    return expected, f


def upper_bound(tree: Tree) -> int:
    """n - #branch + #branch01, valid for any tree with a branch vertex."""
    p = tree.profile
    if not p.branch:
        raise NoBranchVertices("the upper bound needs a branch vertex")
    return tree.n - len(p.branch) + len(p.branch01)


def conjectured_upper_bound(tree: Tree) -> int:
    """Speculative sharpening: replace #branch01 by its induced independence.

    Recorded alongside results and searched for counterexamples; never
    assumed correct anywhere.
    """
    p = tree.profile
    if not p.branch:
        raise NoBranchVertices("the conjectured bound needs a branch vertex")
    alpha_r, _ = _max_independent_set(tree.neighbors, p.branch01)
    return tree.n - len(p.branch) + alpha_r


def path_spider_value(tree: Tree) -> int:
    """Closed value n-1 on paths and spiders (trivially right for order 1)."""
    if classify_shape(tree) & {Shape.PATH, Shape.SPIDER}:
        return tree.n - 1
    raise ShapeMismatch("tree is neither a path nor a spider")


def two_branch_value(tree: Tree) -> int:
    """Closed value for trees with exactly two branch vertices."""
    p = tree.profile
    if len(p.branch) != 2:
        raise ShapeMismatch(f"tree has {len(p.branch)} branch vertices, not 2")
    b1, b2 = sorted(p.branch)
    d = tree.ball(b1)[b2]
    half_up = (d + 1) // 2
    return tree.n - 1 - min(half_up, p.loss_table[b1].loss, p.loss_table[b2].loss)


def _empty_or_independent(tree, vertices):
    vs = set(vertices)
    return not any(u in vs and v in vs for u, v in tree.edges)


def caterpillar_value(tree: Tree) -> int:
    """Closed value n - #branch + #branch01 for caterpillars whose branch
    vertices are consecutive (no internal degree-2 vertex) and whose
    branch01 set is empty or independent."""
    p = tree.profile
    shapes = classify_shape(tree)
    if (
        Shape.CATERPILLAR not in shapes
        or not p.branch
        or p.deg2_internal
        or not _empty_or_independent(tree, p.branch01)
    ):
        raise ShapeMismatch("caterpillar formula preconditions not met")
    return tree.n - len(p.branch) + len(p.branch01)


@dataclass(frozen=True)
class BoundsReport:
    """Everything the bounds pipeline knows about one tree.

    The sandwich lower <= exact <= upper and formula == exact are enforced
    (violations raise InternalInconsistency); exact <= conjectured is only
    recorded in conjecture_ok because refuting it is a legitimate outcome.
    exact_status is "not_run", "solved" or "budget_exceeded"; exact and
    witness_exact are set only when solved, and nodes whenever the solver
    ran.
    """

    n: int
    branch_count: int
    branch01_count: int
    deg2_internal_count: int
    interior_independence: int
    lower: Optional[int]
    upper: Optional[int]
    conjectured: Optional[int]
    formula_name: Optional[str]
    formula_value: Optional[int]
    exact: Optional[int]
    exact_status: str
    nodes: Optional[int]
    witness_lower: Optional[Broadcast]
    witness_exact: Optional[Broadcast]
    conjecture_ok: Optional[bool]


def compute_bounds(tree: Tree, limits: Optional[SolveLimits] = None,
                   exact: bool = False) -> BoundsReport:
    """Bounds, applicable formula, and optionally the exact value of one tree.

    Formula precedence: path/spider, then two branch vertices, then
    caterpillar.  A disagreement between an applicable formula and a
    completed exact search raises InternalInconsistency, as does an exact
    value escaping the sandwich.  When the exact solver runs out of budget
    the report keeps the nodes it spent and no value or witness.
    """
    p = tree.profile
    shapes = classify_shape(tree)
    interior_mis = independence_number(p.interior)
    alpha_int = interior_mis[0]

    lower = upper = conjectured = None
    witness_lower = None
    if p.branch:
        lower, witness_lower = _lower_bound_witness(tree, interior_mis)
        upper = upper_bound(tree)
        conjectured = conjectured_upper_bound(tree)

    formula_name = formula_value = None
    if shapes & {Shape.PATH, Shape.SPIDER}:
        formula_name, formula_value = "path_spider", path_spider_value(tree)
    elif len(p.branch) == 2:
        formula_name, formula_value = "two_branch", two_branch_value(tree)
    else:
        try:
            formula_name, formula_value = "caterpillar", caterpillar_value(tree)
        except ShapeMismatch:
            pass

    exact_value = nodes = witness_exact = None
    status = "not_run"
    if exact:
        try:
            res = bn_number_dp(tree, limits)
            exact_value = res.value
            witness_exact = res.witness
            nodes = res.nodes
            status = "solved"
        except BudgetExceeded as exc:
            nodes = exc.nodes
            status = "budget_exceeded"

    if exact_value is not None:
        if lower is not None and not (lower <= exact_value <= upper):
            raise InternalInconsistency(
                f"exact {exact_value} escapes sandwich [{lower}, {upper}]"
            )
        if formula_value is not None and formula_value != exact_value:
            raise InternalInconsistency(
                f"formula {formula_name}={formula_value} but exact={exact_value}"
            )

    conjecture_ok = None
    if exact_value is not None and conjectured is not None:
        conjecture_ok = exact_value <= conjectured

    return BoundsReport(
        n=tree.n,
        branch_count=len(p.branch),
        branch01_count=len(p.branch01),
        deg2_internal_count=len(p.deg2_internal),
        interior_independence=alpha_int,
        lower=lower,
        upper=upper,
        conjectured=conjectured,
        formula_name=formula_name,
        formula_value=formula_value,
        exact=exact_value,
        exact_status=status,
        nodes=nodes,
        witness_lower=witness_lower,
        witness_exact=witness_exact,
        conjecture_ok=conjecture_ok,
    )
