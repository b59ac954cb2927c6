"""Exact solvers, bounds, witness construction, and closed formulas.

On a tree a broadcast is boundary independent exactly when no edge is
covered by two broadcasters, so its maximum weight is the largest total
radius of edge-disjoint balls B(v, s) with 1 <= s <= ecc(v).

* bn_number_dp computes that value with a rooted DP in O(n * diameter)
  states and reads an optimal broadcast back from it.  It is the solver
  compute_bounds and the corpus search call, and its `nodes` counts DP
  states.

The other solvers are slower, independent routes that the tests compare the
DP against:

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

hearing_number maximizes the weaker hearing-independence predicate with the
branch-and-bound rules that remain sound for it (no edge budget).

The lower-bound witness assigns, for a maximum independent set X of the
interior forest: full leaf-set distances for branch vertices with two or
more leaves and for one-leaf branch vertices outside X, distance plus one
for the single leaf of one-leaf branch vertices in X, and strength one to
the remaining X vertices.  The result is verified before being returned.

The DP, the bounds, the witnesses and the closed formulas read distances
only from BFS balls (`Forest.ball`) and from the structural profile, so
none of them builds the O(n^2) distance matrix; bn_number_enum,
_max_weight_dfs (bn_number, bn_number_restricted, hearing_number) and
their definitional scans read it, and serve only as oracles.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from .broadcasts import (
    Broadcast,
    bn_violation,
    hearing_scan,
    is_bn_independent,
    overlap_scan,
)
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NoBranchVertices,
    ShapeMismatch,
)
from .trees import Forest, Shape, Tree, classify_shape, induced_subgraph


@dataclass(frozen=True)
class SolveLimits:
    """Budgets for the exact solvers; None means unlimited."""

    max_nodes: Optional[int] = None
    time_ms: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.time_ms is not None and not self.time_ms > 0:
            raise ValueError("time_ms must be positive")


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Broadcast
    nodes: int
    optima: Optional[tuple] = None


def _alpha_value(adj, alive):
    """Independence number of the forest induced on `alive` (tree DP)."""
    seen = set()
    total = 0
    for r in sorted(alive):
        if r in seen:
            continue
        order = [r]
        parent = {r: None}
        seen.add(r)
        for u in order:
            for w in adj[u]:
                if w in alive and w not in parent:
                    parent[w] = u
                    seen.add(w)
                    order.append(w)
        incl = {}
        excl = {}
        for u in reversed(order):
            i, e = 1, 0
            for w in adj[u]:
                if w in alive and w != parent[u]:
                    i += excl[w]
                    e += max(incl[w], excl[w])
            incl[u], excl[u] = i, e
        total += max(incl[r], excl[r])
    return total


def independence_number(g: Forest) -> tuple:
    """Maximum independent set size of a forest, with one witness set.

    The witness is the lexicographically least maximum independent set:
    greedily keep the lowest-indexed vertex whose inclusion still allows a
    set of maximum size.
    """
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))
    alpha = _alpha_value(adj, alive)
    target = alpha
    chosen = []
    for v in range(g.n):
        if v not in alive:
            continue
        rest = alive - {v} - adj[v]
        if 1 + _alpha_value(adj, rest) == target:
            chosen.append(v)
            alive = rest
            target -= 1
        else:
            alive.discard(v)
    return alpha, frozenset(chosen)


class _Budget:
    """Node counter plus optional wall-clock deadline."""

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, limits):
        self.nodes = 0
        self.max_nodes = limits.max_nodes if limits else None
        self.deadline = None
        if limits and limits.time_ms is not None:
            self.deadline = time.monotonic() + limits.time_ms / 1000.0

    def spend(self, best_value, best_arr, host, count=1):
        before = self.nodes
        self.nodes += count
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceeded(
                best_value, Broadcast(host, best_arr), self.nodes
            )
        # the clock is read once per 1024 nodes spent
        if self.deadline is not None and before >> 10 != self.nodes >> 10:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded(
                    best_value,
                    Broadcast(host, best_arr),
                    self.nodes,
                    reason="time budget exhausted",
                )


def bn_number_enum(tree: Tree, limits: Optional[SolveLimits] = None,
                   collect_optima: bool = False) -> SolveResult:
    """Ground-truth oracle: enumerate every broadcast, filter, take the max.

    Feasible up to seven or so vertices.  With collect_optima the result
    carries every optimum.
    """
    dist = tree.distances
    budget = _Budget(limits)
    best = 0
    best_arr = (0,) * tree.n
    optima = [best_arr] if collect_optima else None
    for arr in itertools.product(*(range(e + 1) for e in tree.eccentricities)):
        budget.spend(best, best_arr, tree)
        if overlap_scan(arr, dist) is not None:
            continue
        w = sum(arr)
        if w > best:
            best = w
            best_arr = arr
            if collect_optima:
                optima = [arr]
        elif collect_optima and w == best:
            optima.append(arr)
    witness = Broadcast(tree, best_arr)
    return SolveResult(
        value=best,
        witness=witness,
        nodes=budget.nodes,
        optima=tuple(Broadcast(tree, a) for a in optima) if collect_optima else None,
    )


def _max_weight_dfs(tree, caps, limits, hearing):
    """Shared branch-and-bound engine for the two pairwise predicates.

    caps bounds the strength domain per vertex.  hearing switches the pair
    rule from strength-sum-vs-distance to neither-hears-the-other and turns
    the edge budget off (hearing-independent balls may overlap).
    """
    n = tree.n
    dist = tree.distances
    order = sorted(range(n), key=lambda v: (-tree.eccentricities[v], v))
    edge_total = n - 1

    ball_edges = None
    if not hearing:
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
    leaf_scan = hearing_scan if hearing else overlap_scan

    def visit(k, weight, edges_used):
        nonlocal best, best_arr
        budget.spend(best, best_arr, tree)
        if k == n:
            if weight > best:
                # the pair rule is exact on trees and filters these early
                if leaf_scan(cur, dist) is not None:
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
                d = dv[u]
                limit = (d - 1 if su < d else 0) if hearing else d - su
                if limit < cap:
                    cap = limit
                    if cap <= 0:
                        break
        if cap > 0:
            bev = ball_edges[v] if not hearing else None
            for s in range(cap, 0, -1):
                new_edges = edges_used
                if not hearing:
                    ce = bev[s]
                    if edges_used + ce > edge_total:
                        continue
                    new_edges = edges_used + ce
                future = suffix[k + 1]
                if not hearing:
                    room = edge_total - new_edges
                    if room < future:
                        future = room
                if weight + s + future <= best:
                    continue
                cur[v] = s
                assigned.append((v, s))
                visit(k + 1, weight + s, new_edges)
                assigned.pop()
                cur[v] = 0
        future = suffix[k + 1]
        if not hearing:
            room = edge_total - edges_used
            if room < future:
                future = room
        if weight + future <= best:
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
    return _max_weight_dfs(tree, caps, limits, False)


def bn_number_restricted(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact value under the loss-free restriction: non-leaf strengths <= 1."""
    leaves = tree.profile.leaves
    caps = [e if v in leaves else min(e, 1) for v, e in enumerate(tree.eccentricities)]
    return _max_weight_dfs(tree, caps, limits, False)


def hearing_number(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact maximum hearing-independent broadcast weight."""
    caps = list(tree.eccentricities)
    return _max_weight_dfs(tree, caps, limits, True)


def bn_number_dp(tree: Tree, limits: Optional[SolveLimits] = None) -> SolveResult:
    """Exact maximum boundary-independent broadcast weight by a tree DP.

    The value is the largest total radius of edge-disjoint balls B(v, s),
    1 <= s <= ecc(v).  Rooted at a centre, every vertex v keeps three
    families of states about the edge to its parent:

    * g[v]: no ball from below crosses the edge;
    * out[v][r], r >= 1: a ball from above reaches v with r to spare, so
      it covers every child edge (out[v][0] is g[v]; zero from height(v));
    * inn[v][k], k < ecc(v): a ball centred at v or below crosses the edge
      and reaches the parent with k to spare.

    The states are filled in one iterative post-order and an optimal
    broadcast is read back top-down; `nodes` counts the states filled.  The
    witness is checked by bn_violation, linear on an independent broadcast,
    before it is returned.
    The DP keeps no partial optimum, so running out of budget reports 0 and
    the empty broadcast.
    """
    n = tree.n
    adj = [tree.neighbors(v) for v in range(n)]
    ecc = tree.eccentricities
    root = min(range(n), key=ecc.__getitem__)
    depth = tree.ball(root)

    budget = _Budget(limits)
    silent = (0,) * n
    kids = [[c for c in adj[v] if depth[c] > depth[v]] for v in range(n)]
    height = [0] * n
    out = [None] * n
    inn = [None] * n
    # what the traceback needs once a child's lists are dropped: whether a
    # ball ending at the parent beats an empty edge, and per inn state the
    # child passing the ball up (-1: v is the centre)
    ends = [False] * n
    pick = [None] * n
    for v in reversed(depth):
        e = ecc[v]
        # S[k]: the children under a ball that reaches v with k+1 to spare;
        # bonus[k]: the ball's own radius, from v as centre or passed up
        S = [0] * e
        bonus = list(range(1, e + 1))
        up = [-1] * e
        g = 0
        for c in kids[v]:
            ic, oc = inn[c], out[c]
            for k, x in enumerate(oc):
                S[k] += x
            lo = len(oc)
            for k in range(min(e, len(ic) - 1)):
                t = ic[k + 1] - (oc[k] if k < lo else 0)
                if t > bonus[k] or (t == bonus[k] and up[k] < 0):
                    bonus[k] = t
                    up[k] = c
            height[v] = max(height[v], height[c] + 1)
            ends[c] = ic[0] >= oc[0]
            g += max(oc[0], ic[0])
            out[c] = inn[c] = None
        out[v] = [g] + S[: height[v] - 1] if kids[v] else [g]
        inn[v] = [s + b for s, b in zip(S, bonus)]
        pick[v] = up
        budget.spend(0, silent, tree, len(out[v]) + len(inn[v]))

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
            c0 = pick[v][k]
            if c0 < 0:
                strengths[v] = k + 1
            stack.extend((c, -(k + 2) if c == c0 else k) for c in kids[v])

    witness = Broadcast(tree, strengths)
    if witness.weight != value or bn_violation(witness) is not None:
        raise InternalInconsistency(
            f"DP witness {strengths} does not realise the value {value}"
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
    interior = p.interior
    alpha_int, x_local = independence_number(interior)
    x = frozenset(interior.labels[i] for i in x_local)

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
    alpha_r, _ = independence_number(induced_subgraph(tree, p.branch01))
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
    best_found: Optional[int]
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
    value escaping the sandwich.
    """
    p = tree.profile
    shapes = classify_shape(tree)
    alpha_int, _ = independence_number(p.interior)

    lower = upper = conjectured = None
    witness_lower = None
    if p.branch:
        lower, witness_lower = lower_bound_witness(tree)
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

    exact_value = best_found = nodes = None
    witness_exact = None
    status = "not_run"
    if exact:
        try:
            res = bn_number_dp(tree, limits)
            exact_value = res.value
            witness_exact = res.witness
            nodes = res.nodes
            status = "solved"
        except BudgetExceeded as exc:
            best_found = exc.best_value
            witness_exact = exc.best_broadcast
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
        best_found=best_found,
        nodes=nodes,
        witness_lower=witness_lower,
        witness_exact=witness_exact,
        conjecture_ok=conjecture_ok,
    )


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


def optima_properties(tree: Tree, optima) -> OptimaReport:
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
