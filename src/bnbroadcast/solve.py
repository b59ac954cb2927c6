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
  with K(v) or more to spare have a closed form (a ball from a deepest
  descendant of v), so only the states below that are stored.  K(v) is at
  most height(v) - 1 and is read off the first deepest child's out list;
  it is 0 on a path or a spider's leg, where a class is filled with no
  per-state work.  The stored states below the root depend only on the
  rooted subtree, so they are filled once per class of rooted subtrees
  (the ordered tuple of the children's classes), not once per vertex:
  once for all the equal legs of a spider, once per height for both
  halves of a path.  A first pass assigns the classes and spends the
  node budget vertex by vertex, so an exhausted budget stops before any
  table is filled; a second fills each new class once, children first.
  Each shard of the corpus search (one order, or its every J-th tree
  under --jobs J) owns one table of classes and hands it to every solve,
  so a class is filled once per shard; a failed solve leaves the table as
  it found it.  A standalone solve makes its own table and drops a
  class's lists when the last class that reads them is filled; when that
  class reads it as its first deepest child, it takes the out list over
  and extends it in place, so a path or a spider's leg is solved in O(n)
  time.  `nodes` counts every state, stored, shared or not, so it, the
  value and the witness do not depend on the table.

* hearing_number computes the hearing-independence number (no broadcaster
  in another's ball; the balls may overlap) over Pareto sets of (nearest
  broadcaster, largest reach) states.  `search --check chain` calls it.

* independence_number finds the lexicographically least maximum
  independent set with one weighted DP (_max_independent_set), which the
  lower bound also runs on the interior and conjectured_upper_bound on the
  branch01 vertices.  The DP walks the tree's own rooting: a vertex's
  parent in the induced forest is its rooting parent, when that is in the
  set.

Every exact solver, DP or oracle, returns SolveResult(value, witness,
nodes), or raises BudgetExceeded(nodes) as soon as its count passes its
`max_nodes` cap (None: no cap); no solver reports a partial optimum.  Each
keeps the count in a local and compares it with the cap where it counts:
per vertex in the two DPs, per visit in _max_weight_dfs, per strength
vector in bn_number_enum.  A cap below 1 stops a solve at its first count.
The node count is the only budget and no solver reads a clock, so a solve
and its outcome depend only on the tree and the cap.

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

Subdivision lemma (question 1).  Let T' be T with the edge uv replaced by
the path u, x, v.  Then alpha(T) <= alpha(T') <= alpha(T) + 1 for the
boundary-independence number alpha, and conj(T') >= conj(T) + 1 when T
has a branch vertex.  A broadcast is boundary independent exactly when
d(a, b) >= f(a) + f(b) for any two broadcasters; from T' to T a distance
falls by 1 if its path crossed x and stays otherwise.

* Lower half: f on T, silent at x, is a broadcast of T', as no distance
  or eccentricity of an old vertex shrinks.
* Upper half: moving or lowering one strength of an optimal f on T' by
  one makes a broadcast of T.  If f(w) = ecc'(w) > ecc(w), w hears every
  vertex and broadcasts alone: lower it (move it as below if w = x).  If
  x broadcasts, u is silent, as d'(x, u) = 1; give u the strength
  f(x) - 1 <= ecc'(x) - 1 <= ecc(u).  Then d(u, b) >= d'(x, b) - 1 for
  every old b, and a pair a, b across x had d'(a, b) >= f(a) + f(b) +
  2f(x).  If x is silent, write p(a) = f(a) - d'(a, x): a pair across x
  needed p(a) + p(b) <= 0 in T' and needs <= -1 in T.  Two broadcasters
  on one side with p >= 0 would clash through u or v, so if a, say on
  u's side, has p(a) >= 0, every b across has p(b) <= -p(a) <= 0 and
  every other a' beside a has p(a') <= -1: lower f(a) by one.  If no p
  is >= 0, no pair fails.
* conj: x lies on an endpath exactly when uv does, so n grows by one, the
  branch vertices, their leaf sets and branch01 stay, and branch01 loses
  at most the induced edge uv, which never lowers its independence number.

So margin(T) = conj(T) - alpha(T) never falls under subdivision, and a
smallest tree with a negative margin has no vertex of degree 2.  No code
assumes the lemma (tests/test_solve.py checks it), nor question 1.

The DPs, the bounds, the witnesses and the closed formulas read distances
only from BFS balls (`Tree.ball`, or `trees._bfs` from a vertex known to
be valid), from the tree's centre rooting (`Tree.rooting`) and from the
structural profile, so none of them builds the O(n^2) distance matrix;
bn_number_enum and _max_weight_dfs (bn_number, bn_number_restricted) and
their definitional scan read it, and serve only as oracles.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

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
from .trees import Shape, Tree, _bfs, classify_shape


class SolveResult(NamedTuple):
    value: int
    witness: Broadcast
    nodes: int


def _max_independent_set(tree, vertices) -> tuple:
    """Lexicographically least maximum independent set of the forest the
    tree induces on `vertices`, as (size, frozenset).

    One weighted tree DP over the tree's rooting: a member's parent in the
    forest is its rooting parent when that is a member, and each component
    is rooted at its member nearest the centre.  The vertex of rank i among
    the k members weighs 2^k + 2^(k-1-i).  The 2^k terms make every optimum
    a maximum independent set, and the low bits, read as a binary number,
    rank the sets of equal size lexicographically, least sorted tuple
    highest.  Distinct sets have distinct weights, so the optimum is unique,
    the rooting cannot change it, and the traceback never meets a tie.
    """
    rank = {v: i for i, v in enumerate(sorted(vertices))}
    k = len(rank)
    top = 1 << k
    order, parent, _, _ = tree.rooting
    members = list(filter(rank.__contains__, order))  # in rooting order
    # per member, the sums of its children's best weights without them and
    # at all, kept only until it reads them; `better`: taking it beats not
    excl = {}
    best = {}
    better = {}
    for u in reversed(members):
        i = (top | (1 << (k - 1 - rank[u]))) + excl.pop(u, 0)
        e = best.pop(u, 0)
        better[u] = i > e
        p = parent[u]
        if p in rank:
            excl[p] = excl.get(p, 0) + e
            best[p] = best.get(p, 0) + max(i, e)
    taken = set()
    for u in members:
        if better[u] and parent[u] not in taken:
            taken.add(u)
    return len(taken), frozenset(taken)


def independence_number(g: Tree) -> tuple:
    """Maximum independent set size of a tree, with one witness set: the
    lexicographically least maximum independent set."""
    return _max_independent_set(g, range(g.n))


def bn_number_enum(tree: Tree, max_nodes: Optional[int] = None) -> SolveResult:
    """Ground-truth oracle: enumerate every broadcast, filter, take the max.

    Feasible up to seven or so vertices.
    """
    dist = tree.distances
    nodes = 0
    cap = math.inf if max_nodes is None else max_nodes
    best = 0
    best_arr = (0,) * tree.n
    for arr in itertools.product(*(range(e + 1) for e in tree.eccentricities)):
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(nodes)
        if overlap_scan(arr, dist) is not None:
            continue
        w = sum(arr)
        if w > best:
            best = w
            best_arr = arr
    return SolveResult(value=best, witness=Broadcast(tree, best_arr), nodes=nodes)


def _max_weight_dfs(tree, caps, max_nodes):
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

    nodes = 0
    cap = math.inf if max_nodes is None else max_nodes
    best = 0
    best_arr = [0] * n
    cur = [0] * n
    assigned = []  # (vertex, strength) for broadcasters in the prefix

    def visit(k, weight, edges_used):
        nonlocal nodes, best, best_arr
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(nodes)
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
        top = caps[v]
        if top > 0:
            dv = dist[v]
            for u, su in assigned:
                limit = dv[u] - su
                if limit < top:
                    top = limit
                    if top <= 0:
                        break
        if top > 0:
            bev = ball_edges[v]
            for s in range(top, 0, -1):
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
    return SolveResult(value=best, witness=Broadcast(tree, best_arr), nodes=nodes)


def bn_number(tree: Tree, max_nodes: Optional[int] = None) -> SolveResult:
    """Exact maximum boundary-independent broadcast weight (pruned search).

    A recursive oracle for small trees: the search recurses once per
    vertex, so it exhausts the interpreter's recursion limit near a
    thousand vertices.  bn_number_dp is the solver for every tree size.
    """
    caps = list(tree.eccentricities)
    return _max_weight_dfs(tree, caps, max_nodes)


def bn_number_restricted(tree: Tree, max_nodes: Optional[int] = None) -> SolveResult:
    """Exact value under the loss-free restriction: non-leaf strengths <= 1."""
    leaves = tree.profile.leaves
    caps = [e if v in leaves else min(e, 1) for v, e in enumerate(tree.eccentricities)]
    return _max_weight_dfs(tree, caps, max_nodes)


def _fill(children, h, top, caps, rest):
    """One vertex's stored states from its children's: the recurrence of
    bn_number_dp, whose docstring defines the states.

    `children` yields each child's (out, inn, height) in adjacency order,
    its out list reversed (out[r] at index len - 1 - r), h is the vertex's
    height and `top` is how many inn and pick states to store: K(v) below
    the root, ecc(v) at the root.  A child's inn list shorter than a state
    asks for is read as its closed-form tail.  caps[i], when given, is
    child i's ecc(c) - 1, past which it passes no ball up; below the root
    it is never under top, so callers there pass None.  `rest` is the list
    the reversed out[v] is built on.  Below the root it is the first
    deepest child D's reversed out list or a copy of its head: past K(v)
    the children's sum is out[D] itself, so out[v] past state top is
    out[D][top:h - 1], the list's first h - 1 - top entries, and _fill
    cuts it to them once it has read every child.  At the root, whose sum
    is filled in full, it is [].
    Returns (out, inn, pick, ends), out reversed: pick[k] is the position
    of the child that passes ball k up, -1 when v is the centre, and
    ends[i] is child i's traceback state under g[v]: -1 (inn[c][0]) when a
    ball ending at v covers its edge best, else 0.
    """
    S = [0] * top
    bonus = list(range(1, top + 1))
    up = [-1] * top
    ends = []
    g = 0
    for i, (oc, ic, hc) in enumerate(children):
        li = len(ic)
        o0 = oc[-1]
        if top:
            # out[c][:top] in one reversed slice; S[k]: the children under
            # a ball that reaches v with k+1 to spare
            oc = oc[:~top:-1]
            lo = len(oc)
            for k, x in enumerate(oc):
                S[k] += x
            # bonus[k]: the ball's own radius, from v as centre or passed up
            m = top if caps is None or caps[i] > top else caps[i]
            for k in range(m):
                t = ((ic[k + 1] if k + 1 < li else k + 2 + hc)
                     - (oc[k] if k < lo else 0))
                if t > bonus[k] or (t == bonus[k] and up[k] < 0):
                    bonus[k] = t
                    up[k] = i
        i0 = ic[0] if li else 1 + hc
        ends.append(-1 if i0 >= o0 else 0)
        g += max(o0, i0)
    if top < h:  # below the root
        del rest[h - 1 - top:]
        rest += reversed(S)
    elif h > 1:  # the root, where top = h
        rest = S[h - 2::-1]
    rest.append(g)
    return rest, [s + b for s, b in zip(S, bonus)], up, ends


class _ClassTable:
    """bn_number_dp's rooted-subtree classes with their stored states.

    A class is the interned, ordered tuple of its children's classes, and
    class 0 is the leaf's.  Per class id the columns hold its key, its
    subtrees' height, the tail's pick (its first deepest child), its
    (out, inn, height) tables and _fill's pick and ends lists.  Only `ids`
    interns, and a class is in it exactly when its tables are filled.
    Out lists are stored reversed, out[r] at index len - 1 - r, so that a
    parent's list extends its first deepest child's at the end.
    """

    __slots__ = ("ids", "members", "heights", "deeps", "tabs", "picks", "ends")

    def __init__(self):
        self.ids = {(): 0}
        self.members = [()]
        self.heights = [0]
        self.deeps = [-1]
        self.tabs = [([0], [], 0)]
        self.picks = [[]]
        self.ends = [[]]

    def truncate(self, size):
        """Forget every class from id `size` on."""
        ids = self.ids
        for key in self.members[size:]:
            if ids.get(key, -1) >= size:
                del ids[key]
        for column in (self.members, self.heights, self.deeps, self.tabs,
                       self.picks, self.ends):
            del column[size:]


def bn_number_dp(tree: Tree, max_nodes: Optional[int] = None,
                 classes: Optional[_ClassTable] = None) -> SolveResult:
    """Exact maximum boundary-independent broadcast weight by a tree DP.

    The value is the largest total radius of edge-disjoint balls B(v, s),
    1 <= s <= ecc(v).  Rooted at the least-index centre, with the BFS
    order, child lists and eccentricities of `tree.rooting`, every vertex v
    keeps three families of states about the edge to its parent:

    * g[v]: no ball from below crosses the edge;
    * out[v][r], r >= 1: a ball from above reaches v with r to spare, so
      it covers every child edge (out[v][0] is g[v]; zero from height(v));
    * inn[v][k], k < ecc(v): a ball centred at v or below crosses the edge
      and reaches the parent with k to spare; pick[v][k] is the child that
      passes it up, or -1 when v is the centre.

    Below the root only the states k < K(v) <= height(v) - 1 are stored;
    above them the tail has a closed form.  For a non-root v and
    K(v) <= k < ecc(v):

        inn[v][k] = k + 1 + height(v), and pick[v][k] is the first child
        of greatest height (-1 for a leaf).

    It holds from height(v) - 1 on: such a ball covers the whole subtree
    of v, so the best one has the largest radius, from a deepest
    descendant w.  Its strength k + 1 + depth(w) - depth(v) is available:
    rooted at a centre with R = ecc(root), ecc(w) = depth(w) + R - delta,
    where delta is 1 on the other centre's side of a bicentral tree and 0
    otherwise, so the strength is at most ecc(w) exactly when k < ecc(v).
    A child's tail k + 2 + height(c) beats v's own k + 1, and ties keep
    the first child.
    The root keeps its full table: the argument needs w on v's side, and
    in a bicentral tree the root's deepest descendants on the other
    centre's side have eccentricity 2R - 1, one short of the tail's ball.

    The tail often starts lower, at K(v), which the first deepest child D
    (height h_D) decides.  Let H< and H> be the greatest heights of the
    children before and after D (-1 where there are none), and
    thr = min(height(v) if D is first else h_D - H< - 1, h_D - H>).  K(v)
    is the least k >= max(H<, H>, K(D) - 1, 0) with out[D][k] <= thr,
    capped at height(v) - 1 (K of a leaf is 0, its inn list being empty):

    * out lists are nonincreasing: out[v][r] = sum of out[c][r - 1] for
      r >= 1, and out[v][0] = g[v] >= sum of out[c][0]; induct from a
      leaf's [0].  So once the test passes at some k it passes at every
      later k.
    * at such a k >= H<, H>, every other child c has out[c][k] = 0, so
      S[k], the children's sum under a ball with k + 1 to spare at v, is
      out[D][k]; and c is in its own tail at k + 1 > K(c), as D is at
      k + 1 >= K(D).  D's candidate k + 2 + h_D - out[D][k] then makes
      inn[v][k] = S[k] + k + 2 + h_D = k + 1 + height(v).
    * out[D][k] <= thr is _fill's tie rule for that candidate: it is at
      least v's own ball k + 1 (a tie goes to a child), beats every
      earlier child's k + 2 + h_c strictly and loses to no later one.

    Past K(v) the sum S is out[D] itself, so out[v] is [g[v]], S up to
    K(v), then a slice of out[D].  On a path or a spider's leg K is 0 at
    every vertex below the root, so a class's fill does no per-state work.

    Below the root the stored states depend only on the rooted subtree:
    a non-root child c has ecc(c) - 1 >= height(v) - 1, so no child's ball
    is cut short by its eccentricity.  The tables are therefore filled once
    per class of rooted subtrees, not once per vertex.  A vertex's class is
    the interned, ordered tuple of its children's classes in adjacency
    order, so equal classes also break ties alike and the witness does not
    depend on the sharing.  The root is a class of its own, filled last
    with its full table and each child's ball capped at ecc(c) - 1.

    `classes`, private to the corpus search, is a _ClassTable that the
    caller owns and hands to every solve of one shard of an order, so a
    class is filled once per shard, not once per tree.  The solve adds the
    classes it is the first to meet and keeps them; its root's class, and
    every class of a solve that raises, leave the table again, so an
    interned class always has its tables.  Without it a solve makes its
    own table and drops a class's out and inn lists once the last class
    that reads them is filled.  Out lists are stored reversed, and when
    that last class reads the out list as its first deepest child's, it
    takes the list over: _fill cuts it to out[D][K(v):] and appends S and
    g in place, in O(K(v)) time.  So a standalone long path holds one out
    list, and each vertex of a path or a spider's leg, where K is 0, is
    filled in O(1) time; a shared table's lists are copied.

    Pass 1 walks the vertices in post-order: it assigns each its class,
    interning the classes the table lacks, whose height and first deepest
    child are recorded once (with max(H<, H>) and thr for pass 2), adds
    the vertex's states to `nodes`, and records the last class that reads
    each class.  `nodes` counts every state, len(out[v]) + ecc(v) per
    vertex, whether stored, shared or in a closed-form tail, so where a
    budget stops, like the value and the witness, depends neither on how
    much is stored nor on the sharing.  The first vertex that takes it
    past max_nodes raises BudgetExceeded(nodes), before any table is
    filled.  Pass 2 fills the new classes in id order, children first,
    with _fill, each up to its K(v), which a scan of out[D] from
    max(H<, H>, K(D) - 1, 0) finds.

    An optimal broadcast is read back top-down from the root in BFS order,
    mapping the class's pick positions to each vertex's children.  The
    witness is checked by bn_violation, linear on an independent
    broadcast, before it is returned.
    """
    n = tree.n
    order, _, kids, ecc = tree.rooting
    root = order[0]

    nodes = 0
    cap = math.inf if max_nodes is None else max_nodes
    shared = classes is not None
    table = classes if shared else _ClassTable()
    ids, members, heights, deeps = table.ids, table.members, table.heights, table.deeps
    tabs, picks, ends = table.tabs, table.picks, table.ends
    base = len(members)
    cls = [0] * n  # class 0 is the leaf's
    last = {}  # per class: the last class of this solve that reads it
    tails = []  # per new class of this solve: (max(H<, H>, 0), thr)

    def new_class(key):
        k = len(members)
        # pre and post: H< and H>, the greatest heights before and after
        # the first deepest child, -1 where there is no such child
        h, d, pre, post = 0, -1, -1, -1
        for i, j in enumerate(key):
            hj = heights[j]
            if hj >= h:
                h, d, pre, post = hj + 1, i, h - 1, -1
            elif hj > post:
                post = hj
            last[j] = k
        members.append(key)
        heights.append(h)
        deeps.append(d)
        start, thr = pre, h if pre < 0 else h - 2 - pre
        if post > pre:  # else thr <= h - 2 - post already
            start, thr = post, min(thr, h - 1 - post)
        tails.append((start if start > 0 else 0, thr))
        return k

    try:
        # pass 1, children first; the root, last, is a class of its own
        for v in order[:0:-1]:
            ks = kids[v]
            if ks:
                key = tuple(map(cls.__getitem__, ks))
                k = ids.get(key)
                if k is None:
                    k = ids[key] = new_class(key)
                cls[v] = k
                nodes += heights[k] + ecc[v]
            else:
                nodes += 1 + ecc[v]
            if nodes > cap:
                raise BudgetExceeded(nodes)
        rc = cls[root] = new_class(tuple(map(cls.__getitem__, kids[root])))
        nodes += (heights[rc] or 1) + ecc[root]
        if nodes > cap:
            raise BudgetExceeded(nodes)

        # pass 2: a class's tables are (reversed out, inn, height), pick
        # and ends
        for k in range(base, rc + 1):
            key, h = members[k], heights[k]
            if k < rc:
                # top = K(v), from the first deepest child's tables
                j = key[deeps[k]]
                out_d, inn_d, _ = tabs[j]
                top, thr = tails[k - base]
                if top < len(inn_d) - 1:
                    top = len(inn_d) - 1
                while top < h - 1 and out_d[~top] > thr:
                    top += 1
                # the last reader of a standalone solve's class takes its
                # out list over; a shared table's lists are copied
                own = not shared and last[j] == k
                caps, rest = None, (out_d if own else out_d[: h - 1 - top])
            else:
                # the root's children pass no ball past their ecc - 1
                top, caps, rest = ecc[root], [ecc[c] - 1 for c in kids[root]], []
            out_k, inn_k, pick_k, ends_k = _fill(
                map(tabs.__getitem__, key), h, top, caps, rest)
            if not shared:
                for j in key:
                    if last[j] == k:
                        tabs[j] = None
            tabs.append((out_k, inn_k, h))
            picks.append(pick_k)
            ends.append(ends_k)

        # traceback: state r >= 0 is out[v][r], state -(k+1) is inn[v][k];
        # ties go to the larger ball, which keeps the broadcasters few
        rout, rinn, _ = tabs[rc]
        value = rout[-1]
        state = 0
        for k in range(ecc[root] - 1, -1, -1):
            if rinn[k] > value or (rinn[k] == value and state == 0):
                value, state = rinn[k], -(k + 1)
        # in BFS order, so each vertex's state is set before it is read
        strengths = [0] * n
        states = [0] * n
        states[root] = state
        for v in order:
            state = states[v]
            ks = kids[v]
            if not ks:
                if state < 0:  # inn[v][k] of a leaf: its own ball, k + 1
                    strengths[v] = -state
                continue
            c = cls[v]
            if state == 0:
                for w, e in zip(ks, ends[c]):
                    states[w] = e
            elif state > 0:
                # out[v][r]: the ball from above reaches each child with r - 1
                state -= 1
                for w in ks:
                    states[w] = state
            else:
                k = -state - 1
                i = picks[c][k] if k < len(picks[c]) else deeps[c]
                for w in ks:
                    states[w] = k
                if i < 0:
                    strengths[v] = k + 1
                else:
                    states[ks[i]] = -(k + 2)
    except BaseException:
        table.truncate(base)
        raise
    table.truncate(rc)

    witness = Broadcast(tree, strengths)
    if witness.weight != value or bn_violation(witness) is not None:
        raise InternalInconsistency(
            f"DP witness {strengths} does not realise the value {value}"
        )
    return SolveResult(value=value, witness=witness, nodes=nodes)


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


def hearing_number(tree: Tree, max_nodes: Optional[int] = None) -> SolveResult:
    """Exact maximum hearing-independent broadcast weight by a tree DP.

    Hearing independence asks that no broadcaster lies in another's ball;
    the balls themselves may overlap.  Rooted at the least-index centre
    (`tree.rooting`, which bn_number_dp reads too), every vertex v keeps a
    Pareto set of states (D, R) -> best weight of its subtree:

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
    witness is checked by hearing_violation before it is returned.  A count
    past max_nodes raises BudgetExceeded with the states counted so far.
    """
    n = tree.n
    order, _, kids, ecc = tree.rooting
    root = order[0]

    nodes = 0
    cap = math.inf if max_nodes is None else max_nodes
    # states[v]: (D, R) -> (weight, link); a silent v links the children's
    # states it merged as (last child's key, (previous child's key, ...))
    states = [None] * n
    for v in reversed(order):
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
        nodes += len(states[v])
        if nodes > cap:
            raise BudgetExceeded(nodes)

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
    return SolveResult(value=value, witness=witness, nodes=nodes)


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
    return _lower_bound_witness(tree, _max_independent_set(tree, p.interior))


def _lower_bound_witness(tree, interior_mis):
    """lower_bound_witness given (alpha, X) of the interior forest."""
    p = tree.profile
    alpha_int, x = interior_mis

    dists = p.leaf_distances
    strengths = [0] * tree.n
    for b in p.branch2plus | (p.branch1 - x):
        for l, d in dists[b].items():
            strengths[l] = d
    for b in p.branch1 & x:
        ((l, d),) = dists[b].items()
        strengths[l] = d + 1
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
    alpha_r, _ = _max_independent_set(tree, p.branch01)
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
    d = _bfs(tree.adjacency, b1)[b2]
    half_up = (d + 1) // 2
    return tree.n - 1 - min(half_up, p.loss_table[b1].loss, p.loss_table[b2].loss)


def _empty_or_independent(tree, vertices):
    vs = set(vertices)
    return not any(u in vs and v in vs for u, v in tree.edges)


def caterpillar_value(tree: Tree) -> int:
    """Closed value for caterpillars whose branch vertices are consecutive
    (no internal degree-2 vertex) and whose branch01 set is empty or
    independent: the upper bound n - #branch + #branch01 is attained."""
    p = tree.profile
    shapes = classify_shape(tree)
    if (
        Shape.CATERPILLAR not in shapes
        or not p.branch
        or p.deg2_internal
        or not _empty_or_independent(tree, p.branch01)
    ):
        raise ShapeMismatch("caterpillar formula preconditions not met")
    return upper_bound(tree)


class BoundsReport(NamedTuple):
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


class _SandwichEscape(InternalInconsistency):
    """A solved report whose exact value escapes [lower, upper]; `report`
    keeps it, so that a corpus scan can record the tree and go on."""

    def __init__(self, report):
        super().__init__(f"exact {report.exact} escapes sandwich "
                         f"[{report.lower}, {report.upper}]")
        self.report = report


def compute_bounds(tree: Tree, max_nodes: Optional[int] = None,
                   exact: bool = False,
                   classes: Optional[_ClassTable] = None) -> BoundsReport:
    """Bounds, applicable formula, and optionally the exact value of one tree.

    The formulas are tried in the order path/spider, two branch vertices,
    caterpillar, and the first whose own precondition holds (it raises no
    ShapeMismatch) is reported.  This is the one place where the proven
    facts meet a completed exact solve: a value escaping the sandwich
    [lower, upper] raises _SandwichEscape, an InternalInconsistency that
    carries the report, and a value other than the formula's raises
    InternalInconsistency.  When the exact solver runs out of budget the
    report keeps the nodes it spent and no value or witness.  `classes`,
    private to the corpus search, is the shard's class table, handed to
    bn_number_dp.
    """
    p = tree.profile
    interior_mis = _max_independent_set(tree, p.interior)

    lower = upper = conjectured = witness_lower = None
    if p.branch:
        lower, witness_lower = _lower_bound_witness(tree, interior_mis)
        upper = upper_bound(tree)
        conjectured = conjectured_upper_bound(tree)

    formula_name = formula_value = None
    for name, formula in (("path_spider", path_spider_value),
                          ("two_branch", two_branch_value),
                          ("caterpillar", caterpillar_value)):
        try:
            formula_value = formula(tree)
        except ShapeMismatch:
            continue
        formula_name = name
        break

    exact_value = nodes = witness_exact = conjecture_ok = None
    status = "not_run"
    if exact:
        try:
            res = bn_number_dp(tree, max_nodes, classes)
        except BudgetExceeded as exc:
            nodes, status = exc.nodes, "budget_exceeded"
        else:
            exact_value, witness_exact, nodes = res.value, res.witness, res.nodes
            status = "solved"
            if conjectured is not None:
                conjecture_ok = exact_value <= conjectured

    report = BoundsReport(
        n=tree.n,
        branch_count=len(p.branch),
        branch01_count=len(p.branch01),
        deg2_internal_count=len(p.deg2_internal),
        interior_independence=interior_mis[0],
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
    if exact_value is not None:
        if lower is not None and not lower <= exact_value <= upper:
            raise _SandwichEscape(report)
        if formula_value is not None and formula_value != exact_value:
            raise InternalInconsistency(
                f"formula {formula_name}={formula_value} but exact={exact_value}"
            )
    return report
