"""Broadcast assignments and the independence/maximality predicates.

A broadcast assigns every vertex an integer strength between 0 and its
eccentricity.  Vertex u hears broadcaster v when d(u, v) <= f(v); it sits on
v's boundary when equality holds.  An edge is covered by broadcaster x when
both endpoints are heard by x and at least one of them is off x's boundary.

The package's central predicate, boundary independence, asks that any vertex
heard by two broadcasters lies on the boundary of both; bn_violation decides
it and every other check reads its verdict.  The equivalent edge-level
reading (no edge covered twice, from `analyze`) and the component criterion
for maximality are second formulations that the tests compare against.

The verdicts sweep the host's rooting (`Tree.rooting`) and read no
ball, so each is linear on any broadcast: bn_violation sweeps it up once,
hearing_violation and `_maximality_certificate` up and down (`_reach`).
Only a violation found reads balls, to name its pair.  analyze (which no
command calls) reads the balls B(v, f(v)), each by a BFS that stops at
the boundary (`Tree.ball`); a boundary-independent broadcast's
balls share no edge, so together they hold at most n - 1 + b vertices
for b broadcasters.  None builds the n x n distance matrix; overlap_scan,
the definitional scan over one, stays for the oracle solvers.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .errors import (
    InvalidBroadcast,
    NegativeStrength,
    NotBnIndependent,
    ParseError,
    StrengthExceedsEccentricity,
)
from .trees import Tree


class _Broadcast(NamedTuple):
    host: Tree
    strengths: tuple


class Broadcast(_Broadcast):
    """Value object binding a strength tuple to its host tree."""

    __slots__ = ()

    def __new__(cls, host, strengths):
        strengths = tuple(strengths)
        if len(strengths) != host.n:
            raise InvalidBroadcast(
                f"expected {host.n} strengths, got {len(strengths)}"
            )
        eccs = host.eccentricities
        for v, s in enumerate(strengths):
            if type(s) is not int:  # a bool is an int to isinstance
                raise InvalidBroadcast(f"strength of vertex {v} is not an integer")
            if s < 0:
                raise NegativeStrength(f"vertex {v} has strength {s}")
            if s > eccs[v]:
                raise StrengthExceedsEccentricity(
                    f"vertex {v}: strength {s} exceeds eccentricity {eccs[v]}"
                )
        return tuple.__new__(cls, (host, strengths))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def weight(self) -> int:
        return sum(self.strengths)

    @property
    def broadcasters(self) -> tuple:
        return tuple(v for v, s in enumerate(self.strengths) if s > 0)

    def __repr__(self):
        return f"Broadcast({format_broadcast(self)!r}, weight={self.weight})"


class BnViolation(NamedTuple):
    """Certificate that two broadcasters overlap beyond their boundaries."""

    u: int
    v: int
    vertex: int
    edge: tuple


class BroadcastAnalysis(NamedTuple):
    """Per-broadcaster neighbourhoods and the edge coverage map of one broadcast.

    covered_by maps every edge to the tuple of broadcasters covering it
    (empty tuple when uncovered); undominated lists the vertices hearing no
    broadcaster at all.
    """

    broadcast: Broadcast
    v_plus: tuple
    v_one: frozenset
    v_plusplus: frozenset
    heard: dict
    boundary: dict
    private_heard: dict
    private_boundary: dict
    undominated: frozenset
    covered_by: dict
    uncovered_edges: frozenset


def _balls(f):
    """The ball B(v, f(v)) of every broadcaster v, in increasing order of v:
    a dict from each vertex hearing v to its distance from v."""
    host, strengths = f.host, f.strengths
    return {v: host.ball(v, strengths[v]) for v in f.broadcasters}


def _reach(host, sources):
    """Per vertex x, the largest s - d(v, x) over the pairs (v, s) in
    `sources`: what the strongest of these broadcasts has left at x, so x
    hears one of them exactly when it is >= 0.  Returns three lists: that
    value, the source v it comes from, and the largest value at x from any
    other source; -n - 1 where there is none.

    An upward and a downward sweep of the host's rooting: a best route
    into x through x's parent never comes from x's own subtree, and when a
    source outside x's subtree is among the two best at x, it is among the
    two best at x's parent.
    """
    n = host.n
    best = [-n - 1] * n
    by = [-1] * n
    second = [-n - 1] * n
    by2 = [-1] * n
    for v, s in sources:
        best[v], by[v] = s, v
    order, parent, _, _ = host.rooting
    up = [(x, parent[x]) for x in reversed(order) if parent[x] >= 0]
    # each (x, y): offer y the two best at x, one step further on
    for x, y in up + [(y, x) for x, y in reversed(up)]:
        for value, source in ((best[x] - 1, by[x]), (second[x] - 1, by2[x])):
            if source == by[y]:
                if value > best[y]:
                    best[y] = value
            elif value > best[y]:
                second[y], by2[y] = best[y], by[y]
                best[y], by[y] = value, source
            elif value > second[y]:
                second[y], by2[y] = value, source
    return best, by, second


def _from_others(host, sources):
    """Per vertex u, the largest s - d(v, u) over the pairs (v, s) in
    `sources` with v != u (-n - 1 where there is none), from one `_reach`."""
    best, by, second = _reach(host, sources)
    return [second[u] if by[u] == u else best[u] for u in range(host.n)]


def analyze(f: Broadcast) -> BroadcastAnalysis:
    """Compute every derived set of the broadcast from the broadcasters' balls.

    The private boundary uses the reduction form: u is privately bounded by v
    when u hears v but hears nobody once v's strength is lowered by one.
    That is u hears v alone and, unless f(v) = 1 silences v, sits on v's
    boundary.  Edge (a, b) is covered by x when both ends lie in x's ball:
    in a tree the ends of an edge are at distances from x that differ by
    one, so they never both lie on x's boundary.
    """
    host = f.host
    adj = host.adjacency
    strengths = f.strengths
    balls = _balls(f)
    v_plus = tuple(balls)
    hearers = Counter(u for ball in balls.values() for u in ball)

    heard = {}
    boundary = {}
    private_heard = {}
    private_boundary = {}
    covered_by = {e: [] for e in host.edges}
    for v, ball in balls.items():
        s = strengths[v]
        heard[v] = frozenset(ball)
        boundary[v] = frozenset(u for u, d in ball.items() if d == s)
        private_heard[v] = frozenset(u for u in ball if hearers[u] == 1)
        private_boundary[v] = (
            private_heard[v] if s == 1 else private_heard[v] & boundary[v]
        )
        for a, d in ball.items():
            if d < s:
                for b in adj[a]:
                    if ball[b] > d:
                        covered_by[(a, b) if a < b else (b, a)].append(v)
    covered_by = {e: tuple(xs) for e, xs in covered_by.items()}
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
        undominated=frozenset(u for u in range(host.n) if u not in hearers),
        covered_by=covered_by,
        uncovered_edges=uncovered,
    )


def is_dominating(f: Broadcast) -> bool:
    """Every vertex hears at least one broadcaster: one `_reach` sweep
    (_maximality_certificate), O(n) however much the balls overlap."""
    return not _maximality_certificate(f)[0]


def _next_toward(host, w, dist):
    """Neighbour of w one step closer to the centre of `dist`, a ball (vertex
    -> distance from its centre) that holds w and is not centred at w."""
    d = dist[w] - 1
    for nb in host.adjacency[w]:
        if dist.get(nb) == d:
            return nb
    raise AssertionError("unreachable: the ball holds w's path to its centre")


def overlap_scan(strengths, dist) -> Optional[tuple]:
    """Definitional scan of a raw strength vector over a distance matrix.

    Returns the first (u, v, w) in scan order where broadcasters u < v both
    hear w and w is off the boundary of at least one of them, or None when
    the strengths are boundary independent.
    """
    n = len(strengths)
    bs = [v for v in range(n) if strengths[v] > 0]
    for i, u in enumerate(bs):
        su = strengths[u]
        du = dist[u]
        for v in bs[i + 1 :]:
            sv = strengths[v]
            dv = dist[v]
            for w in range(n):
                dwu, dwv = du[w], dv[w]
                if not (0 <= dwu <= su and 0 <= dwv <= sv):
                    continue
                if dwu == su and dwv == sv:
                    continue
                return u, v, w
    return None


def bn_violation(f: Broadcast) -> Optional[BnViolation]:
    """First boundary-independence violation in scan order, or None.

    The certificate carries the offending broadcaster pair, a vertex heard
    inside at least one of the two balls, and an edge covered by both.  It
    is the one overlap_scan finds first over the distance matrix: the least
    pair u < v, then the least vertex.

    Broadcasters u and v clash exactly when d(u, v) < f(u) + f(v).  One
    upward sweep of the rooting keeps, per vertex x, the two largest
    f(u) - d(u, x) from distinct branches below x (x itself or one child's
    subtree); a pair meeting at x clashes when its values sum past 0.  Only
    a clash reads balls, to name the least clashing u and its partner.
    """
    host, s = f.host, f.strengths
    order, parent, _, _ = host.rooting
    low = -host.n - 1  # below any f(u) - d(u, x), and stays so going up
    top = [sv or low for sv in s]
    nxt = [low] * host.n
    for x in reversed(order):
        value = top[x]
        if value + nxt[x] > 0:
            break
        p = parent[x]
        if p >= 0:
            value -= 1
            if value > top[p]:
                nxt[p], top[p] = top[p], value
            elif value > nxt[p]:
                nxt[p] = value
    else:
        return None
    bs = f.broadcasters
    heard = _from_others(host, ((v, s[v]) for v in bs))
    u = next(u for u in bs if s[u] + heard[u] > 0)
    du = host.ball(u)
    # u is the least broadcaster that clashes, so its partners follow it
    v = next(v for v in bs if v > u and v in du and du[v] < s[u] + s[v])
    su, sv = s[u], s[v]
    dv = host.ball(v, sv)
    w = min(x for x, d in dv.items() if du[x] <= su and (du[x] < su or d < sv))
    inside_u = du[w] < su
    inside_v = dv[w] < sv
    # w is interior to one ball; exhibit a doubly covered edge
    if inside_u and inside_v:
        x = _next_toward(host, w, du) if w != u else _next_toward(host, w, dv)
    elif inside_u:
        x = _next_toward(host, w, dv)
    else:
        x = _next_toward(host, w, du)
    edge = (w, x) if w < x else (x, w)
    return BnViolation(u=u, v=v, vertex=w, edge=edge)


def is_bn_independent(f: Broadcast) -> bool:
    """No vertex is heard strictly inside two broadcast balls: bn_violation
    finds no violation."""
    return bn_violation(f) is None


def hearing_violation(f: Broadcast) -> Optional[tuple]:
    """First pair of broadcasters u < v where one hears the other, or None.

    u clashes with another broadcaster v when v lies in u's ball (d(u, v)
    <= f(u)) or u lies in v's ball (f(v) - d(u, v) >= 0).  A `_reach` sweep
    of zeros gives every u the distance to the nearest other broadcaster,
    which settles the first test, and some pair clashes exactly when one of
    them holds the other in its ball.  Only then does a sweep of the
    strengths settle the second test; the least u that clashes is the first
    of the least pair, and one BFS from u finds its least partner.  Linear
    on any broadcast.
    """
    host, s = f.host, f.strengths
    bs = f.broadcasters
    near = _from_others(host, ((v, 0) for v in bs))
    if all(near[u] < -s[u] for u in bs):
        return None
    heard = _from_others(host, ((v, s[v]) for v in bs))
    u = next(u for u in bs if near[u] >= -s[u] or heard[u] >= 0)
    du = host.ball(u)
    return u, min(v for v in bs if v != u and v in du and du[v] <= max(s[u], s[v]))


def is_hearing_independent(f: Broadcast) -> bool:
    """No broadcaster hears another broadcaster."""
    return hearing_violation(f) is None


def is_maximal_bn(f: Broadcast) -> bool:
    """Is the boundary-independent broadcast maximal under pointwise increase?
    One sweep decides it (_maximality_certificate)."""
    if bn_violation(f) is not None:
        raise NotBnIndependent("maximality requires a boundary-independent broadcast")
    return _maximality_certificate(f)[1] is None


def _maximality_certificate(f: Broadcast):
    """The vertices hearing no broadcaster, and why f is not maximal (None
    when it is), from one `_reach` sweep; the certificate holds only when f
    is boundary independent.

    The certificate is ("undominated_vertex", the least vertex hearing no
    broadcaster) or, with two or more broadcasters, ("expandable_broadcaster",
    the least broadcaster whose boundary is all private).  For f boundary
    independent: a vertex on v's boundary that hears another broadcaster w
    lies on w's boundary too, so d(v, w) = f(v) + f(w); and for such a tight
    pair, the vertex f(v) along the path from v to w is on both boundaries.
    No pair is closer, so v's boundary is all private exactly when what the
    others have left at v, max f(w) - d(v, w) over w != v, is below -f(v).
    """
    s, bs = f.strengths, f.broadcasters
    best, _, second = _reach(f.host, ((v, s[v]) for v in bs))
    undominated = frozenset(x for x, r in enumerate(best) if r < 0)
    if undominated:
        return undominated, ("undominated_vertex", min(undominated))
    # f(v) itself is the best at v, so second[v] is what the others leave
    expandable = [v for v in bs if second[v] < -s[v]]
    if len(bs) >= 2 and expandable:
        return undominated, ("expandable_broadcaster", expandable[0])
    return undominated, None


def format_broadcast(f: Broadcast) -> str:
    """Render as space-separated "v:strength" pairs, silent vertices omitted."""
    return " ".join(f"{v}:{f.strengths[v]}" for v in f.broadcasters)


def parse_broadcast(text: str, host: Tree) -> Broadcast:
    """Parse the "v:strength" format; '#' starts a comment, blanks ignored."""
    strengths = [0] * host.n
    seen = set()
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            head, sep, tail = token.partition(":")
            if not sep:
                raise ParseError(f"expected v:strength, got {token!r}", line=lineno)
            try:
                v, s = int(head), int(tail)
            except ValueError:
                raise ParseError(f"non-integer token {token!r}", line=lineno) from None
            if not 0 <= v < host.n:
                raise ParseError(f"vertex {v} out of range", line=lineno)
            if v in seen:
                raise ParseError(f"vertex {v} assigned twice", line=lineno)
            seen.add(v)
            strengths[v] = s
    return Broadcast(host, strengths)
