"""Broadcast assignments and the independence/maximality predicates.

A broadcast assigns every vertex an integer strength between 0 and its
eccentricity.  Vertex u hears broadcaster v when d(u, v) <= f(v); it sits on
v's boundary when equality holds.  An edge is covered by broadcaster x when
both endpoints are heard by x and at least one of them is off x's boundary.

The package's central predicate, boundary independence, asks that any vertex
heard by two broadcasters lies on the boundary of both.  The equivalent
edge-level reading (no edge covered twice) is computed independently and the
two verdicts are cross-checked whenever assertions are enabled.

The predicates read distances only from the balls B(v, f(v)) of the
broadcasters, each found by a BFS that stops at the boundary
(`Forest.ball`), and from one sweep per component (`_reach`); none builds
the n x n distance matrix.  The balls of a boundary-independent broadcast
share no edge, so together they hold at most n - 1 + b vertices for b
broadcasters, and every predicate is linear on such a broadcast;
bn_violation stops at the first ball that overlaps an earlier one, so its
verdict is linear on any broadcast.  overlap_scan and hearing_scan are the
definitional scans over a distance matrix, kept for the oracle solvers.

Hosts may be forests: eccentricity is measured inside a vertex's component
and nothing is heard across components.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    InvalidBroadcast,
    NegativeStrength,
    NotBnIndependent,
    ParseError,
    StrengthExceedsEccentricity,
)
from .trees import Forest


@dataclass(frozen=True)
class Broadcast:
    """Value object binding a strength tuple to its host graph."""

    host: Forest
    strengths: tuple

    def __post_init__(self):
        object.__setattr__(self, "strengths", tuple(self.strengths))
        if len(self.strengths) != self.host.n:
            raise InvalidBroadcast(
                f"expected {self.host.n} strengths, got {len(self.strengths)}"
            )
        eccs = self.host.eccentricities
        for v, s in enumerate(self.strengths):
            if not isinstance(s, int):
                raise InvalidBroadcast(f"strength of vertex {v} is not an integer")
            if s < 0:
                raise NegativeStrength(f"vertex {v} has strength {s}")
            if s > eccs[v]:
                raise StrengthExceedsEccentricity(
                    f"vertex {v}: strength {s} exceeds eccentricity {eccs[v]}"
                )

    @property
    def weight(self) -> int:
        return sum(self.strengths)

    @property
    def broadcasters(self) -> tuple:
        return tuple(v for v, s in enumerate(self.strengths) if s > 0)

    def __repr__(self):
        return f"Broadcast({format_broadcast(self)!r}, weight={self.weight})"


def hears(f: Broadcast, u: int, v: int) -> bool:
    """Does u hear the broadcast from v?  False when v is silent or unreachable."""
    s = f.strengths[v]
    if s <= 0:
        return False
    f.host._check_vertex(u)
    return u in f.host.ball(v, s)


class BnViolation(NamedTuple):
    """Certificate that two broadcasters overlap beyond their boundaries."""

    u: int
    v: int
    vertex: int
    edge: tuple


@dataclass(frozen=True)
class BroadcastAnalysis:
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
    `sources`: what the strongest of these broadcasts has left at x, so
    x hears one of them exactly when it is >= 0.  -n - 1 in components
    without a source.

    One BFS per component, an upward pass and a downward pass: a best route
    into x through x's parent never comes from x's own subtree.
    """
    n = host.n
    reach = [-n - 1] * n
    for v, s in sources:
        reach[v] = s
    for comp in host.components:
        depth = host.ball(comp[0])
        for x in reversed(depth):
            for y in host.neighbors(x):
                if depth[y] < depth[x] and reach[x] - 1 > reach[y]:
                    reach[y] = reach[x] - 1
        for x in depth:
            for y in host.neighbors(x):
                if depth[y] > depth[x] and reach[x] - 1 > reach[y]:
                    reach[y] = reach[x] - 1
    return reach


def analyze(f: Broadcast) -> BroadcastAnalysis:
    """Compute every derived set of the broadcast from the broadcasters' balls.

    The private boundary uses the reduction form: u is privately bounded by v
    when u hears v but hears nobody once v's strength is lowered by one.
    That is u hears v alone and, unless f(v) = 1 silences v, sits on v's
    boundary.  Edge (a, b) is covered by x when both ends lie in x's ball:
    in a forest the ends of an edge are at distances from x that differ by
    one, so they never both lie on x's boundary.
    """
    host = f.host
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
                for b in host.neighbors(a):
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


def _undominated(f: Broadcast) -> frozenset:
    """The vertices that hear no broadcaster, from one `_reach` sweep: O(n)
    however much the balls overlap."""
    s = f.strengths
    reach = _reach(f.host, ((v, s[v]) for v in f.broadcasters))
    return frozenset(x for x, r in enumerate(reach) if r < 0)


def is_dominating(f: Broadcast) -> bool:
    """Every vertex hears at least one broadcaster."""
    return not _undominated(f)


def _next_toward(host, w, dist):
    """Neighbour of w one step closer to the centre of `dist`, a ball (vertex
    -> distance from its centre) that holds w and is not centred at w."""
    d = dist[w] - 1
    for nb in host.neighbors(w):
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


def _first_overlapping(f):
    """First broadcaster whose ball shares a vertex with an earlier ball off
    the boundary of one of them, or None.

    Sweeps the balls in increasing order of their centres, noting for each
    vertex heard whether some ball hears it inside its boundary, and stops
    at the first clash: it reads the balls of an independent prefix, at most
    n - 1 + b vertices, and one ball more.
    """
    host, strengths = f.host, f.strengths
    inside = {}
    for t in f.broadcasters:
        s = strengths[t]
        for w, d in host.ball(t, s).items():
            was = inside.get(w)
            if was is not None and (was or d < s):
                return t
            inside[w] = d < s
    return None


def bn_violation(f: Broadcast) -> Optional[BnViolation]:
    """First boundary-independence violation in scan order, or None.

    The certificate carries the offending broadcaster pair, a vertex heard
    inside at least one of the two balls, and an edge covered by both.  It
    is the one overlap_scan finds first over the distance matrix: the least
    pair u < v, then the least vertex.
    """
    t = _first_overlapping(f)
    if t is None:
        return None
    host, s = f.host, f.strengths
    # the balls before t are independent, so every clash involves one from t
    # on; the balls of u and v share a vertex off a boundary exactly when
    # d(u, v) < f(u) + f(v), and some u < t clashes with t
    later = {v: s[v] for v in f.broadcasters if v >= t}
    reach = _reach(host, later.items())
    u = next(u for u in f.broadcasters if s[u] + reach[u] > 0)
    du = host.ball(u)
    v = next(v for v, sv in later.items() if v in du and du[v] < s[u] + sv)
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
    """No vertex is heard strictly inside two broadcast balls.

    With assertions enabled the verdict is cross-checked against the
    edge-coverage formulation: boundary independence holds exactly when no
    edge is covered by two broadcasters.
    """
    verdict = bn_violation(f) is None
    if __debug__:
        a = analyze(f)
        edge_verdict = all(len(xs) <= 1 for xs in a.covered_by.values())
        assert verdict == edge_verdict, "boundary/edge formulations disagree"
    return verdict


def hearing_scan(strengths, dist) -> Optional[tuple]:
    """First pair of broadcasters u < v in a raw strength vector where one
    hears the other, or None."""
    bs = [v for v in range(len(strengths)) if strengths[v] > 0]
    for i, u in enumerate(bs):
        for v in bs[i + 1 :]:
            d = dist[u][v]
            if 0 <= d <= max(strengths[u], strengths[v]):
                return (u, v)
    return None


def hearing_violation(f: Broadcast) -> Optional[tuple]:
    """First pair of broadcasters u < v where one hears the other, or None.

    u and v clash when either lies in the other's ball, so this reads every
    ball once: linear on a boundary-independent broadcast.
    """
    s = f.strengths
    clashes = (
        (min(u, v), max(u, v))
        for u, ball in _balls(f).items()
        for v in ball
        if v != u and s[v] > 0
    )
    return min(clashes, default=None)


def is_hearing_independent(f: Broadcast) -> bool:
    """No broadcaster hears another broadcaster."""
    return hearing_violation(f) is None


def is_maximal_bn(f: Broadcast) -> bool:
    """Is the boundary-independent broadcast maximal under pointwise increase?

    Uses the dominating + non-private-boundary criterion.  On connected hosts
    with at least two broadcasters an independent component-counting
    criterion exists (delete the uncovered edges; every component must keep
    two broadcasters) and the two are cross-checked under assertions.
    """
    if bn_violation(f) is not None:
        raise NotBnIndependent("maximality requires a boundary-independent broadcast")
    return _maximal_verdict(f, analyze(f))


def _maximal_verdict(f, a):
    """is_maximal_bn for a broadcast already known to be boundary independent,
    given its analysis `a`."""
    dominating = not a.undominated
    if not dominating:
        verdict = False
    elif len(a.v_plus) <= 1:
        verdict = True
    else:
        verdict = all(a.boundary[v] - a.private_boundary[v] for v in a.v_plus)
    if __debug__ and len(a.v_plus) >= 2 and len(f.host.components) == 1:
        assert verdict == _maximal_by_components(f, a), "maximality criteria disagree"
    return verdict


def _maximal_by_components(f, a):
    """Component criterion: drop uncovered edges, need >= 2 broadcasters each."""
    covered = [e for e, xs in a.covered_by.items() if xs]
    remaining = Forest(f.host.n, covered)
    bs = set(a.v_plus)
    return all(len(bs.intersection(comp)) >= 2 for comp in remaining.components)


def format_broadcast(f: Broadcast) -> str:
    """Render as space-separated "v:strength" pairs, silent vertices omitted."""
    return " ".join(f"{v}:{f.strengths[v]}" for v in f.broadcasters)


def parse_broadcast(text: str, host: Forest) -> Broadcast:
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
