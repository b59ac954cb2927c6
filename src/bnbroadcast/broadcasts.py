"""Broadcast assignments and the independence/maximality predicates.

A broadcast assigns every vertex an integer strength between 0 and its
eccentricity.  Vertex u hears broadcaster v when d(u, v) <= f(v); it sits on
v's boundary when equality holds.  An edge is covered by broadcaster x when
both endpoints are heard by x and at least one of them is off x's boundary.

The package's central predicate, boundary independence, asks that any vertex
heard by two broadcasters lies on the boundary of both.  The equivalent
edge-level reading (no edge covered twice) is computed independently and the
two verdicts are cross-checked whenever assertions are enabled.

Hosts may be forests: eccentricity is measured inside a vertex's component
and nothing is heard across components.
"""

from __future__ import annotations

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
    d = f.host.distance(u, v)
    return 0 <= d <= s


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


def analyze(f: Broadcast) -> BroadcastAnalysis:
    """Compute every derived set of the broadcast by direct definition.

    The private boundary uses the reduction form: u is privately bounded by v
    when u hears v but hears nobody once v's strength is lowered by one.
    """
    host = f.host
    n = host.n
    dist = host.distances
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
        covering = tuple(
            x
            for x in v_plus
            if a in heard[x]
            and b in heard[x]
            and not (a in boundary[x] and b in boundary[x])
        )
        covered_by[e] = covering
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


def is_dominating(f: Broadcast) -> bool:
    """Every vertex hears at least one broadcaster."""
    host = f.host
    dist = host.distances
    bs = f.broadcasters
    return all(
        any(0 <= dist[v][u] <= f.strengths[v] for v in bs) for u in range(host.n)
    )


def _next_toward(host, w, v):
    """Neighbour of w on the unique w-v path (w and v in one component, w != v)."""
    dw = host.distances[v]
    for nb in host.neighbors(w):
        if dw[nb] == dw[w] - 1:
            return nb
    raise AssertionError("unreachable: w and v share a component")


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
    inside at least one of the two balls, and an edge covered by both.
    """
    host = f.host
    hit = overlap_scan(f.strengths, host.distances)
    if hit is None:
        return None
    u, v, w = hit
    inside_u = host.distances[u][w] < f.strengths[u]
    inside_v = host.distances[v][w] < f.strengths[v]
    # w is interior to one ball; exhibit a doubly covered edge
    if inside_u and inside_v:
        x = _next_toward(host, w, u) if w != u else _next_toward(host, w, v)
    elif inside_u:
        x = _next_toward(host, w, v)
    else:
        x = _next_toward(host, w, u)
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
    """First pair of broadcasters where one hears the other, or None."""
    return hearing_scan(f.strengths, f.host.distances)


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
