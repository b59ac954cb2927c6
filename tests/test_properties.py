"""Randomized invariants over trees and broadcasts, and over the forests
that the independence DP reads."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from bnbroadcast import (
    Broadcast,
    BudgetExceeded,
    Tree,
    analyze,
    bn_number,
    bn_number_dp,
    BroadcastAnalysis,
    bn_violation,
    enumerate_trees,
    hearing_number,
    hearing_violation,
    independence_number,
    is_bn_independent,
    is_dominating,
    is_hearing_independent,
    is_maximal_bn,
    lower_bound_witness,
)
from bnbroadcast.broadcasts import _maximality_certificate
from bnbroadcast.solve import _max_independent_set


@st.composite
def trees(draw, min_n=1, max_n=9):
    # parent arrays with parent < child reach every labeled tree shape
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return Tree(n, edges)


@st.composite
def forest_edges(draw, max_n=9):
    """(n, edges) of a forest on 0..n-1: each vertex joins an earlier one
    or none."""
    n = draw(st.integers(0, max_n))
    edges = []
    for v in range(1, n):
        p = draw(st.integers(-1, v - 1))
        if p >= 0:
            edges.append((p, v))
    return n, edges


@st.composite
def broadcasts(draw, min_n=1, max_n=8):
    t = draw(trees(min_n, max_n))
    s = [draw(st.integers(0, t.eccentricities[v])) for v in range(t.n)]
    return Broadcast(t, s)


@st.composite
def sparse_broadcasts(draw, max_n=12):
    # about half the vertices silent, so independent broadcasts turn up
    # next to overlapping ones
    t = draw(trees(max_n=max_n))
    s = [
        draw(st.one_of(st.just(0), st.integers(0, t.eccentricities[v])))
        for v in range(t.n)
    ]
    return Broadcast(t, s)


class TestProfileInvariants:
    @given(trees())
    def test_vertex_partition(self, t):
        p = t.profile
        assert len(p.leaves) + len(p.deg2_external) + len(p.deg2_internal) + len(
            p.branch
        ) == t.n
        assert sum(map(len, t.adjacency)) == 2 * (t.n - 1)

    @given(trees())
    def test_branch_split(self, t):
        p = t.profile
        assert p.branch01 == p.branch0 | p.branch1
        assert not p.branch01 & p.branch2plus
        assert p.branch01 | p.branch2plus == p.branch

    @given(trees(min_n=2))
    def test_leaf_sets_partition_leaves(self, t):
        p = t.profile
        assume(p.branch)
        union = set()
        total = 0
        for b in p.branch:
            union |= p.leaf_distances[b].keys()
            total += len(p.leaf_distances[b])
        assert union == set(p.leaves) and total == len(p.leaves)

    @given(trees())
    def test_subtree_counting_identity(self, t):
        # a branch vertex's subtree is its endpaths, whose edges number its
        # total leaf distance
        p = t.profile
        assume(p.branch)
        total = sum(p.loss_table[b].total for b in p.branch)
        assert total == t.n - len(p.branch) - len(p.deg2_internal)

    @given(trees())
    def test_interior_composition(self, t):
        p = t.profile
        want = p.branch0 | p.branch1 | p.deg2_internal
        assert p.interior == want
        # a forest: fewer induced edges than vertices
        inner = [e for e in t.edges if set(e) <= p.interior]
        assert len(inner) < max(len(p.interior), 1) or not p.interior

    @given(trees(max_n=14), st.booleans())
    def test_lazy_fields_match_eager_oracle(self, t, backwards):
        names = oracles.PROFILE_FIELDS
        if backwards:
            names = names[::-1]
        assert oracles.profile_mismatches(t, names) == []

    @given(trees(min_n=2), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, t, rng):
        perm = list(range(t.n))
        rng.shuffle(perm)
        mapped = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        sig = lambda g: sorted(
            (len(g.adjacency[v]), g.eccentricities[v]) for v in range(g.n)
        )
        assert sig(t) == sig(mapped)
        losses = lambda g: sorted(
            g.profile.loss_table[b].loss for b in g.profile.branch
        )
        assert losses(t) == losses(mapped)


class TestGeometryInvariants:
    @given(trees(max_n=30))
    def test_eccentricities_match_distance_rows(self, g):
        rows = oracles.distance_rows(g.n, g.edges)
        assert [list(r) for r in g.distances] == rows
        assert list(g.eccentricities) == [max(r) for r in rows]

    @given(trees(max_n=30), st.data())
    def test_balls_match_distance_rows(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        r = data.draw(st.integers(0, g.n))
        row = oracles.distance_rows(g.n, g.edges)[v]
        ball = g.ball(v, r)
        assert ball == {u: d for u, d in enumerate(row) if 0 <= d <= r}
        assert list(ball.values()) == sorted(ball.values())  # BFS order


class TestForestRooting:
    """`Tree.rooting` on drawn trees against Floyd-Warshall rows: `order`
    is BFS order from the least-index centre."""

    @given(trees(max_n=14))
    def test_matches_distance_rows(self, t):
        order, parent, kids, ecc = t.rooting
        want = tuple(map(max, oracles.distance_rows(t.n, t.edges)))
        assert ecc == want == t.eccentricities, t.edges
        root = order[0]
        assert root == min(v for v in range(t.n) if want[v] == min(want)), t.edges
        assert order == list(t.ball(root)), t.edges
        assert [v for v in range(t.n) if parent[v] == -1] == [root]
        adj = t.adjacency
        for v in range(t.n):
            assert kids[v] == [w for w in adj[v] if w != parent[v]], (t.edges, v)
            assert all(parent[w] == v for w in kids[v]), (t.edges, v)


class TestIndependenceInvariants:
    @given(forest_edges())
    def test_matches_brute_force(self, case):
        # the DP also runs on the forest the interior induces, so it is
        # checked on forests, each induced by a tree on one more vertex
        n, edges = case
        alpha, ws = _max_independent_set(oracles.hub_tree(n, edges), range(n))
        assert alpha == oracles.brute_independence(n, edges)
        assert len(ws) == alpha
        assert not any(u in ws and v in ws for u, v in edges)

    @given(forest_edges(max_n=14), st.randoms(use_true_random=False))
    def test_witness_is_lex_least(self, case, rnd):
        n, edges = case
        perm = list(range(n))
        rnd.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        assert _max_independent_set(oracles.hub_tree(n, edges), range(n)) == \
            oracles.lex_least_independent_set(n, edges)

    @staticmethod
    def assert_interior_set_is_lex_least(t):
        inner = sorted(t.profile.interior)
        k, local = oracles.lex_least_independent_set(
            *oracles.induced_edges(inner, t.edges))
        want = (k, frozenset(inner[i] for i in local))
        assert _max_independent_set(t, t.profile.interior) == want, t.edges

    @given(trees(max_n=16))
    def test_interior_set_is_lex_least(self, t):
        self.assert_interior_set_is_lex_least(t)

    def test_interior_set_is_lex_least_to_order_10(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                self.assert_interior_set_is_lex_least(t)

    @given(trees(min_n=2, max_n=9))
    def test_characteristic_broadcast_is_independent(self, t):
        alpha, ws = independence_number(t)
        f = Broadcast(t, [1 if v in ws else 0 for v in range(t.n)])
        assert f.weight == alpha
        assert is_bn_independent(f) and is_hearing_independent(f)


class TestBroadcastInvariants:
    @given(broadcasts())
    def test_low_strength_coincidence(self, f):
        assume(all(s <= 1 for s in f.strengths))
        on = [v for v in range(f.host.n) if f.strengths[v] == 1]
        adjacent = any(
            f.host.distances[u][v] == 1
            for i, u in enumerate(on)
            for v in on[i + 1 :]
        )
        assert is_bn_independent(f) == is_hearing_independent(f) == (not adjacent)

    @given(broadcasts(min_n=2), st.data())
    def test_violations_survive_strength_increase(self, f, data):
        v = bn_violation(f)
        assume(v is not None)
        t = f.host
        grown = [
            min(
                t.eccentricities[w],
                f.strengths[w] + data.draw(st.integers(0, 2)),
            )
            for w in range(t.n)
        ]
        g = Broadcast(t, grown)
        assert not is_bn_independent(g)
        # the original pair still overlaps somewhere off a boundary
        du, dv = t.distances[v.u], t.distances[v.v]
        su, sv = g.strengths[v.u], g.strengths[v.v]
        assert any(
            du[x] <= su and dv[x] <= sv and (du[x] < su or dv[x] < sv)
            for x in range(t.n)
        )

    @given(broadcasts())
    def test_analyze_is_pure(self, f):
        before = f.strengths
        a1 = analyze(f)
        a2 = analyze(f)
        assert f.strengths == before
        assert a1.boundary == a2.boundary
        assert a1.covered_by == a2.covered_by
        assert a1.undominated == a2.undominated

    @given(broadcasts())
    def test_private_sets_stay_inside(self, f):
        a = analyze(f)
        for v in a.v_plus:
            assert a.private_heard[v] <= a.heard[v]
            assert a.private_boundary[v] <= a.heard[v]
        # for strength 1 the reduction silences v, so v bounds itself;
        # only stronger broadcasters keep their private boundary on the rim
        for v in a.v_plusplus:
            assert a.private_boundary[v] <= a.boundary[v]

    @given(broadcasts())
    def test_private_boundary_formula_for_strong_broadcasters(self, f):
        a = analyze(f)
        for v in a.v_plusplus:
            assert a.private_boundary[v] == a.boundary[v] & a.private_heard[v]


class TestPredicatesMatchMatrix:
    """The ball-based predicates against definitions over a Floyd-Warshall
    distance matrix, on trees with about half their vertices silent and
    on trees with any strengths."""

    @settings(max_examples=300)
    @given(st.one_of(sparse_broadcasts(), broadcasts(max_n=12)))
    def test_predicates_match_matrix_oracles(self, f):
        g, s = f.host, f.strengths
        dist = oracles.distance_rows(g.n, g.edges)
        assert bn_violation(f) == oracles.bn_certificate(f, dist)
        assert hearing_violation(f) == oracles.hearing_scan(s, dist)
        assert is_dominating(f) == all(
            any(0 <= dist[v][u] <= s[v] for v in f.broadcasters)
            for u in range(g.n)
        )
        a, want = analyze(f), oracles.analyze_by_matrix(f, dist)
        assert BroadcastAnalysis._fields == (
            "broadcast", "v_plus", "v_one", "v_plusplus", "heard", "boundary",
            "private_heard", "private_boundary", "undominated", "covered_by",
            "uncovered_edges")
        for name in BroadcastAnalysis._fields:
            assert getattr(a, name) == getattr(want, name), name
        # the second formulations of independence and maximality
        independent = bn_violation(f) is None
        assert independent == all(len(xs) <= 1 for xs in want.covered_by.values())
        if independent and len(want.v_plus) >= 2:
            assert is_maximal_bn(f) == oracles.maximal_by_components(f, want)
        # domination for any broadcast, the certificate for an independent one
        undominated, cert = _maximality_certificate(f)
        assert undominated == want.undominated
        if independent:
            assert cert == oracles.maximality_certificate(want)


class TestWitnessInvariants:
    @given(trees(min_n=4, max_n=10))
    def test_lower_bound_witness_checks_out(self, t):
        p = t.profile
        assume(p.branch)
        alpha_int = oracles.brute_independence(
            *oracles.induced_edges(p.interior, t.edges))
        weight, f = lower_bound_witness(t)
        assert weight == t.n - len(p.branch) - len(p.deg2_internal) + alpha_int
        assert f.weight == weight
        assert is_bn_independent(f)


class TestDpInvariants:
    @settings(max_examples=50)
    @given(trees(max_n=30))
    def test_dp_matches_budgeted_search(self, t):
        res = bn_number_dp(t)
        assert res.witness.weight == res.value
        assert is_bn_independent(res.witness)
        try:
            ref = bn_number(t, 30_000)
        except BudgetExceeded:
            assume(False)
        assert res.value == ref.value

    def test_dp_matches_full_table(self):
        bicentral = []

        @settings(max_examples=100)
        @given(trees(max_n=60))
        def check(t):
            ecc = t.eccentricities
            bicentral.append(t.n > 1 and ecc.count(min(ecc)) == 2)
            got, want = bn_number_dp(t), oracles.bn_number_dp_full(t)
            assert got.value == want.value
            assert got.witness.strengths == want.witness.strengths
            assert got.nodes == want.nodes

        check()
        # the root of a bicentral tree is where the closed-form tail fails
        assert any(bicentral) and not all(bicentral)

    @settings(max_examples=50)
    @given(trees(max_n=25))
    def test_hearing_dp_witness_and_chain(self, t):
        res = hearing_number(t)
        assert res.witness.weight == res.value
        dist = oracles.distance_rows(t.n, t.edges)
        assert oracles.hearing_scan(res.witness.strengths, dist) is None
        if t.n >= 2:
            alpha, _ = independence_number(t)
            bn = bn_number_dp(t).value
            assert alpha <= bn <= res.value < 2 * bn
