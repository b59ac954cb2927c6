"""Randomized invariants over trees, forests, and broadcasts."""

from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from bnbroadcast import (
    Broadcast,
    BudgetExceeded,
    Forest,
    SolveLimits,
    Tree,
    analyze,
    bn_number,
    bn_number_dp,
    BroadcastAnalysis,
    bn_violation,
    branch_representation,
    hearing_violation,
    hears,
    independence_number,
    is_bn_independent,
    is_dominating,
    is_hearing_independent,
    lower_bound_witness,
)
from bnbroadcast.broadcasts import _undominated, hearing_scan


@st.composite
def trees(draw, min_n=1, max_n=9):
    # parent arrays with parent < child reach every labeled tree shape
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return Tree(n, edges)


@st.composite
def forests(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    edges = []
    for v in range(1, n):
        p = draw(st.integers(-1, v - 1))
        if p >= 0:
            edges.append((p, v))
    return Forest(n, edges)


@st.composite
def broadcasts(draw, min_n=1, max_n=8):
    t = draw(trees(min_n, max_n))
    s = [draw(st.integers(0, t.eccentricities[v])) for v in range(t.n)]
    return Broadcast(t, s)


@st.composite
def forest_broadcasts(draw, max_n=12):
    # about half the vertices silent, so independent broadcasts turn up
    # next to overlapping ones
    g = draw(forests(max_n))
    s = [
        draw(st.one_of(st.just(0), st.integers(0, g.eccentricities[v])))
        for v in range(g.n)
    ]
    return Broadcast(g, s)


class TestProfileInvariants:
    @given(trees())
    def test_vertex_partition(self, t):
        p = t.profile
        assert len(p.leaves) + len(p.deg2_external) + len(p.deg2_internal) + len(
            p.branch
        ) == t.n
        assert sum(t.degree(v) for v in range(t.n)) == 2 * (t.n - 1)

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
            union |= p.leaf_sets[b]
            total += len(p.leaf_sets[b])
        assert union == set(p.leaves) and total == len(p.leaves)

    @given(trees())
    def test_subtree_counting_identity(self, t):
        from bnbroadcast import branch_subtree

        p = t.profile
        assume(p.branch)
        total = sum(branch_subtree(t, b).n - 1 for b in p.branch)
        assert total == t.n - len(p.branch) - len(p.deg2_internal)

    @given(trees())
    def test_interior_composition(self, t):
        p = t.profile
        want = p.branch0 | p.branch1 | p.deg2_internal
        assert set(p.interior.labels) == want
        # acyclic by construction: fewer edges than vertices per component
        assert len(p.interior.edges) < max(p.interior.n, 1) or p.interior.n == 0

    @given(trees())
    def test_branch_representation_is_tree(self, t):
        assume(t.profile.branch)
        r = branch_representation(t)
        assert r.n == len(t.profile.branch)
        assert set(r.labels) == t.profile.branch

    @given(trees(min_n=2), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, t, rng):
        perm = list(range(t.n))
        rng.shuffle(perm)
        mapped = Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        sig = lambda g: sorted(
            (g.degree(v), g.eccentricities[v]) for v in range(g.n)
        )
        assert sig(t) == sig(mapped)
        losses = lambda g: sorted(
            g.profile.loss_table[b].loss for b in g.profile.branch
        )
        assert losses(t) == losses(mapped)


class TestGeometryInvariants:
    @given(st.one_of(forests(), trees(max_n=30)))
    def test_eccentricities_match_distance_rows(self, g):
        rows = oracles.distance_rows(g.n, g.edges)
        assert [list(r) for r in g.distances] == rows
        assert list(g.eccentricities) == [max(r) for r in rows]

    @given(st.one_of(forests(), trees(max_n=30)), st.data())
    def test_balls_match_distance_rows(self, g, data):
        assume(g.n)
        v = data.draw(st.integers(0, g.n - 1))
        r = data.draw(st.integers(0, g.n))
        row = oracles.distance_rows(g.n, g.edges)[v]
        ball = g.ball(v, r)
        assert ball == {u: d for u, d in enumerate(row) if 0 <= d <= r}
        assert list(ball.values()) == sorted(ball.values())  # BFS order


class TestIndependenceInvariants:
    @given(forests())
    def test_matches_brute_force(self, g):
        alpha, ws = independence_number(g)
        assert alpha == oracles.brute_independence(g.n, g.edges)
        assert len(ws) == alpha
        assert not any(u in ws and v in ws for u, v in g.edges)

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
    distance matrix, on forests (several components) and trees."""

    @settings(max_examples=300)
    @given(st.one_of(forest_broadcasts(), broadcasts(max_n=12)))
    def test_predicates_match_matrix_oracles(self, f):
        g, s = f.host, f.strengths
        dist = oracles.distance_rows(g.n, g.edges)
        assert bn_violation(f) == oracles.bn_certificate(f, dist)
        assert hearing_violation(f) == hearing_scan(s, dist)
        assert is_dominating(f) == all(
            any(0 <= dist[v][u] <= s[v] for v in f.broadcasters)
            for u in range(g.n)
        )
        for u in range(g.n):
            for v in range(g.n):
                assert hears(f, u, v) == (s[v] > 0 and 0 <= dist[u][v] <= s[v])
        a, want = analyze(f), oracles.analyze_by_matrix(f, dist)
        for field in fields(BroadcastAnalysis):
            assert getattr(a, field.name) == getattr(want, field.name), field.name
        assert _undominated(f) == want.undominated


class TestWitnessInvariants:
    @given(trees(min_n=4, max_n=10))
    def test_lower_bound_witness_checks_out(self, t):
        p = t.profile
        assume(p.branch)
        alpha_int, _ = independence_number(p.interior)
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
            ref = bn_number(t, SolveLimits(max_nodes=30_000))
        except BudgetExceeded as exc:
            assert exc.best_value <= res.value
            assume(False)
        assert res.value == ref.value
