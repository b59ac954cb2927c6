"""Structural decomposition tests against hand-evaluated examples."""

import gc
import sys
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bnbroadcast import (
    BadVertexIndex,
    GraphError,
    NotATree,
    Shape,
    Tree,
    bn_number_dp,
    build_family,
    classify_shape,
    conjectured_upper_bound,
    enumerate_trees,
    independence_number,
    parse_family_spec,
)
from bnbroadcast import trees
from bnbroadcast.solve import _max_independent_set
from bnbroadcast.trees import _bfs


def path(n):
    return build_family(parse_family_spec(f"path:{n}"))


def spider(*legs):
    return build_family(parse_family_spec("spider:" + ",".join(map(str, legs))))


def interior_edges(t):
    inner = t.profile.interior
    return [(u, v) for u, v in t.edges if u in inner and v in inner]


class TestConstruction:
    def test_p2(self):
        t = Tree(2, [(0, 1)])
        assert t.n == 2 and t.edges == ((0, 1),)

    def test_p3_adjacency_sorted(self):
        t = Tree(3, [(2, 1), (1, 0)])
        assert t.neighbors(1) == (0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            Tree(4, [(0, 1), (1, 2), (2, 0), (2, 3)])

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree):
            Tree(4, [(0, 1), (2, 3)])

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(NotATree):
            Tree(3, [(0, 1)])

    def test_order_must_be_a_plain_int(self):
        for n, edges in ((True, []), (2.0, [(0, 1)]), ("3", [(0, 1), (1, 2)])):
            with pytest.raises(NotATree, match=f"order {n!r} is not an integer"):
                Tree(n, edges)

    def test_bad_edge_named_before_the_count(self):
        with pytest.raises(NotATree, match="self-loop at vertex 1"):
            Tree(3, [(0, 1), (1, 1), (1, 2)])
        with pytest.raises(NotATree, match=r"repeated edge \(0, 1\)"):
            Tree(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(NotATree, match="order 3 needs 2 edges, got 3"):
            Tree(3, [(0, 1), (1, 2), (0, 2)])

    def test_edges_checked_once(self, monkeypatch):
        calls = []
        check_edges = trees._check_edges

        def counted(n, edges):
            calls.append(n)
            return check_edges(n, edges)

        monkeypatch.setattr(trees, "_check_edges", counted)
        Tree(4, [(0, 1), (1, 2), (1, 3)])
        assert calls == [4]

    def test_huge_order_with_few_edges_fails_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(NotATree, match="needs 999999999 edges, got 1"):
            Tree(10**9, [(0, 1)])
        assert time.perf_counter() - t0 < 0.1

    def test_bad_vertex(self):
        with pytest.raises(BadVertexIndex):
            Tree(2, [(0, 2)])

    @pytest.mark.parametrize("edge", [(True, 0), (1, False)])
    def test_bool_endpoint_rejected(self, edge):
        # a bool is an int to isinstance, and would be written as true
        with pytest.raises(BadVertexIndex, match="has non-integer endpoints"):
            Tree(2, [edge])

    def test_bool_vertex_rejected(self):
        t = Tree(3, [(0, 1), (1, 2)])
        for query in (t.neighbors, t.degree, t.eccentricity, t.ball):
            with pytest.raises(BadVertexIndex, match="vertex True out of range"):
                query(True)

    def test_self_loop_rejected(self):
        with pytest.raises(NotATree, match="self-loop at vertex 1"):
            Tree(2, [(1, 1)])

    def test_single_vertex(self):
        t = Tree(1)
        assert t.eccentricity(0) == 0 and t.diameter == 0


@st.composite
def edge_lists(draw, keep_count=False):
    """(n, edges): a random tree's edges in random order and orientation,
    sometimes mutated: a loop, a repeat (reversed or not), an edge that may
    close a cycle, an end out of range, a value that is no pair of ints,
    and, unless keep_count, an edge dropped or added."""
    n = draw(st.integers(0 if not keep_count else 1, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges = list(tree)
    kinds = ["loop", "repeat", "cycle", "range", "odd"]
    if not keep_count:
        kinds += ["drop", "add"]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(kinds))
        if n < 2 or (not edges and kind != "add"):
            continue
        i = draw(st.integers(0, max(len(edges) - 1, 0)))
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "loop":
            edges[i] = (u, u)
        elif kind == "repeat":
            a, b = draw(st.sampled_from(tree))
            edges[i] = draw(st.sampled_from([(a, b), (b, a)]))
        elif kind == "cycle":
            edges[i] = (u, v) if u != v else (u, (u + 1) % n)
        elif kind == "range":
            edges[i] = (u, draw(st.sampled_from([-1, n, n + 5])))
        elif kind == "odd":
            edges[i] = draw(st.sampled_from([(0, 1, 2), (0.0, 1), "01", [u, v]]))
        elif kind == "drop":
            del edges[i]
        else:
            edges.append((u, v))
    edges = [e[::-1] if draw(st.booleans()) and isinstance(e, tuple) else e
             for e in draw(st.permutations(edges))]
    return n, edges


def built(make, n, edges):
    """(edges, adjacency) of make(n, edges), or the type and message of
    the error it raised."""
    try:
        g = make(n, edges)
    except GraphError as exc:
        return type(exc), str(exc)
    return g if isinstance(g, tuple) else (g.edges, g.adjacency)


class TestConstructionAgainstOracle:
    """Tree joins its edges by one connectivity sweep, and runs a
    union-find only to name the edge that closes a cycle; the edges, the
    adjacency and every error are those of oracles.tree_parts, the former
    construction.  test_forest draws edge lists of any count, forests
    among them; test_tree_with_n_minus_1_edges keeps the count."""

    @settings(max_examples=400)
    @given(edge_lists())
    def test_forest(self, case):
        n, edges = case
        assert built(Tree, n, edges) == built(oracles.tree_parts, n, edges)

    @settings(max_examples=400)
    @given(edge_lists(keep_count=True))
    def test_tree_with_n_minus_1_edges(self, case):
        n, edges = case
        assert built(Tree, n, edges) == built(oracles.tree_parts, n, edges)

    def test_a_cycle_beside_a_lone_vertex(self):
        # n - 1 edges that do not connect: the union-find names the cycle
        edges = [(3, 4), (1, 2), (0, 1), (0, 2)]
        with pytest.raises(NotATree, match=r"^edge \(1, 2\) closes a cycle$"):
            Tree(5, edges)
        assert built(Tree, 5, edges) == built(oracles.tree_parts, 5, edges)


class TestDistances:
    def test_p4(self):
        t = path(4)
        assert t.distance(0, 3) == 3
        assert all(t.distance(v, v) == 0 for v in range(4))
        assert t.eccentricity(0) == 3 and t.eccentricity(1) == 2
        assert t.diameter == 3

    def test_star(self):
        t = spider(1, 1, 1)
        assert t.eccentricity(0) == 1 and t.diameter == 2

    def test_sp222(self):
        t = spider(2, 2, 2)
        assert t.eccentricity(0) == 2 and t.diameter == 4

    def test_d14_heads(self, d14):
        assert d14.distance(0, 1) == 5

    def test_ball(self):
        t = path(6)
        assert t.ball(1, 0) == {1: 0}
        assert t.ball(1, 1) == {1: 0, 0: 1, 2: 1}
        assert list(t.ball(0).items()) == [(v, v) for v in range(6)]
        assert t.ball(5, 2) == {5: 0, 4: 1, 3: 2}
        with pytest.raises(ValueError):
            t.ball(0, -1)
        with pytest.raises(BadVertexIndex):
            t.ball(6, 1)

    @pytest.mark.parametrize("radius", (2.5, True, "3", 2.0))
    def test_ball_refuses_a_radius_not_an_int(self, radius):
        # a float radius never equals a BFS level, so it reached the whole
        # tree, and True was read as 1
        with pytest.raises(ValueError, match="radius"):
            path(9).ball(0, radius)


class TestProfile:
    def test_sp123(self):
        t = spider(1, 2, 3)
        p = t.profile
        assert p.branch == {0}
        assert p.leaf_sets[0] == {1, 3, 6}
        lt = p.loss_table[0]
        assert (lt.farthest, lt.total, lt.loss) == (3, 6, 3)
        assert p.leaf_distance == {1: 1, 3: 2, 6: 3}
        assert not p.branch01 and not p.deg2_internal

    def test_p6_path_convention(self):
        p = path(6).profile
        assert not p.branch
        assert p.leaves == {0, 5}
        assert p.stems == {1, 4}
        # every interior degree-2 vertex counts as external on a path
        assert p.deg2_external == {1, 2, 3, 4}
        assert not p.deg2_internal
        assert p.interior == frozenset()

    def test_d14(self, d14):
        p = d14.profile
        assert p.branch == {0, 1}
        assert not p.branch01
        assert p.deg2_internal == {2, 3, 4, 5}
        assert p.loss_table[0].loss == 2 and p.loss_table[1].loss == 2
        # interior is the bridge path
        assert p.interior == {2, 3, 4, 5} and len(interior_edges(d14)) == 3

    def test_t26(self, t26):
        p = t26.profile
        assert len(p.branch) == 6
        assert p.branch0 == {0}
        assert p.branch1 == {1, 2}
        assert p.branch2plus == {3, 4, 5}
        assert p.deg2_internal == {6, 7, 8, 9}
        assert p.interior == {0, 1, 2, 6, 7, 8, 9}
        assert len(interior_edges(t26)) == 6

    def test_t18(self, t18):
        p = t18.profile
        assert len(p.branch) == 6
        assert p.branch0 == {0} and p.branch1 == {4}
        assert not p.deg2_internal
        assert (0, 4) not in t18.edges and (4, 0) not in t18.edges

    def test_counting_identity_d14(self, d14):
        # a branch vertex's subtree is its endpaths, one edge per unit of
        # leaf distance
        p = d14.profile
        total = sum(p.loss_table[b].total for b in p.branch)
        assert total == d14.n - len(p.branch) - len(p.deg2_internal)


    def test_large_spider_builds_no_distance_matrix(self):
        t = spider(1000, 1000, 1000)
        p = t.profile
        assert p.leaf_sets[0] == {1000, 2000, 3000}
        assert p.loss_table[0].farthest == 1000 and p.loss_table[0].loss == 2000
        assert t.eccentricity(0) == 1000 and t.diameter == 2000
        assert "distances" not in vars(t)


def assert_rooting_matches_distances(t):
    order, parent, kids, ecc = t.rooting
    rows = t.distances
    assert ecc == tuple(max(row) for row in rows) == t.eccentricities, t.edges
    root = order[0]
    assert root == min(v for v in range(t.n) if ecc[v] == min(ecc)), t.edges
    adj = t.adjacency
    assert order == list(_bfs(adj, root)), t.edges
    depth = rows[root]
    assert parent[root] == -1
    for v in range(t.n):
        assert kids[v] == [w for w in adj[v] if depth[w] > depth[v]], (t.edges, v)
        for w in kids[v]:
            assert parent[w] == v, (t.edges, w)
    assert t.diameter == max(ecc)


class TestRooting:
    """`Tree.rooting` against the distance matrix and `_bfs`."""

    def test_every_tree_to_order_10(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert_rooting_matches_distances(t)

    def test_relabelled_random_trees(self, random_trees):
        for t in random_trees(2024, 12, 50, 300):
            assert_rooting_matches_distances(t)

    def test_bicentral_root_is_the_lesser_centre(self):
        # path 3 - 0 - 1 - 2 - 4 - 5: centres 1 and 2
        t = Tree(6, [(3, 0), (0, 1), (1, 2), (2, 4), (4, 5)])
        assert t.rooting.order[0] == 1
        assert t.eccentricities == (4, 3, 3, 5, 4, 5)

    def test_long_path_needs_no_recursion(self):
        n = 200_000
        t = Tree(n, [(v, v + 1) for v in range(n - 1)])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            order, parent, kids, ecc = t.rooting
        finally:
            sys.setrecursionlimit(limit)
        assert order[0] == (n - 1) // 2 and ecc[0] == ecc[-1] == n - 1
        assert t.diameter == n - 1


class TestLevelTrees:
    """A corpus tree is built with its rooting from its level sequence;
    its edges, adjacency and rooting are those of `Tree(n, edges)`, which
    roots by three BFS passes."""

    @staticmethod
    def assert_rebuilds_alike(max_n):
        for n in range(1, max_n + 1):
            for t in enumerate_trees(n):
                ref = Tree(n, t.edges)
                assert t.n == n
                assert t.edges == ref.edges and t.adjacency == ref.adjacency, t.edges
                assert t.rooting == ref.rooting, t.edges
                assert vars(t).keys() == vars(ref).keys(), t.edges

    def test_every_corpus_tree_to_order_12(self):
        self.assert_rebuilds_alike(12)

    @pytest.mark.slow
    def test_every_corpus_tree_to_order_15(self):
        self.assert_rebuilds_alike(15)

    def test_freed_by_reference_counting(self):
        # nothing a scan reads points back at the tree, so the tree goes
        # with its last reference, without the cycle collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            for t in enumerate_trees(9):
                if len(t.profile.branch) == 2:
                    break
            p = t.profile
            for name in oracles.PROFILE_FIELDS:
                getattr(p, name)
            del p
            t.rooting
            value = bn_number_dp(t).value
            conjectured = conjectured_upper_bound(t)
            assert value <= conjectured
            tree = weakref.ref(t)
            del t
            assert tree() is None
        finally:
            if enabled:
                gc.enable()


class TestLazyProfile:
    """Most profile fields are computed on first read; each must equal the
    eager computation, whatever order the fields are read in."""

    def test_every_tree_to_order_10(self):
        # in field order, and in reverse on a second copy of the tree
        backwards = oracles.PROFILE_FIELDS[::-1]
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert oracles.profile_mismatches(t) == [], t.edges
                again = Tree(t.n, t.edges)
                assert oracles.profile_mismatches(again, backwards) == [], t.edges

    def test_fields_are_computed_on_first_read(self, d14):
        t = Tree(d14.n, d14.edges)
        p = t.profile
        assert "leaf_sets" not in vars(p) and "interior" not in vars(p)
        assert p.leaf_sets is p.leaf_sets
        assert "leaf_sets" in vars(p)


class TestRepresentations:
    """The interior is a vertex set of the tree, and a branch vertex's
    subtree is its endpaths: both are read on the tree's own numbering."""

    def test_subtree_b0_is_k1(self, t26):
        p = t26.profile
        assert p.leaf_sets[0] == frozenset() and p.loss_table[0].total == 0

    def test_subtree_spider_head_is_whole(self):
        t = spider(1, 2, 3)
        assert t.profile.loss_table[0].total == t.n - 1

    def test_subtree_d14_head(self, d14):
        p = d14.profile
        assert p.loss_table[0].total == 4
        assert 1 not in p.leaf_sets[0]

    def test_interior_d14(self, d14):
        inner = d14.profile.interior
        assert inner == {2, 3, 4, 5}
        assert len(interior_edges(d14)) == 3

    def test_interior_spider_empty(self):
        assert spider(2, 2, 2).profile.interior == frozenset()


class TestInducedSubgraph:
    """Independent sets of an induced subgraph, read off the tree's own
    rooting."""

    def test_empty(self, d14):
        assert _max_independent_set(d14, []) == (0, frozenset())

    def test_full(self, d14):
        assert _max_independent_set(d14, range(14)) == independence_number(d14)

    def test_t18_branch01_independent(self, t18):
        b01 = t18.profile.branch01
        assert len(b01) == 2
        assert not any(u in b01 and v in b01 for u, v in t18.edges)
        assert _max_independent_set(t18, b01) == (2, b01)


class TestClassify:
    def test_p5(self):
        assert classify_shape(path(5)) == {Shape.PATH, Shape.CATERPILLAR}

    def test_p2_p1_not_caterpillar(self):
        assert classify_shape(path(2)) == {Shape.PATH}
        assert classify_shape(path(1)) == {Shape.PATH}

    def test_sp222_not_caterpillar(self):
        assert classify_shape(spider(2, 2, 2)) == {Shape.SPIDER}

    def test_star_is_spider_and_caterpillar(self):
        assert classify_shape(spider(1, 1, 1)) == {Shape.SPIDER, Shape.CATERPILLAR}

    def test_d14_other(self, d14):
        assert classify_shape(d14) == {Shape.OTHER}

    def test_caterpillar_family(self):
        t = build_family(parse_family_spec("cat:leafcounts=2,1,2"))
        assert classify_shape(t) == {Shape.CATERPILLAR}

    def test_t18_other(self, t18):
        assert classify_shape(t18) == {Shape.OTHER}
