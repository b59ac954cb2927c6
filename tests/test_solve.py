"""Solver, bound, and formula tests.

The enumeration solver is the ground truth here; the structured examples
(double spiders, caterpillars, fixtures) were evaluated by hand from the
definitions before being frozen into assertions.
"""

import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bnbroadcast import (
    BudgetExceeded,
    InternalInconsistency,
    NoBranchVertices,
    ShapeMismatch,
    Tree,
    bn_number,
    bn_number_dp,
    bn_number_enum,
    bn_number_restricted,
    build_family,
    caterpillar_value,
    compute_bounds,
    conjectured_upper_bound,
    enumerate_trees,
    hearing_number,
    independence_number,
    is_bn_independent,
    lower_bound_witness,
    parse_family_spec,
    path_spider_value,
    two_branch_value,
    upper_bound,
)
from bnbroadcast import solve


def fam(text):
    return build_family(parse_family_spec(text))


LONG_SPECS = ("path:400", "path:800", "path:1100", "spider:200,200,200",
              "spider:150,150,150,150", "spider:100,100,100,100,100,100,100")


def spine(length):
    """The caterpillar spec whose spine of `length` vertices has one leaf
    per vertex."""
    return "cat:leafcounts=" + ",".join(["1"] * length)


def assert_matches_full_table(t):
    got, want = bn_number_dp(t), oracles.bn_number_dp_full(t)
    assert got.value == want.value, t.edges
    assert got.witness.strengths == want.witness.strengths, t.edges
    assert got.nodes == want.nodes, t.edges


def tail_starts(tables):
    """K(v) of every vertex by the rule in bn_number_dp's docstring, read
    from the oracle's full tables (oracles.bn_dp_tables): the least k >=
    max(H<, H>, K(D) - 1, 0) with out[D][k] <= thr, capped at height(v) - 1,
    where D is the first deepest child and K(D) the length of its stored
    inn list."""
    _, kids, height, out, _, _, _ = tables
    starts = [0] * len(kids)
    for v in sorted(range(len(kids)), key=height.__getitem__):  # children first
        hs = [height[c] for c in kids[v]]
        if not hs:
            continue
        i = hs.index(max(hs))
        d, hd = kids[v][i], hs[i]
        pre, post = max(hs[:i], default=-1), max(hs[i + 1:], default=-1)
        thr = min(height[v] if pre < 0 else hd - pre - 1,
                  height[v] if post < 0 else hd - post)
        k = max(pre, post, starts[d] - 1, 0)
        while k < height[v] - 1 and out[d][k] > thr:
            k += 1
        starts[v] = k
    return starts


class TestIndependence:
    def test_empty_forest(self):
        assert solve._max_independent_set(Tree(1), ()) == (0, frozenset())

    def test_isolated_vertices(self):
        # the three leaves of a star, its hub left out
        want = (3, frozenset({0, 1, 2}))
        star = Tree(4, [(0, 3), (1, 3), (2, 3)])
        assert solve._max_independent_set(star, range(3)) == want

    def test_p2_prefers_low_index(self):
        t = fam("path:2")
        assert independence_number(t) == (1, frozenset({0}))

    def test_p4_witness(self):
        assert independence_number(fam("path:4")) == (2, frozenset({0, 2}))

    def test_spider_alpha(self):
        for k in (3, 4):
            t = fam("spider:" + ",".join(["2"] * k))
            assert independence_number(t)[0] == k + 1

    def test_witness_is_independent(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                alpha, ws = independence_number(t)
                assert len(ws) == alpha
                assert not any(u in ws and v in ws for u, v in t.edges)

    def test_matches_brute_force(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert independence_number(t)[0] == oracles.brute_independence(
                    t.n, t.edges
                )


class TestEnumSolver:
    def test_p5(self):
        assert bn_number_enum(fam("path:5")).value == 4

    def test_k1(self):
        res = bn_number_enum(Tree(1, []))
        assert res.value == 0 and res.witness.strengths == (0,)

    def test_witness_is_valid_and_optimal(self):
        for t in enumerate_trees(6):
            res = bn_number_enum(t)
            assert is_bn_independent(res.witness)
            assert res.witness.weight == res.value

    def test_optima_collection(self):
        optima = oracles.bn_optima(fam("path:4"))
        assert bn_number_enum(fam("path:4")).value == 3
        assert all(f.weight == 3 for f in optima)
        texts = {tuple(f.strengths) for f in optima}
        assert (3, 0, 0, 0) in texts and (0, 0, 0, 3) in texts


class TestPrunedSolver:
    def test_matches_enum_small(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert bn_number(t).value == bn_number_enum(t).value

    def test_d14_under_a_second(self, d14):
        res = bn_number(d14)
        assert res.value == 11

    def test_nodes_deterministic(self, d14):
        assert bn_number(d14).nodes == bn_number(d14).nodes > 0

    def test_node_budget(self, d14):
        with pytest.raises(BudgetExceeded) as exc:
            bn_number(d14, 50)
        e = exc.value
        assert e.nodes == 51
        assert not hasattr(e, "best_value") and not hasattr(e, "best_broadcast")

    def test_restricted_agrees(self):
        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert bn_number_restricted(t).value == bn_number(t).value


class TestDpSolver:
    def test_matches_pruned_on_corpus(self):
        for n in range(1, 12):
            for t in enumerate_trees(n):
                res = bn_number_dp(t)
                assert res.value == bn_number(t).value, t.edges
                assert res.witness.weight == res.value
                assert is_bn_independent(res.witness)

    def test_matches_enum_small(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert bn_number_dp(t).value == bn_number_enum(t).value, t.edges

    def test_large_trees(self):
        # the pruned search recurses once per vertex and cannot reach these
        for spec, value in (("path:1100", 1099), ("spider:200,200,200", 600)):
            res = bn_number_dp(fam(spec))
            assert res.value == res.witness.weight == value

    def test_matches_full_table_on_corpus(self):
        for n in range(1, 12):
            for t in enumerate_trees(n):
                assert_matches_full_table(t)

    def test_matches_full_table_on_long_specs(self):
        # a spine with a leaf per vertex stores inn states below K(v) > 0;
        # a standalone solve extends each chain's out lists in place, where
        # a shared table copies them
        for spec in LONG_SPECS + ("path:401", spine(300), "spider:300,200,100",
                                  "dspider:3,3/400/3,3", "dspider:2,5/300/4,1",
                                  "dspider:40,1/300/2,60"):
            t = fam(spec)
            assert_matches_full_table(t)
            assert outcome(t, classes=solve._ClassTable()) == outcome(t), spec
        # K(v) keeps _fill's tie rule, where the deepest child's tail ball
        # must beat every earlier sibling and lose to no later one: at
        # vertex 1 the deepest child 8 follows the leaf 6, which wins state
        # 0; at vertex 4 the deepest child 6 is followed by 7, of equal
        # height, which wins state 0
        for edges in ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 6), (1, 8), (4, 7), (5, 8)],
                      [(0, 1), (0, 3), (1, 4), (2, 7), (4, 6), (4, 7), (5, 6), (6, 8)]):
            assert_matches_full_table(Tree(9, edges))

    def test_standalone_solve_extends_out_lists_in_place(self, monkeypatch):
        # below the root a standalone solve hands _fill its first deepest
        # child's own out list, which it reads last on a path; the root
        # and a shared table's classes build new lists
        taken = []
        fill = solve._fill

        def watched(children, h, top, caps, rest):
            children = list(children)
            taken.append(any(rest is out for out, _, _ in children))
            return fill(children, h, top, caps, rest)

        monkeypatch.setattr(solve, "_fill", watched)
        t = fam("path:1001")
        bn_number_dp(t)
        assert len(taken) == 500 and all(taken[:-1]) and not taken[-1]
        taken.clear()
        bn_number_dp(t, classes=solve._ClassTable())
        assert len(taken) == 500 and not any(taken)

    @pytest.mark.slow
    def test_long_path(self):
        # 4.1e9 states counted, but each class's fill is O(1): its out list
        # is its child's, extended in place
        res = bn_number_dp(fam("path:64000"))
        assert (res.value, res.nodes) == (63999, 4_095_936_003)

    def test_matches_full_table_where_classes_repeat(self):
        # equal rooted subtrees share one table; here they sit in different
        # child positions: equal legs, a caterpillar's leaves and stems
        for spec in ("dspider:4,4,4/3/4,4,4", "dspider:7,7/6/7,7",
                     "cat:leafcounts=2,1,3,0,2,2,1,3,1,2"):
            assert_matches_full_table(fam(spec))

    def test_matches_full_table_on_relabelled_random_trees(self, random_trees):
        for t in random_trees(2024, 12, 50, 300):
            assert_matches_full_table(t)

    def test_tails_have_a_closed_form_below_the_root(self):
        # what lets bn_number_dp store inn and pick only below K(v)
        corpus = [t for n in range(1, 12) for t in enumerate_trees(n)]
        root_exceptions = 0
        for t in corpus + [fam(spec) for spec in LONG_SPECS]:
            tables = oracles.bn_dp_tables(t)
            root, kids, height, _, inn, _, pick = tables
            starts = tail_starts(tables)
            for v in range(t.n):
                deepest = max(kids[v], key=height.__getitem__, default=-1)
                h, e = height[v], t.eccentricities[v]
                k0 = starts[v] if v != root else max(h - 1, 0)
                tail = (inn[v][k0:e], pick[v][k0:e])
                closed = (list(range(k0 + 1 + h, e + 1 + h)), [deepest] * (e - k0))
                if v != root:
                    assert tail == closed, (t.edges, v)
                elif tail != closed:
                    root_exceptions += 1
        # the root keeps its full table: there the tail can differ
        assert root_exceptions > 0
        # on a chain the tail holds from state 0
        for spec in ("path:401", "spider:200,200,200"):
            tables = oracles.bn_dp_tables(fam(spec))
            starts = tail_starts(tables)
            assert not any(k for v, k in enumerate(starts) if v != tables[0]), spec

    def test_stores_no_inn_state_on_chains(self):
        # with K(v) = 0 below the root a path's or a spider's classes keep
        # no inn state; filled up to height - 1 they would keep 150,426 on
        # path:1100 and 19,701 on spider:200,200,200
        for spec in ("path:1100", "spider:200,200,200"):
            table = solve._ClassTable()
            bn_number_dp(fam(spec), classes=table)
            assert sum(len(inn) for _, inn, _ in table.tabs) == 0, spec

    def test_nodes_frozen(self):
        # counted before the tails were stored in closed form; every state
        # still counts, so budgets stop at the same place
        for spec, nodes in (("path:1100", 1208903), ("spider:200,200,200", 240403)):
            assert bn_number_dp(fam(spec)).nodes == nodes

    def test_budget_stops_frozen(self):
        # the states are spent vertex by vertex in post-order, as before the
        # tables were shared, so a budget stops at the same count
        for spec, cap, nodes in (("path:1100", 700000, 700065),
                                 ("spider:200,200,200", 100000, 100003),
                                 ("path:800", 5, 800)):
            with pytest.raises(BudgetExceeded) as exc:
                bn_number_dp(fam(spec), cap)
            assert exc.value.nodes == nodes, spec

    def test_drops_tables_once_read(self):
        # a class's tables, one per height on a long chain, go as soon as
        # the class that reads them is filled.  A path keeps no inn state,
        # so keeping all its tables takes about 1.7 MB; a caterpillar spine
        # still stores O(height) states per class, and keeping all of a
        # 1,500-vertex spine's takes about 10 MB
        for spec in ("path:1100", spine(1500)):
            t = fam(spec)
            t.eccentricities
            tracemalloc.start()
            try:
                bn_number_dp(t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, spec

    def test_nodes_deterministic(self, d14):
        assert bn_number_dp(d14).nodes == bn_number_dp(d14).nodes > 0

    def test_node_budget(self, d14):
        with pytest.raises(BudgetExceeded) as exc:
            bn_number_dp(d14, 50)
        e = exc.value
        assert e.nodes > 50
        assert not hasattr(e, "best_value") and not hasattr(e, "best_broadcast")

    def test_budget_abort_builds_no_distance_matrix(self):
        t = fam("path:1100")
        with pytest.raises(BudgetExceeded) as exc:
            bn_number_dp(t, 1)
        assert "distances" not in vars(t)


def first_vertex_states(t):
    """The states a rooted DP counts first: those of the last vertex in BFS
    order, a leaf (or the lone vertex) with 1 + ecc states."""
    order, _, _, ecc = t.rooting
    return 1 + ecc[order[-1]]


# each solver, the largest order it is run on here, and its first count
BUDGETED = [
    (bn_number_dp, 8, first_vertex_states),
    (hearing_number, 8, first_vertex_states),
    (bn_number, 8, lambda t: 1),
    (bn_number_restricted, 8, lambda t: 1),
    (bn_number_enum, 6, lambda t: 1),
]


@pytest.mark.parametrize("solver, max_n, first", BUDGETED,
                         ids=[s.__name__ for s, _, _ in BUDGETED])
def test_max_nodes_stops_at_the_count_that_passes_it(solver, max_n, first):
    # every solver counts into a local and raises as soon as it passes
    # max_nodes, so a cap of exactly the nodes a solve takes changes
    # nothing, one less stops at the last count, and a cap below 1 stops
    # at the first
    for n in range(1, max_n + 1):
        for t in enumerate_trees(n):
            r = solver(t)
            assert solver(t, r.nodes) == r, t.edges
            with pytest.raises(BudgetExceeded) as exc:
                solver(t, r.nodes - 1)
            assert exc.value.nodes == r.nodes, t.edges
            for cap in (0, -1):
                with pytest.raises(BudgetExceeded) as exc:
                    solver(t, max_nodes=cap)
                assert exc.value.nodes == first(t), (t.edges, cap)


def outcome(t, max_nodes=None, classes=None):
    """(value, witness strengths, nodes) of bn_number_dp, or the nodes of
    its BudgetExceeded."""
    try:
        res = bn_number_dp(t, max_nodes, classes=classes)
    except BudgetExceeded as exc:
        return ("budget", exc.nodes)
    return (res.value, res.witness.strengths, res.nodes)


def snapshot(table):
    """What a solve must leave unchanged when it raises."""
    return dict(table.ids), [len(c) for c in (table.members, table.heights, table.deeps,
                                               table.tabs, table.picks, table.ends)]


def assert_every_class_filled(table):
    """Class ids 0..k-1 are interned once each, and each has its tables."""
    size = len(table.ids)
    assert sorted(table.ids.values()) == list(range(size))
    assert all(table.members[k] == key for key, k in table.ids.items())
    for column in (table.members, table.heights, table.deeps, table.tabs,
                   table.picks, table.ends):
        assert len(column) == size
    assert None not in table.tabs


class TestClassTable:
    """One class table shared by every solve of a scan: each result, nodes
    and budget stop must be those of a solve with a table of its own."""

    @staticmethod
    def shared_matches_fresh(max_n):
        corpus = [t for n in range(1, max_n + 1) for t in enumerate_trees(n)]
        fresh = [outcome(t) for t in corpus]
        for order in (range(len(corpus)), range(len(corpus) - 1, -1, -1)):
            table = solve._ClassTable()
            for i in order:
                assert outcome(corpus[i], classes=table) == fresh[i], corpus[i].edges
            assert_every_class_filled(table)
        return table

    def test_shared_matches_fresh_to_order_12(self):
        table = self.shared_matches_fresh(12)
        # the classes of every rooted subtree below a centre, far fewer than
        # the fills the solves would make on their own
        assert 50 < len(table.ids) < 200

    @pytest.mark.slow
    def test_shared_matches_fresh_to_order_15(self):
        self.shared_matches_fresh(15)

    def test_budget_stops_leave_the_table_unchanged(self):
        table = solve._ClassTable()
        raised = 0
        for n in range(1, 10):
            for t in enumerate_trees(n):
                for cap in (1, 10, 30, 60):
                    before = snapshot(table)
                    got = outcome(t, cap, table)
                    assert got == outcome(t, cap), (t.edges, cap)
                    if got[0] == "budget":
                        raised += 1
                        assert snapshot(table) == before
                    assert_every_class_filled(table)
                    assert outcome(t, classes=table) == outcome(t), t.edges
        assert raised > 100

    def test_interrupted_solve_leaves_the_table_unchanged(self, monkeypatch):
        table = solve._ClassTable()
        for t in enumerate_trees(8):
            bn_number_dp(t, classes=table)
        before = snapshot(table)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(solve, "_fill", interrupted)
        for t in enumerate_trees(10):
            with pytest.raises(KeyboardInterrupt):
                bn_number_dp(t, classes=table)
            assert snapshot(table) == before

    def test_root_class_is_not_kept(self):
        # the root's tables are filled with its children's balls capped, so
        # no other solve may read them: they leave the table with the solve
        table = solve._ClassTable()
        bn_number_dp(fam("spider:2,2,2"), classes=table)
        assert table.members == [(), (0,)]  # a leaf, a leg's middle vertex
        assert_every_class_filled(table)

    def test_root_key_may_be_a_kept_class(self):
        # each head of the double spider has two leaf children, the class
        # the centre of the 3-vertex path has at the root
        table = solve._ClassTable()
        head = fam("dspider:1,1/3/1,1")
        assert outcome(head, classes=table) == outcome(head)
        kept = table.ids[(0, 0)]
        p3 = fam("path:3")
        assert outcome(p3, classes=table) == outcome(p3)
        assert table.ids[(0, 0)] == kept
        assert_every_class_filled(table)


class TestHearingSolver:
    def test_p2(self):
        assert hearing_number(fam("path:2")).value == 1

    def test_star(self):
        assert hearing_number(fam("spider:1,1,1")).value == 3

    def test_witness_valid(self):
        from bnbroadcast import is_hearing_independent

        for t in enumerate_trees(6):
            res = hearing_number(t)
            assert is_hearing_independent(res.witness)
            assert res.witness.weight == res.value

    def test_matches_subset_oracle(self):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert hearing_number(t).value == oracles.hearing_by_subsets(t)

    @pytest.mark.slow
    def test_matches_subset_oracle_slow(self):
        for n in (11, 12):
            for t in enumerate_trees(n):
                assert hearing_number(t).value == oracles.hearing_by_subsets(t)

    def test_matches_strength_enumeration(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                dist = oracles.distance_rows(t.n, t.edges)
                best = max(
                    sum(arr)
                    for arr in itertools.product(
                        *(range(e + 1) for e in t.eccentricities)
                    )
                    if oracles.hearing_scan(arr, dist) is None
                )
                assert hearing_number(t).value == best

    def test_checks_its_witness(self, monkeypatch):
        monkeypatch.setattr(solve, "hearing_violation", lambda f: (0, 1))
        with pytest.raises(InternalInconsistency):
            hearing_number(fam("path:5"))

    def test_does_not_recurse(self):
        # a recursive DP would need a frame per level of the path's 80
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        t = fam("path:160")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            res = hearing_number(t)
        finally:
            sys.setrecursionlimit(limit)
        assert res.value == 2 * 160 - 4

    def test_budget(self):
        t = fam("path:30")
        with pytest.raises(BudgetExceeded) as exc:
            hearing_number(t, 100)
        assert exc.value.nodes > 100
        assert not hasattr(exc.value, "best_value")


class TestLowerBoundWitness:
    def test_d14(self, d14):
        lower, f = lower_bound_witness(d14)
        assert lower == 10 and f.weight == 10

    def test_t26(self, t26):
        lower, f = lower_bound_witness(t26)
        assert lower == 20
        # two-leaf branch vertices broadcast full leg distances
        assert f.strengths[11] == f.strengths[13] == 2

    def test_t18(self, t18):
        assert lower_bound_witness(t18)[0] == 14

    def test_spider_reduces_to_leaf_distances(self):
        t = fam("spider:2,2,2")
        lower, f = lower_bound_witness(t)
        assert lower == 6
        assert all(f.strengths[l] == 2 for l in t.profile.leaves)
        assert f.strengths[0] == 0

    def test_paths_excluded(self):
        with pytest.raises(NoBranchVertices):
            lower_bound_witness(fam("path:5"))


class TestBounds:
    def test_upper(self, d14, t26, t18):
        assert upper_bound(d14) == 12
        assert upper_bound(t26) == 23
        assert upper_bound(t18) == 14
        with pytest.raises(NoBranchVertices):
            upper_bound(fam("path:9"))

    def test_conjectured(self, d14, t26, t18):
        assert conjectured_upper_bound(d14) == 12
        assert conjectured_upper_bound(t26) == 22
        assert conjectured_upper_bound(t18) == 14


class TestFormulas:
    def test_path_spider(self):
        assert path_spider_value(fam("path:9")) == 8
        assert path_spider_value(fam("spider:1,1,1")) == 3
        assert path_spider_value(fam("spider:3,4,5")) == 12
        assert path_spider_value(fam("path:1")) == 0
        with pytest.raises(ShapeMismatch):
            path_spider_value(fam("dspider:2,2/5/2,2"))

    def test_two_branch_d14(self, d14):
        assert two_branch_value(d14) == 11

    def test_two_branch_double_star(self):
        t = fam("dspider:1,1/1/1,1")
        assert t.n == 6
        assert two_branch_value(t) == 4
        assert bn_number(t).value == 4
        assert upper_bound(t) == 4

    def test_two_branch_mixed_legs(self):
        # legs (1,3) against (2,2), heads three apart: loss 1 vs 2
        t = fam("dspider:1,3/3/2,2")
        assert t.n == 12
        assert two_branch_value(t) == 10
        assert bn_number(t).value == 10

    def test_two_branch_rejects_others(self, t26):
        with pytest.raises(ShapeMismatch):
            two_branch_value(fam("spider:2,2,2"))
        with pytest.raises(ShapeMismatch):
            two_branch_value(t26)

    def test_caterpillar_three_stems(self):
        t = fam("cat:leafcounts=2,2,2")
        assert t.n == 9
        assert caterpillar_value(t) == 6
        assert bn_number(t).value == 6

    def test_caterpillar_middle_single_leaf(self):
        t = fam("cat:leafcounts=2,1,2")
        assert t.n == 8
        assert caterpillar_value(t) == 6  # n - b + rho = 8 - 3 + 1
        assert bn_number(t).value == 6

    def test_caterpillar_star_agrees_with_spider(self):
        star = fam("spider:1,1,1,1")
        assert caterpillar_value(star) == 4 == path_spider_value(star)

    def test_caterpillar_preconditions(self, d14):
        with pytest.raises(ShapeMismatch):
            caterpillar_value(fam("path:6"))  # no branch vertex
        with pytest.raises(ShapeMismatch):
            caterpillar_value(d14)  # internal degree-2 vertices
        with pytest.raises(ShapeMismatch):
            # adjacent single-leaf spine vertices: branch01 not independent
            caterpillar_value(fam("cat:leafcounts=2,1,1,2"))


class TestComputeBounds:
    def test_d14_full(self, d14):
        r = compute_bounds(d14, exact=True)
        assert (r.lower, r.exact, r.upper, r.conjectured) == (10, 11, 12, 12)
        assert r.formula_name == "two_branch" and r.formula_value == 11
        assert r.exact_status == "solved" and r.conjecture_ok
        assert r.witness_lower.weight == 10
        assert r.witness_exact.weight == 11

    def test_spider_all_equal(self):
        r = compute_bounds(fam("spider:2,2,2"), exact=True)
        assert (r.lower, r.exact, r.upper) == (6, 6, 6)
        assert r.formula_name == "path_spider"

    def test_path_has_no_bounds(self):
        r = compute_bounds(fam("path:6"))
        assert r.lower is None and r.upper is None and r.conjectured is None
        assert r.formula_value == 5
        assert r.exact_status == "not_run"

    def test_budget_exceeded_flagged(self, d14):
        r = compute_bounds(d14, 50, exact=True)
        assert r.exact is None and r.exact_status == "budget_exceeded"
        assert r.witness_exact is None and r.nodes > 50
        assert not hasattr(r, "best_found")
        assert r.conjecture_ok is None

    def test_caterpillar_formula_dispatch(self):
        r = compute_bounds(fam("cat:leafcounts=2,1,2"))
        assert r.formula_name == "caterpillar" and r.formula_value == 6

    def test_t18_bounds_meet(self, t18):
        r = compute_bounds(t18, exact=True)
        assert r.lower == r.exact == r.upper == 14


class TestOptimaProperties:
    def test_p5(self):
        rep = oracles.optima_properties(fam("path:5"), oracles.bn_optima(fam("path:5")))
        assert rep.weight == 4
        assert not rep.leaf_hears_nonleaf
        assert rep.low_strength_exists

    def test_sp23_low_strength_optimum_exists(self):
        t = fam("spider:2,2,2")
        optima = oracles.bn_optima(t)
        rep = oracles.optima_properties(t, optima)
        assert rep.weight == 6
        assert rep.low_strength_exists
        assert rep.optima_count == len(optima)

    def test_overdomination_counter_is_recorded(self):
        t = fam("spider:2,2,2")
        rep = oracles.optima_properties(t, oracles.bn_optima(t))
        assert 0 <= rep.overdominated_by2_count <= rep.low_strength_count


class TestSubdivision:
    """The subdivision lemma of solve.py's docstring: subdividing one edge
    raises the value by 0 or 1 and the conjectured bound by at least 1, so
    question 1's margin never falls."""

    @staticmethod
    def check_subdivision(t, e, value, conj):
        """Subdivide edge e of t, whose value is `value` and conjectured
        bound `conj` (None without a branch vertex), by a new vertex n."""
        n = t.n
        u, v = e
        s = Tree(n + 1, [d for d in t.edges if d != e] + [(u, n), (n, v)])
        gain = bn_number_dp(s).value - value
        assert gain in (0, 1), (t.edges, e)
        if conj is not None:
            conj_gain = conjectured_upper_bound(s) - conj
            assert 1 <= conj_gain and gain <= conj_gain, (t.edges, e)

    def check_subdivisions(self, max_n):
        count = 0
        for n in range(2, max_n + 1):
            for t in enumerate_trees(n):
                value = bn_number_dp(t).value
                conj = conjectured_upper_bound(t) if t.profile.branch else None
                for e in t.edges:
                    self.check_subdivision(t, e, value, conj)
                    count += 1
        return count

    def test_every_subdivision_to_order_10(self):
        assert self.check_subdivisions(10) == 1608

    @pytest.mark.slow
    def test_every_subdivision_to_order_12(self):
        assert self.check_subdivisions(12) == 10019

    @settings(max_examples=100)
    @given(st.data())
    def test_subdivision_of_random_trees(self, data):
        # parent arrays with parent < child, so every labelled shape occurs
        n = data.draw(st.integers(2, 40))
        t = Tree(n, [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)])
        e = data.draw(st.sampled_from(t.edges))
        conj = conjectured_upper_bound(t) if t.profile.branch else None
        self.check_subdivision(t, e, bn_number_dp(t).value, conj)

    def test_lower_bound_is_conjectured_without_internal_degree_2(self):
        # n - |B| - |D2int| + alpha(interior) and n - |B| + alpha(branch01)
        # are one number when D2int is empty
        count = 0
        for n in range(4, 13):
            for t in enumerate_trees(n):
                p = t.profile
                if p.branch and not p.deg2_internal:
                    weight, _ = lower_bound_witness(t)
                    assert weight == conjectured_upper_bound(t), t.edges
                    count += 1
        assert count == 576
