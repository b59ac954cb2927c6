"""Solver, bound, and formula tests.

The enumeration solver is the ground truth here; the structured examples
(double spiders, caterpillars, fixtures) were evaluated by hand from the
definitions before being frozen into assertions.
"""

import itertools
import sys

import pytest

import oracles
from bnbroadcast import (
    BudgetExceeded,
    Forest,
    InternalInconsistency,
    NoBranchVertices,
    ShapeMismatch,
    SolveLimits,
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


def assert_matches_full_table(t):
    got, want = bn_number_dp(t), oracles.bn_number_dp_full(t)
    assert got.value == want.value, t.edges
    assert got.witness.strengths == want.witness.strengths, t.edges
    assert got.nodes == want.nodes, t.edges


class TestIndependence:
    def test_empty_forest(self):
        assert independence_number(Forest(0)) == (0, frozenset())

    def test_isolated_vertices(self):
        assert independence_number(Forest(3)) == (3, frozenset({0, 1, 2}))

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
            bn_number(d14, SolveLimits(max_nodes=50))
        e = exc.value
        assert e.nodes == 51
        assert not hasattr(e, "best_value") and not hasattr(e, "best_broadcast")

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            SolveLimits(max_nodes=0)

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
        for spec in ("path:400", "spider:200,200,200"):
            assert_matches_full_table(fam(spec))

    def test_tails_have_a_closed_form_below_the_root(self):
        # what lets bn_number_dp store inn and pick only below height - 1
        root_exceptions = 0
        for n in range(1, 12):
            for t in enumerate_trees(n):
                root, kids, height, _, inn, _, pick = oracles.bn_dp_tables(t)
                for v in range(t.n):
                    deepest = max(kids[v], key=height.__getitem__, default=-1)
                    tail = [(inn[v][k], pick[v][k])
                            for k in range(max(height[v] - 1, 0), t.eccentricities[v])]
                    closed = [(k + 1 + height[v], deepest)
                              for k in range(max(height[v] - 1, 0), t.eccentricities[v])]
                    if v != root:
                        assert tail == closed, (t.edges, v)
                    elif tail != closed:
                        root_exceptions += 1
        # the root keeps its full table: there the tail can differ
        assert root_exceptions > 0

    def test_nodes_frozen(self):
        # counted before the tails were stored in closed form; every state
        # still counts, so budgets stop at the same place
        for spec, nodes in (("path:1100", 1208903), ("spider:200,200,200", 240403)):
            assert bn_number_dp(fam(spec)).nodes == nodes

    def test_nodes_deterministic(self, d14):
        assert bn_number_dp(d14).nodes == bn_number_dp(d14).nodes > 0

    def test_node_budget(self, d14):
        with pytest.raises(BudgetExceeded) as exc:
            bn_number_dp(d14, SolveLimits(max_nodes=50))
        e = exc.value
        assert e.nodes > 50
        assert not hasattr(e, "best_value") and not hasattr(e, "best_broadcast")

    def test_budget_abort_builds_no_distance_matrix(self):
        t = fam("path:1100")
        with pytest.raises(BudgetExceeded) as exc:
            bn_number_dp(t, SolveLimits(max_nodes=1))
        assert "distances" not in vars(t)


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
            hearing_number(t, SolveLimits(max_nodes=100))
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
        r = compute_bounds(d14, SolveLimits(max_nodes=50), exact=True)
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
