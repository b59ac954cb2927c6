"""Acceptance gate: each test covers one release criterion end to end.

Every test finishes by printing a single PASS line naming what it
established; a failure anywhere leaves the usual pytest diagnostics.
"""

import itertools
import json

import oracles
from bnbroadcast import (
    Shape,
    bn_number,
    bn_number_enum,
    bn_number_restricted,
    build_family,
    classify_shape,
    compute_bounds,
    conjectured_upper_bound,
    enumerate_trees,
    hearing_number,
    independence_number,
    is_bn_independent,
    lower_bound_witness,
    parse_family_spec,
    two_branch_value,
    upper_bound,
)
from bnbroadcast.cli import main as cli_main

FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def _pass(k, text):
    print(f"PASS criterion {k}: {text}")


def test_criterion_01_value_n_minus_1_characterizes_paths_and_spiders(
    solve_cache, trees_up_to
):
    checked = 0
    for n, t in trees_up_to(2, 9):
        hits_ceiling = solve_cache.exact(t) == n - 1
        path_or_spider = bool(classify_shape(t) & {Shape.PATH, Shape.SPIDER})
        assert hits_ceiling == path_or_spider, t.edges
        checked += 1
    _pass(1, f"value n-1 exactly on paths and spiders across {checked} trees, n 2..9")


def test_criterion_02_sandwich_bounds_and_constructive_witness(
    solve_cache, trees_up_to
):
    solved = 0
    for n, t in trees_up_to(2, 9):
        if not t.profile.branch:
            continue
        lower, _ = lower_bound_witness(t)
        assert lower <= solve_cache.exact(t) <= upper_bound(t), t.edges
        solved += 1
    witnessed = 0
    for n, t in trees_up_to(2, 12):
        p = t.profile
        if not p.branch:
            continue
        weight, f = lower_bound_witness(t)
        alpha_int = oracles.brute_independence(
            *oracles.induced_edges(p.interior, t.edges))
        assert weight == n - len(p.branch) - len(p.deg2_internal) + alpha_int
        assert f.weight == weight and is_bn_independent(f), t.edges
        witnessed += 1
    _pass(
        2,
        f"lower <= exact <= upper on {solved} trees (n<=9); witness broadcast "
        f"verified on {witnessed} trees (n<=12)",
    )


def test_criterion_03_two_branch_formula(solve_cache, trees_up_to):
    enumerated = 0
    for n, t in trees_up_to(2, 11):
        if len(t.profile.branch) != 2:
            continue
        assert two_branch_value(t) == solve_cache.exact(t), t.edges
        enumerated += 1

    legsets = list(itertools.combinations_with_replacement((1, 2, 3), 2))
    grid = 0
    for i, legs1 in enumerate(legsets):
        for legs2 in legsets[i:]:
            for bridge in range(1, 7):
                spec = "dspider:%s/%d/%s" % (
                    ",".join(map(str, legs1)),
                    bridge,
                    ",".join(map(str, legs2)),
                )
                t = build_family(parse_family_spec(spec))
                assert two_branch_value(t) == bn_number(t).value, spec
                grid += 1
    assert grid == 126
    _pass(
        3,
        f"two-branch formula matches the solver on {enumerated} enumerated "
        f"trees (n<=11) and a {grid}-tree double-spider grid",
    )


def test_criterion_04_reference_double_spider_bounds(d14):
    r = compute_bounds(d14, exact=True)
    assert (r.lower, r.exact, r.upper) == (10, 11, 12)
    assert r.conjectured == 12
    _pass(4, "14-vertex double spider gives lower 10 < exact 11 < upper 12, conjectured 12")


def test_criterion_05_order26_witness_and_upper(t26):
    weight, f = lower_bound_witness(t26)
    assert weight == 20 and f.weight == 20 and is_bn_independent(f)
    assert upper_bound(t26) == 23
    _pass(5, "order-26 construction: witness broadcast of weight 20, upper bound 23")


def test_criterion_06_even_spiders(solve_cache):
    for k in (3, 4):
        t = build_family(parse_family_spec("spider:" + ",".join(["2"] * k)))
        assert solve_cache.exact(t) == 2 * k
        assert independence_number(t)[0] == k + 1
    _pass(6, "spiders with k legs of length 2: value 2k, independence k+1 (k=3,4)")


def test_criterion_07_three_solvers_agree(trees_up_to):
    checked = 0
    for n, t in trees_up_to(1, 7):
        a = bn_number_enum(t).value
        b = bn_number(t).value
        c = bn_number_restricted(t).value
        assert a == b == c, t.edges
        checked += 1
    _pass(7, f"enumeration, pruned, and strength-restricted solvers agree on {checked} trees (n<=7)")


def test_criterion_08_optimum_broadcast_properties(trees_up_to):
    checked = 0
    by2 = 0
    for n, t in trees_up_to(2, 7):
        rep = oracles.optima_properties(t, oracles.bn_optima(t))
        assert not rep.leaf_hears_nonleaf, t.edges
        assert rep.low_strength_exists, t.edges
        by2 += rep.overdominated_by2_count
        checked += 1
    _pass(
        8,
        f"on {checked} trees (n<=7): no optimum lets a leaf hear a non-leaf, "
        f"a low-strength optimum always exists; {by2} over-dominated cases recorded",
    )


def test_criterion_09_value_chain(solve_cache, trees_up_to):
    checked = 0
    for n, t in trees_up_to(2, 8):
        alpha, _ = independence_number(t)
        bn = solve_cache.exact(t)
        h = hearing_number(t).value
        assert alpha <= bn <= h < 2 * bn, t.edges
        checked += 1
    _pass(9, f"independence <= value <= hearing < 2*value on {checked} trees, n 2..8")


def test_criterion_10_conjecture_scan_completes(capsys):
    code = cli_main(["search", "--max-n", "10", "--check", "question1"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line]
    summary = records[-1]
    assert summary["type"] == "summary" and summary["check"] == "question1"
    assert summary["trees"] == sum(FREE_TREE_COUNTS)
    assert summary["trees"] == (
        summary["solved"] + summary["budget_exceeded"] + summary["not_applicable"]
    )
    assert summary["budget_exceeded"] == 0
    _pass(
        10,
        f"conjectured-bound scan over all {summary['trees']} trees (n<=10) "
        f"completed with {summary['violations']} violations recorded",
    )


def test_criterion_11_corpus_counts(trees_up_to):
    for n, want in enumerate(FREE_TREE_COUNTS, start=1):
        got = sum(1 for _ in enumerate_trees(n))
        assert got == want == len(oracles.free_trees_by_prufer(n))
    _pass(11, "tree corpus counts match the independent generator and the known sequence, n<=10")
