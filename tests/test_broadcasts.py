"""Predicate and analysis tests on hand-evaluated broadcasts, and the
package's predicates against their second formulations on every broadcast
of every small tree."""

from itertools import product

import pytest

import oracles
from bnbroadcast import (
    Broadcast,
    InvalidBroadcast,
    NegativeStrength,
    NotBnIndependent,
    ParseError,
    StrengthExceedsEccentricity,
    Tree,
    analyze,
    bn_violation,
    build_family,
    enumerate_trees,
    format_broadcast,
    hearing_violation,
    is_bn_independent,
    is_dominating,
    is_hearing_independent,
    is_maximal_bn,
    lower_bound_witness,
    parse_broadcast,
    parse_family_spec,
)
from bnbroadcast.broadcasts import _maximality_certificate


def path(n):
    return build_family(parse_family_spec(f"path:{n}"))


class TestConstruction:
    def test_valid(self):
        f = Broadcast(path(3), (2, 0, 0))
        assert f.weight == 2 and f.broadcasters == (0,)

    def test_exceeds_eccentricity(self):
        with pytest.raises(StrengthExceedsEccentricity):
            Broadcast(path(3), (3, 0, 0))

    def test_negative(self):
        with pytest.raises(NegativeStrength):
            Broadcast(path(3), (-1, 0, 0))

    def test_wrong_length(self):
        with pytest.raises(InvalidBroadcast):
            Broadcast(path(3), (1, 0))

    def test_non_integer(self):
        with pytest.raises(InvalidBroadcast):
            Broadcast(path(3), (1.5, 0, 0))

    def test_star_leaf_characteristic(self):
        star = build_family(parse_family_spec("spider:1,1,1"))
        f = Broadcast(star, (0, 1, 1, 1))
        assert f.weight == 3
        assert is_bn_independent(f) and is_hearing_independent(f)

    def test_bool_strength_rejected(self):
        with pytest.raises(InvalidBroadcast, match="vertex 0 is not an integer"):
            Broadcast(path(3), (True, 0, 0))


class TestAnalyze:
    def test_p5_two_ends(self):
        f = Broadcast(path(5), (2, 0, 0, 0, 2))
        a = analyze(f)
        assert a.v_plus == (0, 4)
        assert a.heard[0] == {0, 1, 2} and a.boundary[0] == {2}
        assert a.heard[4] == {2, 3, 4} and a.boundary[4] == {2}
        assert a.covered_by[(0, 1)] == (0,) and a.covered_by[(1, 2)] == (0,)
        assert a.covered_by[(2, 3)] == (4,) and a.covered_by[(3, 4)] == (4,)
        assert not a.undominated and not a.uncovered_edges

    def test_p3_private_boundary_reduction(self):
        f = Broadcast(path(3), (0, 1, 0))
        a = analyze(f)
        assert a.private_boundary[1] == {0, 1, 2}

    def test_single_broadcaster_private_is_all(self):
        f = Broadcast(path(5), (0, 0, 2, 0, 0))
        a = analyze(f)
        assert a.private_heard[2] == a.heard[2]

    def test_v_one_v_plusplus_partition(self):
        f = Broadcast(path(5), (1, 0, 0, 0, 2))
        a = analyze(f)
        assert a.v_one == {0} and a.v_plusplus == {4}

    def test_plusplus_private_boundary_identity(self):
        f = Broadcast(path(5), (2, 0, 0, 0, 2))
        a = analyze(f)
        for v in a.v_plusplus:
            private = a.boundary[v] & a.private_heard[v]
            assert a.private_boundary[v] == private

    def test_pure(self):
        f = Broadcast(path(5), (2, 0, 0, 0, 2))
        a1, a2 = analyze(f), analyze(f)
        assert a1.covered_by == a2.covered_by
        assert a1.private_boundary == a2.private_boundary


class TestDominating:
    def test_examples(self):
        assert is_dominating(Broadcast(path(4), (3, 0, 0, 0)))
        assert not is_dominating(Broadcast(path(4), (1, 0, 0, 0)))
        assert not is_dominating(Broadcast(path(2), (0, 0)))


class TestBnIndependence:
    def test_p5_boundary_meeting(self):
        assert is_bn_independent(Broadcast(path(5), (2, 0, 0, 0, 2)))

    def test_p4_violation_edge(self):
        f = Broadcast(path(4), (2, 0, 0, 2))
        v = bn_violation(f)
        assert v is not None
        assert (v.u, v.v) == (0, 3)
        assert v.edge == (1, 2)
        assert not is_bn_independent(f)

    def test_certificate_skips_vertex_on_both_boundaries(self):
        # leaf 0 lies on both boundaries, so the scan's first vertex is 1
        star = Tree(4, [(0, 3), (1, 3), (2, 3)])
        v = bn_violation(Broadcast(star, (0, 2, 2, 0)))
        assert v == (1, 2, 1, (1, 3))

    def test_construction_witness(self, t26):
        lower, f = lower_bound_witness(t26)
        assert lower == 20 and f.weight == 20
        assert is_bn_independent(f)


class TestHearingIndependence:
    def test_examples(self):
        assert is_hearing_independent(Broadcast(path(5), (2, 0, 0, 0, 2)))
        assert is_hearing_independent(Broadcast(path(4), (2, 0, 0, 2)))
        f = Broadcast(path(4), (3, 0, 0, 1))
        assert not is_hearing_independent(f)
        assert hearing_violation(f) == (0, 3)
        assert is_hearing_independent(Broadcast(path(4), (3, 0, 0, 0)))


class TestMaximality:
    def test_singleton_center(self):
        assert is_maximal_bn(Broadcast(path(3), (0, 1, 0)))

    def test_singleton_end(self):
        assert is_maximal_bn(Broadcast(path(3), (2, 0, 0)))

    def test_not_dominating(self):
        f = Broadcast(path(6), (1, 0, 0, 0, 0, 1))
        assert not is_maximal_bn(f)

    def test_two_ends_p5_maximal(self):
        assert is_maximal_bn(Broadcast(path(5), (2, 0, 0, 0, 2)))

    def test_requires_bn_independent(self):
        with pytest.raises(NotBnIndependent):
            is_maximal_bn(Broadcast(path(4), (2, 0, 0, 2)))


def every_broadcast(n):
    """Every broadcast of every tree of order n."""
    for t in enumerate_trees(n):
        for strengths in product(*(range(e + 1) for e in t.eccentricities)):
            yield Broadcast(t, strengths)


def check_second_formulations(f):
    """The predicates against their second formulations: boundary
    independence is no edge covered twice, and maximality with two or more
    broadcasters is the component criterion.  True when f is independent."""
    a = analyze(f)
    independent = bn_violation(f) is None
    assert independent == all(len(xs) <= 1 for xs in a.covered_by.values())
    if independent and len(a.v_plus) >= 2:
        assert is_maximal_bn(f) == oracles.maximal_by_components(f, a)
    return independent


class TestMaximalityCertificate:
    def test_every_independent_broadcast_to_order_7(self):
        # the one-sweep certificate against the rule over the analysis
        count = 0
        for n in range(1, 8):
            for t in enumerate_trees(n):
                dist = oracles.distance_rows(t.n, t.edges)
                for strengths in oracles.bn_strengths(dist):
                    f = Broadcast(t, strengths)
                    a = oracles.analyze_by_matrix(f, dist)
                    want = oracles.maximality_certificate(a)
                    assert _maximality_certificate(f) == (a.undominated, want), f
                    count += 1
        assert count == 1482


class TestSecondFormulations:
    def test_every_broadcast_up_to_order_6(self):
        checked = [check_second_formulations(f)
                   for n in range(1, 7) for f in every_broadcast(n)]
        assert (len(checked), sum(checked)) == (32453, 426)

    @pytest.mark.slow
    def test_every_broadcast_of_order_7(self):
        checked = [check_second_formulations(f) for f in every_broadcast(7)]
        assert (len(checked), sum(checked)) == (481890, 1056)


class TestSerialization:
    def test_format_skips_zeros(self):
        f = Broadcast(path(5), (2, 0, 0, 0, 1))
        assert format_broadcast(f) == "0:2 4:1"

    def test_round_trip(self):
        t = path(6)
        f = Broadcast(t, (3, 0, 0, 1, 0, 1))
        g = parse_broadcast(format_broadcast(f), t)
        assert g.strengths == f.strengths

    def test_comments_and_blanks(self):
        t = path(5)
        f = parse_broadcast("# two ends\n0:2\n\n4:2  # far end\n", t)
        assert f.strengths == (2, 0, 0, 0, 2)

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError):
            parse_broadcast("0:1 0:2", path(5))

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError):
            parse_broadcast("9:1", path(5))

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_broadcast("0=1", path(5))

    def test_validation_propagates(self):
        with pytest.raises(StrengthExceedsEccentricity):
            parse_broadcast("0:9", path(5))

    def test_empty_text_is_zero_broadcast(self):
        f = parse_broadcast("", path(3))
        assert f.weight == 0 and f.broadcasters == ()
