"""The result and spec records are named tuples: their fields, defaults,
keyword construction, immutability and pickling, and the checks that the
one validating record, Broadcast, runs on construction."""

import pickle

import pytest

from bnbroadcast import (
    BoundsReport,
    Broadcast,
    BroadcastAnalysis,
    CaterpillarSpec,
    DoubleSpiderSpec,
    InvalidBroadcast,
    LeafDistances,
    NegativeStrength,
    PathSpec,
    SolveResult,
    SpiderSpec,
    StrengthExceedsEccentricity,
    Tree,
    analyze,
    build_family,
    compute_bounds,
    parse_family_spec,
)

P3 = build_family(PathSpec(3))
CENTRE = Broadcast(P3, (0, 1, 0))
D14 = build_family(parse_family_spec("dspider:2,2/5/2,2"))

# each record class, its field names in order, and one value per field
RECORDS = [
    (SolveResult, ("value", "witness", "nodes"), (1, CENTRE, 7)),
    (BoundsReport,
     ("n", "branch_count", "branch01_count", "deg2_internal_count",
      "interior_independence", "lower", "upper", "conjectured", "formula_name",
      "formula_value", "exact", "exact_status", "nodes", "witness_lower",
      "witness_exact", "conjecture_ok"),
     tuple(compute_bounds(D14, exact=True))),
    (LeafDistances, ("farthest", "total", "loss"), (2, 4, 2)),
    (Broadcast, ("host", "strengths"), (P3, (0, 1, 0))),
    (BroadcastAnalysis,
     ("broadcast", "v_plus", "v_one", "v_plusplus", "heard", "boundary",
      "private_heard", "private_boundary", "undominated", "covered_by",
      "uncovered_edges"),
     tuple(analyze(CENTRE))),
    (PathSpec, ("n",), (4,)),
    (SpiderSpec, ("legs",), ((1, 2, 3),)),
    (DoubleSpiderSpec, ("legs1", "bridge", "legs2"), ((2, 2), 5, (2, 2))),
    (CaterpillarSpec, ("leaf_counts", "spacing"), ((2, 0, 1), (1, 3))),
]

each_record = pytest.mark.parametrize(
    "cls, names, values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])


def plain(x):
    """x with every graph replaced by its order and edges, since graphs
    compare by identity and a pickle round trip makes a new one."""
    if isinstance(x, Tree):
        return ("graph", x.n, x.edges)
    if isinstance(x, tuple):
        return type(x).__name__, tuple(plain(y) for y in x)
    return x


@each_record
def test_record_contract(cls, names, values):
    assert cls._fields == names
    rec = cls(**dict(zip(names, values)))
    assert rec == cls(*values) and tuple(rec) == values
    assert [getattr(rec, name) for name in names] == list(values)
    with pytest.raises(AttributeError):
        setattr(rec, names[0], values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1
    # a record survives pickling, which a caller's own process pool needs
    # (a --jobs pool pickles only shard arguments and shard results)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and plain(back) == plain(rec)


def test_defaults():
    assert CaterpillarSpec((1,)).spacing is None


@pytest.mark.parametrize("strengths, error, message", [
    ((1, 0), InvalidBroadcast, "expected 3 strengths, got 2"),
    ((1.5, 0, 0), InvalidBroadcast, "strength of vertex 0 is not an integer"),
    ((-1, 0, 0), NegativeStrength, "vertex 0 has strength -1"),
    ((3, 0, 0), StrengthExceedsEccentricity,
     "vertex 0: strength 3 exceeds eccentricity 2"),
], ids=["count", "non-integer", "negative", "above-eccentricity"])
def test_broadcast_errors(strengths, error, message):
    with pytest.raises(InvalidBroadcast) as exc:
        Broadcast(P3, strengths)
    assert type(exc.value) is error and str(exc.value) == message
    with pytest.raises(error):
        CENTRE._replace(strengths=strengths)


def test_broadcast_value():
    f = Broadcast(host=P3, strengths=[2, 0, 1])
    assert type(f.strengths) is tuple and f.strengths == (2, 0, 1)
    assert f.weight == 3 and f.broadcasters == (0, 2)
    assert repr(f) == "Broadcast('0:2 2:1', weight=3)"
    assert repr(CENTRE) == "Broadcast('1:1', weight=1)"


def test_plain_record_reprs():
    assert repr(PathSpec(4)) == "PathSpec(n=4)"
    assert repr(CaterpillarSpec((1,))) == "CaterpillarSpec(leaf_counts=(1,), spacing=None)"
    assert repr(LeafDistances(2, 4, 2)) == "LeafDistances(farthest=2, total=4, loss=2)"


def test_records_are_tuples():
    # they iterate and compare like the tuple of their fields, and
    # _replace takes the place of dataclasses.replace
    assert PathSpec(4) == (4,) and list(LeafDistances(2, 4, 2)) == [2, 4, 2]
    assert CaterpillarSpec((1,))._replace(spacing=()) == CaterpillarSpec((1,), ())
