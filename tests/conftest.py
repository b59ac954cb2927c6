import random

import pytest
from hypothesis import HealthCheck, settings

from bnbroadcast import (
    Tree,
    bn_number,
    build_family,
    emit_graph6,
    enumerate_trees,
    parse_family_spec,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def d14():
    """The 14-vertex double spider with legs (2,2) on both heads, bridge 5."""
    return build_family(parse_family_spec("dspider:2,2/5/2,2"))


# Label map of the 26-vertex construction fixture: six branch vertices
# (one with no endpath leaf, two with one, three with two) around a 7-vertex
# interior path, four internal degree-2 vertices, interior independence 4.
T26_NAMES = {
    "b4": 0, "b3": 1, "b2": 2, "b1": 3, "b5": 4, "b6": 5,
    "w1": 6, "w2": 7, "w3": 8, "w4": 9,
}

T26_EDGES = [
    (0, 8), (8, 1), (1, 2), (2, 6), (6, 3), (0, 9), (9, 7), (7, 4), (0, 5),
    (3, 10), (10, 11), (3, 12), (12, 13),
    (4, 14), (14, 15), (4, 16), (16, 17),
    (5, 18), (18, 19), (5, 20), (20, 21),
    (2, 22), (22, 23), (1, 24), (24, 25),
]


@pytest.fixture(scope="session")
def t26():
    return Tree(26, T26_EDGES)


# Order-18 fixture: no internal degree-2 vertices, exactly one branch vertex
# with no endpath leaf (0) and one with a single leaf (4), nonadjacent, so
# lower and upper bounds meet at 14.
T18_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (1, 7), (1, 8), (4, 6),
    (5, 9), (5, 10), (2, 11), (2, 12), (12, 13), (3, 14), (14, 15),
    (3, 16), (16, 17),
]


@pytest.fixture(scope="session")
def t18():
    return Tree(18, T18_EDGES)


class SolveCache:
    """Session-wide memo of exact values keyed by graph6 string."""

    def __init__(self):
        self.values = {}

    def exact(self, tree, max_nodes: int = None) -> int:
        key = emit_graph6(tree)
        if key not in self.values:
            self.values[key] = bn_number(tree, max_nodes).value
        return self.values[key]


@pytest.fixture(scope="session")
def solve_cache():
    return SolveCache()


@pytest.fixture(scope="session")
def trees_up_to():
    """Callable yielding (n, tree) for all non-isomorphic trees lo <= n <= hi."""

    def gen(lo, hi):
        for n in range(lo, hi + 1):
            for t in enumerate_trees(n):
                yield n, t

    return gen


@pytest.fixture(scope="session")
def random_trees():
    """Callable yielding `count` random trees of lo..hi vertices from `seed`.

    Half the vertices hang off the previous one, so long chains and many
    leaves make rooted subtrees repeat; the labels are shuffled so that
    adjacency order differs from construction order.
    """

    def gen(seed, count, lo, hi):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(lo, hi)
            label = list(range(n))
            rng.shuffle(label)
            up = [v - 1 if rng.random() < 0.5 else rng.randrange(v)
                  for v in range(1, n)]
            yield Tree(n, [(label[v], label[u]) for v, u in enumerate(up, 1)])

    return gen
