"""Tree enumeration, family builders, and serialization formats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bnbroadcast import (
    BadSpec,
    CaterpillarSpec,
    DoubleSpiderSpec,
    GraphError,
    NotATree,
    ParseError,
    PathSpec,
    SpiderSpec,
    Tree,
    UnsupportedLongForm,
    build_family,
    emit_edge_list,
    emit_graph6,
    enumerate_trees,
    looks_like_family,
    parse_edge_list,
    parse_family_spec,
    parse_graph6,
)
from bnbroadcast.corpus import _free_sequences

FREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
ROOTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286, 10: 719}
# A000055 beyond FREE_COUNTS
MORE_FREE_COUNTS = {11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741,
                    16: 19320, 17: 48629, 18: 123867}
SLOW_FREE_COUNTS = {19: 317955, 20: 823065, 21: 2144505}


class TestEnumeration:
    def test_rooted_counts(self):
        for n, want in ROOTED_COUNTS.items():
            assert sum(1 for _ in oracles.rooted_sequences(n)) == want

    def test_free_counts(self):
        for n, want in FREE_COUNTS.items():
            assert sum(1 for _ in enumerate_trees(n)) == want

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(0))

    @pytest.mark.parametrize("n", (2.5, "3", True, 3.0))
    def test_rejects_an_order_not_an_int(self, n):
        # True was read as order 1
        with pytest.raises(ValueError, match="not an integer"):
            list(enumerate_trees(n))

    def test_all_distinct_and_valid(self):
        for n in range(1, 9):
            seen = set()
            for t in enumerate_trees(n):
                assert t.n == n
                seen.add(oracles.free_canon(n, t.edges))
            assert len(seen) == FREE_COUNTS[n]

    def test_matches_independent_generator(self):
        for n in range(1, 11):
            ours = {oracles.free_canon(n, t.edges) for t in enumerate_trees(n)}
            assert ours == oracles.free_trees_by_prufer(n)

    def test_matches_centroid_generator(self):
        for n in range(1, 15):
            ours = []
            for t in enumerate_trees(n):
                assert t.n == n
                ours.append(oracles.centroid_canon(n, t.edges))
            want = {
                oracles.centroid_canon(n, t.edges)
                for t in oracles.enumerate_trees_by_centroid(n)
            }
            assert len(ours) == len(set(ours)) == len(want)
            assert set(ours) == want

    def test_free_sequence_counts(self):
        for n, want in MORE_FREE_COUNTS.items():
            assert sum(1 for _ in _free_sequences(n)) == want

    @pytest.mark.slow
    def test_free_sequence_counts_slow(self):
        for n, want in SLOW_FREE_COUNTS.items():
            assert sum(1 for _ in _free_sequences(n)) == want

    def test_restricted_prufer_is_complete(self):
        for n in range(1, 8):
            assert oracles.free_trees_by_prufer(n) == oracles.free_trees_by_prufer_full(n)


class TestFamilies:
    def test_path(self):
        t = build_family(PathSpec(4))
        assert t.edges == ((0, 1), (1, 2), (2, 3))

    def test_spider_layout(self):
        t = build_family(SpiderSpec((2, 1, 3)))
        assert t.n == 7
        assert t.degree(0) == 3
        assert t.profile.branch == frozenset({0})
        assert len(t.profile.leaf_sets[0]) == 3

    def test_double_spider_layout(self):
        t = build_family(DoubleSpiderSpec((2, 2), 5, (2, 2)))
        assert t.n == 14
        assert t.distances[0][1] == 5
        assert t.profile.branch == frozenset({0, 1})
        assert len(t.profile.deg2_internal) == 4

    def test_double_star_bridge_one(self):
        t = build_family(DoubleSpiderSpec((1, 1), 1, (1, 1)))
        assert t.n == 6 and (0, 1) in t.edges

    def test_caterpillar_layout(self):
        t = build_family(CaterpillarSpec((2, 1, 2)))
        assert t.n == 8
        # spine first, then leaves; the one-leaf middle vertex still branches
        assert all(t.degree(v) >= 3 for v in range(3))
        assert t.profile.branch == frozenset({0, 1, 2})

    def test_caterpillar_spacing(self):
        t = build_family(CaterpillarSpec((2, 2), spacing=(3,)))
        assert t.n == 8
        assert t.distances[0][1] == 3
        assert len(t.profile.deg2_internal) == 2

    def test_bad_specs(self):
        for spec in (
            SpiderSpec((2, 2)),
            SpiderSpec((2, 0, 2)),
            DoubleSpiderSpec((2,), 3, (2, 2)),
            DoubleSpiderSpec((2, 2), 0, (2, 2)),
            CaterpillarSpec(()),
            CaterpillarSpec((-1, 2)),
            CaterpillarSpec((2, 2), spacing=(1, 1)),
            PathSpec(0),
            # every field is a plain int: not a bool, not a float
            PathSpec(True),
            PathSpec(2.0),
            SpiderSpec((True, 2, 2)),
            SpiderSpec((2, 2, 2.0)),
            DoubleSpiderSpec((1, 1), True, (1, 1)),
            DoubleSpiderSpec((1, False), 1, (1, 1)),
            CaterpillarSpec((True, False, 2)),
            CaterpillarSpec((1, 1), spacing=(True,)),
            # every sequence field is iterable
            SpiderSpec(5),
            CaterpillarSpec(5),
            CaterpillarSpec((1, 1), spacing=5),
            DoubleSpiderSpec(None, 1, (1, 1)),
        ):
            with pytest.raises(BadSpec):
                build_family(spec)


@st.composite
def family_specs(draw):
    lengths = st.integers(1, 4)
    kind = draw(st.sampled_from(["path", "spider", "dspider", "cat"]))
    if kind == "path":
        return PathSpec(draw(st.integers(1, 30)))
    if kind == "spider":
        return SpiderSpec(tuple(draw(st.lists(lengths, min_size=3, max_size=6))))
    if kind == "dspider":
        legs = st.lists(lengths, min_size=2, max_size=4).map(tuple)
        return DoubleSpiderSpec(draw(legs), draw(st.integers(1, 6)), draw(legs))
    counts = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=6)))
    spacing = draw(st.one_of(st.none(), st.lists(
        lengths, min_size=len(counts) - 1, max_size=len(counts) - 1).map(tuple)))
    return CaterpillarSpec(counts, spacing)


class TestFamilyLabelling:
    @given(family_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle(self, spec):
        t = build_family(spec)
        assert t.edges == oracles.family_edges(spec)
        assert t.n == len(t.edges) + 1


class TestFamilyMiniLanguage:
    def test_parse_examples(self):
        assert parse_family_spec("path:9") == PathSpec(9)
        assert parse_family_spec("spider:2,2,2") == SpiderSpec((2, 2, 2))
        assert parse_family_spec("dspider:2,2/5/2,2") == DoubleSpiderSpec((2, 2), 5, (2, 2))
        assert parse_family_spec("cat:leafcounts=2,1,2") == CaterpillarSpec((2, 1, 2))
        assert parse_family_spec("cat:leafcounts=2,2;spacing=3") == CaterpillarSpec(
            (2, 2), spacing=(3,)
        )

    def test_parse_rejects_garbage(self):
        for text in (
            "wheel:5",
            "path:",
            "path:x",
            "spider:2;2",
            "dspider:2,2/5",
            "dspider:2,2/a/2,2",
            "cat:2,1,2",
            "cat:leafcounts=",
            "cat:leafcounts=2;spacing=1;extra=2",
        ):
            with pytest.raises(BadSpec):
                parse_family_spec(text)

    def test_looks_like_family(self):
        assert looks_like_family("path:5")
        assert looks_like_family("dspider:1,1/2/1,1")
        assert not looks_like_family("0 1\n1 2")
        assert not looks_like_family("graph.txt")


class TestEdgeList:
    def test_parse_simple(self):
        t = parse_edge_list("0 1\n1 2\n")
        assert t.edges == ((0, 1), (1, 2))

    def test_comments_and_blanks(self):
        t = parse_edge_list("# path\n\n0 1\n  1 2  \n")
        assert t.n == 3 and t.edges == ((0, 1), (1, 2))

    def test_empty_is_single_vertex(self):
        t = parse_edge_list("")
        assert t.n == 1 and t.edges == ()

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n1 2 3\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n0 1\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_edge_list("0 one\n")
        with pytest.raises(ParseError):
            parse_edge_list("0 -1\n")

    def test_self_loop(self):
        # named as a loop, not as one edge too many for the order
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n1 1\n1 2\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: self-loop at vertex 1"

    def test_round_trip(self):
        for t in enumerate_trees(7):
            text = emit_edge_list(t)
            assert text.endswith("\n")
            back = parse_edge_list(text)
            assert (back.n, back.edges) == (t.n, t.edges)

    @settings(max_examples=500)
    @given(st.data())
    def test_matches_the_line_by_line_oracle(self, data):
        text = data.draw(edge_list_texts())
        assert parsed(parse_edge_list, text) == parsed(oracles.parse_edge_list, text)

    @pytest.mark.parametrize("text, line", [
        ("0 1\n1 2\n2 0\n", None), ("0 1\n1 2\n2 0\n3 4\n", None),
        ("0 1\n2 3\n", None), ("0 1\n\n0 -1\n", 3),
        ("0 1\r\n1 0\r\n", 2), ("0 1\n1\x0c2\n", 2), ("0 +1\n1 \u0662\n0 1_0\n", None),
    ])
    def test_errors_word_as_before(self, text, line):
        got = parsed(parse_edge_list, text)
        assert got == parsed(oracles.parse_edge_list, text)
        assert got[2] == line


def parsed(parse, text):
    """(n, edges, adjacency) of parse(text), or the type, message and line
    of the error it raised."""
    try:
        t = parse(text)
    except GraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return t.n, t.edges, t.adjacency


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")
# ways to write a vertex that int() reads
NUMERALS = (str, lambda s: "+" + s, lambda s: s.translate(ARABIC_INDIC),
            lambda s: s[0] + "_" + s[1:] if len(s) > 1 and s[0] != "-" else s)
# lines that are no edge: skipped ones, and malformed ones
SKIPPED_LINES = ("", "   ", "\t", "# a comment", "#0 1", "# 5 5")
BAD_LINES = ("1 2 3", "7", "x 1", "1.5 2", "0 1 2 # three", "0\x0c1", "1 ")


@st.composite
def edge_list_texts(draw):
    """An edge-list text of a random tree, its edges mutated: a loop, a
    repeat or reversed repeat, an edge that may close a cycle, a negative
    end, a dropped or added edge; written with signs, underscores,
    non-ASCII digits, tabs, trailing comments, blank and comment lines,
    now and then a malformed line, and LF, CRLF, CR or form-feed line
    ends."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["loop", "repeat", "cycle", "negative",
                                     "drop", "add"]))
        if n < 2 or (not edges and kind != "add"):
            continue
        i = draw(st.integers(0, max(len(edges) - 1, 0)))
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
        if kind == "loop":
            edges[i] = (u, u)
        elif kind == "repeat":
            a, b = draw(st.sampled_from(edges))
            edges[i] = draw(st.sampled_from([(a, b), (b, a)]))
        elif kind == "cycle":
            edges[i] = (u, v)
        elif kind == "negative":
            edges[i] = (u, -v - 1)
        elif kind == "drop":
            del edges[i]
        else:
            edges.append((u, v))
    lines = []
    for u, v in draw(st.permutations(edges)):
        if draw(st.booleans()):
            u, v = v, u
        a, b = (draw(st.sampled_from(NUMERALS))(str(x)) for x in (u, v))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        comment = draw(st.sampled_from(["", " ", "# c", " #0 1", "\t# x"]))
        lines.append(lead + a + sep + b + comment)
    others = draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=3))
    if draw(st.integers(0, 4)) == 0:
        others.append(draw(st.sampled_from(BAD_LINES)))
    for other in others:
        lines.insert(draw(st.integers(0, len(lines))), other)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n\x0c")


class TestGraph6:
    def test_known_strings(self):
        assert emit_graph6(Tree(3, [(0, 1), (1, 2)])) == "Bg"
        assert emit_graph6(Tree(1, [])) == "@"
        t = parse_graph6("Bg")
        assert (t.n, t.edges) == (3, ((0, 1), (1, 2)))

    def test_header_is_stripped(self):
        assert parse_graph6(">>graph6<<Bg").n == 3

    def test_round_trip(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert parse_graph6(emit_graph6(t)).edges == t.edges

    def test_non_tree_payload(self):
        with pytest.raises(NotATree):
            parse_graph6("Bw")  # triangle

    def test_four_byte_header(self):
        # 63 = 0b000000_000000_111111 after the '~'
        path63 = Tree(63, [(i, i + 1) for i in range(62)])
        assert emit_graph6(path63).startswith("~??~")
        assert emit_graph6(Tree(62, [(i, i + 1) for i in range(61)]))[0] == "}"

    @pytest.mark.parametrize("n", [63, 64, 200, 1000])
    def test_long_form_round_trip(self, n):
        rng = random.Random(n)
        t = Tree(n, [(rng.randrange(v), v) for v in range(1, n)])
        path = Tree(n, [(i, i + 1) for i in range(n - 1)])
        for tree in (t, path):
            text = emit_graph6(tree)
            assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(text).edges == tree.edges

    def test_long_form_unsupported(self):
        # orders from 258048 on need the 8-byte header ('~~'), not handled
        with pytest.raises(UnsupportedLongForm):
            parse_graph6("~~" + "?" * 6)
        big = Tree(258048, [(0, v) for v in range(1, 258048)])
        with pytest.raises(UnsupportedLongForm):
            emit_graph6(big)
        for truncated in ("~", "~?", "~??"):
            with pytest.raises(ParseError) as exc:
                parse_graph6(truncated)
            assert type(exc.value) is ParseError
            assert "truncated" in str(exc.value)
        with pytest.raises(ParseError, match="order byte"):
            parse_graph6("~?" + chr(30) + "~")

    def test_malformed(self):
        for text in ("", "B", "Bgg", "B" + chr(30), chr(30)):
            with pytest.raises(ParseError):
                parse_graph6(text)

    def test_nonzero_padding_rejected(self):
        # P_3 payload with a stray bit in the padding tail
        with pytest.raises(ParseError):
            parse_graph6("Bh")
