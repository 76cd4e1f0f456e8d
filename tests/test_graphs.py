import random
from itertools import combinations

import pytest

from cocolour.graphs import (
    CodecError,
    Graph,
    complete,
    component,
    components,
    cycle,
    dimacs_decode,
    dimacs_encode,
    disjoint_union,
    edgelist_decode,
    edgelist_encode,
    first_pair,
    graph6_decode,
    graph6_encode,
    parse_pattern,
    path,
    random_graph,
    star,
    subdivided_claw,
)


# More digits than int() converts (sys.get_int_max_str_digits(), 4300).
LONG = "1" * 5000


class TestGraphBasics:
    def test_from_edges_and_accessors(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert g.neighbours(1) == (0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert g.edge_count == 3

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(-1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])

    def test_adjacency_must_be_symmetric(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError):
            Graph(2, (0b110, 0b01))  # a neighbour out of range
        with pytest.raises(ValueError):
            Graph(2, (0b11, 0b01))  # a self-loop

    def test_derived_graphs_are_valid(self):
        # graphs built inside the module skip the constructor's checks:
        # each must equal the validated graph on the same rows
        rng = random.Random(3)
        derived = [parse_pattern(t) for t in ("2P1+P3", "co(C5+K1,3)", "S1,2,3")]
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            h = random_graph(rng, rng.randint(0, 6), rng.random())
            vs = [rng.randrange(g.n) for _ in range(rng.randint(0, 2 * g.n))]
            sub = g.induced(vs)
            keep = sorted(set(vs))
            assert sub.edges() == [
                (i, j)
                for i, j in combinations(range(len(keep)), 2)
                if g.has_edge(keep[i], keep[j])
            ]
            derived += [g, g.complement(), sub, g.union(h)]
        for g in derived:
            assert g == Graph(g.n, g.adj)

    def test_complement_is_involution(self):
        rng = random.Random(1)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 10))
            assert g.complement().complement() == g

    def test_complement_edge_partition(self):
        g = cycle(5)
        co = g.complement()
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        for u, v in pairs:
            assert g.has_edge(u, v) != co.has_edge(u, v)

    def test_induced_relabels_ascending(self):
        g = path(5)
        sub = g.induced([1, 3, 4])
        # vertices 1,3,4 of the path keep only the 3-4 edge, now 1-2
        assert sub.n == 3
        assert list(sub.edges()) == [(1, 2)]

    def test_union_is_disjoint(self):
        g = path(2).union(path(3))
        assert g.n == 5
        assert g.has_edge(0, 1) and g.has_edge(2, 3) and g.has_edge(3, 4)
        assert not any(g.has_edge(u, v) for u in (0, 1) for v in (2, 3, 4))


class TestFirstPair:
    def test_orders_and_adjacency(self):
        g = path(4)  # 0-1-2-3
        assert first_pair(g, (0, 1, 2, 3)) == (0, 1)
        assert first_pair(g, (3, 2, 1, 0)) == (3, 2)  # combinations order of xs
        assert first_pair(g, (0, 1, 2, 3), adjacent=False) == (0, 2)
        assert first_pair(g, (0, 2)) is None  # independent
        assert first_pair(g, (1, 2), adjacent=False) is None  # a clique
        assert first_pair(g, (1, 1), adjacent=False) == (1, 1)
        assert first_pair(g, (1, 1)) is None  # (v, v) is never adjacent
        # x walks xs and, for each x, y walks ys
        assert first_pair(g, (0, 3), (2, 1)) == (0, 1)
        assert first_pair(g, (1,), (1, 2)) == (1, 2)
        assert first_pair(g, (3, 0), (1, 2), adjacent=False) == (3, 1)
        assert first_pair(g, (0, 3), (2,), adjacent=False) == (0, 2)
        assert first_pair(g, (0,), (2, 3)) is None  # anticomplete
        assert first_pair(g, (1,), (0, 2), adjacent=False) is None  # complete
        assert first_pair(g, (), (0, 1)) is None
        assert first_pair(g, ()) is None


class TestNamedConstructors:
    def test_path_cycle_complete_sizes(self):
        assert path(1).n == 1 and path(1).edge_count == 0
        assert path(4).edge_count == 3
        assert cycle(5).edge_count == 5
        assert complete(4).edge_count == 6

    def test_complete_rows_match_the_edge_list(self):
        for t in range(1, 41):
            g = complete(t)
            edges = combinations(range(t), 2)
            assert g == Graph(t, g.adj) == Graph.from_edges(t, edges)
        with pytest.raises(ValueError):
            complete(0)

    def test_random_graph_draws_once_per_pair_in_order(self):
        for seed in range(20):
            mine, ref = random.Random(seed), random.Random(seed)
            n = ref.randint(0, 12)
            assert mine.randint(0, 12) == n
            p = seed / 20
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if ref.random() < p
            ]
            assert random_graph(mine, n, p) == Graph.from_edges(n, edges)
            assert mine.random() == ref.random()

    def test_star_centre_is_vertex_zero(self):
        g = star(3)
        assert g.degree(0) == 3
        assert all(g.degree(v) == 1 for v in range(1, 4))

    def test_subdivided_claw_shape(self):
        g = subdivided_claw(1, 1, 1)
        assert g.n == 4 and g.degree(0) == 3
        g = subdivided_claw(1, 2, 3)
        assert g.n == 7 and g.degree(0) == 3
        assert g.edge_count == g.n - len(components(g))  # a tree

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            subdivided_claw(2, 1, 3)

    def test_parse_pattern_realization(self):
        g = parse_pattern("2P1+P3")
        assert g.n == 5
        assert g.edge_count == 2
        # terms are laid out left to right, each repeated count times
        assert g == disjoint_union(path(1), path(1), path(3))

    def test_parse_pattern_validation(self):
        for bad in ("hexagon", "P0", "C2", "S2,1,3", "0P1"):
            with pytest.raises(ValueError):
                parse_pattern(bad)

    def test_parse_pattern_vertex_limit(self):
        # a star and a claw count their centre; co() counts its inside
        for spec, n in (
            ("350P2", 700), ("K300", 300), ("P300", 300), ("C200", 200),
            ("K1,9999", 10_000), ("S3333,3333,3333", 10_000), ("co(C9999+P1)", 10_000),
        ):
            assert parse_pattern(spec).n == n
        for spec, inside, n in (
            ("K1,10000", "K1,10000", 10_001),
            ("S3333,3333,3334", "S3333,3333,3334", 10_001),
            ("co(C9999+2P1)", "C9999+2P1", 10_001),
        ):
            with pytest.raises(ValueError) as exc:
                parse_pattern(spec)
            assert str(exc.value) == f"pattern {inside!r} has {n} vertices, more than 10000"


def is_forest_by_peeling(g):
    """Oracle: a graph is acyclic iff deleting vertices of degree at most one,
    one at a time, deletes them all."""
    adj = list(g.adj)
    left = set(range(g.n))
    while True:
        leaf = next((v for v in left if adj[v].bit_count() <= 1), None)
        if leaf is None:
            return not left
        left.discard(leaf)
        for u in range(g.n):
            adj[u] &= ~(1 << leaf)


class TestComponents:
    def test_known_graphs(self):
        assert len(components(disjoint_union(path(2), path(3)))) == 2
        assert len(components(cycle(5))) == 1
        assert len(components(Graph.empty(3))) == 3

    def test_components_with_removed_vertices(self):
        g = disjoint_union(path(3), cycle(4))
        assert components(g) == [0b111, 0b1111000]
        assert components(g, removed=0b10) == [0b1, 0b100, 0b1111000]
        assert components(g, removed=(1 << 7) - 1) == []
        assert component(g, 4, removed=0b101000) == 0b10000
        assert components(Graph.empty(0)) == []

    def test_forest_iff_edge_count(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            is_forest = g.edge_count == g.n - len(components(g))
            assert is_forest == is_forest_by_peeling(g)


class TestGraph6:
    def test_known_encodings(self):
        assert graph6_encode(Graph.from_edges(2, [(0, 1)])) == "A_"
        assert graph6_encode(Graph.empty(2)) == "A?"
        assert graph6_decode("A_").edge_count == 1
        assert graph6_decode("A?").edge_count == 0

    def test_round_trip_small(self):
        rng = random.Random(3)
        for _ in range(80):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            assert graph6_decode(graph6_encode(g)) == g

    def test_round_trip_large_n(self):
        rng = random.Random(4)
        g = random_graph(rng, 63, 0.1)
        text = graph6_encode(g)
        assert text.startswith("~")
        assert graph6_decode(text) == g

    def test_decode_errors_carry_offset(self):
        with pytest.raises(CodecError):
            graph6_decode("")
        with pytest.raises(CodecError) as err:
            graph6_decode("A" + chr(30))
        assert err.value.offset is not None
        with pytest.raises(CodecError):
            graph6_decode("B")  # truncated: n=3 needs one data byte

    # Offsets count UTF-8 bytes of the input, leading whitespace included;
    # a bad byte is found before a wrong body length.
    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("", "empty graph6 string", 0),
            (" \n", "empty graph6 string", 0),
            ("!", "invalid graph6 vertex count byte", 0),
            ("\u2603", "invalid graph6 vertex count byte", 0),
            ("~", "truncated graph6 vertex count", 1),
            ("~??", "truncated graph6 vertex count", 3),
            ("~?\x7f?", "invalid graph6 byte", 2),
            ("~??\u2603", "invalid graph6 byte", 3),
            ("~\u2603\x7f?", "invalid graph6 byte", 1),
            ("~~", "truncated graph6 vertex count", 2),
            ("~~?????", "truncated graph6 vertex count", 7),
            ("~~??\u2603???", "invalid graph6 byte", 4),
            (
                "~~???~??",
                "graph6 supports at most 258047 vertices, "
                "got an 8-byte header (n = 258048)",
                0,
            ),
            (
                " ~~??????",
                "graph6 supports at most 258047 vertices, "
                "got an 8-byte header (n = 0)",
                1,
            ),
            ("B", "expected 1 adjacency bytes, got 0", 1),
            ("D???", "expected 2 adjacency bytes, got 3", 1),
            ("~?@@", "expected 347 adjacency bytes, got 0", 4),
            ("~??~", "expected 326 adjacency bytes, got 0", 4),
            ("D?!", "invalid graph6 byte", 2),
            ("D\u2603?", "invalid graph6 byte", 1),
            ("  D?!\n", "invalid graph6 byte", 4),
            ("\u3000D?!", "invalid graph6 byte", 5),
            ("D\u2603", "invalid graph6 byte", 1),
            ("\tB", "expected 1 adjacency bytes, got 0", 2),
            pytest.param(
                "~?@A" + "?" * 357 + "!", "invalid graph6 byte", 361, id="last-byte"
            ),
        ],
    )
    def test_decode_error_branches(self, text, message, offset):
        with pytest.raises(CodecError) as err:
            graph6_decode(text)
        assert str(err.value) == f"{message} (at byte {offset})"
        assert err.value.offset == offset

    def test_padding_bits_are_ignored(self):
        edge = Graph.from_edges(2, [(0, 1)])
        assert graph6_decode("A_") == graph6_decode("A`") == edge
        assert graph6_decode("A@") == Graph.empty(2)
        # P3: bits 1, 0, 1 for (0,1), (0,2), (1,2), then three of padding
        assert graph6_decode("Bg") == graph6_decode("Bn") == path(3)

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 100, 130, 200])
    def test_against_networkx(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        for p in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, p)
            nx_g = nx.empty_graph(n)
            nx_g.add_edges_from(g.edges())
            text = nx.to_graph6_bytes(nx_g, header=False).decode("ascii").rstrip("\n")
            assert graph6_encode(g) == text
            assert text.startswith("~") == (n > 62)
            back = nx.from_graph6_bytes(text.encode("ascii"))
            assert sorted(back.nodes) == list(range(n))
            assert graph6_decode(text) == Graph.from_edges(n, back.edges())


class TestEdgeListAndDimacs:
    def test_edge_list_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            assert edgelist_decode(edgelist_encode(g)) == g

    def test_edge_list_errors(self):
        with pytest.raises(CodecError):
            edgelist_decode("")
        with pytest.raises(CodecError):
            edgelist_decode("3\n0 1\n")
        with pytest.raises(CodecError):
            edgelist_decode("3 2\n0 1\n")
        with pytest.raises(CodecError):
            edgelist_decode("2 1\n0 5\n")

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("\u00b2 0\n", 0),  # a digit to str.isdigit, not to int()
            ("2 1\n0 \u00b9\n", 4),
            ("# c\n2 1\n0 \u0663\n", 8),  # an Arabic-Indic three
            ("3 2\n0 1\n", 0),  # fewer edge lines than m
            ("258048 0\n", 0),  # above the graph6 limit of 258047 vertices
            # digit runs longer than int() converts, in each field
            pytest.param(LONG + " 0\n", 0, id="long-n"),
            pytest.param("2 " + LONG + "\n", 0, id="long-m"),
            pytest.param("2 1\n0 " + LONG + "\n", 4, id="long-v"),
            pytest.param("# c\n2 1\n" + LONG + " 0\n", 8, id="long-u"),
            # a lone surrogate counts as its 3 bytes under surrogatepass
            pytest.param("# \ud800\n2 1\n0 x\n", 10, id="lone-surrogate"),
            # comments outside ASCII count their UTF-8 bytes
            pytest.param("# \u2603 snow\n3 1\n1 q\n", 15, id="non-ascii-comment"),
            pytest.param("2 1\n# \u00e9\n0 x\n", 9, id="non-ascii-between"),
            pytest.param("# \u2603\r\n2 1\r\n0 x\r\n", 12, id="non-ascii-crlf"),
            # a lone \r ends a line too, also beside \r\n
            pytest.param("# \u2603\r2 1\r0 x\r", 10, id="non-ascii-cr"),
            pytest.param("# a\r\n2 1\r0 x\n", 9, id="mixed-line-ends"),
            # fields are separated by ASCII spaces and tabs only
            pytest.param("2 1\n0\f1\n", 4, id="form-feed-field"),
            pytest.param("2 1\n0\u30001\n", 4, id="ideographic-space-field"),
        ],
    )
    def test_edge_list_errors_carry_offsets(self, text, offset):
        with pytest.raises(CodecError) as err:
            edgelist_decode(text)
        assert err.value.offset == offset

    def test_dimacs_round_trip(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            assert dimacs_decode(dimacs_encode(g)) == g

    def test_dimacs_format(self):
        text = dimacs_encode(path(3))
        assert text.splitlines()[0] == "p edge 3 2"
        assert "e 1 2" in text
        with pytest.raises(CodecError):
            dimacs_decode("e 1 2\n")

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("p edge 3 1\ne 1 x\n", 11),  # non-integer endpoint
            ("p edge x 1\n", 0),  # non-integer vertex count
            ("c n=3\np edge 3 1\ne 1 4\n", 17),  # endpoint above n
            ("p edge 3 1\ne 0 1\n", 11),  # endpoints count from 1
            ("p edge 3 1\ne 2 2\n", 11),  # self-loop
            ("p edge -1 0\n", 0),  # negative vertex count
            ("p edge 3 x\n", 0),  # non-integer edge count
            ("p edge 3 7\ne 1 2\n", 0),  # m does not count the edge lines
            ("c hi\np edge 3 2\ne 1 2\n", 5),
            ("p edge \u0663 0\n", 0),  # ASCII digits only
            ("p edge 258048 0\n", 0),  # above the graph6 limit
            pytest.param("p edge " + LONG + " 0\n", 0, id="long-n"),
            pytest.param("p edge 3 " + LONG + "\n", 0, id="long-m"),
            pytest.param("p edge 3 1\ne 1 " + LONG + "\n", 11, id="long-v"),
            pytest.param("c x\np edge 3 1\ne " + LONG + " 1\n", 15, id="long-u"),
            # comments outside ASCII count their UTF-8 bytes
            pytest.param("c \u00e9\np edge 3 1\ne 1 x\n", 16, id="non-ascii-comment"),
            pytest.param(
                "c \u2603 snow\np edge 3 2\ne 1 2\ne 1 4\n", 28, id="non-ascii-edge"
            ),
            pytest.param("p edge 3 1\nc \ud800\ne 1 4\n", 17, id="lone-surrogate"),
            # fields are separated by ASCII spaces and tabs only
            pytest.param("p edge 3 1\ne 1\f2\n", 11, id="form-feed-field"),
            pytest.param("p edge 3 1\ne 1\u20282\n", 11, id="line-separator-field"),
            pytest.param("p edge 3 1\ne 1\u30002\n", 11, id="ideographic-space-field"),
            pytest.param("p\fedge 3 1\ne 1 2\n", 0, id="form-feed-problem-line"),
        ],
    )
    def test_dimacs_errors_carry_offsets(self, text, offset):
        with pytest.raises(CodecError) as err:
            dimacs_decode(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("e 1 2\np edge 2 1\n", "line before the DIMACS problem line", 0),
            ("c x\ne 1 2\np edge 2 1\n", "line before the DIMACS problem line", 4),
            ("x\np edge 2 0\n", "line before the DIMACS problem line", 0),
            ("p edge 9 5\ne 1 2\np edge 2 1\n", "second DIMACS problem line", 17),
            ("p edge 2 0\np edge 2 0\n", "second DIMACS problem line", 11),
        ],
    )
    def test_dimacs_problem_line_first_and_once(self, text, message, offset):
        with pytest.raises(CodecError) as err:
            dimacs_decode(text)
        assert str(err.value) == f"{message} (at byte {offset})"

    @pytest.mark.parametrize(
        "decode, text, message, offset",
        [
            # the line count is checked before any edge
            (dimacs_decode, "p edge 3 2\ne 1 4\n", "expected 2 edge lines, got 1", 0),
            # every line parses before any edge is checked
            (dimacs_decode, "p edge 3 2\ne 1 4\ne 1 x\n", "bad DIMACS edge line", 17),
            (dimacs_decode, "p edge 3 2\ne 1 4\ne 2 2\n", "bad DIMACS edge (1,4) for n=3", 11),
            (edgelist_decode, "3 2\n0 5\n0 x\n", "edge line must be 'u v'", 8),
            (edgelist_decode, "3 2\n1 1\n0 5\n", "self-loop at vertex 1", 0),
            (edgelist_decode, "3 2\n0 5\n1 1\n", "edge (0,5) out of range for n=3", 0),
        ],
    )
    def test_first_bad_edge_after_every_line_parses(self, decode, text, message, offset):
        with pytest.raises(CodecError) as err:
            decode(text)
        assert str(err.value) == f"{message} (at byte {offset})"

    def test_fields_are_split_at_ascii_blanks_only(self):
        edge = Graph.from_edges(2, [(0, 1)])
        assert dimacs_decode("p\tedge 2 1\ne 1\t 2\n") == edge
        assert edgelist_decode("2\t1\n0\t1\n") == edge
        # a form feed or a line separator inside a data line is no blank
        for sep in ("\f", "\v", "\x1c", "\x85", "\u2028", "\u3000"):
            with pytest.raises(CodecError) as err:
                dimacs_decode(f"p edge 2 1\ne 1{sep}2\n")
            assert str(err.value) == "bad DIMACS edge line (at byte 11)"
            with pytest.raises(CodecError) as err:
                edgelist_decode(f"2 1\n0{sep}1\n")
            assert str(err.value) == "edge line must be 'u v' (at byte 4)"

    def test_dimacs_ignores_comments(self):
        g = dimacs_decode("c hello\np edge 3 1\ne 1 3\n")
        assert g.has_edge(0, 2)
