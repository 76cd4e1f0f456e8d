import random
import sys
from itertools import combinations, permutations

import pytest

from cocolour import gadgets, patterns
from cocolour.graphs import (
    Graph,
    complete,
    components,
    cycle,
    disjoint_union,
    iter_bits,
    parse_pattern,
    path,
    random_graph,
    star,
)
from cocolour.patterns import (
    Embedding,
    _canonical_form,
    enumerate_self_complementary,
    find_induced,
    find_induced_c5,
    is_free,
    is_isomorphic,
    is_perfect_small,
    is_self_complementary,
    order_constraints,
)


def induced_oracle(host, pattern):
    """Exhaustive oracle: try every vertex subset and every ordering."""
    if pattern.n > host.n:
        return None
    for subset in combinations(range(host.n), pattern.n):
        for perm in permutations(subset):
            emb = Embedding(perm)
            if emb.is_valid(host, pattern):
                return True
    return None


def c5_oracle(g):
    """Least canonical induced 5-cycle by brute force: every vertex 5-set in
    every order that starts at its smallest vertex with second < last."""
    best = None
    for first, *rest in combinations(range(g.n), 5):
        for a, b, c, d in permutations(rest):
            ring = (first, a, b, c, d)
            if a < d and all(
                g.has_edge(ring[i], ring[j]) == ((j - i) in (1, 4))
                for i, j in combinations(range(5), 2)
            ):
                best = ring if best is None else min(best, ring)
    return best


def iso_oracle(g1, g2):
    if g1.n != g2.n:
        return False
    return any(
        all(
            g1.has_edge(u, v) == g2.has_edge(perm[u], perm[v])
            for u, v in combinations(range(g1.n), 2)
        )
        for perm in permutations(range(g1.n))
    )


class TestFindInduced:
    def test_matches_exhaustive_oracle(self):
        rng = random.Random(10)
        for _ in range(120):
            host = random_graph(rng, rng.randint(0, 8), rng.random())
            pattern = random_graph(rng, rng.randint(0, 4), rng.random())
            got = find_induced(host, pattern)
            expect = induced_oracle(host, pattern)
            assert (got is not None) == (expect is not None)
            if got is not None:
                assert got.is_valid(host, pattern)

    def test_embedding_is_lexicographically_least(self):
        # permutations() of a sorted range come out in lexicographic order,
        # so the first valid one is the least embedding
        rng = random.Random(11)
        for _ in range(150):
            h = rng.randint(3, 5)
            host = random_graph(rng, rng.randint(h, 9), rng.random())
            pattern = random_graph(rng, h, rng.random())
            best = next(
                (
                    perm
                    for perm in permutations(range(host.n), h)
                    if Embedding(perm).is_valid(host, pattern)
                ),
                None,
            )
            got = find_induced(host, pattern)
            assert (None if got is None else got.mapping) == best

    def test_non_edges_prune(self):
        # K4 contains no induced P3
        assert find_induced(complete(4), path(3)) is None
        assert find_induced(complete(4), path(2)) is not None

    def test_complement_duality(self):
        rng = random.Random(12)
        for _ in range(80):
            host = random_graph(rng, rng.randint(0, 8), rng.random())
            pattern = random_graph(rng, rng.randint(0, 4), rng.random())
            a = find_induced(host, pattern) is not None
            b = find_induced(host.complement(), pattern.complement()) is not None
            assert a == b

    def test_is_free_reports_first_pattern(self):
        host = disjoint_union(path(2), path(3))
        w = is_free(host, [path(4), path(3), path(2)])
        assert not w.free
        assert w.pattern_index == 1
        assert w.embedding.is_valid(host, path(3))
        assert is_free(host, [path(4), cycle(3)]).free


def to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_networkx(nx, h):
    h = nx.convert_node_labels_to_integers(h)
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


def shuffled(rng, g):
    """``g`` with its vertices relabelled by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def double_edge_swaps(rng, g, swaps):
    """``g`` after ``swaps`` random double-edge swaps, ab + cd -> ad + cb
    where ad and cb are non-edges (fewer if 100 tries per swap find none):
    every degree stays."""
    edges = set(g.edges())
    tries = 100 * swaps if len(edges) > 1 else 0
    while swaps and tries:
        tries -= 1
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (c, d)}
            edges |= new
            swaps -= 1
    return Graph.from_edges(g.n, sorted(edges))


class TestAgainstNetworkx:
    def test_find_induced_existence(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(14)
        for _ in range(300):
            host = random_graph(rng, rng.randint(0, 14), rng.random())
            pattern = random_graph(rng, rng.randint(1, 6), rng.random())
            # GraphMatcher's subgraph isomorphism is node-induced
            expect = GraphMatcher(
                to_networkx(nx, host), to_networkx(nx, pattern)
            ).subgraph_is_isomorphic()
            got = find_induced(host, pattern)
            assert (got is not None) == expect
            if got is not None:
                assert got.is_valid(host, pattern)

    def test_long_paths_and_their_complements(self):
        # P5-P9 and co-P5-co-P9 on hosts with 30-60 vertices.  The hosts are
        # sparse, where GraphMatcher refutes quickly; on dense ones a single
        # refutation took it seconds.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(35)
        answers = set()
        for _ in range(12):
            host = random_graph(rng, rng.randint(30, 60), rng.uniform(0.01, 0.2))
            for t in range(5, 10):
                for pattern in (path(t), path(t).complement()):
                    expect = GraphMatcher(
                        to_networkx(nx, host), to_networkx(nx, pattern)
                    ).subgraph_is_isomorphic()
                    got = find_induced(host, pattern)
                    assert (got is not None) == expect, (host.adj, t)
                    if got is not None:
                        assert got.is_valid(host, pattern)
                    answers.add((pattern.edge_count == t - 1, expect))
        assert len(answers) == 4

    def test_is_isomorphic(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(15)
        for _ in range(300):
            n = rng.randint(0, 9)
            p = rng.random()
            g1 = random_graph(rng, n, p)
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                g2 = Graph.from_edges(
                    n, [(perm[u], perm[v]) for u, v in g1.edges()]
                )
            else:
                g2 = random_graph(rng, n, p)
            expect = nx.is_isomorphic(to_networkx(nx, g1), to_networkx(nx, g2))
            assert is_isomorphic(g1, g2) == expect

    def test_is_isomorphic_beyond_the_permutation_oracle(self):
        # n = 8..16: relabelled copies, and double-edge swaps, which keep
        # every degree, so that only the matcher tells such a pair apart
        nx = pytest.importorskip("networkx")
        rng = random.Random(16)
        pairs = []
        for i in range(500):
            g1 = random_graph(rng, rng.randint(8, 16), rng.uniform(0.2, 0.8))
            g2 = g1 if i < 200 else double_edge_swaps(rng, g1, rng.randint(1, 4))
            pairs.append((g1, shuffled(rng, g2)))
        # regular pairs: one degree class each
        regular = [
            (cycle(6), disjoint_union(cycle(3), cycle(3))),
            (cycle(8), disjoint_union(cycle(4), cycle(4))),
            (cycle(6).complement(), nx.complete_bipartite_graph(3, 3)),
            (nx.petersen_graph(), nx.circular_ladder_graph(5)),
            (nx.circulant_graph(16, [1, 4]), nx.circulant_graph(16, [1, 3])),
            (nx.circulant_graph(13, [1, 5]), nx.circulant_graph(13, [1, 8])),
        ]
        for seed in range(6):
            regular.append((
                nx.random_regular_graph(3, 12, seed=seed),
                nx.random_regular_graph(3, 12, seed=seed + 100),
            ))
        for pair in regular:
            g1, g2 = (g if isinstance(g, Graph) else from_networkx(nx, g) for g in pair)
            pairs += [(g1, g2), (g1, shuffled(rng, g1))]
        same = 0
        for g1, g2 in pairs:
            expect = nx.is_isomorphic(to_networkx(nx, g1), to_networkx(nx, g2))
            assert is_isomorphic(g1, g2) == expect, (g1.adj, g2.adj)
            same += expect
        # both answers occur beyond the relabelled copies
        assert 200 + len(regular) < same < len(pairs)

    def test_graph_atlas_c5_and_perfection(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        # every graph on at most 7 vertices: the odd holes of g and of its
        # complement are induced C5, C7 and co-C7 in g
        holes = [
            to_networkx(nx, h) for h in (cycle(5), cycle(7), cycle(7).complement())
        ]
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for a in atlas:
            g = Graph.from_edges(a.number_of_nodes(), list(a.edges()))
            has_hole = any(GraphMatcher(a, h).subgraph_is_isomorphic() for h in holes)
            assert is_perfect_small(g) == (not has_hole)
            assert find_induced_c5(g) == c5_oracle(g)


class TestIsomorphism:
    def test_matches_permutation_oracle(self):
        rng = random.Random(13)
        for _ in range(80):
            n = rng.randint(0, 5)
            g1 = random_graph(rng, n, rng.random())
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                g2 = Graph.from_edges(
                    n, [(perm[u], perm[v]) for u, v in g1.edges()]
                )
            else:
                g2 = random_graph(rng, n, rng.random())
            assert is_isomorphic(g1, g2) == iso_oracle(g1, g2)

    def test_regular_non_isomorphic_pair(self):
        # C6 and 2K3 are both 2-regular on 6 vertices
        assert not is_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))

    def test_positional_identity_vs_isomorphism(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.from_edges(3, [(1, 2)])
        assert g1 != g2
        assert is_isomorphic(g1, g2)


def subset_walk(n):
    """The first member of each self-complementary class met in a walk
    over the C(m, m/2) edge subsets in ``combinations`` order."""
    if n == 0:
        return [Graph.empty(0)]
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    if m % 2:
        return []
    reps = []
    for chosen in combinations(range(m), m // 2):
        g = Graph.from_edges(n, [pairs[i] for i in chosen])
        degs = sorted(g.degree(v) for v in range(n))
        if degs != sorted(n - 1 - d for d in degs):
            continue
        if not is_self_complementary(g):
            continue
        if any(is_isomorphic(g, r) for r in reps):
            continue
        reps.append(g)
    return reps


def decode_key(n, key):
    """The graph on n vertices that a canonical key spells: bit m - 1 - k
    for the k-th pair of ``combinations(range(n), 2)``."""
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    return Graph.from_edges(
        n, [pair for k, pair in enumerate(pairs) if (key >> (m - 1 - k)) & 1]
    )


def edge_indices(adj, labelling):
    """Sorted edge indices, pairs in ``combinations`` order, of the graph
    with ``labelling[i]`` at position i."""
    n = len(adj)
    return tuple(
        k
        for k, (i, j) in enumerate(combinations(range(n), 2))
        if (adj[labelling[i]] >> labelling[j]) & 1
    )


class TestCanonicalForm:
    def test_atlas_keys_are_distinct(self):
        nx = pytest.importorskip("networkx")
        keys = {}
        for a in nx.graph_atlas_g():
            g = from_networkx(nx, a)
            keys.setdefault(g.n, set()).add(_canonical_form(g.adj))
        assert [len(keys[n]) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]

    def test_key_spells_an_isomorphic_graph(self):
        rng = random.Random(2101)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            assert is_isomorphic(decode_key(g.n, _canonical_form(g.adj)), g)

    def test_relabelling_keeps_the_key(self):
        rng = random.Random(2102)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            key = _canonical_form(g.adj)
            for _ in range(3):
                assert _canonical_form(shuffled(rng, g).adj) == key

    def test_key_spells_the_least_edge_indices(self):
        # every graph on at most 6 vertices against all n! labellings
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            seen = set()
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
                )
                key = _canonical_form(g.adj)
                if key in seen:
                    continue
                seen.add(key)
                least = min(edge_indices(g.adj, p) for p in permutations(range(n)))
                assert edge_indices(decode_key(n, key).adj, range(n)) == least


class TestSelfComplementary:
    def test_known_members(self):
        assert is_self_complementary(path(1))
        assert is_self_complementary(path(4))
        assert is_self_complementary(cycle(5))
        assert not is_self_complementary(path(3))
        assert not is_self_complementary(cycle(4))

    def test_enumeration_counts(self):
        counts = [len(enumerate_self_complementary(n)) for n in range(1, 8)]
        assert counts == [1, 0, 0, 1, 2, 0, 0]

    def test_enumeration_against_exhaustive_oracle(self):
        # independent oracle: filter all graphs, dedup with permutations
        for n in (1, 4, 5):
            pairs = list(combinations(range(n), 2))
            reps = []
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
                )
                if not iso_oracle(g, g.complement()):
                    continue
                if any(iso_oracle(g, r) for r in reps):
                    continue
                reps.append(g)
            got = enumerate_self_complementary(n)
            assert len(got) == len(reps)

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_subset_walk(self, n):
        got = enumerate_self_complementary(n)
        assert [(g.n, g.adj) for g in got] == [
            (g.n, g.adj) for g in subset_walk(n)
        ]

    def test_oeis_a000171_counts(self):
        # OEIS A000171: 10 classes on 8 vertices, 36 on 9
        assert len(enumerate_self_complementary(8)) == 10
        assert len(enumerate_self_complementary(9)) == 36

    @pytest.mark.parametrize("n", (8, 9))
    def test_classes_against_networkx(self, n):
        nx = pytest.importorskip("networkx")
        reps = [to_networkx(nx, g) for g in enumerate_self_complementary(n)]
        for g in reps:
            assert nx.is_isomorphic(g, nx.complement(g))
        for g1, g2 in combinations(reps, 2):
            assert not nx.is_isomorphic(g1, g2)

    def test_no_graph_unless_n_is_0_or_1_mod_4(self):
        # decided before anything of size n is built
        assert enumerate_self_complementary(10**6 + 2) == []
        assert enumerate_self_complementary(10**6 + 3) == []
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_self_complementary(-1)

    def test_n4_output_is_p4(self):
        (g,) = enumerate_self_complementary(4)
        assert is_isomorphic(g, path(4))

    def test_n5_outputs_contain_cycle(self):
        for g in enumerate_self_complementary(5):
            assert g.edge_count != g.n - len(components(g))  # has a cycle


class TestFindInducedC5:
    def test_bare_cycle(self):
        assert find_induced_c5(cycle(5)) == (0, 1, 2, 3, 4)

    def test_canonical_tuple_shape(self):
        rng = random.Random(14)
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randint(5, 9), rng.choice((0.3, 0.5)))
            c = find_induced_c5(g)
            if c is None:
                continue
            found += 1
            v1, v2, v3, v4, v5 = c
            assert v1 == min(c)
            assert v2 < v5
            ring = list(c)
            for i in range(5):
                for j in range(i + 1, 5):
                    expected = (j - i) in (1, 4)
                    assert g.has_edge(ring[i], ring[j]) == expected

    def test_wheel_rim_found(self):
        # the 5-wheel: C5 plus a hub adjacent to everything
        hub_edges = [(i, (i + 1) % 5) for i in range(5)] + [
            (5, i) for i in range(5)
        ]
        wheel = Graph.from_edges(6, hub_edges)
        assert find_induced_c5(wheel) == (0, 1, 2, 3, 4)

    def test_small_dense_graph_has_none(self):
        # 7 edges on 5 vertices cannot induce a 5-cycle
        co_p2_p3 = disjoint_union(path(2), path(3)).complement()
        assert find_induced_c5(co_p2_p3) is None
        assert find_induced_c5(complete(6)) is None
        assert find_induced_c5(cycle(6)) is None

    def test_agrees_with_pattern_search(self):
        rng = random.Random(15)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            direct = find_induced_c5(g)
            via_pattern = find_induced(g, cycle(5))
            assert (direct is None) == (via_pattern is None)


class TestPerfectSmall:
    def test_known_graphs(self):
        assert is_perfect_small(path(6))
        assert is_perfect_small(complete(5))
        assert is_perfect_small(cycle(4))
        assert is_perfect_small(cycle(6))
        assert not is_perfect_small(cycle(5))
        assert not is_perfect_small(cycle(7))
        assert not is_perfect_small(cycle(7).complement())

    def test_closed_under_complement(self):
        rng = random.Random(16)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            assert is_perfect_small(g) == is_perfect_small(g.complement())

    def test_bipartite_graphs_are_perfect(self):
        rng = random.Random(17)
        for _ in range(20):
            left = rng.randint(1, 4)
            right = rng.randint(1, 4)
            edges = [
                (u, left + v)
                for u in range(left)
                for v in range(right)
                if rng.random() < 0.6
            ]
            assert is_perfect_small(Graph.from_edges(left + right, edges))


# The 30 small patterns of the benchmark's free-check and classify ops.
PATTERN_POOL = (
    "P1", "P2", "P3", "P4", "P5", "P6", "C3", "C4", "C5", "C6", "K2", "K3",
    "K4", "K1,3", "K1,4", "2P1", "3P1", "2P2", "P1+P3", "2P1+P3", "P1+P4",
    "P2+P3", "S1,1,2", "co(P3)", "co(P4)", "co(2P2)", "co(P2+P3)",
    "co(K1,3)", "co(P5)", "co(C4)",
)


def unconstrained_match(hadj, padj, v, c, rest, mapping):
    """The fail-first matcher without order constraints: a test oracle."""
    order = []
    most = len(hadj) + 1

    def rec(v, c, rest):
        pv = padj[v]
        order.append(v)
        while c:
            low = c & -c
            c ^= low
            w = low.bit_length() - 1
            if rest:
                nb = hadj[w]
                non = ~(nb | low)
                nxt = []
                best = 0
                fewest = most
                for u, m in rest:
                    m &= nb if (pv >> u) & 1 else non
                    if not m:
                        break
                    k = m.bit_count()
                    if k < fewest:
                        fewest = k
                        best = len(nxt)
                    nxt.append((u, m))
                else:
                    u, m = nxt.pop(best)
                    if rec(u, m, nxt):
                        mapping[v] = w
                        return True
                continue
            mapping[v] = w
            return True
        order.pop()
        return False

    return order if rec(v, c, rest) else None


def unconstrained_find_induced(host, pattern):
    """``find_induced`` as it was without symmetry-breaking constraints:
    the unconstrained matcher and the same lex-least refinement.  A test
    oracle for the embeddings and the cost of the constrained search."""
    h = pattern.n
    if h > host.n:
        return None
    if h == 0:
        return Embedding(())
    hadj, padj = host.adj, pattern.adj
    full = (1 << host.n) - 1
    mapping = [0] * h
    rest = [(u, full) for u in range(1, h)]
    order = unconstrained_match(hadj, padj, 0, full, rest, mapping)
    if order is None:
        return None
    i = patterns._fixed_prefix(order, 0)
    while i < h:
        masks = [full] * h
        for j in range(i):
            x = mapping[j]
            nb, pj = hadj[x], padj[j]
            non = ~(nb | (1 << x))
            for u in range(i, h):
                masks[u] &= nb if (pj >> u) & 1 else non
        below = masks[i] & ((1 << mapping[i]) - 1)
        order = None
        if below:
            rest = [(u, masks[u]) for u in range(i + 1, h)]
            order = unconstrained_match(hadj, padj, i, below, rest, mapping)
        i = i + 1 if order is None else patterns._fixed_prefix(order, i)
    return Embedding(tuple(mapping))


def matcher_nodes(fn, host, pattern):
    """(search nodes, result) of ``fn(host, pattern)``: the calls of the
    inner ``rec`` of the library's matcher or of the unconstrained one,
    counted with a profile hook.  The pattern's order constraints and its
    first-search plan are memoised first, so that their orbit searches are
    not counted.  A search that reaches the matcher counts at least one
    node; a count of 0 there means the hook no longer sees ``rec``."""
    order_constraints(pattern.adj)
    patterns._centre_plan(pattern.adj)
    count = 0
    files = {f.__code__.co_filename for f in (patterns._match, unconstrained_match)}

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename in files:
            count += 1

    sys.setprofile(profile)
    try:
        result = fn(host, pattern)
    finally:
        sys.setprofile(None)
    assert count or not 0 < pattern.n <= host.n, "the profile hook saw no rec call"
    return count, result


def automorphisms(g):
    """Every automorphism of ``g``, by brute force over all permutations,
    each abandoned at the first vertex whose adjacency to the vertices
    before it is not kept."""
    n = g.n
    auts = []

    def extend(perm):
        v = len(perm)
        if v == n:
            auts.append(tuple(perm))
            return
        for w in range(n):
            if w not in perm and all(
                g.has_edge(u, v) == g.has_edge(perm[u], w) for u in range(v)
            ):
                extend(perm + [w])

    extend([])
    return auts


def chain_oracle(g, base=None):
    """``after`` masks of the stabiliser chain along ``base`` (by default
    0, 1, ..., n-1), in the labels of ``g``: bit u of ``after[b]`` for each
    u != b in the orbit of b under the automorphisms that fix the vertices
    before b in the base."""
    base = list(range(g.n)) if base is None else base
    auts = automorphisms(g)
    after = [0] * g.n
    for k, b in enumerate(base):
        orbit = {s[b] for s in auts if all(s[u] == u for u in base[:k])}
        after[b] = sum(1 << u for u in orbit - {b})
    return tuple(after)


def centre_base(g):
    """Breadth-first order, neighbours lowest id first, from the centre of
    the connected graph ``g`` (least eccentricity, then lowest id)."""
    best = None
    for root in range(g.n):
        order, dist = [root], {root: 0}
        for v in order:
            for u in g.neighbours(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    order.append(u)
        if best is None or max(dist.values()) < best[0]:
            best = (max(dist.values()), order)
    return best[1]


def with_twins(rng, n):
    """A random graph on n vertices, built by cloning vertices of a smaller
    one as open or closed twins, so that it has automorphisms."""
    g = random_graph(rng, rng.randint(1, 4), rng.random())
    adj = list(g.adj)
    while len(adj) < n:
        v, new = rng.randrange(len(adj)), len(adj)
        row = adj[v] | (1 << v if rng.random() < 0.5 else 0)
        adj = [r | (1 << new if (row >> u) & 1 else 0) for u, r in enumerate(adj)]
        adj.append(row)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(n) for v in iter_bits(adj[u]) if u < v]
    return Graph.from_edges(n, edges)


def twin_oracle(g, base):
    """``after`` masks of the twin constraints alone along ``base``: bit u
    of ``after[b]`` for each twin u of b later in the base, by a pair test."""
    pos = {v: k for k, v in enumerate(base)}
    return tuple(
        sum(
            1 << u
            for u in range(g.n)
            if pos[u] > pos[b] and g.adj[u] & ~(1 << b) == g.adj[b] & ~(1 << u)
        )
        for b in range(g.n)
    )


class TestOrderConstraints:
    def check(self, g, base=None):
        after, before = order_constraints(g.adj, base)
        assert after == chain_oracle(g, base), (g.adj, base)
        assert before == tuple(
            sum(1 << b for b in range(g.n) if (after[b] >> u) & 1)
            for u in range(g.n)
        )

    def test_every_graph_on_five_vertices(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                self.check(Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
                ))

    def test_seeded_six_and_seven_vertices(self):
        rng = random.Random(30)
        for n in (6, 7):
            for _ in range(12):
                self.check(random_graph(rng, n, rng.random()))
                self.check(with_twins(rng, n))
        for spec in PATTERN_POOL:
            self.check(parse_pattern(spec))

    def test_twins_alone_above_the_orbit_search_limit(self):
        big = patterns.ORBIT_SEARCH_MAX + 2
        after, _ = order_constraints(complete(big).adj)
        assert after == tuple(((1 << big) - 1) & -(2 << b) for b in range(big))
        after, _ = order_constraints(parse_pattern(f"{big // 2}P2").adj)
        assert after == tuple(2 << b if b % 2 == 0 else 0 for b in range(big))
        assert order_constraints(cycle(big).adj)[0] == (0,) * big
        # up to the limit the chain is searched: C_h has 2h automorphisms
        h = patterns.ORBIT_SEARCH_MAX
        assert order_constraints(cycle(h).adj)[0] == (
            ((1 << h) - 2, 1 << (h - 1)) + (0,) * (h - 2)
        )

    def test_any_base(self):
        # seeded random bases, not only the id and the centre base
        rng = random.Random(35)
        specs = [f"P{t}" for t in range(2, 11)] + [f"C{t}" for t in range(4, 8)]
        graphs = [parse_pattern(spec) for spec in specs + list(PATTERN_POOL)]
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
                )
                if len(components(g)) == 1:
                    graphs.append(g)
        for g in graphs:
            base = list(range(g.n))
            rng.shuffle(base)
            self.check(g, tuple(base))

    def test_twins_alone_along_any_base(self):
        # above the orbit search limit each twin class is ordered by base
        # position; along the id base by id, as pinned above
        rng = random.Random(36)
        big = patterns.ORBIT_SEARCH_MAX + 4
        graphs = [with_twins(rng, big) for _ in range(20)]
        graphs += [parse_pattern(s) for s in (f"K{big}", f"{big // 2}P2", f"C{big}")]
        for g in graphs:
            base = list(range(g.n))
            assert order_constraints(g.adj)[0] == twin_oracle(g, base), g.adj
            rng.shuffle(base)
            after = order_constraints(g.adj, tuple(base))[0]
            assert after == twin_oracle(g, base), (g.adj, base)

    def test_every_constraint_points_up(self):
        # psi(b) < psi(u) only for u > b, with and without the orbit
        # search: find_induced's refinement relies on it to narrow the
        # later vertices by after[b] alone
        rng = random.Random(33)
        for n in (5, 8, patterns.ORBIT_SEARCH_MAX + 4):
            for _ in range(10):
                after, _ = order_constraints(with_twins(rng, n).adj)
                assert all(not later & ((2 << b) - 1) for b, later in enumerate(after))

    def test_memoised_by_adjacency(self):
        assert order_constraints(path(7).adj) is order_constraints(
            parse_pattern("P7").adj
        )


class TestCentrePlan:
    def check(self, g):
        plan = patterns._centre_plan(g.adj)
        if g.n > patterns.ORBIT_SEARCH_MAX or len(components(g)) != 1:
            assert plan is None
            return
        base = centre_base(g)
        if base[0] == 0:
            assert plan is None
            return
        assert plan[0] == tuple(base)
        after, before = plan[1]
        assert after == chain_oracle(g, base), g.adj
        assert before == tuple(
            sum(1 << b for b in range(g.n) if (after[b] >> u) & 1)
            for u in range(g.n)
        )

    def test_paths_cycles_and_pool(self):
        for spec in [f"P{t}" for t in range(2, 11)] + [f"C{t}" for t in range(4, 8)]:
            self.check(parse_pattern(spec))
        for spec in PATTERN_POOL:
            self.check(parse_pattern(spec))

    def test_every_connected_graph_on_six_vertices(self):
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(
                    n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
                )
                if len(components(g)) == 1:
                    self.check(g)

    def test_path_constraint_binds_at_the_second_level(self):
        # P7 from its centre 3: the base is 3, 2, 4, 1, 5, 0, 6, and the
        # reversal fixes 3 and swaps 2 and 4
        assert patterns._centre_plan(path(7).adj) == (
            (3, 2, 4, 1, 5, 0, 6),
            ((0, 0, 1 << 4, 0, 0, 0, 0), (0, 0, 0, 0, 1 << 2, 0, 0)),
        )

    def test_root_zero_keeps_the_id_order_search(self):
        # disconnected, centre 0, or above the orbit search limit
        big = patterns.ORBIT_SEARCH_MAX + 1
        for spec in ("P1", "P2", "P3+P2", "P2+P3", "co(P2+P3)", "C5", "C7", "K1,3",
                     f"P{big}", f"P{big + 1}"):
            assert patterns._centre_plan(parse_pattern(spec).adj) is None, spec


class TestConstrainedMatcher:
    def test_equals_unconstrained_matcher(self):
        # hosts up to 24 vertices; the benchmark's pool and random patterns
        rng = random.Random(31)
        pool = [parse_pattern(s) for s in PATTERN_POOL]
        found = 0
        for i in range(5000):
            host = random_graph(rng, rng.randint(0, 24), rng.random())
            if i % 2:
                pattern = rng.choice(pool)
            else:
                pattern = random_graph(rng, rng.randint(0, 7), rng.random())
            got = find_induced(host, pattern)
            assert got == unconstrained_find_induced(host, pattern), (
                host.adj, pattern.adj
            )
            found += got is not None
        assert 1000 < found < 4000

    def test_every_small_pattern_on_seeded_hosts(self):
        # every labelled graph on at most 5 vertices, on two hosts each
        rng = random.Random(34)
        found = free = 0
        for h in range(6):
            pairs = list(combinations(range(h), 2))
            for mask in range(1 << len(pairs)):
                pattern = Graph.from_edges(
                    h, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
                )
                for _ in range(2):
                    host = random_graph(rng, rng.randint(5, 14), rng.random())
                    got = find_induced(host, pattern)
                    assert got == unconstrained_find_induced(host, pattern), (
                        host.adj, pattern.adj
                    )
                    found += got is not None
                    free += got is None
        assert found > 500 and free > 500

    def test_large_patterns_set_up_bounded(self, monkeypatch):
        # above ORBIT_SEARCH_MAX only twins are ordered: the set-up makes no
        # orbit search, so it stays linear, and the constrained search
        # visits no more nodes than the unconstrained one
        match = patterns._match

        def set_up_calls(pattern):
            """The ``_match`` calls of an uncached ``order_constraints``."""
            calls = 0

            def counted(*args):
                nonlocal calls
                calls += 1
                return match(*args)

            order_constraints.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(patterns, "_match", counted)
                order_constraints(pattern.adj)
            return calls

        assert set_up_calls(path(7)) > 0  # within the limit, orbits are searched
        host = parse_pattern("350P2")
        for spec in ("300P2", "K300", "P300", "C200", "100P3"):
            pattern = parse_pattern(spec)
            assert pattern.n > patterns.ORBIT_SEARCH_MAX
            assert set_up_calls(pattern) == 0, spec
            new, got = matcher_nodes(find_induced, host, pattern)
            old, want = matcher_nodes(unconstrained_find_induced, host, pattern)
            assert got == want, spec
            assert new <= old, (spec, new, old)

    # Search nodes of the freeness proofs on the two 65-vertex gadgets of
    # criterion 05 (all eight clauses over three variables), against the
    # unconstrained matcher's count.  The paths are searched from their
    # centre, where the reversal's constraint binds at the second level.
    FREENESS_NODES = {
        ("c7", "P7"): (2_290, 4_324),
        ("c7", "co(P8)"): (722, 1_170),
        ("fig5", "P6"): (1_313, 4_476),
        ("fig5", "co(P1+P6)"): (1_092, 1_920),
    }

    def test_freeness_proof_nodes(self):
        nice = gadgets.catalog_nice()
        clauses = tuple(gadgets.all_three_var_clauses(3))
        sat = gadgets.SatInstance(n=3, clauses=clauses)
        for (name, spec), pin in self.FREENESS_NODES.items():
            g = gadgets.build_huang_gadget(nice[name], sat).graph
            assert g.n == 65
            pattern = parse_pattern(spec)
            nodes, result = matcher_nodes(find_induced, g, pattern)
            assert result is None
            before, _ = matcher_nodes(unconstrained_find_induced, g, pattern)
            assert (nodes, before) == pin, (name, spec)

    def test_x3c_freeness_proof_nodes(self):
        # P6 on a 40-vertex X3C gadget (q = 6, k = 14), against the
        # unconstrained matcher's count
        inst = gadgets.random_x3c_instance(random.Random(3), 6, 14)
        g = gadgets.build_x3c_gadget(inst).graph
        assert g.n == 40
        nodes, result = matcher_nodes(find_induced, g, path(6))
        assert result is None
        before, _ = matcher_nodes(unconstrained_find_induced, g, path(6))
        assert (nodes, before) == (498, 2_700)

    def test_refinement_nodes(self):
        # Most of these searches find an embedding and refine it; the
        # refinement's masks carry the order constraints of the fixed
        # vertices, which only this count shows: the embeddings are the
        # same without them.  An embedding found from a centre root is
        # refined from vertex 0, which costs some nodes here.
        rng = random.Random(32)
        pool = [parse_pattern(s) for s in PATTERN_POOL]
        nodes = before = found = 0
        for _ in range(400):
            host = random_graph(rng, rng.randint(8, 24), rng.random())
            pattern = rng.choice(pool)
            k, got = matcher_nodes(find_induced, host, pattern)
            j, expect = matcher_nodes(unconstrained_find_induced, host, pattern)
            assert got == expect
            nodes, before, found = nodes + k, before + j, found + (got is not None)
        assert (nodes, before, found) == (3_383, 4_539, 304)
