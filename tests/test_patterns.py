import random
from itertools import combinations, permutations

import pytest

from cocolour import patterns
from cocolour.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    graph_facts,
    path,
    star,
)
from cocolour.patterns import (
    Embedding,
    enumerate_self_complementary,
    find_induced,
    find_induced_c5,
    is_free,
    is_isomorphic,
    is_perfect_small,
    is_self_complementary,
)


def random_graph(rng, n, p=0.5):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


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

    def test_n4_output_is_p4(self):
        (g,) = enumerate_self_complementary(4)
        assert is_isomorphic(g, path(4))

    def test_n5_outputs_contain_cycle(self):
        for g in enumerate_self_complementary(5):
            assert graph_facts(g).girth is not None


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
