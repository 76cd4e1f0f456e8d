import random
from itertools import combinations

import pytest

from cocolour.classify import (
    NP_COMPLETE,
    OPEN,
    POLY,
    _linear_forest_exception,
    classify_h_coh,
    classify_h_free,
    classify_k_col_pt,
    classify_self_comp_family,
)
from cocolour.graphs import (
    Graph,
    components,
    cycle,
    disjoint_union,
    path,
    random_graph,
    star,
)
from cocolour.patterns import is_isomorphic


def all_graphs_up_to(n_max):
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(
                n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            )


class TestHFree:
    def test_poly_cases(self):
        p1_p3 = disjoint_union(path(1), path(3))
        assert classify_h_free(p1_p3).verdict == POLY
        assert classify_h_free(path(4)).verdict == POLY
        assert classify_h_free(path(1)).verdict == POLY
        assert classify_h_free(path(2)).verdict == POLY

    def test_npc_cases(self):
        two_p2 = disjoint_union(path(2), path(2))
        assert classify_h_free(two_p2).verdict == NP_COMPLETE
        assert classify_h_free(cycle(3)).verdict == NP_COMPLETE
        assert classify_h_free(path(5)).verdict == NP_COMPLETE
        assert classify_h_free(star(3)).verdict == NP_COMPLETE

    def test_never_open_and_witnessed(self):
        rng = random.Random(30)
        for _ in range(60):
            c = classify_h_free(random_graph(rng, rng.randint(1, 6), 0.4))
            assert c.verdict in (POLY, NP_COMPLETE)
            if c.verdict == POLY:
                assert c.witness is not None

    def test_structural_cross_check(self):
        # any H with a cycle, or with a degree-3 vertex on >= 5 vertices,
        # must come out NP-complete; verify on every graph with n <= 6
        for h in all_graphs_up_to(6):
            has_cycle = h.edge_count != h.n - len(components(h))
            if has_cycle or (max(map(h.degree, range(h.n))) >= 3 and h.n >= 5):
                assert classify_h_free(h).verdict == NP_COMPLETE


class TestSelfCompFamily:
    def test_examples(self):
        assert classify_self_comp_family([path(4)]).verdict == POLY
        assert classify_self_comp_family([cycle(5)]).verdict == NP_COMPLETE
        assert classify_self_comp_family([cycle(5), path(1)]).verdict == POLY

    def test_rejects_non_self_complementary(self):
        with pytest.raises(ValueError) as err:
            classify_self_comp_family([path(4), path(3)])
        assert "index 1" in str(err.value)

    def test_witness_names_the_member(self):
        c = classify_self_comp_family([cycle(5), path(4)])
        assert c.verdict == POLY
        idx, emb = c.witness
        assert idx == 1


class TestHCoh:
    def test_poly_named_cases(self):
        for h in (
            star(3),
            disjoint_union(path(1), path(4)),
            disjoint_union(path(1), path(1), path(3)),
            disjoint_union(path(2), path(3)),
            path(5),
            disjoint_union(path(1), path(1), path(2)),
        ):
            assert classify_h_coh(h).verdict == POLY

    def test_npc_named_cases(self):
        p1_2p2 = disjoint_union(path(1), path(2), path(2))
        assert classify_h_coh(p1_2p2).verdict == NP_COMPLETE
        assert classify_h_coh(path(6)).verdict == NP_COMPLETE

    def test_open_exceptions(self):
        three_p1_p3 = disjoint_union(path(1), path(1), path(1), path(3))
        two_p1_p4 = disjoint_union(path(1), path(1), path(4))
        assert classify_h_coh(three_p1_p3).verdict == OPEN
        assert classify_h_coh(two_p1_p4).verdict == OPEN
        # complements hit the same exception
        assert classify_h_coh(three_p1_p3.complement()).verdict == OPEN
        # below the thresholds the exceptions do not fire
        assert (
            classify_h_coh(disjoint_union(path(1), path(1), path(3))).verdict
            == POLY
        )
        assert (
            classify_h_coh(disjoint_union(path(1), path(4))).verdict == POLY
        )

    def test_c4_is_poly_via_complement(self):
        c = classify_h_coh(cycle(4))
        assert c.verdict == POLY
        assert c.rule.startswith("poly:co-H")

    def test_closed_under_complementation(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 7)
            edges = [
                (u, v)
                for u, v in combinations(range(n), 2)
                if rng.random() < rng.random()
            ]
            h = Graph.from_edges(n, edges)
            assert classify_h_coh(h).verdict == classify_h_coh(h.complement()).verdict

    def test_linear_forest_exception_matches_definition(self):
        # oracle: H is a linear forest iff every component induces a path
        opens = 0
        for h in all_graphs_up_to(6):
            sizes = []
            for comp in components(h):
                vs = [v for v in range(h.n) if comp >> v & 1]
                if not is_isomorphic(h.induced(vs), path(len(vs))):
                    sizes = None
                    break
                sizes.append(len(vs))
            want = None
            if sizes is not None:
                s = sizes.count(1)
                rest = sorted(size for size in sizes if size > 1)
                if rest == [3] and s >= 3:
                    want = f"{s}P1+P3"
                elif rest == [4] and s >= 2:
                    want = f"{s}P1+P4"
            assert _linear_forest_exception(h) == want
            opens += want is not None
        assert opens == 20 * 3 + 15 * 12  # labelled 3P1+P3 and 2P1+P4 on 6

    def test_exhaustive_small_h(self):
        # every H with n <= 4 yields a verdict, and never Open below n=6
        for h in all_graphs_up_to(4):
            assert classify_h_coh(h).verdict in (POLY, NP_COMPLETE)


class TestVerdictConsistency:
    @pytest.mark.parametrize("classifier", [classify_h_free, classify_h_coh])
    def test_no_poly_above_a_harder_verdict(self, classifier):
        # H = H' - v is an induced subgraph of H', so the H-free (and the
        # (H, co-H)-free) graphs are H'-free (and (H', co-H')-free): Colouring
        # is Poly on H whenever it is on H', and NPComplete on H' whenever
        # it is on H; the oracle reads no host table
        nx = pytest.importorskip("networkx")
        deletions = 0
        for a in nx.graph_atlas_g():
            big = Graph.from_edges(a.number_of_nodes(), list(a.edges()))
            if big.n < 2:
                continue  # H has at least one vertex
            above = classifier(big).verdict
            for v in range(big.n):
                below = classifier(big.induced(set(range(big.n)) - {v})).verdict
                assert above != POLY or below == POLY, (big.adj, v)
                assert below != NP_COMPLETE or above == NP_COMPLETE, (big.adj, v)
                deletions += 1
        assert deletions == 8474


class TestKColPt:
    def test_table(self):
        expected = {
            (3, 5): POLY,
            (3, 6): POLY,
            (3, 7): POLY,
            (3, 8): OPEN,
            (4, 5): POLY,
            (4, 6): OPEN,
            (4, 7): OPEN,
            (4, 8): NP_COMPLETE,
            (5, 5): POLY,
            (5, 6): OPEN,
            (5, 7): OPEN,
            (5, 8): NP_COMPLETE,
        }
        for (k, t), verdict in expected.items():
            assert classify_k_col_pt(k, t).verdict == verdict, (k, t)

    def test_edges_of_the_table(self):
        assert classify_k_col_pt(1, 100).verdict == POLY
        assert classify_k_col_pt(2, 100).verdict == POLY
        assert classify_k_col_pt(100, 5).verdict == POLY
        assert classify_k_col_pt(100, 8).verdict == NP_COMPLETE
        assert classify_k_col_pt(3, 100).verdict == OPEN
        assert classify_k_col_pt(100, 7).verdict == OPEN

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_k_col_pt(0, 5)
        with pytest.raises(ValueError):
            classify_k_col_pt(3, 0)
