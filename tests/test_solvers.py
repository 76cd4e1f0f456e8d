import random
import time
from itertools import combinations, product

import pytest

from cocolour import gadgets, solvers
from cocolour.graphs import Graph, complete, cycle, disjoint_union, path, star
from cocolour.solvers import (
    BudgetExceededError,
    Colouring,
    CliqueCover,
    chromatic_number,
    clique_cover_number,
    greedy_clique,
    is_k_colourable,
    max_clique,
    solve_sat_brute,
    solve_x3c_brute,
    validate_clique,
    validate_clique_cover,
    validate_colouring,
)


def random_graph(rng, n, p=0.5):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def chi_oracle(g):
    """Exhaustive k-ascending assignment enumeration; independent oracle."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return k
    return g.n


def mycielski(times):
    """Mycielski's graph M(times + 2): the construction applied ``times``
    times to K2."""
    g = complete(2)
    for _ in range(times):
        n = g.n
        edges = list(g.edges())
        edges += [(u, n + v) for u, v in g.edges()]
        edges += [(v, n + u) for u, v in g.edges()]
        edges += [(n + i, 2 * n) for i in range(n)]
        g = Graph.from_edges(2 * n + 1, edges)
    return g


def huang_gadget(name, clauses):
    sat = gadgets.SatInstance(n=3, clauses=clauses)
    nc = gadgets.catalog_nice()[name]
    return gadgets.build_huang_gadget(nc, sat).graph, nc.k + 1


class _CountingDeadline(solvers._Deadline):
    """No budget; counts the search nodes (one check per node)."""

    __slots__ = ("nodes",)

    def __init__(self):
        super().__init__(None)
        self.nodes = 0

    def check(self):
        self.nodes += 1


def omega_oracle(g):
    best = 0
    for r in range(g.n, 0, -1):
        for subset in combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return r
    return best


class TestValidators:
    def test_colouring(self):
        g = path(3)
        assert validate_colouring(g, Colouring((0, 1, 0), 2))
        assert not validate_colouring(g, Colouring((0, 0, 1), 2))
        assert not validate_colouring(g, Colouring((0, 1), 2))
        assert not validate_colouring(g, Colouring((0, 2, 0), 2))

    def test_clique_cover(self):
        g = cycle(4)
        assert validate_clique(g, (0, 1))
        assert not validate_clique(g, (0, 2))
        assert validate_clique_cover(g, CliqueCover(((0, 1), (2, 3))))
        assert not validate_clique_cover(g, CliqueCover(((0, 1), (2,))))
        assert not validate_clique_cover(g, CliqueCover(((0, 1), (1, 2), (3,))))


class TestColouring:
    def test_known_chromatic_numbers(self):
        assert chromatic_number(Graph.empty(0))[0] == 0
        assert chromatic_number(Graph.empty(5))[0] == 1
        assert chromatic_number(path(6))[0] == 2
        assert chromatic_number(cycle(6))[0] == 2
        assert chromatic_number(cycle(5))[0] == 3
        assert chromatic_number(complete(7))[0] == 7
        assert chromatic_number(cycle(7).complement())[0] == 4

    def test_witness_is_proper(self):
        rng = random.Random(20)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            k, col = chromatic_number(g)
            assert col.k == k
            assert validate_colouring(g, col)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(21)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            assert chromatic_number(g)[0] == chi_oracle(g)

    def test_is_k_colourable_threshold(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            chi = chromatic_number(g)[0]
            assert is_k_colourable(g, chi) is not None
            if chi > 0:
                assert is_k_colourable(g, chi - 1) is None

    def test_k_zero_and_negative(self):
        assert is_k_colourable(Graph.empty(0), 0) is not None
        assert is_k_colourable(path(1), 0) is None
        with pytest.raises(ValueError):
            is_k_colourable(path(1), -1)

    def test_budget_exceeded_raises(self):
        with pytest.raises(BudgetExceededError):
            # 0 seconds: must give up rather than answer
            chromatic_number(cycle(9), budget=0.0)
        with pytest.raises(BudgetExceededError):
            is_k_colourable(cycle(9), 2, budget=0.0)

    def test_budget_is_checked_during_the_search(self):
        # both searches take seconds; the budget must stop them mid-search
        m6 = mycielski(4)
        clauses = tuple(gadgets.all_three_var_clauses(3))
        gadget, _ = huang_gadget("c7", clauses)
        for call in (
            lambda: chromatic_number(m6, budget=0.05),
            lambda: is_k_colourable(gadget, 4, budget=0.05),
        ):
            started = time.monotonic()
            with pytest.raises(BudgetExceededError):
                call()
            assert time.monotonic() - started < 2.0

    def test_greedy_upper_bound_is_dsatur(self):
        # highest saturation, then uncoloured degree, then lowest id
        assert solvers._dsatur_greedy(path(4)).colours == (1, 0, 1, 0)
        assert solvers._dsatur_greedy(cycle(5)).colours == (0, 1, 0, 1, 2)
        col = solvers._dsatur_greedy(mycielski(3))
        assert col.k == 5 and validate_colouring(mycielski(3), col)


class TestSearchTree:
    """Pinned node counts and witnesses of the DSATUR search: a change to
    its branching order (pick or colour order) shows up here."""

    def search(self, g, k):
        deadline = _CountingDeadline()
        result = solvers._kcol_search(g, k, greedy_clique(g), deadline)
        return deadline.nodes, result

    def test_mycielski_m5_refutation(self):
        g = mycielski(3)
        assert g.n == 23
        assert self.search(g, 4) == (697, None)

    def test_huang_gadget_witnesses(self):
        g, k = huang_gadget("c7", ((-1, 2, 3), (1, 2, -3)))
        assert self.search(g, k) == (30, (
            0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 2, 1, 2, 3, 2, 3, 3, 2, 1, 2, 0,
            3, 2,
        ))
        g, k = huang_gadget("fig5", ((1, 2, 3), (-1, -2, -3)))
        assert self.search(g, k) == (371, (
            3, 4, 3, 4, 3, 4, 3, 3, 4, 2, 4, 0, 1, 0, 1, 2, 2, 1, 3, 0, 0,
            1, 2,
        ))

    def test_random_graph_witnesses(self):
        expected = {
            9: (5, 72, (
                4, 0, 3, 3, 2, 2, 0, 2, 0, 4, 4, 2, 0, 1, 4, 1, 2, 0, 2, 0,
                0, 3, 4, 2, 0, 1, 3, 1, 1, 4,
            )),
            3: (5, 34, (
                3, 0, 1, 2, 1, 4, 1, 0, 0, 1, 2, 3, 1, 0, 2, 4, 0, 3, 2, 0,
                1, 2, 2, 0, 3, 3, 1, 1, 3, 4,
            )),
            1: (6, 27, (
                3, 1, 0, 2, 0, 2, 1, 2, 3, 2, 0, 0, 0, 3, 1, 3, 2, 2, 1, 1,
                4, 0, 3, 4, 1, 5, 2, 4, 2, 3,
            )),
        }
        for seed, (k, nodes, colours) in expected.items():
            g = random_graph(random.Random(seed), 30, 0.3)
            assert self.search(g, k) == (nodes, colours), seed
        # seed 1 at one colour fewer is a 202-node refutation
        g = random_graph(random.Random(1), 30, 0.3)
        assert self.search(g, 5) == (202, None)


class TestCliques:
    def test_greedy_clique_is_a_clique(self):
        rng = random.Random(24)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            assert validate_clique(g, greedy_clique(g))

    def test_max_clique_matches_oracle(self):
        rng = random.Random(25)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            omega, clique = max_clique(g)
            assert omega == omega_oracle(g)
            assert len(clique) == omega
            assert validate_clique(g, clique)

    def test_known_cliques(self):
        assert max_clique(complete(6))[0] == 6
        assert max_clique(cycle(5))[0] == 2
        assert max_clique(star(4))[0] == 2


class TestCliqueCover:
    def test_equals_complement_chi(self):
        rng = random.Random(26)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            k, cover = clique_cover_number(g)
            assert k == chromatic_number(g.complement())[0]
            assert validate_clique_cover(g, cover)

    def test_invalid_cover_raises(self, monkeypatch):
        # an improper complement colouring must not pass silently, also
        # under python -O
        monkeypatch.setattr(
            solvers,
            "chromatic_number",
            lambda g, budget=None: (1, Colouring((0,) * g.n, 1)),
        )
        with pytest.raises(RuntimeError):
            clique_cover_number(Graph.empty(2))

    def test_known_values(self):
        assert clique_cover_number(complete(5))[0] == 1
        assert clique_cover_number(Graph.empty(4))[0] == 4
        assert clique_cover_number(cycle(5))[0] == 3


class TestBruteForceProblems:
    def test_x3c_positive(self):
        inst = type(
            "I", (), {"q": 2, "k": 3, "triples": ((0, 1, 2), (3, 4, 5), (0, 3, 4))}
        )
        assert solve_x3c_brute(inst) == (0, 1)

    def test_x3c_negative(self):
        inst = type(
            "I", (), {"q": 2, "k": 2, "triples": ((0, 1, 2), (0, 3, 4))}
        )
        assert solve_x3c_brute(inst) is None

    def test_sat_positive_and_negative(self):
        sat = type("S", (), {"n": 3, "clauses": ((1, 2, 3), (-1, -2, -3))})
        model = solve_sat_brute(sat)
        assert model is not None
        assert any(model) and not all(model)
        unsat = type(
            "S",
            (),
            {
                "n": 1,
                "clauses": ((1,), (-1,)),
            },
        )
        assert solve_sat_brute(unsat) is None
