import random
from itertools import combinations, product

import pytest

from cocolour import solvers
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
