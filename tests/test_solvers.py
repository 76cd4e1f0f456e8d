import functools
import hashlib
import random
import time
import tracemalloc
from itertools import combinations, product

import pytest

from cocolour import gadgets, solvers
from cocolour.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    iter_bits,
    path,
    random_graph,
    star,
)
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


def colouring_by_edges(g, col):
    """Oracle: the right length, every colour in 0..k-1, no edge monochromatic."""
    if len(col.colours) != g.n or any(not 0 <= c < col.k for c in col.colours):
        return False
    return all(col.colours[u] != col.colours[v] for u, v in g.edges())


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

    def test_colouring_matches_the_edge_walk(self):
        rng = random.Random(9)
        seen = set()
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            k = rng.randint(1, 5)
            colours = [rng.randrange(k) for _ in range(g.n)]
            kind = rng.randrange(4)
            if kind == 0:  # proper
                col = chromatic_number(g)[1]
                colours, k = list(col.colours), col.k
            elif kind == 1 and g.n:  # a colour out of range
                colours[rng.randrange(g.n)] = rng.choice((-1, k))
            elif kind == 2:  # the wrong length
                colours = colours[:-1] if g.n and rng.random() < 0.5 else colours + [0]
            col = Colouring(tuple(colours), k)
            want = colouring_by_edges(g, col)
            assert validate_colouring(g, col) == want
            seen.add((kind, want))
        assert {(0, True), (1, False), (2, False), (3, True), (3, False)} <= seen

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

    def test_k_above_n_searches_at_n(self):
        # the search state has one entry per colour: any k >= n runs at n
        tracemalloc.start()
        try:
            col = is_k_colourable(cycle(5), 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert col.k == 3 and validate_colouring(cycle(5), col)
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            at_n = is_k_colourable(g, g.n)
            for k in (g.n + 1, 3 * g.n, 10**9):
                assert is_k_colourable(g, k) == at_n

    def test_budget_exceeded_raises(self):
        with pytest.raises(BudgetExceededError):
            # 0 seconds: must give up rather than answer
            chromatic_number(cycle(9), budget=0.0)
        with pytest.raises(BudgetExceededError):
            is_k_colourable(cycle(9), 2, budget=0.0)

    def test_nan_budget_is_rejected(self):
        # no time compares greater than NaN: it would never run out; the
        # trivial inputs are refused too, before any early answer
        nan = float("nan")
        for call in (
            lambda: chromatic_number(cycle(9), budget=nan),
            lambda: chromatic_number(Graph.empty(0), nan),
            lambda: max_clique(Graph.empty(0), nan),
            lambda: clique_cover_number(Graph.empty(0), nan),
            lambda: is_k_colourable(Graph.empty(0), 3, nan),
            lambda: is_k_colourable(cycle(5), 0, nan),
        ):
            with pytest.raises(ValueError, match="nan"):
                call()

    def test_budget_is_checked_during_the_search(self):
        # both searches take seconds (M6 at k=5 is a 154,792-node
        # refutation); the budget must stop them mid-search
        m6 = mycielski(4)
        for call in (
            lambda: chromatic_number(m6, budget=0.05),
            lambda: is_k_colourable(m6, 5, budget=0.05),
        ):
            started = time.monotonic()
            with pytest.raises(BudgetExceededError):
                call()
            assert time.monotonic() - started < 2.0

    def test_greedy_upper_bound_is_dsatur(self):
        # the search at k = n never backtracks, so its first descent is
        # greedy DSATUR: highest saturation, then uncoloured degree, then
        # lowest id
        def greedy(g):
            return solvers._kcol_search(g, g.n, (), solvers._Deadline(None))

        assert greedy(path(4)) == (1, 0, 1, 0)
        assert greedy(cycle(5)) == (0, 1, 0, 1, 2)
        col = Colouring(greedy(mycielski(3)), 5)
        assert max(col.colours) == 4 and validate_colouring(mycielski(3), col)


def max_saturation(nbr, unc):
    """Mask of the uncoloured vertices of highest saturation, counted afresh
    from the colour masks ``nbr``, independent of the incremental counts of
    ``solvers._kcol_search``: bit-sliced, ``slices[i]`` holds bit i of
    every vertex's count, so the maximum is found by a descent from the top
    slice."""
    slices = []
    for mask in nbr:
        carry = mask & unc
        i = 0
        while carry:
            if i == len(slices):
                slices.append(carry)
                break
            s = slices[i]
            slices[i] = s ^ carry
            carry &= s
            i += 1
    best = unc
    for s in reversed(slices):
        if best & s:
            best &= s
    return best


def pick_dsatur(adj, nbr, unc, used, forced_by_degree=False):
    """The oracle's own pick among the uncoloured vertices of highest
    saturation, with ``used`` of the ``k = len(nbr)`` colours opened:

    - while ``used < k``: highest uncoloured degree, then lowest id;
    - once ``used == k``, at a decision (two colours or more free): highest
      Sewell score, the colours v shares with each uncoloured neighbour
      summed over its uncoloured neighbours, then highest uncoloured
      degree, then lowest id;
    - once ``used == k``, at a forced pick or a dead end (one colour free
      or none): lowest id, or with ``forced_by_degree`` the degree rule.
    """
    tied = list(iter_bits(max_saturation(nbr, unc)))

    def free(v):
        return {c for c, mask in enumerate(nbr) if not mask >> v & 1}

    def degree(v):
        return (adj[v] & unc).bit_count()

    def sewell(v):
        return sum(len(free(v) & free(u)) for u in iter_bits(adj[v] & unc))

    def decision(v):
        return sewell(v), degree(v)

    if used < len(nbr):
        key = degree
    elif len(free(tied[0])) > 1:
        key = decision
    elif forced_by_degree:
        key = degree
    else:
        return tied[0]
    return max(tied, key=key)  # the first of the maxima: the lowest id


def chronological_kcol_search(g, k, seed_clique, deadline, forced_by_degree=False):
    """The DSATUR search without backjumping: a dead end backtracks one
    level.  Same branching order as ``solvers._kcol_search``; a test
    oracle for its witnesses, verdicts and node counts."""
    adj = g.adj
    colours = [-1] * g.n
    nbr = [0] * k
    unc = (1 << g.n) - 1
    for c, v in enumerate(seed_clique):
        colours[v] = c
        nbr[c] = adj[v]
        unc ^= 1 << v
    used = len(seed_clique)
    stack = []
    while True:
        deadline.check()
        if not unc:
            return tuple(colours)
        v = pick_dsatur(adj, nbr, unc, used, forced_by_degree)
        unc ^= 1 << v
        c = 0
        while True:
            limit = min(used + 1, k)
            while c < limit and nbr[c] >> v & 1:
                c += 1
            if c < limit:
                break
            unc |= 1 << v
            if not stack:
                return None
            v, c, used, saved = stack.pop()
            nbr[c] = saved
            c += 1
        stack.append((v, c, used, nbr[c]))
        nbr[c] |= adj[v]
        colours[v] = c
        if c == used:
            used += 1


def search(g, k, kcol_search=solvers._kcol_search, seed_clique=None):
    """(search nodes, result) of one k-colourability search, seeded with
    the greedy clique unless ``seed_clique`` is given."""
    if seed_clique is None:
        seed_clique = greedy_clique(g)
    deadline = _CountingDeadline()
    result = kcol_search(g, k, seed_clique, deadline)
    return deadline.nodes, result


# The two 300-graph comparison sets of TestSearchTree: the seed of their
# random.Random, then the ranges of n and of the edge probability.
GRAPH_SETS = {31: ((1, 24), (0.1, 0.9)), 32: ((30, 45), (0.1, 0.4))}


def comparison_graphs(seed):
    n_range, p_range = GRAPH_SETS[seed]
    rng = random.Random(seed)
    for _ in range(300):
        yield random_graph(rng, rng.randint(*n_range), rng.uniform(*p_range))


def comparison_searches(seed):
    """(graph, k, seed clique) of every search of a comparison set: k =
    omega .. omega + 3, each with the greedy clique (None) and with the
    empty seed, which reaches the dead ends whose colours the symmetry rule
    pruned."""
    for g in comparison_graphs(seed):
        omega = max_clique(g)[0]
        for k, seed_clique in product(range(omega, omega + 4), (None, ())):
            yield g, k, seed_clique


# (total nodes, refutations, digest) of the comparison sets, from the search
# with saturations and Sewell scores counted afresh per node.
PIN_31 = (28_685, 76, "308d08c4ffd870be")
PIN_32 = (123_953, 428, "0d9910264fb3e3bd")
# SHA-256 prefix of the greedy descent (k = n) over both comparison sets.
PIN_GREEDY = "87be5149362b9ffa"


class TestSearchTree:
    """Pinned node counts and witnesses of the DSATUR search: a change to
    its branching order (pick or colour order) or to its backjumping shows
    up here.  ``before`` is the count of the chronological search, which
    backjumping may only lower."""

    def check(self, g, k, nodes, before, result):
        assert nodes <= before
        assert search(g, k) == (nodes, result)

    def test_mycielski_m5_refutation(self):
        g = mycielski(3)
        assert g.n == 23
        self.check(g, 4, 591, 686, None)

    def test_mycielski_m6_refutation(self):
        g = mycielski(4)
        assert g.n == 47
        self.check(g, 5, 154_792, 240_499, None)

    def test_criterion_05_refutation(self):
        g, k = huang_gadget("c7", tuple(gadgets.all_three_var_clauses(3)))
        assert (g.n, k) == (65, 4)
        self.check(g, k, 2_124, 71_708, None)

    def test_huang_gadget_witnesses(self):
        g, k = huang_gadget("c7", ((-1, 2, 3), (1, 2, -3)))
        self.check(g, k, 20, 20, (
            0, 1, 0, 1, 0, 1, 0, 0, 0, 2, 3, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3,
            2, 3,
        ))
        g, k = huang_gadget("fig5", ((1, 2, 3), (-1, -2, -3)))
        self.check(g, k, 57, 371, (
            3, 4, 3, 4, 3, 4, 3, 3, 4, 2, 4, 0, 1, 0, 1, 2, 2, 1, 3, 0, 0,
            1, 2,
        ))

    def test_random_graph_witnesses(self):
        expected = {
            9: (5, 56, (
                4, 0, 3, 3, 2, 2, 0, 2, 0, 4, 4, 2, 0, 1, 4, 1, 2, 0, 2, 0,
                0, 3, 4, 2, 0, 1, 3, 1, 1, 4,
            )),
            3: (5, 38, (
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
            self.check(g, k, nodes, nodes, colours)
        # seed 1 at one colour fewer is a 220-node refutation
        g = random_graph(random.Random(1), 30, 0.3)
        self.check(g, 5, 220, 220, None)

    def assert_matches_chronological_search(self, seed, pin):
        """Compare with the search without backjumping on a comparison set:
        the witness (or None) must be the same, and backjumping may only
        skip nodes.

        ``pin`` is (total nodes, refutations, SHA-256 prefix of every
        search's node count and result in order): any change to a node
        count or a witness, refutations included, shows up here."""
        saved = nodes_total = refuted = 0
        digest = hashlib.sha256()
        for g, k, seed_clique in comparison_searches(seed):
            nodes, result = search(g, k, seed_clique=seed_clique)
            before, expected = search(
                g, k, chronological_kcol_search, seed_clique=seed_clique
            )
            assert result == expected, (g.adj, k, seed_clique)
            assert nodes <= before, (g.adj, k, seed_clique)
            saved += before - nodes
            nodes_total += nodes
            refuted += result is None
            digest.update(repr((nodes, result)).encode())
        assert saved > 0
        assert (nodes_total, refuted, digest.hexdigest()[:16]) == pin

    def test_backjumping_matches_chronological_search(self):
        self.assert_matches_chronological_search(31, PIN_31)

    def test_backjumping_matches_chronological_search_on_sparse_graphs(self):
        # larger sparse graphs are where jumps skip most often: a conflict
        # mask that misses a culprit changes some witness here
        self.assert_matches_chronological_search(32, PIN_32)

    def test_forced_picks_commute(self):
        # Forced colourings commute, as unit propagation does: the order
        # of the ties among forced and dead-end vertices moves only the
        # node where a wipe-out is found, never the chronological search's
        # result.  So _kcol_search takes them by lowest id, unscored.
        by_degree = functools.partial(
            chronological_kcol_search, forced_by_degree=True
        )
        moved = 0
        for seed in GRAPH_SETS:
            for g, k, seed_clique in comparison_searches(seed):
                nodes, result = search(
                    g, k, chronological_kcol_search, seed_clique=seed_clique
                )
                other = search(g, k, by_degree, seed_clique=seed_clique)
                assert other[1] == result, (g.adj, k, seed_clique)
                moved += other[0] != nodes
        assert moved > 0

    def test_greedy_upper_bound_is_unchanged(self):
        # k = n never fills the palette, so the greedy descent breaks every
        # tie by uncoloured degree, then lowest id; PIN_GREEDY was recorded
        # with that rule at every tie, so chromatic_number's upper bound
        # and the witnesses it returns stay put
        digest = hashlib.sha256()
        for seed in GRAPH_SETS:
            for g in comparison_graphs(seed):
                greedy = solvers._kcol_search(g, g.n, (), solvers._Deadline(None))
                digest.update(repr(greedy).encode())
        assert digest.hexdigest()[:16] == PIN_GREEDY

    def test_sewell_score_outranks_degree(self):
        # The K4 on 0..3 opens all four colours.  4 and 5 are adjacent and
        # both see colours 0 and 1, so they tie at saturation 2 with 2 and
        # 3 free.  4 has the higher uncoloured degree (5, 6, 7, 8 against
        # 4, 9, 10).  5 has the higher Sewell score, 6 against 5: 4, 9 and
        # 10 share both its free colours, while 6, 7 and 8 see colour 2 or
        # 3 and share one of 4's.
        edges = list(combinations(range(4), 2)) + [
            (4, 0), (4, 1), (5, 0), (5, 1), (4, 5),
            (4, 6), (4, 7), (4, 8), (6, 2), (7, 3), (8, 2),
            (5, 9), (5, 10),
        ]
        g = Graph.from_edges(11, edges)
        nbr = [g.adj[c] for c in range(4)]
        unc = 0b11111110000
        assert max_saturation(nbr, unc) == 0b110000
        assert (g.adj[4] & unc).bit_count() > (g.adj[5] & unc).bit_count()
        assert pick_dsatur(g.adj, nbr, unc, 4) == 5
        # 5 is coloured first and takes colour 2, which leaves 4 colour 3
        nodes, result = search(g, 4, seed_clique=(0, 1, 2, 3))
        assert result[4:6] == (3, 2)
        assert search(
            g, 4, chronological_kcol_search, seed_clique=(0, 1, 2, 3)
        ) == (nodes, result)


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

    def test_search_deeper_than_the_recursion_limit(self):
        # the greedy clique takes the star's centre, so the search descends
        # through all 1,100 vertices of the complete component
        g = disjoint_union(complete(1100), star(1500))
        assert max_clique(g) == (1100, tuple(range(1100)))


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
