import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

from cocolour import patterns, solvers, structure
from cocolour.graphs import (
    Graph,
    as_json,
    complete,
    cycle,
    disjoint_union,
    graph6_decode,
    path,
    random_graph,
    star,
)
from cocolour.structure import (
    CLASS_PATTERNS,
    _mcs_m,
    NotInClassError,
    colour_structured,
    compute_c5_partition,
    decompose_atoms,
    extend_colouring,
    find_clique_separator,
    in_class,
    has_clique_separator_brute,
    merge_atom_colourings,
    preprocess,
    sample_free_graphs,
    select_case,
    verify_structure_claims,
)


def maximal_atoms_brute(g):
    """Inclusion-maximal vertex sets inducing a connected subgraph without a
    clique separator, by exhaustive search over vertex subsets."""
    found = []
    for size in range(g.n, 0, -1):
        for vs in combinations(range(g.n), size):
            if any(set(vs) <= set(atom) for atom in found):
                continue
            if not has_clique_separator_brute(g.induced(vs)):
                found.append(vs)
    return set(found)


def relabel(g, perm):
    """Copy of g with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def textbook_mcs_m(g):
    """MCS-M as published (Berry, Blair, Heggernes and Peyton 2004), with
    the generators of MCS-M+: numbering v, an unnumbered u gains weight and
    a fill edge when a search from v through unnumbered vertices lighter
    than u reaches a neighbour of u.  Ties go to the lowest id."""
    weight = [0] * g.n
    unnumbered = set(range(g.n))
    h_adj = list(g.adj)
    order, generators = [], set()
    last = -1
    for _ in range(g.n):
        v = max(unnumbered, key=lambda u: (weight[u], -u))
        if weight[v] <= last:
            generators.add(v)
        last = weight[v]
        unnumbered.remove(v)
        gainers = []
        for u in unnumbered:
            seen, stack = {v}, [v]
            while stack:
                x = stack.pop()
                if g.has_edge(x, u):
                    gainers.append(u)
                    break
                for y in g.neighbours(x):
                    if y in unnumbered and y not in seen and weight[y] < weight[u]:
                        seen.add(y)
                        stack.append(y)
        for u in gainers:
            weight[u] += 1
            h_adj[u] |= 1 << v
            h_adj[v] |= 1 << u
        order.append(v)
    order.reverse()
    return order, h_adj, generators


def rescanning_preprocess_steps(g, part):
    """The preprocessing log as found by rescanning every remaining pair for
    the least false-twin pair after each removal."""
    steps = []
    remaining = set(range(g.n))
    big = part.get(1, 2, 3, 4, 5)
    for x in part.get():
        anchor = next((y for y in big if not g.has_edge(x, y)), None)
        if anchor is not None:
            steps.append(("independent", x, anchor))
            remaining.discard(x)
    on_cycle = set(part.cycle)
    while True:
        found = None
        rem = sorted(remaining)
        rem_mask = sum(1 << v for v in rem)
        for u, v in combinations(rem, 2):
            if g.has_edge(u, v):
                continue
            if g.adj[u] & rem_mask == g.adj[v] & rem_mask:
                found = (u, v)
                break
        if found is None:
            return tuple(steps)
        u, v = found
        removed = v if v not in on_cycle else u
        kept = u if removed == v else v
        steps.append(("twin", removed, kept))
        remaining.discard(removed)


def c5_plus(extras):
    """C5 on 0..4 plus extra vertices given as (cycle_positions, prev_links)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for idx, (positions, prev_links) in enumerate(extras):
        v = 5 + idx
        edges.extend((v, p - 1) for p in positions)
        edges.extend((v, 5 + j) for j in prev_links)
    return Graph.from_edges(5 + len(extras), edges)


def c5_blow_up(weights):
    """C5 with vertex i replaced by a clique of weights[i] vertices, complete
    to the cliques of i - 1 and i + 1 and anticomplete to the other two."""
    starts = [sum(weights[:i]) for i in range(5)]
    cliques = [range(s, s + w) for s, w in zip(starts, weights)]
    edges = [e for vs in cliques for e in combinations(vs, 2)]
    for i in range(5):
        edges += product(cliques[i], cliques[(i + 1) % 5])
    return Graph.from_edges(sum(weights), edges)


def c5_blow_up_chi(weights):
    """chi of a C5 blow-up: a colour class holds vertices of at most two
    non-consecutive cliques, so no fewer than max(w_i + w_{i+1}) and
    ceil(W / 2) colours are needed, and as many suffice."""
    pairs = max(weights[i] + weights[(i + 1) % 5] for i in range(5))
    return max(pairs, -(-sum(weights) // 2))


class TestCliqueSeparators:
    def test_known_graphs(self):
        assert find_clique_separator(path(4)) is not None
        assert find_clique_separator(cycle(5)) is None
        assert find_clique_separator(complete(4)) is None
        assert find_clique_separator(disjoint_union(path(2), path(2))) == ()

    def test_agrees_with_brute_force(self):
        rng = random.Random(50)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            fast = find_clique_separator(g) is not None
            assert fast == has_clique_separator_brute(g)

    def test_reported_separator_is_a_separating_clique(self):
        rng = random.Random(51)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randint(3, 10), rng.random())
            sep = find_clique_separator(g)
            if sep is None:
                continue
            checked += 1
            assert all(g.has_edge(u, v) for u, v in combinations(sep, 2))
            rest = sorted(set(range(g.n)) - set(sep))
            sub = g.induced(rest)
            # count components of the remainder
            seen, comps = set(), 0
            for s in range(sub.n):
                if s in seen:
                    continue
                comps += 1
                stack = [s]
                while stack:
                    v = stack.pop()
                    if v in seen:
                        continue
                    seen.add(v)
                    stack.extend(sub.neighbours(v))
            assert comps > 1


class TestDecomposition:
    def test_path_atoms_are_edges(self):
        dec = decompose_atoms(path(4))
        assert sorted(dec.atoms) == [(0, 1), (1, 2), (2, 3)]

    def test_long_star_and_path_atoms_are_edges(self):
        dec = decompose_atoms(star(2999))
        assert sorted(dec.atoms) == [(0, leaf) for leaf in range(1, 3000)]
        dec = decompose_atoms(path(3000))
        assert sorted(dec.atoms) == [(v, v + 1) for v in range(2999)]

    def test_atomless_graph_is_single_atom(self):
        dec = decompose_atoms(cycle(5))
        assert dec.atoms == ((0, 1, 2, 3, 4),)
        assert dec.separators == ()

    def test_atoms_have_no_clique_separator(self):
        rng = random.Random(52)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            dec = decompose_atoms(g)
            for vs in dec.atoms:
                assert not has_clique_separator_brute(g.induced(vs))

    def test_atoms_cover_all_vertices(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            dec = decompose_atoms(g)
            assert set().union(*map(set, dec.atoms)) == set(range(g.n))

    def test_atoms_match_brute_force_maximal_atoms(self):
        rng = random.Random(59)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            dec = decompose_atoms(g)
            assert set(dec.atoms) == maximal_atoms_brute(g)
            # distinct, non-nested, and each separator is the clique where
            # an atom meets the atoms after it
            atoms = [set(vs) for vs in dec.atoms]
            for a, b in combinations(atoms, 2):
                assert not a <= b and not b <= a
            assert len(dec.separators) == len(atoms) - 1
            for i, sep in enumerate(dec.separators):
                assert set(sep) == atoms[i] & set().union(*atoms[i + 1:])
                assert all(g.has_edge(u, v) for u, v in combinations(sep, 2))

    def test_merge_reproduces_chi(self):
        rng = random.Random(54)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            dec = decompose_atoms(g)
            cols = [
                solvers.chromatic_number(g.induced(vs))[1] for vs in dec.atoms
            ]
            merged = merge_atom_colourings(g, dec, cols)
            assert solvers.validate_colouring(g, merged)
            assert merged.k == solvers.chromatic_number(g)[0]

    def test_merge_with_repeated_atoms(self):
        # a recursive split once reported (8, 10) three times here, and
        # inside (8, 9, 10) as well; each atom now comes exactly once
        g = graph6_decode("N???????HL_????????")
        dec = decompose_atoms(g)
        assert sorted(dec.atoms) == sorted([
            (0,), (1,), (3,), (4,), (7,), (2, 10), (5, 10), (6, 10),
            (8, 9, 10), (11,), (12,), (13,), (14,),
        ])
        col, report = colour_structured(g)
        assert solvers.validate_colouring(g, col)
        assert report.chi == col.k == solvers.chromatic_number(g)[0]

    def test_merge_rejects_improper_input(self):
        g = path(3)
        dec = decompose_atoms(g)
        bad = [
            solvers.Colouring((0,) * len(vs), 1) for vs in dec.atoms
        ]
        with pytest.raises(ValueError):
            merge_atom_colourings(g, dec, bad)
        with pytest.raises(ValueError):
            merge_atom_colourings(g, dec, [])


class TestMcsM:
    def test_triangulation_is_chordal_and_minimal(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(60)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            _order, h_adj, _generators = _mcs_m(g)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if (h_adj[u] >> v) & 1
            )
            assert all(h.has_edge(u, v) for u, v in g.edges())
            assert nx.is_chordal(h)
            # Rose-Tarjan-Lueker: a triangulation is minimal iff removing
            # any single fill edge leaves a non-chordal graph
            for u, v in [e for e in h.edges() if not g.has_edge(*e)]:
                h.remove_edge(u, v)
                assert not nx.is_chordal(h)
                h.add_edge(u, v)


    def test_matches_textbook_mcs_m(self):
        rng = random.Random(61)
        graphs_in = [
            random_graph(rng, rng.randint(0, 14), rng.random())
            for _ in range(300)
        ]
        graphs_in += sample_free_graphs(40, seed=62, n_min=8, n_max=16)
        for g in graphs_in:
            assert _mcs_m(g) == textbook_mcs_m(g)


class TestC5Partition:
    def test_rejects_non_c5(self):
        with pytest.raises(ValueError):
            compute_c5_partition(cycle(6), (0, 1, 2, 3, 4))
        with pytest.raises(ValueError):
            compute_c5_partition(cycle(5), (0, 1, 2, 4, 3))
        with pytest.raises(ValueError):
            compute_c5_partition(cycle(5), (0, 1, 2, 3, 3))

    def test_classifies_by_cycle_neighbourhood(self):
        g = c5_plus([
            (set(), []),
            ({1, 3}, []),
            ({1, 2, 3, 4, 5}, []),
        ])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        assert part.get() == (5,)
        assert part.get(1, 3) == (6,)
        assert part.get(1, 2, 3, 4, 5) == (7,)
        assert part.get(2, 4) == ()

    def test_indices_wrap_modulo_five(self):
        g = c5_plus([({5, 2}, [])])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        assert part.get(5, 7) == (5,)
        assert part.get(0, 2) == (5,)

    def test_large_threshold(self):
        g = c5_plus([({1, 3}, []), ({1, 3}, []), ({1, 3}, [])])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        assert part.is_large(1, 3)
        assert not part.is_large(2, 4)


class TestClaims:
    def test_bare_cycle_satisfies_everything(self):
        g = cycle(5)
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        verdicts = verify_structure_claims(g, part)
        assert set(verdicts) == {
            "01", "02", "03", "04", "05", "06", "08", "09", "10",
            "11", "12", "13", "14", "15", "16", "17",
        }
        assert all(v.holds for v in verdicts.values())

    def test_violations_carry_witnesses(self):
        # two adjacent no-neighbour vertices violate the independence claim
        g = c5_plus([(set(), []), (set(), [0])])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        verdicts = verify_structure_claims(g, part)
        assert not verdicts["01"].holds
        x, y = verdicts["01"].witness
        assert g.has_edge(x, y)

    def test_shared_class_witness_is_least_two(self):
        # each group lists the vertex 6 of the smaller class before vertex 5
        for extras, key in (
            ([({1, 2}, []), ({1}, [])], "02"),
            ([({1, 3, 4}, []), ({1, 2, 3, 4}, [])], "05"),
        ):
            g = c5_plus(extras)
            part = compute_c5_partition(g, (0, 1, 2, 3, 4))
            assert verify_structure_claims(g, part)[key].witness == (5, 6)

    def test_matching_claim(self):
        g = c5_plus([({1, 3}, []), (set(), [0]), (set(), [0])])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        assert not verify_structure_claims(g, part)["12"].holds

    def test_claims_hold_on_sampled_class_members(self):
        for g in sample_free_graphs(25, seed=55, n_min=5, n_max=11):
            c5 = patterns.find_induced_c5(g)
            if c5 is None or find_clique_separator(g) is not None:
                continue
            part = compute_c5_partition(g, c5)
            reduced, log = preprocess(g, part)
            pos = {v: i for i, v in enumerate(log.kept)}
            rpart = compute_c5_partition(reduced, tuple(pos[v] for v in c5))
            verdicts = verify_structure_claims(reduced, rpart)
            bad = {k: v for k, v in verdicts.items() if not v.holds}
            assert not bad, bad


class TestPreprocess:
    def test_colour_structured_passes_only_atoms(self, monkeypatch):
        # preprocess does not check that its input is an atom; its one
        # caller must only ever hand it atoms
        inputs = []

        def recording(g, part):
            inputs.append(g)
            return preprocess(g, part)

        monkeypatch.setattr(structure, "preprocess", recording)
        for g in sample_free_graphs(300, seed=61, n_min=8, n_max=16):
            colour_structured(g, explain=True)
        assert len(inputs) >= 10
        for g in inputs:
            if g.n <= 14:
                assert not has_clique_separator_brute(g)

    def test_removes_dominated_no_neighbour_vertex(self):
        # vertex 8 sees nothing on the cycle, leans on two spread-out
        # supports, and misses the full-neighbourhood vertex 5
        g = c5_plus(
            [({1, 2, 3, 4, 5}, []), ({1, 3}, []), ({2, 4}, []), (set(), [1, 2])]
        )
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        reduced, log = preprocess(g, part)
        assert ("independent", 8, 5) in log.steps
        assert 8 not in log.kept

    def test_removes_false_twins(self):
        # vertices 5 and 6 both see exactly {0, 2}, as does cycle vertex 1;
        # the twin sweep collapses all three onto the cycle vertex
        g = c5_plus([({1, 3}, []), ({1, 3}, [])])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        reduced, log = preprocess(g, part)
        assert reduced.n == 5
        assert log.steps == (("twin", 5, 1), ("twin", 6, 1))

    def test_twin_removal_prefers_off_cycle_vertex(self):
        # vertex 5 duplicates cycle vertex 0's neighbourhood
        g = c5_plus([({2, 5}, [])])
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        reduced, log = preprocess(g, part)
        assert log.steps == (("twin", 5, 0),)
        assert set(log.kept) == {0, 1, 2, 3, 4}

    def test_cycle_vertex_not_least_of_its_twin_class(self):
        # twin classes {1, 5, 6} and {3, 7, 8} around cycle vertices 1 and
        # 3, relabelled so that each cycle vertex is the largest of its
        # class and the classes interleave
        g = c5_plus([({1, 3}, []), ({1, 3}, []), ({3, 5}, []), ({3, 5}, [])])
        perm = [0, 7, 3, 8, 4, 1, 5, 2, 6]
        g = relabel(g, perm)
        assert not has_clique_separator_brute(g)
        c5 = tuple(perm[:5])
        part = compute_c5_partition(g, c5)
        reduced, log = preprocess(g, part)
        assert log.steps == rescanning_preprocess_steps(g, part)
        assert log.steps == (
            ("twin", 5, 1), ("twin", 1, 7), ("twin", 6, 2), ("twin", 2, 8),
        )
        assert log.kept == tuple(sorted(c5))

    def test_twin_steps_match_rescanning_loop(self):
        rng = random.Random(63)
        checked = twins = 0
        for _ in range(200):
            extras = [
                (
                    {p for p in range(1, 6) if rng.random() < 0.5},
                    [j for j in range(i) if rng.random() < 0.3],
                )
                for i in range(rng.randint(0, 5))
            ]
            g = c5_plus(extras)
            # false-twin copies of random vertices
            adj = list(g.adj)
            for _ in range(rng.randint(0, 4)):
                x = rng.randrange(len(adj))
                new = len(adj)
                adj.append(adj[x])
                for y in range(new):
                    if (adj[x] >> y) & 1:
                        adj[y] |= 1 << new
            g = Graph(len(adj), tuple(adj))
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = relabel(g, perm)
            if find_clique_separator(g) is not None:
                continue
            checked += 1
            c5 = patterns.find_induced_c5(g)
            part = compute_c5_partition(g, c5)
            _reduced, log = preprocess(g, part)
            assert log.steps == rescanning_preprocess_steps(g, part)
            twins += sum(kind == "twin" for kind, _, _ in log.steps)
        assert checked >= 100 and twins >= 200

    def test_chi_preserved_stepwise_and_extension_proper(self):
        for g in sample_free_graphs(30, seed=56, n_min=5, n_max=11):
            c5 = patterns.find_induced_c5(g)
            if c5 is None or find_clique_separator(g) is not None:
                continue
            part = compute_c5_partition(g, c5)
            reduced, log = preprocess(g, part)
            chi = solvers.chromatic_number(g)[0]
            remaining = set(range(g.n))
            for _, removed, _ in log.steps:
                remaining.discard(removed)
                assert (
                    solvers.chromatic_number(g.induced(sorted(remaining)))[0]
                    == chi
                )
            _, col = solvers.chromatic_number(reduced)
            lifted = extend_colouring(g, log, col)
            assert solvers.validate_colouring(g, lifted)
            assert lifted.k == chi


class TestCaseSelection:
    def test_no_large_sets_is_case3(self):
        part = compute_c5_partition(cycle(5), (0, 1, 2, 3, 4))
        case, complemented = select_case(cycle(5), part)
        assert case == "case3"
        assert not complemented

    def test_all_five_large_is_case1(self):
        extras = [({i, (i + 2 - 1) % 5 + 1}, []) for i in range(1, 6) for _ in range(3)]
        g = c5_plus(extras)
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        case, _ = select_case(g, part)
        assert case == "case1"

    def test_three_consecutive_large_is_case2(self):
        extras = []
        for i in (1, 2, 3):
            extras.extend([({i, i + 2}, [])] * 3)
        g = c5_plus(extras)
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        case, _ = select_case(g, part)
        assert case == "case2"

    def test_split_pattern_is_case4(self):
        extras = []
        for i, j in ((1, 3), (2, 4), (4, 1)):
            extras.extend([({i, j}, [])] * 3)
        g = c5_plus(extras)
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        case, _ = select_case(g, part)
        assert case == "case4a"

    def test_case4b_needs_mixed_neighbourhoods(self):
        extras = []
        for i, j in ((1, 3), (2, 4)):
            extras.extend([({i, j}, [])] * 3)
        # the (4,1) set: one vertex adjacent into both large sets
        extras.append(({4, 1}, [0, 3]))
        extras.extend([({4, 1}, [])] * 2)
        g = c5_plus(extras)
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        case, _ = select_case(g, part)
        assert case == "case4b"

    def test_large_triple_set_flips_to_complement_view(self):
        extras = [({1, 2, 3}, [j for j in range(k)]) for k in range(3)]
        g = c5_plus(extras)
        part = compute_c5_partition(g, (0, 1, 2, 3, 4))
        case, complemented = select_case(g, part)
        assert complemented


class TestC5BlowUps:
    def test_every_weight_vector_up_to_four_selects_a_case(self):
        # each blow-up is one atom; its case is that of the reduced
        # partition, and select_case must cover every large-set pattern
        cases = Counter()
        for weights in product(range(1, 5), repeat=5):
            g = c5_blow_up(weights)
            cases[structure.explain_atom(g, tuple(range(g.n)))["case"]] += 1
        assert cases == {"case3": 918, "case2": 60, "case4a": 45, "case1": 1}

    def test_chi_matches_the_closed_form(self):
        for weights in product(range(1, 4), repeat=5):
            g = c5_blow_up(weights)
            col, report = colour_structured(g, explain=True)
            assert solvers.validate_colouring(g, col)
            assert col.k == report.chi == c5_blow_up_chi(weights), weights
            (atom,) = report.atom_reports
            assert atom.vertices == tuple(range(g.n)) and atom.case != "perfect"

    def test_explanations_as_pinned(self):
        # the whole explanation, not only its case: every claim witness,
        # preprocessing step and note, on the blow-ups (their weight-4
        # cliques flip to the complement view) and on sampled members
        blow_ups = hashlib.sha256()
        for weights in product(range(1, 5), repeat=5):
            g = c5_blow_up(weights)
            why = structure.explain_atom(g, tuple(range(g.n)))
            blow_ups.update(json.dumps(as_json(why)).encode())
        members = hashlib.sha256()
        for g in sample_free_graphs(400, seed=65, n_min=7, n_max=16):
            col, report = colour_structured(g, explain=True)
            members.update(json.dumps(report.to_json()).encode())
            members.update(repr(col).encode())
        assert blow_ups.hexdigest()[:16] == "f38f08d5aec13105"
        assert members.hexdigest()[:16] == "1782473c48dcebad"


class TestColourStructured:
    def test_rejects_graphs_outside_the_class(self):
        bad = disjoint_union(path(2), path(3))
        with pytest.raises(NotInClassError) as err:
            colour_structured(bad)
        assert err.value.witness.embedding is not None

    def test_empty_and_tiny_graphs(self):
        col, report = colour_structured(Graph.empty(0))
        assert col.k == 0 and report.chi == 0
        col, report = colour_structured(Graph.empty(3))
        assert col.k == 1

    def test_report_is_a_hashable_record(self):
        _, report = colour_structured(cycle(5))
        same = structure.StructureReport(3, (structure.AtomReport((0, 1, 2, 3, 4), 3),))
        assert report == same and hash(report) == hash(same)

    def test_matches_exact_solver_on_samples(self):
        for g in sample_free_graphs(40, seed=57, n_min=4, n_max=12):
            col, report = colour_structured(g)
            assert solvers.validate_colouring(g, col)
            assert col.k == report.chi == solvers.chromatic_number(g)[0]

    def test_matches_exact_solver_on_larger_samples(self):
        samples = sample_free_graphs(20, seed=1, n_min=12, n_max=16)
        samples += sample_free_graphs(15, seed=2, n_min=14, n_max=18)
        for g in samples:
            col, report = colour_structured(g)
            assert solvers.validate_colouring(g, col)
            assert col.k == report.chi == solvers.chromatic_number(g)[0]
            for vs in decompose_atoms(g).atoms:
                if len(vs) <= 14:
                    assert not has_clique_separator_brute(g.induced(vs))

    def test_report_shape(self):
        g = cycle(5)
        col, report = colour_structured(g, explain=True)
        data = report.to_json()
        assert data["chi"] == 3
        (atom,) = data["atoms"]
        assert atom["cycle"] == [0, 1, 2, 3, 4]
        assert atom["case"].startswith("case")
        assert all(c["holds"] for c in atom["claims"].values())
        assert atom["preprocessing"] == []

    def test_claims_only_under_explain(self, monkeypatch):
        calls = []
        verify = structure.verify_structure_claims

        def counting(g, part):
            calls.append(g.n)
            return verify(g, part)

        monkeypatch.setattr(structure, "verify_structure_claims", counting)
        lean_keys = {"vertices", "chi"}
        explained_keys = {"case", "cycle", "complemented_view", "notes"}
        explained = 0
        for g in sample_free_graphs(40, seed=63, n_min=6, n_max=14) + [cycle(5)]:
            col, report = colour_structured(g)
            assert not calls
            col_x, report_x = colour_structured(g, explain=True)
            explained += len(calls)
            calls.clear()
            assert col == col_x
            lean, full = report.to_json(), report_x.to_json()
            assert lean.keys() == full.keys() == {"chi", "atoms"}
            assert len(lean["atoms"]) == len(full["atoms"])
            for atom, atom_x in zip(lean["atoms"], full["atoms"]):
                assert atom.keys() == lean_keys
                assert atom_x.keys() == lean_keys | explained_keys | {
                    "claims", "preprocessing"
                }
                assert atom == {k: atom_x[k] for k in lean_keys}
        assert explained > 0

    def test_default_path_runs_no_case_analysis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("case analysis on the default path")

        for module, name in (
            (patterns, "find_induced_c5"),
            (patterns, "is_perfect_small"),
            (structure, "compute_c5_partition"),
            (structure, "preprocess"),
            (structure, "select_case"),
            (structure, "extend_colouring"),
        ):
            monkeypatch.setattr(module, name, refuse)
        members = sample_free_graphs(40, seed=63, n_min=6, n_max=14) + [cycle(5)]
        members += [c5_blow_up(w) for w in product((1, 2), repeat=5)]
        for g in members:
            col, report = colour_structured(g)
            assert solvers.validate_colouring(g, col)
            assert col.k == report.chi == solvers.chromatic_number(g)[0]

    def test_perfect_branch(self):
        g = cycle(4)  # inside the class, no C5 anywhere
        col, report = colour_structured(g, explain=True)
        assert report.chi == 2
        assert all(rep.case == "perfect" for rep in report.atom_reports)
        col, report = colour_structured(complete(5))
        assert report.chi == 5

    def test_budget_covers_the_whole_call(self, monkeypatch):
        budgets = []
        solve = solvers.chromatic_number

        def slow(g, budget=None):
            time.sleep(0.01)
            budgets.append(budget)
            return solve(g, budget)

        monkeypatch.setattr(solvers, "chromatic_number", slow)
        # members with four atoms, one with a C5 and three cliques, and with
        # two C5-free atoms; only the atoms that are not cliques are solved
        for text, solves in (("G@?OoW", 1), ("N~|zz~|~|r~~}~~~~~w", 2)):
            g = graph6_decode(text)
            budgets.clear()
            col, report = colour_structured(g, budget=5.0)
            assert report.chi == solve(g)[0]
            assert len(budgets) == solves
            for i, budget in enumerate(budgets):
                assert budget <= 5.0 - 0.01 * i

    def test_clique_atoms_report_what_chromatic_number_gives(self):
        # a clique atom is not solved: its chi and colouring 0..|atom|-1
        # must be those of the solved path, and its note says "clique"
        members = sample_free_graphs(40, seed=61, n_min=8, n_max=16)
        cliques = chordal = 0
        for g in members + [complete(16)]:
            dec = decompose_atoms(g)
            col, report = colour_structured(g, explain=True)
            assert col.k == report.chi == solvers.chromatic_number(g)[0]
            solved = []
            for vs, rep in zip(dec.atoms, report.atom_reports):
                if not solvers.validate_clique(g, vs):
                    continue
                cliques += 1
                chi, atom_col = solvers.chromatic_number(g.induced(vs))
                solved.append(atom_col)
                assert (rep.case, rep.chi) == ("perfect", chi)
                assert rep.notes == ("clique",)
            if len(solved) == len(dec.atoms):
                # every atom a clique: the whole colouring is the solved one
                chordal += 1
                assert col == merge_atom_colourings(g, dec, solved)
        assert cliques > 100 and chordal > 10

    def test_class_patterns_are_complementary(self):
        assert patterns.is_isomorphic(
            CLASS_PATTERNS[0].complement(), CLASS_PATTERNS[1]
        )


class TestInClass:
    def test_agrees_with_the_matcher(self):
        rng = random.Random(64)
        densities = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98)
        hosts = [
            random_graph(rng, 5 + i % 36, densities[i % len(densities)])
            for i in range(160)
        ]
        hosts += sample_free_graphs(40, seed=64, n_min=4, n_max=16)
        hosts += [g.complement() for g in hosts]
        verdicts = []
        for g in hosts:
            verdict = in_class(g)
            assert verdict == patterns.is_free(g, CLASS_PATTERNS).free, g
            verdicts.append(verdict)
        assert len(hosts) >= 300
        assert 100 <= sum(verdicts) <= len(hosts) - 100

    def test_work_stays_linear_on_sparse_non_members(self, monkeypatch):
        # 1,000 K2 components and then a P2+P3: the first edge fails, so
        # only its two ends' non-neighbourhoods and its own are tested,
        # and the complement is never built
        n = 2005
        edges = [(v, v + 1) for v in range(0, n - 5, 2)]
        edges += [(n - 5, n - 4), (n - 3, n - 2), (n - 2, n - 1)]
        g = Graph.from_edges(n, edges)
        tests = []
        disjoint_cliques = structure._disjoint_cliques

        def counting(closed, vs):
            tests.append(vs)
            return disjoint_cliques(closed, vs)

        def no_complement(self):
            raise AssertionError("the complement was built")

        monkeypatch.setattr(structure, "_disjoint_cliques", counting)
        monkeypatch.setattr(Graph, "complement", no_complement)
        assert not in_class(g)
        assert len(tests) == 3
        assert in_class(Graph.empty(n)) and in_class(complete(60))

    def test_non_members_keep_the_matcher_witness(self):
        rng = random.Random(65)
        rejected = 0
        for i in range(40):
            g = random_graph(rng, 6 + i % 10, 0.5)
            witness = patterns.is_free(g, CLASS_PATTERNS)
            if witness.free:
                continue
            rejected += 1
            with pytest.raises(NotInClassError) as err:
                colour_structured(g)
            assert err.value.witness == witness
        assert rejected >= 20


class TestSampling:
    def test_reproducible_and_in_class(self):
        a = sample_free_graphs(10, seed=58)
        b = sample_free_graphs(10, seed=58)
        assert a == b
        for g in a:
            assert patterns.is_free(g, CLASS_PATTERNS).free
