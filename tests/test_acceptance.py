"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each test prints a single
summary line (visible with -s or on failure) in addition to its verdict.
"""

import random
from itertools import combinations, permutations, product

import pytest

from cocolour import classify, gadgets, patterns, solvers, structure
from cocolour.cli import parse_pattern
from cocolour.graphs import Graph, components, cycle, disjoint_union, path, star


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


FIG3 = gadgets.X3CInstance(
    q=3,
    k=6,
    triples=tuple(
        tuple(sorted(x - 1 for x in t))
        for t in [
            (1, 2, 3),
            (2, 3, 4),
            (3, 4, 7),
            (4, 5, 6),
            (6, 7, 8),
            (7, 8, 9),
        ]
    ),
)


def test_criterion_01_x3c_reduction_equivalence():
    rng = random.Random(101)
    agree = 0
    total = 220
    for _ in range(total):
        q = rng.randint(1, 3)
        k = rng.randint(q, 7)
        inst = gadgets.random_x3c_instance(rng, q, k)
        g = gadgets.build_x3c_gadget(inst).graph
        cover_k, cover = solvers.clique_cover_number(g)
        assert solvers.validate_clique_cover(g, cover)
        has_cover = solvers.solve_x3c_brute(inst) is not None
        if (cover_k <= k) == has_cover:
            agree += 1
    report(1, agree == total, f"{agree}/{total} instances agree")


def test_criterion_02_x3c_gadget_freeness():
    rng = random.Random(102)
    instances = [FIG3]
    for _ in range(110):
        q = rng.randint(1, 3)
        instances.append(gadgets.random_x3c_instance(rng, q, rng.randint(q, 7)))
    passed = 0
    for inst in instances:
        rep = gadgets.verify_x3c_gadget(gadgets.build_x3c_gadget(inst))
        free_checks = [c for c in rep.checks if c.name.startswith("free-of-")]
        assert len(free_checks) == 6
        if all(c.ok for c in free_checks) and rep.ok:
            passed += 1
    report(2, passed == len(instances), f"{passed}/{len(instances)} gadgets free")


def test_criterion_03_huang_equivalence():
    cat = gadgets.catalog_nice()
    instances = gadgets.sat_instances_up_to(3, 2)
    checked = 0
    for nc in cat.values():
        for sat in instances:
            g = gadgets.build_huang_gadget(nc, sat).graph
            colourable = solvers.is_k_colourable(g, nc.k + 1) is not None
            satisfiable = solvers.solve_sat_brute(sat) is not None
            assert colourable == satisfiable, (nc.k, sat.clauses)
            checked += 1
    report(3, checked == 2 * len(instances), f"{checked} gadget solves agree")


def test_criterion_04_huang_freeness_desk_scale():
    cat = gadgets.catalog_nice()
    failures = []
    # every 3-distinct-literal clause over 2 variables
    lits2 = (1, -1, 2, -2)
    sats_c7 = [
        gadgets.SatInstance(n=2, clauses=(c,))
        for c in combinations(lits2, 3)
    ]
    for sat in sats_c7:
        g = gadgets.build_huang_gadget(cat["c7"], sat).graph
        w = patterns.is_free(g, [parse_pattern("P7"), parse_pattern("co(P8)")])
        if not w.free:
            failures.append(("c7", sat.clauses))
    sats_fig5 = [
        gadgets.SatInstance(n=3, clauses=(c,))
        for c in gadgets.all_three_var_clauses(3)
    ]
    for sat in sats_fig5:
        g = gadgets.build_huang_gadget(cat["fig5"], sat).graph
        w = patterns.is_free(
            g, [parse_pattern("P6"), parse_pattern("co(P1+P6)")]
        )
        if not w.free:
            failures.append(("fig5", sat.clauses))
    total = len(sats_c7) + len(sats_fig5)
    report(4, not failures, f"{total - len(failures)}/{total} gadgets free")


def test_criterion_05_unsat_witness_with_budget():
    clauses = tuple(gadgets.all_three_var_clauses(3))
    assert len(clauses) == 8
    sat = gadgets.SatInstance(n=3, clauses=clauses)
    assert solvers.solve_sat_brute(sat) is None
    g = gadgets.build_huang_gadget(gadgets.catalog_nice()["c7"], sat).graph
    assert g.n == 65
    try:
        col = solvers.is_k_colourable(g, 4, budget=600.0)
    except solvers.BudgetExceededError:
        print("criterion 05: SKIP (600 s budget exceeded before a verdict)")
        pytest.skip("budget exceeded; reported skip per the criterion")
    report(5, col is None, "65-vertex gadget refuted at k=4")


def test_criterion_06_dichotomy_conformance():
    poly = [
        star(3),
        disjoint_union(path(1), path(4)),
        disjoint_union(path(1), path(1), path(3)),
        disjoint_union(path(2), path(3)),
        path(5),
    ]
    for s in range(5):
        poly.append(disjoint_union(*([path(1)] * s + [path(2)])))
    npc = [disjoint_union(path(1), path(2), path(2)), path(6)]
    open_cases = [
        disjoint_union(path(1), path(1), path(1), path(3)),
        disjoint_union(path(1), path(1), path(4)),
    ]
    wrong = []
    for h in poly:
        if classify.classify_h_coh(h).verdict != "Poly":
            wrong.append(("Poly", h))
    for h in npc:
        if classify.classify_h_coh(h).verdict != "NPComplete":
            wrong.append(("NPComplete", h))
    for h in open_cases:
        if classify.classify_h_coh(h).verdict != "Open":
            wrong.append(("Open", h))
    total = len(poly) + len(npc) + len(open_cases)
    report(6, not wrong, f"{total - len(wrong)}/{total} named verdicts match")


def test_criterion_07_k_t_table_conformance():
    table = {
        (3, 5): "Poly", (3, 6): "Poly", (3, 7): "Poly", (3, 8): "Open",
        (4, 5): "Poly", (4, 6): "Open", (4, 7): "Open", (4, 8): "NPComplete",
        (5, 5): "Poly", (5, 6): "Open", (5, 7): "Open", (5, 8): "NPComplete",
    }
    wrong = [
        (k, t)
        for (k, t), verdict in table.items()
        if classify.classify_k_col_pt(k, t).verdict != verdict
    ]
    report(7, not wrong, f"{12 - len(wrong)}/12 table cells match")


def _self_comp_oracle_count(n):
    """Permutation-based oracle, independent of the library's matcher."""
    pairs = list(combinations(range(n), 2))
    reps = []

    def iso(g1, g2):
        return any(
            all(
                g1.has_edge(u, v) == g2.has_edge(p[u], p[v])
                for u, v in pairs
            )
            for p in permutations(range(n))
        )

    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        )
        if not iso(g, g.complement()):
            continue
        if any(iso(g, r) for r in reps):
            continue
        reps.append(g)
    return len(reps)


def test_criterion_08_self_complementary_enumeration():
    counts = [len(patterns.enumerate_self_complementary(n)) for n in range(1, 8)]
    ok = counts == [1, 0, 0, 1, 2, 0, 0]
    # parity forces emptiness when the total pair count is odd
    for n in (2, 3, 6, 7):
        ok = ok and (n * (n - 1) // 2) % 2 == 1
    for n in (1, 4, 5):
        ok = ok and counts[n - 1] == _self_comp_oracle_count(n)
    for g in patterns.enumerate_self_complementary(5):
        ok = ok and g.edge_count != g.n - len(components(g))  # has a cycle
    report(8, ok, f"counts n=1..7 are {tuple(counts)}")


def test_criterion_09_structure_pipeline_oracle_equivalence():
    graphs = structure.sample_free_graphs(100, seed=109, n_min=4, n_max=12)
    bad = []
    for g in graphs:
        col, rep = structure.colour_structured(g, explain=True)
        chi = solvers.chromatic_number(g)[0]
        if not (col.k == rep.chi == chi and solvers.validate_colouring(g, col)):
            bad.append(("chi", g))
            continue
        for atom_rep in rep.atom_reports:
            for key, verdict in (atom_rep.claims or {}).items():
                if not verdict.holds:
                    bad.append((f"claim {key}", g))
            # every preprocessing removal preserves chi
            ga = g.induced(atom_rep.vertices)
            chi_atom = solvers.chromatic_number(ga)[0]
            remaining = set(range(ga.n))
            for _, removed, _ in atom_rep.preprocessing:
                remaining.discard(removed)
                step_chi = solvers.chromatic_number(
                    ga.induced(sorted(remaining))
                )[0]
                if step_chi != chi_atom:
                    bad.append(("preprocess step", g))
    report(9, not bad, f"{len(graphs) - len(bad)}/{len(graphs)} graphs agree")


# claim id -> list of violating configurations around a planted C5; each
# extra vertex is (cycle positions seen, links to earlier extras)
_VIOLATIONS = {
    "01": [[(set(), []), (set(), [0])]],
    "02": [
        [({1}, []), ({1}, [0])],
        [({1}, []), ({1}, [])],
        [({1}, []), ({1, 2}, [0])],
        [({1}, []), ({1, 2}, [])],
        [({1, 2}, []), ({1, 2}, [0])],
        [({1, 2}, []), ({1, 2}, [])],
    ],
    "03": [[({1, 3}, []), ({1, 3}, [0])]],
    "04": [[({1, 2, 3, 4, 5}, []), ({1, 2, 3, 4, 5}, [])]],
    "05": [
        [({1, 2, 3, 4}, []), ({1, 2, 3, 4}, [0])],
        [({1, 2, 3, 4}, []), ({1, 2, 3, 4}, [])],
        [({1, 2, 3, 4}, []), ({1, 2, 4}, [0])],
        [({1, 2, 3, 4}, []), ({1, 2, 4}, [])],
        [({1, 2, 3, 4}, []), ({1, 3, 4}, [0])],
        [({1, 2, 3, 4}, []), ({1, 3, 4}, [])],
    ],
    "06": [[({1, 2, 3}, []), ({1, 2, 3}, [])]],
    "09": [
        [({1, 3}, []), ({1, 3}, []), ({1, 3}, []),
         ({2, 3, 4}, []), ({2, 3, 4}, [3]), ({2, 3, 4}, [3, 4])],
    ],
    "10": [[({1, 3}, []), ({1, 2, 3, 4, 5}, [])]],
    "12": [
        [({1, 3}, []), (set(), [0]), (set(), [0])],
        [({1, 3}, []), ({1, 3}, []), (set(), [0, 1])],
    ],
    "13": [[({1, 3}, []), (set(), [0]), ({2, 4}, [])]],
    "15": [
        [({1, 3}, []), ({2, 4}, []), ({2, 4}, [])],
        [({1, 3}, []), ({1, 3}, []), ({2, 4}, [])],
    ],
    "16": [[({1, 3}, []), ({2, 4}, [0]), ({4, 1}, [0, 1])]],
    "17": [
        [({1, 3}, []), ({1, 3}, []), ({1, 3}, []),
         ({5, 2}, []), ({2, 4}, [3])],
    ],
}


# The failing claims and their witnesses for each configuration above, built
# with rotation 3, two isolated and two universal vertices.
_WITNESSES = {
    "01": [{"01": (5, 6)}],
    "02": [{"02": (5, 6)}] * 6,
    "03": [{"03": (5, 6)}],
    "04": [{"04": (5, 6), "08": (7, 5)}],
    "05": [{"05": (5, 6)}] * 6,
    "06": [{"06": (5, 6)}],
    "09": [{"09": ((1, 4), (1, 2, 5))}],
    "10": [{"08": (7, 6), "10": (5, 6)}],
    "12": [{"12": (5,)}, {"12": (7,)}],
    "13": [{"13": (5, 6, 7)}],
    "15": [{"15": (5,)}, {"15": (7,)}],
    "16": [{"16": (5, 6, 7)}],
    "17": [{"15": (8,), "17": (8, 9)}],
}


def _build_violation(extras, rotation, isolated, universal):
    edges = [(i, (i + 1) % 5) for i in range(5)]
    n = 5
    for positions, links in extras:
        v = n
        n += 1
        for p in positions:
            edges.append((v, (p - 1 + rotation) % 5))
        edges.extend((v, 5 + j) for j in links)
    for _ in range(isolated):
        n += 1
    for _ in range(universal):
        v = n
        n += 1
        edges.extend((v, u) for u in range(v))
    return Graph.from_edges(n, edges)


def test_criterion_10_claim_contrapositives():
    rng = random.Random(110)
    bad = []
    per_claim = 50
    for key, variants in _VIOLATIONS.items():
        for _ in range(per_claim):
            extras = rng.choice(variants)
            g = _build_violation(
                extras,
                rotation=rng.randrange(5),
                isolated=rng.randrange(3),
                universal=rng.randrange(3),
            )
            part = structure.compute_c5_partition(g, (0, 1, 2, 3, 4))
            verdicts = structure.verify_structure_claims(g, part)
            if verdicts[key].holds:
                bad.append((key, "claim unexpectedly holds"))
                continue
            if patterns.is_free(g, structure.CLASS_PATTERNS).free:
                bad.append((key, "no forbidden pattern"))
    total = per_claim * len(_VIOLATIONS)
    report(10, not bad, f"{total - len(bad)}/{total} mutants contain a pattern")


def test_criterion_10_claim_witnesses():
    bad = []
    total = 0
    for key, variants in _VIOLATIONS.items():
        for extras, want in zip(variants, _WITNESSES[key], strict=True):
            total += 1
            g = _build_violation(extras, rotation=3, isolated=2, universal=2)
            part = structure.compute_c5_partition(g, (0, 1, 2, 3, 4))
            verdicts = structure.verify_structure_claims(g, part)
            got = {k: v.witness for k, v in verdicts.items() if not v.holds}
            if got != want:
                bad.append((key, extras, got))
    report(10, not bad, f"{total - len(bad)}/{total} witnesses as pinned")


def _all_graphs_up_to_7():
    """All graphs on 0..7 vertices up to isomorphism, by vertex extension."""
    reps = [Graph.empty(1)]
    out = [Graph.empty(0)] + reps
    for n in range(2, 8):
        buckets = {}
        for g in reps:
            for mask in range(1 << (n - 1)):
                edges = list(g.edges()) + [
                    (v, n - 1) for v in range(n - 1) if (mask >> v) & 1
                ]
                h = Graph.from_edges(n, edges)
                degs = tuple(sorted(h.degree(v) for v in range(n)))
                key = (h.edge_count, degs)
                bucket = buckets.setdefault(key, [])
                if not any(patterns.is_isomorphic(h, r) for r in bucket):
                    bucket.append(h)
        reps = [g for bucket in buckets.values() for g in bucket]
        out.extend(reps)
    return out


def _brute_chi(g):
    """k-ascending exhaustive search, independent of the DSATUR solver."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        colours = [-1] * g.n

        def rec(v):
            if v == g.n:
                return True
            limit = k if v else 1  # vertex 0 may use only colour 0
            for c in range(limit):
                if all(colours[u] != c for u in g.neighbours(v)):
                    colours[v] = c
                    if rec(v + 1):
                        return True
                    colours[v] = -1
            return False

        if rec(0):
            return k
    return g.n


def test_criterion_11_solver_self_consistency():
    graphs = _all_graphs_up_to_7()
    counts = {}
    for g in graphs:
        counts[g.n] = counts.get(g.n, 0) + 1
    assert [counts[n] for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    bad = 0
    for g in graphs:
        chi, col = solvers.chromatic_number(g)
        omega = solvers.max_clique(g)[0]
        delta = max((row.bit_count() for row in g.adj), default=0)
        cover_k, cover = solvers.clique_cover_number(g.complement())
        ok = (
            omega <= chi <= delta + 1
            and solvers.validate_colouring(g, col)
            and cover_k == chi
            and solvers.validate_clique_cover(g.complement(), cover)
            and chi == _brute_chi(g)
        )
        if not ok:
            bad += 1
    report(11, bad == 0, f"{len(graphs) - bad}/{len(graphs)} graphs consistent")
