import random
import time
from itertools import combinations

import pytest

from cocolour import patterns, solvers
from cocolour.gadgets import (
    HUANG_FREENESS_PATTERNS,
    LabelledGadget,
    NiceCritical,
    SatInstance,
    X3CInstance,
    all_three_var_clauses,
    build_huang_gadget,
    build_x3c_gadget,
    catalog_nice,
    random_x3c_instance,
    sat_instances_up_to,
    verify_huang_gadget,
    verify_nice_critical,
    verify_x3c_gadget,
)
from cocolour.graphs import CodecError, Graph, cycle, first_pair, path


FIG3 = X3CInstance(
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


def add_edge(g, u, v):
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def remove_edge(g, u, v):
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


class TestX3CInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            X3CInstance(q=0, k=1, triples=())
        with pytest.raises(ValueError):
            X3CInstance(q=2, k=1, triples=((0, 1, 2),))
        with pytest.raises(ValueError):
            X3CInstance(q=1, k=1, triples=((0, 1, 1),))
        with pytest.raises(ValueError):
            X3CInstance(q=1, k=1, triples=((0, 1, 3),))
        with pytest.raises(ValueError):
            X3CInstance(q=1, k=2, triples=((0, 1, 2),))

    def test_json_round_trip(self):
        inst = X3CInstance.from_json(FIG3.to_json())
        assert inst == FIG3

    @pytest.mark.parametrize(
        "text",
        [
            '{"q": 1}',
            '{"q": 2, "k": 3}',
            "[1, 2, 3]",
            '"q"',
            '{"q": "1", "k": 1, "triples": [[0, 1, 2]]}',
            '{"q": 1, "k": true, "triples": [[0, 1, 2]]}',
            '{"q": 1, "k": 1, "triples": [[0, 1, 2.5]]}',
            '{"q": 1, "k": 1, "triples": {"0": [0, 1, 2]}}',
            '{"q": 1, "k": 1, "triples": [5]}',
        ],
    )
    def test_from_json_rejects_malformed_structure(self, text):
        with pytest.raises(ValueError):
            X3CInstance.from_json(text)


class TestX3CGadget:
    def test_reference_instance_sizes(self):
        gadget = build_x3c_gadget(FIG3)
        assert gadget.graph.n == 18
        assert gadget.graph.edge_count == 72

    def test_minimal_instance_shape(self):
        gadget = build_x3c_gadget(X3CInstance(q=1, k=1, triples=((0, 1, 2),)))
        g = gadget.graph
        assert g.n == 4
        assert gadget.vertices("A") == ()
        # triangle on the ground set plus one triple vertex seeing all of it
        assert all(g.has_edge(u, v) for u, v in combinations(range(3), 2))
        assert g.degree(3) == 3

    def test_reference_instance_passes_verification(self):
        report = verify_x3c_gadget(build_x3c_gadget(FIG3))
        assert report.ok, report.failures()
        assert len(report.checks) == 13

    def test_random_instances_pass_verification(self):
        rng = random.Random(40)
        for _ in range(30):
            q = rng.randint(1, 3)
            k = rng.randint(q, 7)
            gadget = build_x3c_gadget(random_x3c_instance(rng, q, k))
            report = verify_x3c_gadget(gadget)
            assert report.ok, report.failures()

    def test_q10_gadget_passes_verification(self):
        inst = random_x3c_instance(random.Random(73), 10, 15)
        gadget = build_x3c_gadget(inst)
        report = verify_x3c_gadget(gadget)
        assert report.ok, report.failures()
        assert sum(c.name.startswith("free") for c in report.checks) == 6

    def test_injected_padding_ground_edge_is_reported(self):
        inst = X3CInstance(
            q=1, k=2, triples=((0, 1, 2), (0, 1, 2))
        )
        gadget = build_x3c_gadget(inst)
        a = gadget.vertices("A")[0]
        w = gadget.vertices("W")[0]
        bad = LabelledGadget(add_edge(gadget.graph, a, w), gadget.labels)
        report = verify_x3c_gadget(bad)
        assert not report.ok
        names = {c.name for c in report.failures()}
        assert "padding-anticomplete-to-ground" in names

    def test_freeness_failure_carries_witness(self):
        # a long path is nothing like the gadget; freeness checks fail loudly
        fake = LabelledGadget(
            path(7), tuple(("W", i) for i in range(7))
        )
        report = verify_x3c_gadget(fake)
        failing = {c.name: c for c in report.failures()}
        assert "free-of-P6" in failing
        assert failing["free-of-P6"].detail is not None

    def test_reduction_equivalence_small(self):
        rng = random.Random(41)
        for _ in range(40):
            q = rng.randint(1, 2)
            k = rng.randint(q, 5)
            inst = random_x3c_instance(rng, q, k)
            g = build_x3c_gadget(inst).graph
            cover_k, _ = solvers.clique_cover_number(g)
            assert cover_k >= k  # triple vertices are independent
            assert (cover_k <= k) == (solvers.solve_x3c_brute(inst) is not None)


class TestSatInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            SatInstance(n=0, clauses=())
        with pytest.raises(ValueError):
            SatInstance(n=3, clauses=((1, 2),))
        with pytest.raises(ValueError):
            SatInstance(n=3, clauses=((1, 1, 2),))
        with pytest.raises(ValueError):
            SatInstance(n=2, clauses=((1, 2, 3),))
        # repeated variable with opposite signs is allowed
        SatInstance(n=2, clauses=((1, -1, 2),))

    def test_dimacs_round_trip(self):
        inst = SatInstance(n=3, clauses=((1, -2, 3), (-1, 2, -3)))
        assert SatInstance.from_dimacs(inst.to_dimacs()) == inst

    def test_dimacs_clauses_are_a_stream_of_literals(self):
        # two clauses on one line
        assert SatInstance.from_dimacs("p cnf 3 2\n1 -2 3 0 -1 2 -3 0\n") == (
            SatInstance(n=3, clauses=((1, -2, 3), (-1, 2, -3)))
        )
        # one clause over two lines; the last clause may omit its 0
        for text in ("p cnf 3 1\n1 -2\n3 0\n", "p cnf 3 1\n1 -2\n3\n"):
            assert SatInstance.from_dimacs(text) == SatInstance(
                n=3, clauses=((1, -2, 3),)
            )
        # lines without a 0 no longer end a clause
        with pytest.raises(CodecError, match="expected 2 clauses, got 1"):
            SatInstance.from_dimacs("p cnf 3 2\n1 2 3\n-1 2 3\n")
        # every 0 ends a clause, an empty one too
        with pytest.raises(ValueError, match=r"^clause \(\) must have"):
            SatInstance.from_dimacs("p cnf 3 2\n1 2 3 0 0\n")

    def test_dimacs_requires_problem_line(self):
        with pytest.raises(ValueError):
            SatInstance.from_dimacs("1 -2 3 0\n")

    @pytest.mark.parametrize(
        "text, offset",
        [
            # an Arabic-Indic three, and "1_0", which int() takes as 10
            pytest.param("p cnf \u0663 1\n1 2 3 0\n", 0, id="non-ascii-n"),
            pytest.param("p cnf 1_0 1\n1 2 3 0\n", 0, id="underscore-n"),
            pytest.param("c x\np cnf 3 2\n1 2 3 0\n", 4, id="fewer-clauses"),
            pytest.param("p cnf 3 1\n1 2 3 0\n-1 2 3 0\n", 0, id="more-clauses"),
            pytest.param("p cnf 3 1\n1 \u00b2 3 0\n", 10, id="non-ascii-literal"),
            pytest.param("p cnf 3 1\n1 x 3 0\n", 10, id="word-literal"),
            pytest.param("p cnf 3 1\n1 --2 3 0\n", 10, id="two-signs"),
            pytest.param("p dnf 3 1\n1 2 3 0\n", 0, id="not-cnf"),
            pytest.param("p cnf 3 1\n1 2 " + "9" * 5000 + "\n", 10, id="long"),
            # fields are separated by ASCII spaces and tabs only
            pytest.param("p cnf 3 1\n1\f2 3 0\n", 10, id="form-feed-literal"),
            pytest.param("p cnf 3 1\n1 2\u20283 0\n", 10, id="line-separator-literal"),
            pytest.param("p\u3000cnf 3 1\n1 2 3 0\n", 0, id="ideographic-space-p"),
        ],
    )
    def test_dimacs_errors_carry_offsets(self, text, offset):
        with pytest.raises(CodecError) as err:
            SatInstance.from_dimacs(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("1 2 3 0\np cnf 3 1\n", "line before the DIMACS cnf problem line", 0),
            ("c x\n1 2 3 0\np cnf 3 1\n", "line before the DIMACS cnf problem line", 4),
            ("p cnf 9 5\n1 2 3 0\np cnf 3 1\n", "second DIMACS cnf problem line", 18),
            ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "second DIMACS cnf problem line", 10),
        ],
    )
    def test_dimacs_problem_line_first_and_once(self, text, message, offset):
        with pytest.raises(CodecError) as err:
            SatInstance.from_dimacs(text)
        assert str(err.value) == f"{message} (at byte {offset})"

    def test_dimacs_instance_errors_keep_their_text(self):
        # the CLI prints this message; it names the clause, not an offset
        with pytest.raises(ValueError, match=r"^clause \(1, 2\) must have"):
            SatInstance.from_dimacs("p cnf 3 1\n1 2 0\n")


class TestNiceCritical:
    def test_catalog_passes(self):
        cat = catalog_nice()
        assert cat["c7"].k == 3
        assert verify_nice_critical(cat["c7"])
        assert cat["fig5"].k == 4
        assert cat["fig5"].graph.n == 7
        assert cat["fig5"].graph.edge_count == 12
        assert verify_nice_critical(cat["fig5"])

    def test_c6_is_not_nice_3_critical(self):
        assert not verify_nice_critical(
            NiceCritical(graph=cycle(6), triple=(0, 2, 4), k=3)
        )

    def test_mutated_fig5_fails(self):
        nc = catalog_nice()["fig5"]
        # removing the e-f edge breaks 4-criticality
        mutated = nc._replace(graph=remove_edge(nc.graph, 4, 5))
        assert not verify_nice_critical(mutated)

    def test_adjacent_triple_rejected(self):
        assert not verify_nice_critical(
            NiceCritical(graph=cycle(7), triple=(0, 1, 3), k=3)
        )

    def test_budget_covers_the_whole_check(self, monkeypatch):
        budgets = []

        def slowed(solve):
            def wrapper(g, budget=None):
                time.sleep(0.01)
                budgets.append(budget)
                return solve(g, budget)

            return wrapper

        for name in ("chromatic_number", "max_clique"):
            monkeypatch.setattr(solvers, name, slowed(getattr(solvers, name)))
        nc = catalog_nice()["c7"]
        assert verify_nice_critical(nc, budget=5.0)
        assert len(budgets) == nc.graph.n + 3
        for i, budget in enumerate(budgets):
            assert budget <= 5.0 - 0.01 * i


class TestHuangGadget:
    def test_c7_sizes(self):
        sat = SatInstance(n=2, clauses=((1, -1, 2),))
        g = build_huang_gadget(catalog_nice()["c7"], sat).graph
        assert g.n == 13
        assert g.edge_count == 39

    def test_fig5_sizes(self):
        sat = SatInstance(n=3, clauses=((1, 2, 3),))
        g = build_huang_gadget(catalog_nice()["fig5"], sat).graph
        assert g.n == 16

    def test_blocks_induce_the_nice_graph(self):
        cat = catalog_nice()
        sat = SatInstance(n=3, clauses=((1, -2, 3), (-1, 2, -3)))
        for nc in cat.values():
            gadget = build_huang_gadget(nc, sat)
            for j in range(sat.m):
                block = [
                    v
                    for v, lab in enumerate(gadget.labels)
                    if lab[0] in ("C", "U") and lab[1] == j
                ]
                sub = gadget.graph.induced(block)
                assert patterns.is_isomorphic(sub, nc.graph)

    def test_verification_passes(self):
        cat = catalog_nice()
        sat = SatInstance(n=3, clauses=((1, -2, 3),))
        for name, nc in cat.items():
            specs = HUANG_FREENESS_PATTERNS[name]
            gadget = build_huang_gadget(nc, sat)
            report = verify_huang_gadget(gadget, nc, specs)
            assert report.ok, report.failures()

    def test_thirteen_clause_gadgets_are_free(self):
        rng = random.Random(74)
        clauses = []
        for _ in range(13):
            vs = rng.sample(range(1, 7), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        sat = SatInstance(n=6, clauses=tuple(clauses))
        for name, nc in catalog_nice().items():
            specs = HUANG_FREENESS_PATTERNS[name]
            gadget = build_huang_gadget(nc, sat)
            report = verify_huang_gadget(gadget, nc, specs)
            assert report.ok, report.failures()

    def test_extra_cross_variable_edge_is_reported(self):
        nc = catalog_nice()["c7"]
        sat = SatInstance(n=2, clauses=((1, -1, 2),))
        gadget = build_huang_gadget(nc, sat)
        x = gadget.vertices("X")
        bad = LabelledGadget(add_edge(gadget.graph, x[0], x[2]), gadget.labels)
        specs = HUANG_FREENESS_PATTERNS["c7"]
        report = verify_huang_gadget(bad, nc, specs)
        assert not report.ok
        assert any(c.name == "xd-sparse" for c in report.failures())

    # One tampered copy per structural check, and the checks that then fail
    # (c7, fig5); pinned from the verifier built on per-pair edge tests.
    TAMPERED = {
        "literal-pairs": ({"literal-pairs"}, {"literal-pairs"}),
        "xd-sparse": ({"xd-sparse"}, {"xd-sparse", "free-of-co(P1+P6)"}),
        "blocks-induce-nice-graph": (
            {"blocks-induce-nice-graph", "free-of-P7"},
            {"blocks-induce-nice-graph", "free-of-P6", "free-of-co(P1+P6)"},
        ),
        "u-type-complete-to-xd": (
            {"u-type-complete-to-xd"},
            {"u-type-complete-to-xd", "free-of-P6"},
        ),
        "c-type-pendant-adjacency": (
            {"c-type-pendant-adjacency"},
            {"c-type-pendant-adjacency"},
        ),
        # two neighbours in X/D, but not a literal and its variable's D
        "c-type-on-both-literals": (
            {"c-type-pendant-adjacency"},
            {"c-type-pendant-adjacency"},
        ),
    }

    @staticmethod
    def tamper(gadget, check):
        g, labels = gadget.graph, gadget.labels
        x, d = gadget.vertices("X"), gadget.vertices("D")
        block = [
            v for v, lab in enumerate(labels) if lab[0] in ("C", "U") and lab[1] == 0
        ]
        u = next(v for v in block if labels[v][0] == "U")
        c = next(v for v in block if labels[v][0] == "C")
        if check == "literal-pairs":  # a literal-pair edge removed
            return remove_edge(g, x[0], x[1])
        if check == "xd-sparse":  # an X-D edge added
            return add_edge(g, x[0], d[0])
        if check == "blocks-induce-nice-graph":  # an edge added inside a block
            return add_edge(g, *first_pair(g, block, adjacent=False))
        if check == "u-type-complete-to-xd":  # a U-X edge removed
            return remove_edge(g, u, x[0])
        if check == "c-type-on-both-literals":  # C moved from D onto not-x1
            c = labels.index(("C", 0, 0))  # clause 0's slot 0 is x1
            g = remove_edge(g, c, labels.index(("D", 1)))
            return add_edge(g, c, labels.index(("X", 1, "-")))
        # a second literal edge on a C vertex
        return add_edge(g, c, next(v for v in x if not g.has_edge(c, v)))

    @pytest.mark.parametrize("check", sorted(TAMPERED))
    def test_tampered_copy_fails_its_check(self, check):
        sat = SatInstance(n=3, clauses=((1, -2, 3), (-1, 2, -3)))
        for name, want in zip(("c7", "fig5"), self.TAMPERED[check]):
            nc = catalog_nice()[name]
            gadget = build_huang_gadget(nc, sat)
            bad = LabelledGadget(self.tamper(gadget, check), gadget.labels)
            report = verify_huang_gadget(bad, nc, HUANG_FREENESS_PATTERNS[name])
            assert {c.name for c in report.failures()} == want, name

    def test_equivalence_small(self):
        cat = catalog_nice()
        rng = random.Random(42)
        clauses = all_three_var_clauses(3)
        for nc in cat.values():
            for _ in range(8):
                m = rng.randint(1, 8)
                sat = SatInstance(
                    n=3, clauses=tuple(rng.choice(clauses) for _ in range(m))
                )
                g = build_huang_gadget(nc, sat).graph
                colourable = solvers.is_k_colourable(g, nc.k + 1) is not None
                satisfiable = solvers.solve_sat_brute(sat) is not None
                assert colourable == satisfiable

    def test_unsatisfiable_instances_are_refuted(self):
        # all eight clauses over three variables, plus random clauses over
        # a fourth: unsatisfiable, and 65 to 96 gadget vertices
        rng = random.Random(8)
        base = tuple(all_three_var_clauses(3))
        four = all_three_var_clauses(4)
        for extra in (0, 1, 2, 4):
            clauses = base + tuple(rng.choice(four) for _ in range(extra))
            sat = SatInstance(n=4 if extra else 3, clauses=clauses)
            assert solvers.solve_sat_brute(sat) is None
            for name in ("c7", "fig5"):
                nc = catalog_nice()[name]
                g = build_huang_gadget(nc, sat).graph
                assert 65 <= g.n <= 96
                assert solvers.is_k_colourable(g, nc.k + 1) is None, (name, extra)

    def test_enumeration_helpers(self):
        assert len(all_three_var_clauses(3)) == 8
        assert len(all_three_var_clauses(4)) == 32
        insts = sat_instances_up_to(3, 1)
        assert len(insts) == 8
        assert all(inst.m == 1 for inst in insts)
