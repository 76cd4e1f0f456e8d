"""Hardness gadget constructions and their structural verification.

Two constructions live here: the exact-3-cover gadget (a clique over the
ground set, an independent set per triple, and padding vertices matched to
unused triples) and the SAT gadget built from a "nice" critical graph, one
copy per clause.  Verification re-checks every structural property the
constructions rely on, plus induced-subgraph freeness for the pattern lists
that make the corresponding hardness statements go through.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from itertools import combinations, combinations_with_replacement

from . import patterns, solvers
from .graphs import (
    Checked,
    CodecError,
    Graph,
    as_json,
    cycle,
    first_pair,
    graph6_size_check,
    iter_bits,
    parse_number,
    parse_pattern,
    text_lines,
)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


class X3CInstance(Checked, namedtuple("X3CInstance", "q k triples")):
    """Exact 3-cover instance: ground set 0..3q-1, k triples (a tuple of
    sorted 3-tuples)."""

    __slots__ = ()

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        if self.k < self.q:
            raise ValueError("k must be at least q")
        if len(self.triples) != self.k:
            raise ValueError(f"expected {self.k} triples, got {len(self.triples)}")
        for t in self.triples:
            if len(t) != 3 or len(set(t)) != 3:
                raise ValueError(f"triple {t} must have 3 distinct elements")
            if not all(0 <= x < 3 * self.q for x in t):
                raise ValueError(f"triple {t} out of ground-set range")

    @staticmethod
    def from_json(text):
        """Parse ``{"q": int, "k": int, "triples": [[int, int, int], ...]}``;
        raises ValueError naming the first malformed part."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"X3C instance must be a JSON object, got {type(data).__name__}"
            )
        missing = [key for key in ("q", "k", "triples") if key not in data]
        if missing:
            raise ValueError(f"X3C instance is missing {', '.join(missing)}")
        for key in ("q", "k"):
            if not _is_int(data[key]):
                raise ValueError(f"X3C field {key} must be an integer: {data[key]!r}")
        triples = data["triples"]
        if not isinstance(triples, list) or not all(
            isinstance(t, list) and all(_is_int(x) for x in t) for t in triples
        ):
            raise ValueError("X3C triples must be a list of integer lists")
        return X3CInstance(
            q=data["q"],
            k=data["k"],
            triples=tuple(tuple(sorted(t)) for t in triples),
        )

    def to_json(self):
        return json.dumps(as_json(self))


_CNF_P_RE = re.compile(r"p[ \t]+cnf[ \t]+([0-9]+)[ \t]+([0-9]+)")
_CNF_CLAUSE_RE = re.compile(r"-?[0-9]+([ \t]+-?[0-9]+)*")


class SatInstance(Checked, namedtuple("SatInstance", "n clauses")):
    """3-SAT with exactly three pairwise-distinct literals per clause;
    ``clauses`` is a tuple of 3-tuples of DIMACS-style signed literals.

    Repeated variables within a clause (with opposite signs) are accepted so
    that two-variable instances exist; the reduction-equivalence tests stick
    to distinct-variable clauses, which is the interesting regime anyway.
    """

    __slots__ = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        for clause in self.clauses:
            if len(clause) != 3 or len(set(clause)) != 3:
                raise ValueError(
                    f"clause {clause} must have exactly 3 distinct literals"
                )
            vs = [abs(lit) for lit in clause]
            if 0 in vs or max(vs) > self.n:
                raise ValueError(f"clause {clause} has an out-of-range literal")

    @property
    def m(self):
        return len(self.clauses)

    @staticmethod
    def from_dimacs(text):
        """Parse DIMACS CNF.  The clauses are one stream of literals in
        which each clause ends at a 0, so that a line may hold several
        clauses and a clause may span lines; the last clause may omit its 0.

        Read under the rules of the graph decoders: the problem line comes
        once, before every other line but comments, numbers are ASCII
        integers, the clause count must match the problem line, and a
        malformed text raises ``CodecError`` with the line's byte offset.
        """
        n = None
        clauses = []
        clause = []
        for offset, line in text_lines(text, "c"):
            if line.startswith("p"):
                if n is not None:
                    raise CodecError("second DIMACS cnf problem line", offset)
                match = _CNF_P_RE.fullmatch(line)
                if not match:
                    raise CodecError("bad DIMACS cnf problem line", offset)
                n, m = parse_number(match[1], offset), parse_number(match[2], offset)
                p_offset = offset
                continue
            if n is None:
                raise CodecError("line before the DIMACS cnf problem line", offset)
            if not _CNF_CLAUSE_RE.fullmatch(line):
                raise CodecError("bad DIMACS cnf clause line", offset)
            for tok in line.split():
                lit = parse_number(tok, offset)
                if lit:
                    clause.append(lit)
                else:
                    clauses.append(tuple(clause))
                    clause = []
        if clause:
            clauses.append(tuple(clause))
        if n is None:
            raise CodecError("missing DIMACS cnf problem line", 0)
        if len(clauses) != m:
            raise CodecError(f"expected {m} clauses, got {len(clauses)}", p_offset)
        return SatInstance(n=n, clauses=tuple(clauses))

    def to_dimacs(self):
        lines = [f"p cnf {self.n} {self.m}"]
        lines.extend(" ".join(map(str, clause)) + " 0" for clause in self.clauses)
        return "\n".join(lines) + "\n"


class LabelledGadget(namedtuple("LabelledGadget", "graph labels")):
    """A gadget graph and its per-vertex role tuples, e.g. ("W", 3) or
    ("C", j, slot)."""

    __slots__ = ()

    def vertices(self, role):
        return tuple(v for v, lab in enumerate(self.labels) if lab[0] == role)


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=(None,))):
    __slots__ = ()


class GadgetReport(namedtuple("GadgetReport", "checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


class NiceCritical(namedtuple("NiceCritical", "graph triple k")):
    """k-critical graph with an independent triple whose removal keeps omega."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Exact-3-cover gadget


def build_x3c_gadget(inst):
    """Vertex order: ground-set clique, then triple vertices, then padding.

    Raises ``CodecError`` before any edge is listed when the gadget has
    more vertices than graph6 can hold, as its rows would outgrow memory.
    """
    nw = 3 * inst.q
    nu = inst.k
    na = inst.k - inst.q
    n = nw + nu + na
    graph6_size_check(n)
    edges = list(combinations(range(nw), 2))
    for ui, triple in enumerate(inst.triples):
        u = nw + ui
        edges.extend((w, u) for w in triple)
    for ai in range(na):
        a = nw + nu + ai
        edges.extend((nw + ui, a) for ui in range(nu))
    labels = (
        tuple(("W", w) for w in range(nw))
        + tuple(("U", ui) for ui in range(nu))
        + tuple(("A", ai) for ai in range(na))
    )
    return LabelledGadget(Graph.from_edges(n, edges), labels)


X3C_FREENESS_PATTERNS = (
    "P1+2P2",
    "co(P1+2P2)",
    "2P3",
    "co(2P3)",
    "P6",
    "co(P6)",
)
_X3C_PATTERNS = tuple((name, parse_pattern(name)) for name in X3C_FREENESS_PATTERNS)


def verify_x3c_gadget(gadget):
    g = gadget.graph
    w = gadget.vertices("W")
    u = gadget.vertices("U")
    a = gadget.vertices("A")
    checks = []

    def check(name, ok, detail=None):
        checks.append(CheckResult(name, bool(ok), detail))

    check("ground-clique", first_pair(g, w, adjacent=False) is None)
    check("triple-set-independent", first_pair(g, u) is None)
    check("padding-independent", first_pair(g, a) is None)
    check("padding-complete-to-triples", first_pair(g, a, u, adjacent=False) is None)
    check("padding-anticomplete-to-ground", first_pair(g, a, w) is None)
    wset = set(w)
    check(
        "triple-vertices-have-3-ground-neighbours",
        all(len(wset.intersection(g.neighbours(x))) == 3 for x in u),
    )
    check("padding-size", len(a) == len(u) - len(w) // 3)
    for name, pat in _X3C_PATTERNS:
        witness = patterns.is_free(g, [pat])
        check(f"free-of-{name}", witness.free, witness.embedding)
    return GadgetReport(tuple(checks))


def random_x3c_instance(rng, q, k):
    """Uniform random triples (repeats allowed so q=1, k>1 stays legal)."""
    ground = range(3 * q)
    triples = tuple(tuple(sorted(rng.sample(ground, 3))) for _ in range(k))
    return X3CInstance(q=q, k=k, triples=triples)


# ---------------------------------------------------------------------------
# Nice critical graphs and the SAT gadget


HUANG_FREENESS_PATTERNS = {
    "c7": ("P7", "co(P8)"),
    "fig5": ("P6", "co(P1+P6)"),
}


def catalog_nice():
    """The two nice critical graphs used by the k-colouring reductions."""
    c7 = NiceCritical(graph=cycle(7), triple=(0, 2, 4), k=3)
    # vertices: c1,c2,c3 = 0,1,2; b,e,f,g = 3,4,5,6
    fig5_edges = [
        (0, 3), (1, 3), (2, 3),
        (0, 4), (0, 5),
        (1, 4), (1, 6),
        (2, 5), (2, 6),
        (4, 6), (5, 6), (4, 5),
    ]
    fig5 = NiceCritical(
        graph=Graph.from_edges(7, fig5_edges), triple=(0, 1, 2), k=4
    )
    return {"c7": c7, "fig5": fig5}


def verify_nice_critical(nc, budget=None):
    """True iff nc is nice: ``budget`` covers the whole check, and each of its
    n + 3 solves gets the seconds left of it."""
    deadline = solvers._Deadline(budget)
    g, k = nc.graph, nc.k
    if first_pair(g, nc.triple) is not None:
        return False
    chi, _ = solvers.chromatic_number(g, deadline.left())
    if chi != k:
        return False
    for v in range(g.n):
        chi_v, _ = solvers.chromatic_number(
            g.induced(set(range(g.n)) - {v}), deadline.left()
        )
        if chi_v != k - 1:
            return False
    omega, _ = solvers.max_clique(g, deadline.left())
    omega_rest, _ = solvers.max_clique(
        g.induced(set(range(g.n)) - set(nc.triple)), deadline.left()
    )
    return omega == k - 1 and omega_rest == k - 1


def build_huang_gadget(nc, sat):
    """SAT gadget: literal pairs, variable vertices, one block per clause.

    Vertex order: (x_i, not-x_i) pairs, then variable vertices, then clause
    blocks in input order.  Slot s of a block represents the s-th literal of
    the clause in input order.  Raises ``CodecError``, as
    ``build_x3c_gadget`` does, above the graph6 vertex limit.
    """
    h = nc.graph.n
    n_vars, m = sat.n, sat.m
    base_d = 2 * n_vars
    base_blocks = 2 * n_vars + n_vars
    total = base_blocks + h * m
    graph6_size_check(total)

    def lit_vertex(lit):
        return 2 * (abs(lit) - 1) + (0 if lit > 0 else 1)

    edges = [(2 * i, 2 * i + 1) for i in range(n_vars)]
    labels = []
    for i in range(n_vars):
        labels.append(("X", i + 1, "+"))
        labels.append(("X", i + 1, "-"))
    labels.extend(("D", i + 1) for i in range(n_vars))

    triple_pos = set(nc.triple)
    slot_of = {v: s for s, v in enumerate(nc.triple)}
    for j, clause in enumerate(sat.clauses):
        offset = base_blocks + h * j
        for v in range(h):
            if v in triple_pos:
                labels.append(("C", j, slot_of[v]))
            else:
                labels.append(("U", j, v))
        edges.extend((offset + u, offset + v) for u, v in nc.graph.edges())
        for v in range(h):
            if v in triple_pos:
                lit = clause[slot_of[v]]
                edges.append((offset + v, lit_vertex(lit)))
                edges.append((offset + v, base_d + abs(lit) - 1))
            else:
                edges.extend((offset + v, x) for x in range(base_blocks))
    return LabelledGadget(Graph.from_edges(total, tuple(edges)), tuple(labels))


def verify_huang_gadget(gadget, nc, pattern_names):
    g = gadget.graph
    x_vertices = gadget.vertices("X")
    xs = sum(1 << v for v in x_vertices)
    xd = sum(1 << v for v in x_vertices + gadget.vertices("D"))
    # same_var[i]: the X vertices of variable i; d_of[i]: its D vertex;
    # block[j]: clause j's block
    same_var = {}
    d_of = {}
    block = {}
    for v, lab in enumerate(gadget.labels):
        if lab[0] == "X":
            same_var[lab[1]] = same_var.get(lab[1], 0) | 1 << v
        elif lab[0] == "D":
            d_of[lab[1]] = 1 << v
        elif lab[0] in ("C", "U"):
            block[lab[1]] = block.get(lab[1], 0) | 1 << v
    m = sum(1 for lab in gadget.labels if lab == ("C", lab[1], 0))
    checks = []

    def check(name, ok, detail=None):
        checks.append(CheckResult(name, bool(ok), detail))

    # literal pairs: x_i adjacent only to its negation among X/D
    pairs = zip(x_vertices[::2], x_vertices[1::2])
    check("literal-pairs", all(g.adj[pos] >> neg & 1 for pos, neg in pairs))
    check(
        "xd-sparse",
        all(
            not g.adj[v] & xd & ~(same_var[lab[1]] if lab[0] == "X" else 0)
            for v, lab in enumerate(gadget.labels)
            if xd >> v & 1
        ),
    )

    blocks_ok = True
    u_ok = True
    c_ok = True
    for j in range(m):
        mask = block.get(j, 0)
        if g.induced(iter_bits(mask)).adj != nc.graph.adj:
            blocks_ok = False
        for v in iter_bits(mask):
            outside = g.adj[v] & ~mask
            if gadget.labels[v][0] == "U":
                if outside != xd:
                    u_ok = False
            else:
                # C: one X vertex and the D vertex of its variable, no more
                lit = outside & xs
                if lit.bit_count() != 1:
                    c_ok = False
                elif outside != lit | d_of[gadget.labels[lit.bit_length() - 1][1]]:
                    c_ok = False
    check("blocks-induce-nice-graph", blocks_ok)
    check("u-type-complete-to-xd", u_ok)
    check("c-type-pendant-adjacency", c_ok)

    for name in pattern_names:
        witness = patterns.is_free(g, [parse_pattern(name)])
        check(f"free-of-{name}", witness.free, witness.embedding)
    return GadgetReport(tuple(checks))


def all_three_var_clauses(n):
    """Every clause over n variables, variables sorted within the clause."""
    out = []
    for vs in combinations(range(1, n + 1), 3):
        for signs in range(8):
            out.append(
                tuple(v if not (signs >> i) & 1 else -v for i, v in enumerate(vs))
            )
    return out


def sat_instances_up_to(n, max_m):
    """All instances with at most max_m clauses, up to clause order."""
    clauses = all_three_var_clauses(n)
    out = []
    for m in range(1, max_m + 1):
        for chosen in combinations_with_replacement(clauses, m):
            out.append(SatInstance(n=n, clauses=chosen))
    return out
