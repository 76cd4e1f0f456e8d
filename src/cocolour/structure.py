"""Structural colouring pipeline for graphs free of P2+P3 and its complement.

The colouring path is short: check membership with bitmask tests, split the
graph into the atoms of its clique minimal separator decomposition (one
MCS-M pass per graph, grown with the shared component search; each atom is
reported once in elimination order and never re-checked at run time),
colour each clique atom directly and every other atom with one exact solve,
and merge the atoms' colourings, validated once.

The structure theory of the class runs only under ``explain``, to report
why the class is polynomial: locate an induced C5 in each atom, partition
the remaining vertices by their cycle neighbourhood, apply the
chi-preserving reductions (removal of independent vertices dominated by the
full-neighbourhood clique, then false twins), verify the structural claims
on the reduced atom and pick the case its large-set pattern falls into.
Clique-width style deletions and complementations are only *reported*
during case selection; they preserve clique-width, not chi.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations, count

from . import graphs, patterns, solvers
from .graphs import component, components, first_pair, iter_bits, parse_pattern
from .solvers import Colouring

P2_P3 = parse_pattern("P2+P3")
CO_P2_P3 = parse_pattern("co(P2+P3)")
CLASS_PATTERNS = (P2_P3, CO_P2_P3)

LARGE_THRESHOLD = 3


class NotInClassError(ValueError):
    """Input contains P2+P3 or its complement; carries the witness."""

    def __init__(self, witness):
        super().__init__("graph is not (P2+P3, co-(P2+P3))-free")
        self.witness = witness


# ---------------------------------------------------------------------------
# Class check


def _disjoint_cliques(closed, vs):
    """Whether the vertex bitmask ``vs`` induces disjoint cliques, that is
    no induced P3, in the graph of the closed neighbourhoods ``closed``:
    each component's closed neighbourhood in ``vs`` must be that of each
    of its vertices."""
    while vs:
        low = vs & -vs
        clique = closed[low.bit_length() - 1] & vs
        for v in iter_bits(clique ^ low):
            if closed[v] & vs != clique:
                return False
        vs ^= clique
    return True


def _p2_p3_free(closed, full):
    """Whether the graph of the closed neighbourhoods ``closed`` (only
    their bits in ``full`` are read) has no induced P2+P3: for every edge
    xy, the vertices outside N[x] and N[y] induce disjoint cliques.

    Those vertices are non-neighbours of x, and P3-freeness is hereditary,
    so an edge is tested only when neither end's non-neighbourhood induces
    disjoint cliques already.  An end's non-neighbourhood is tested when
    one of its edges is first reached, so a failing edge returns before the
    vertices after it are tested.
    """
    tested = plain = 0

    def is_plain(v):
        nonlocal tested, plain
        if not tested >> v & 1:
            tested |= 1 << v
            if _disjoint_cliques(closed, full & ~closed[v]):
                plain |= 1 << v
        return plain >> v & 1

    for x, row in enumerate(closed):
        later = row & full & -(2 << x)  # the neighbours y > x
        if not later or is_plain(x):
            continue
        for y in iter_bits(later):
            if not is_plain(y) and not _disjoint_cliques(
                closed, full & ~(row | closed[y])
            ):
                return False
    return True


def in_class(g):
    """Whether g is (P2+P3, co-(P2+P3))-free, by bitmask tests on g and on
    its complement; the verdict of ``patterns.is_free(g, CLASS_PATTERNS)``,
    without its witness.  The complement's closed neighbourhoods are the
    negated rows of g, so it is never built."""
    full = (1 << g.n) - 1
    return _p2_p3_free(
        [row | 1 << v for v, row in enumerate(g.adj)], full
    ) and _p2_p3_free([~row for row in g.adj], full)


# ---------------------------------------------------------------------------
# Clique minimal separator decomposition


def _mcs_m(g):
    """Maximum cardinality search with fill (MCS-M), a minimal triangulation.

    Returns (order, h_adj, generators): the minimal elimination ordering
    (the vertex numbered 1 first), the neighbour bitmasks of the
    triangulation, and the vertices whose weight when numbered was not above
    that of the vertex numbered just before them.  The higher neighbourhoods
    of these generators are the minimal separators of the triangulation
    (MCS-M+ of Berry, Pogorelcnik and Simonet 2010).

    Numbering v, an unnumbered vertex of weight w gains weight and a fill
    edge when it touches the region of v: the component of v among v and
    the unnumbered vertices of weight below w.  The weights are walked in
    ascending order, growing the region with ``component`` after each level
    but the top one, as no vertex above it can gain.  A step fills at most
    the level above the top, so the top weight is tracked, not searched for.
    """
    n, adj = g.n, g.adj
    level = [(1 << n) - 1] + [0] * n  # level[w]: unnumbered vertices of weight w
    h_adj = list(adj)
    order = []
    generators = set()
    last = -1
    top = 0  # the highest weight of an unnumbered vertex
    for _ in range(n):
        v = (level[top] & -level[top]).bit_length() - 1
        if top <= last:
            generators.add(v)
        last = top
        level[top] ^= 1 << v
        while top and not level[top]:
            top -= 1
        region = allowed = 1 << v
        touched = adj[v]  # neighbourhood of the region
        carry = 0  # gained at the level below; moved up once this level is read
        for w in range(top + 1):
            gained = level[w] & touched
            allowed |= level[w]
            level[w] ^= gained ^ carry
            carry = gained
            h_adj[v] |= gained
            for t in iter_bits(gained):
                h_adj[t] |= 1 << v
                if w < top and not (region >> t) & 1:
                    grown = component(g, t, ~allowed | region)
                    region |= grown
                    for x in iter_bits(grown):
                        touched |= adj[x]
        level[top + 1] |= carry
        if carry:
            top += 1
        order.append(v)
    order.reverse()
    return order, h_adj, generators


def find_clique_separator(g):
    """A clique whose removal disconnects g, or None if g is an atom.

    It is the first separator of the clique minimal separator decomposition.
    """
    seps = decompose_atoms(g).separators
    return seps[0] if seps else None


def has_clique_separator_brute(g):
    """Exhaustive check over every clique subset, exponential in n.

    The independent oracle for the decomposition in the tests; n <= 14
    intended.
    """
    if len(components(g)) > 1:
        return True

    def cliques(prefix_mask, cand):
        yield prefix_mask
        for v in iter_bits(cand):
            yield from cliques(
                prefix_mask | (1 << v),
                cand & g.adj[v] & ~((1 << (v + 1)) - 1),
            )

    full = (1 << g.n) - 1
    for clique_mask in cliques(0, full):
        if clique_mask and len(components(g, clique_mask)) > 1:
            return True
    return False


class AtomDecomposition(namedtuple("AtomDecomposition", "n atoms separators")):
    """``atoms``: sorted vertex tuples over the original graph;
    ``separators[i]``: atoms[i] & (atoms[i+1] | ...), a clique."""

    __slots__ = ()


def decompose_atoms(g):
    """Clique minimal separator decomposition of g from one MCS-M pass.

    The atoms, the maximal connected induced subgraphs without a clique
    separator, are each reported once, in elimination order.  This is
    algorithm Atoms of Berry, Pogorelcnik and Simonet 2010: walking the
    generators x of the pass, when S = madj(x) is a clique of g, the
    component C of the remaining graph minus S that holds x is split off as
    the atom C + S.  Besides x, C holds only vertices numbered below x, and
    |S| is the weight of x, at most that of the vertex numbered just before
    it, so some vertex numbered above x stays outside C + S.  The atoms are
    not re-checked at run time; ``has_clique_separator_brute`` is the tests'
    oracle for them.
    """
    order, h_adj, generators = _mcs_m(g)
    alive = (1 << g.n) - 1
    passed = 0
    atoms, seps = [], []
    for x in order:
        passed |= 1 << x
        if x not in generators:
            continue
        sep = h_adj[x] & ~passed
        sep_vs = tuple(iter_bits(sep))
        if solvers.validate_clique(g, sep_vs):
            comp = component(g, x, ~alive | sep)
            atoms.append(tuple(iter_bits(comp | sep)))
            seps.append(sep_vs)
            alive &= ~comp
    atoms.append(tuple(iter_bits(alive)))
    return AtomDecomposition(g.n, tuple(atoms), tuple(seps))


def merge_atom_colourings(g, dec, colourings):
    """Combine proper per-atom colourings into one for g.

    From the last atom back to the first, each atom meets the atoms after it
    in its separator, a clique, so its palette is permuted to agree with the
    colours already there; the merged palette size is the maximum over the
    atoms.  The merged colouring is validated against g once.
    """
    if (
        dec.n != g.n
        or len(colourings) != len(dec.atoms)
        or any(len(c.colours) != len(vs) for c, vs in zip(colourings, dec.atoms))
    ):
        raise ValueError("decomposition does not match the colourings")
    colours = [None] * g.n
    seps = dec.separators + ((),)  # the last atom meets no later atom
    for i in reversed(range(len(dec.atoms))):
        atom_col = dict(zip(dec.atoms[i], colourings[i].colours))
        mapping = {}
        for v in seps[i]:
            if mapping.setdefault(atom_col[v], colours[v]) != colours[v]:
                raise ValueError("separator colours inconsistent")
        taken = set(mapping.values())
        spare = (c for c in count() if c not in taken)
        for c in sorted(set(atom_col.values()) - mapping.keys()):
            mapping[c] = next(spare)
        for v, c in atom_col.items():
            colours[v] = mapping[c]
    if None in colours:
        raise ValueError("atoms do not cover the graph")
    merged = Colouring(tuple(colours), max(colours) + 1 if colours else 0)
    if not solvers.validate_colouring(g, merged):
        raise ValueError("merged colouring is improper")
    return merged


# ---------------------------------------------------------------------------
# C5 neighbourhood partition


def _norm(i):
    return (i - 1) % 5 + 1


def _idxset(*idxs):
    return frozenset(_norm(i) for i in idxs)


class C5Partition(namedtuple("C5Partition", "cycle sets")):
    """``sets``: frozenset of cycle positions 1..5 -> sorted vertex tuple."""

    __slots__ = ()

    def get(self, *idxs):
        return self.sets[_idxset(*idxs)]

    def is_large(self, *idxs):
        return len(self.get(*idxs)) >= LARGE_THRESHOLD


def compute_c5_partition(g, cycle_vertices):
    c = tuple(cycle_vertices)
    if not patterns.Embedding(c).is_valid(g, patterns.C5):
        raise ValueError("vertices do not induce a C5 in this order")
    sets = {
        frozenset(s): []
        for r in range(6)
        for s in combinations(range(1, 6), r)
    }
    on_cycle = set(c)
    for x in range(g.n):
        if x in on_cycle:
            continue
        s = frozenset(i + 1 for i in range(5) if g.has_edge(x, c[i]))
        sets[s].append(x)
    return C5Partition(cycle=c, sets={s: tuple(vs) for s, vs in sets.items()})


# ---------------------------------------------------------------------------
# Structural claims


class ClaimVerdict(namedtuple("ClaimVerdict", "holds description witness", defaults=(None,))):
    __slots__ = ()


_CLAIMS = {
    "01": "vertices with no cycle neighbour form an independent set",
    "02": "around each corner, at most one vertex sees exactly one of the "
    "two incident neighbourhoods {i} / {i,i+1}",
    "03": "each two-apart neighbourhood class is independent",
    "04": "the full-neighbourhood class is a clique",
    "05": "at most one vertex sees a four-set or either of its three-subsets "
    "missing one inner corner",
    "06": "each three-consecutive neighbourhood class is a clique",
    "08": "after preprocessing, the no-neighbour class is complete to the "
    "full-neighbourhood class",
    "09": "no size-2 class and size-3 class are simultaneously large",
    "10": "the full-neighbourhood class is complete to every two-apart class",
    "11": "reduction step: the full-neighbourhood clique detaches; its "
    "hypotheses are entries 08 and 10",
    "12": "edges between each two-apart class and the no-neighbour class "
    "form a matching",
    "13": "a two-apart vertex matched into the no-neighbour class is adjacent "
    "to every two-apart vertex its partner misses",
    "14": "reduction step: the no-neighbour class detaches; its hypotheses "
    "are entries 12 and 13",
    "15": "edges between consecutive two-apart classes form a co-matching",
    "16": "no vertex of the preceding two-apart class dominates an edge "
    "between consecutive two-apart classes",
    "17": "a large two-apart class forces its two flanking classes to be "
    "anti-complete",
}


def _first(witnesses):
    """The first witness that is not None, or None."""
    return next((w for w in witnesses if w is not None), None)


def _first_shared_pair(groups):
    """The least two vertices of the first group with more than one vertex."""
    return next((tuple(sorted(grp)[:2]) for grp in groups if len(grp) > 1), None)


def _first_with_two(g, class_pairs, adjacent):
    """The first (x,) with more than one neighbour (``adjacent``) or more than
    one non-neighbour in the other class of its pair; each pair of classes
    is read both ways round."""
    for a, b in class_pairs:
        for xs, ys in ((a, b), (b, a)):
            for x in xs:
                if sum(g.has_edge(x, y) == adjacent for y in ys) > 1:
                    return (x,)
    return None


def verify_structure_claims(g, part):
    """Evaluate the per-class structural predicates on a C5 partition.

    Failures certify that the graph lies outside the class; each failing
    verdict carries the violating vertices.  A claim that a class is
    independent or a clique, or complete or anticomplete to another, takes
    the first offending pair of ``graphs.first_pair``, over i = 1..5 in
    order where it runs over the rotations.  Entries 11 and 14 are reduction
    steps rather than predicates and are recorded as informational.
    """
    five = range(1, 6)
    no_nbr, full = part.get(), part.get(1, 2, 3, 4, 5)
    witnesses = {
        "01": first_pair(g, no_nbr),
        "02": _first_shared_pair(
            part.get(j) + part.get(i, i + 1) for i in five for j in (i, i + 1)
        ),
        "03": _first(first_pair(g, part.get(i, i + 2)) for i in five),
        "04": first_pair(g, full, adjacent=False),
        "05": _first_shared_pair(
            part.get(i, i + 1, i + 2, i + 3) + part.get(*three)
            for i in five
            for three in ((i, i + 1, i + 3), (i, i + 2, i + 3))
        ),
        "06": _first(
            first_pair(g, part.get(i, i + 1, i + 2), adjacent=False) for i in five
        ),
        "08": first_pair(g, no_nbr, full, adjacent=False),
        "09": _first(
            (tuple(sorted(s)), tuple(sorted(t)))
            for s in map(frozenset, combinations(five, 2))
            for t in map(frozenset, combinations(five, 3))
            if len(part.sets[s]) >= LARGE_THRESHOLD
            and len(part.sets[t]) >= LARGE_THRESHOLD
        ),
        "10": _first(
            first_pair(g, part.get(i, i + 2), full, adjacent=False) for i in five
        ),
        "11": None,
        "12": _first_with_two(g, ((part.get(i, i + 2), no_nbr) for i in five), True),
        "13": _first(
            (x, y, z)
            for i in five
            for j in five
            if i != j
            for x in part.get(i, i + 2)
            for y in no_nbr
            if g.has_edge(x, y)
            for z in part.get(j, j + 2)
            if not g.has_edge(z, y) and not g.has_edge(x, z)
        ),
        "14": None,
        "15": _first_with_two(
            g, ((part.get(i, i + 2), part.get(i + 1, i + 3)) for i in five), False
        ),
        "16": _first(
            (x, y, z)
            for i in five
            for x in part.get(i, i + 2)
            for y in part.get(i + 1, i + 3)
            if g.has_edge(x, y)
            for z in part.get(i + 3, i)
            if g.has_edge(z, x) and g.has_edge(z, y)
        ),
        "17": _first(
            first_pair(g, part.get(i - 1, i + 1), part.get(i + 1, i + 3))
            for i in five
            if part.is_large(i, i + 2)
        ),
    }
    return {
        key: ClaimVerdict(witness is None, _CLAIMS[key], witness)
        for key, witness in witnesses.items()
    }


# ---------------------------------------------------------------------------
# chi-preserving preprocessing


class PreprocessLog(namedtuple("PreprocessLog", "kept steps")):
    """``kept``: reduced index -> original vertex; ``steps``:
    ("independent", removed, anchor) / ("twin", removed, kept)."""

    __slots__ = ()


def preprocess(g, part):
    """Remove dominated no-neighbour vertices, then false twins.

    g must be an atom; ``explain_atom`` only passes atoms, and this is
    not re-checked here.  The log replays in reverse to extend any colouring
    of the reduced graph: a removed twin copies its partner, a removed
    independent vertex copies its non-neighbour inside the full-neighbourhood
    clique.

    The false-twin classes are found once, by neighbourhood within the
    remaining vertices: removing a false twin never makes two other vertices
    twins.  Each step removes from the least pair of twins the one off the
    cycle.
    """
    steps = []
    remaining = set(range(g.n))
    big = part.get(1, 2, 3, 4, 5)
    for x in part.get():
        anchor = next((y for y in big if not g.has_edge(x, y)), None)
        if anchor is not None:
            steps.append(("independent", x, anchor))
            remaining.discard(x)
    on_cycle = set(part.cycle)
    rem_mask = sum(1 << v for v in remaining)
    classes = {}
    for v in sorted(remaining):
        classes.setdefault(g.adj[v] & rem_mask, []).append(v)
    while twins := [vs for vs in classes.values() if len(vs) > 1]:
        vs = min(twins)
        removed = vs[0] if vs[1] in on_cycle else vs[1]
        vs.remove(removed)
        steps.append(("twin", removed, vs[0]))
        remaining.discard(removed)
    kept = tuple(sorted(remaining))
    return g.induced(kept), PreprocessLog(kept=kept, steps=tuple(steps))


def extend_colouring(g, log, reduced_col):
    """Lift a colouring of the reduced graph back to g along the log."""
    colours = {v: reduced_col.colours[i] for i, v in enumerate(log.kept)}
    for kind, removed, anchor in reversed(log.steps):
        colours[removed] = colours[anchor]
    full = Colouring(tuple(colours[v] for v in range(g.n)), reduced_col.k)
    if not solvers.validate_colouring(g, full):
        raise RuntimeError("colouring extension produced an improper colouring")
    return full


# ---------------------------------------------------------------------------
# Case selection and the full pipeline


def _rotations(base):
    return [frozenset(_norm(i + r) for i in base) for r in range(5)]


def select_case(g, part):
    """Classify the large-set pattern; returns (case, complemented, view).

    A large size-3 class flips to the complement view first, where it turns
    into a size-2 class on the complemented cycle.
    """
    complemented = False
    view_g, view_part = g, part
    if any(
        len(s) == 3 and len(vs) >= LARGE_THRESHOLD
        for s, vs in part.sets.items()
    ):
        complemented = True
        view_g = g.complement()
        c = part.cycle
        new_cycle = (c[0], c[2], c[4], c[1], c[3])
        view_part = compute_c5_partition(view_g, new_cycle)
    large = frozenset(
        i for i in range(1, 6) if view_part.is_large(i, i + 2)
    )
    if len(large) == 5:
        return "case1", complemented, view_part
    if len(large) <= 2:
        return "case3", complemented, view_part
    if len(large) == 4 or large in _rotations((1, 2, 3)):
        return "case2", complemented, view_part
    for r in range(5):
        if large == frozenset((_norm(1 + r), _norm(2 + r), _norm(4 + r))):
            v13 = view_part.get(1 + r, 3 + r)
            v24 = view_part.get(2 + r, 4 + r)
            v41 = view_part.get(4 + r, 1 + r)
            mixed = any(
                any(view_g.has_edge(x, y) for y in v13)
                and any(view_g.has_edge(x, z) for z in v24)
                for x in v41
            )
            return ("case4b" if mixed else "case4a"), complemented, view_part
    raise RuntimeError(f"unclassified large-set pattern {sorted(large)}")


class AtomReport(
    namedtuple(
        "AtomReport",
        "vertices chi case cycle complemented_view claims preprocessing notes",
        defaults=(None, None, False, None, (), ()),
    )
):
    """The fields after ``chi`` are given only under ``explain``, by
    ``explain_atom``."""

    __slots__ = ()

    def to_json(self):
        """The report as JSON values; the explanation only once ``case`` is
        set."""
        out = {"vertices": list(self.vertices), "chi": self.chi}
        if self.case is not None:
            out |= {
                "case": self.case,
                "cycle": list(self.cycle) if self.cycle else None,
                "complemented_view": self.complemented_view,
                "claims": {
                    key: {
                        "holds": v.holds,
                        "description": v.description,
                        "witness": list(v.witness) if v.witness else None,
                    }
                    for key, v in (self.claims or {}).items()
                },
                "preprocessing": [list(step) for step in self.preprocessing],
                "notes": list(self.notes),
            }
        return out


class StructureReport(namedtuple("StructureReport", "chi atom_reports", defaults=((),))):
    __slots__ = ()

    def to_json(self):
        return {
            "chi": self.chi,
            "atoms": [rep.to_json() for rep in self.atom_reports],
        }


def explain_atom(g, vs):
    """The paper's case analysis of the atom ``vs`` of g, as the explanation
    fields of its ``AtomReport``; it neither solves nor colours.

    A clique is perfect, and so is a C5-free atom, which the odd-hole search
    confirms up to 14 vertices.  Otherwise the atom's least induced C5
    partitions it, the preprocessing log is taken, and the claims and the
    case are those of the reduced atom, which keeps the cycle's vertices.
    Raises RuntimeError where a class member would break the paper's
    structure: an imperfect C5-free atom, or a large-set pattern that no
    case covers.
    """
    if solvers.validate_clique(g, vs):
        return {"case": "perfect", "notes": ("clique",)}
    ga = g.induced(vs)
    c5 = patterns.find_induced_c5(ga)
    if c5 is None:
        notes = ("no induced C5",)
        if ga.n <= 14:
            if not patterns.is_perfect_small(ga):
                raise RuntimeError("C5-free atom of a class member must be perfect")
            notes += ("perfection confirmed by odd-hole search",)
        return {"case": "perfect", "notes": notes}
    reduced, log = preprocess(ga, compute_c5_partition(ga, c5))
    part = compute_c5_partition(reduced, [log.kept.index(v) for v in c5])
    claims = verify_structure_claims(reduced, part)
    case, complemented, _view = select_case(reduced, part)
    large = [s for s, xs in part.sets.items() if len(xs) >= LARGE_THRESHOLD]
    return {
        "case": case,
        "cycle": c5,
        "complemented_view": complemented,
        "claims": claims,
        "preprocessing": log.steps,
        "notes": ("large sets: %s" % sorted(tuple(sorted(s)) for s in large),),
    }


def colour_structured(g, budget=None, explain=False):
    """Colour a (P2+P3, co-(P2+P3))-free graph atom by atom.

    Raises NotInClassError (with the matcher's lex-least witness) outside
    the class and propagates BudgetExceededError from the atom solves.  A
    clique atom is coloured 0..|atom|-1, every other atom by one
    ``chromatic_number`` call on it, and the atoms' colourings are merged
    and validated.  ``budget`` is one deadline from the start of the call,
    and each atom's solve gets the seconds left of it; the class check and
    the decomposition do not check it.  Only with ``explain`` does each
    atom's report carry the paper's case analysis (``explain_atom``), which
    never changes the colouring.
    """
    deadline = solvers._Deadline(budget)
    if not in_class(g):
        witness = patterns.is_free(g, CLASS_PATTERNS)
        if witness.free:
            raise RuntimeError("the class check and the matcher disagree")
        raise NotInClassError(witness)
    if g.n == 0:
        return Colouring((), 0), StructureReport(chi=0)
    dec = decompose_atoms(g)
    atom_cols = []
    reports = []
    for vs in dec.atoms:
        if solvers.validate_clique(g, vs):
            # A clique is perfect, and chromatic_number would colour it
            # 0..|atom|-1: it skips the search.
            col = Colouring(tuple(range(len(vs))), len(vs))
        else:
            _, col = solvers.chromatic_number(g.induced(vs), deadline.left())
        atom_cols.append(col)
        why = explain_atom(g, vs) if explain else {}
        reports.append(AtomReport(vs, col.k, **why))
    merged = merge_atom_colourings(g, dec, atom_cols)
    return merged, StructureReport(chi=merged.k, atom_reports=tuple(reports))


# ---------------------------------------------------------------------------
# Seeded sampling of class members


def sample_free_graphs(count, seed, n_min=4, n_max=12):
    """Rejection-sample class members, reproducibly."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_min, n_max)
        p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 0.85))
        g = graphs.random_graph(rng, n, p)
        if in_class(g):
            out.append(g)
    return out
