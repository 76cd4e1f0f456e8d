"""Induced-subgraph search, small-graph isomorphism and related tests.

The core search is one backtracking matcher with per-vertex candidate
bitmasks.  Assigning a pattern vertex intersects every unassigned candidate
set with either the host neighbourhood or its complement, so both edges and
non-edges prune (forward checking).  At every node it branches on the
unassigned pattern vertex with the fewest candidates, ties to the lowest id
(fail-first ordering, Haralick & Elliott 1980), and tries host candidates in
ascending order.  Before it narrows every mask for a host candidate w, it
tests w against the masks of the branched vertex's unassigned pattern
neighbours alone (Ullmann's 1976 refinement condition): if one of them
misses w's neighbourhood, w is skipped.  That neighbour's narrowed mask
would be a subset of the empty intersection, so forward checking would
have wiped out at w anyway; the test only skips the work, and every search
node, embedding and branching order stays as it was.  In the freeness
proofs of the gadget checks it skips about two thirds of the narrowings.
A ``None`` answer is therefore an exhaustive proof of freeness explored in
a good order; a found embedding is just some embedding.

``find_induced`` promises the lexicographically least embedding, so it
refines a found one: for pattern vertices i = 0, 1, ... in turn it keeps
vertices 0..i-1 fixed and has the matcher branch on vertex i over the host
candidates below its current value, in ascending order; the first that
extends is the least, and the embedding moves to it.  Whenever a search
branched on vertices i, i+1, ..., j in id order along its successful path,
their values are already least (each smaller candidate was refuted), so
the refinement skips them.

Each embedding has one copy per automorphism of the pattern, and the
search would visit every partial copy that often.  Symmetry-breaking order
constraints (Grochow & Kellis 2007) cut the repeats: along the stabiliser
chain with base 0, 1, ..., h-1, psi(b) < psi(u) for every u in the orbit of
b under the automorphisms that fix 0..b-1 (``order_constraints``).  The
matcher applies them as forward checking, so assigning v -> w also cuts
each constrained, unassigned vertex to host vertices above or below w, and
fail-first branches on the narrowed masks.  No output changes.  The least
embedding psi of an orbit satisfies every such constraint: an automorphism
sigma fixing 0..b-1 with psi(sigma(b)) < psi(b) would make psi o sigma a
lexicographically smaller embedding of the same copy.  It then satisfies
any subset of them too, which lets large patterns keep their twin
constraints alone.  The least embedding overall is the least of its
orbit, so the constrained search and its refinement still end at it; a
``None`` answer still proves freeness.

Along the id base the reversal of a path orders its two endpoints, and that
constraint binds only at the last level of a search branched from vertex 0.
So the first search, the one that decides whether any embedding exists and
so makes every freeness proof, branches first on a centre of a connected
pattern (least eccentricity, then lowest id) and takes its constraints along
the breadth-first base from that root, neighbours lowest id first; fail-first
breaks its ties to the vertex earliest in that base.  For P7 from root 3 the
constraint becomes psi(2) < psi(4) and binds at the second level.  The
argument above holds along any base: the embedding of an orbit that is
least in base order satisfies the chain along that base.  The refinement
keeps base 0..h-1, because it looks for the least embedding in id order,
and its prefix shortcut holds only for a search branched from vertex 0
under those constraints; an embedding found from another root is refined
from vertex 0.  Disconnected patterns, those whose centre is 0 (cycles, for
one) and those above ``ORBIT_SEARCH_MAX`` vertices keep root 0 and the id
base.

Locating an induced C5 and testing perfection (no odd hole in the graph or
its complement) are searches for cycle patterns on this same matcher.
Self-complementary graphs are not searched for: they are built from their
antimorphisms and merged by a canonical form whose key spells the class
representative (``enumerate_self_complementary``).  The canonical form and
the order constraints find twins by one rule (``_later_twins``).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from .graphs import Embedding, Graph, cycle, iter_bits

C5 = cycle(5)
# Largest pattern whose stabiliser chain is searched.  Each chain level
# costs up to h matcher calls of the pattern on itself, paid once per
# pattern and process (under 0.5 ms at h = 10); the paper's patterns have at
# most 10 vertices.  Larger patterns keep their twin constraints alone,
# which is sound: stopping the chain early only drops constraints.
ORBIT_SEARCH_MAX = 10


class FreenessWitness(
    namedtuple("FreenessWitness", "free pattern_index embedding", defaults=(None, None))
):
    __slots__ = ()


def _match(hadj, padj, v, c, rest, mapping, orders=None):
    """Branch on pattern vertex ``v`` over host candidates ``c``, then on
    the rest fail-first.

    ``rest`` lists (vertex, candidate mask) pairs, and fail-first breaks
    ties to the earliest of them; all masks must already respect every
    vertex assigned outside the call.
    A host candidate w for v is first tested against the masks of v's
    pattern neighbours in ``rest``: one that misses w's neighbourhood
    rejects w at the cost of one AND.  Only a w that passes has every mask
    narrowed (forward checking).  The narrowed mask of a neighbour is a
    subset of its mask ANDed with w's neighbourhood, so a rejected w would
    have wiped out there too: the test visits the same nodes in the same
    order and returns the same values and branching order.
    ``orders`` is an optional ``(after, before)`` pair from
    ``order_constraints``: assigning a vertex also cuts the candidates of
    every vertex ordered after it to host vertices above its value, and of
    every vertex ordered before it to those below.  On success the values
    are written into ``mapping`` and the branching order of the successful
    path is returned; None means no extension, and then ``mapping`` is left
    as it was.
    """
    order = []
    most = len(hadj) + 1  # above any candidate count
    after, before = orders or ((0,) * len(padj),) * 2

    def rec(v, c, rest):
        pv, av = padj[v], after[v]
        ordered = av | before[v]
        near = []  # candidate masks of v's unassigned pattern neighbours
        for u, m in rest:
            if (pv >> u) & 1:
                near.append(m)
        order.append(v)
        while c:
            low = c & -c
            c ^= low
            w = low.bit_length() - 1
            if rest:
                nb = hadj[w]
                for m in near:
                    if not m & nb:
                        break  # that neighbour's narrowed mask would be empty
                else:
                    non = ~(nb | low)
                    above = -(low << 1)
                    nxt = []
                    best = 0
                    fewest = most
                    for u, m in rest:
                        m &= nb if (pv >> u) & 1 else non
                        if (ordered >> u) & 1:
                            m &= above if (av >> u) & 1 else low - 1
                        if not m:
                            break
                        k = m.bit_count()
                        if k < fewest:
                            fewest = k
                            best = len(nxt)
                        nxt.append((u, m))
                    else:
                        u, m = nxt.pop(best)
                        if rec(u, m, nxt):
                            mapping[v] = w
                            return True
                continue
            mapping[v] = w
            return True
        order.pop()
        return False

    return order if rec(v, c, rest) else None


def _later_twins(adj, base):
    """For each vertex, the mask of its twins that come later in ``base``.

    Twins have equal open or equal closed neighbourhoods, so they agree on
    every other vertex and a transposition of two is an automorphism.
    """
    later = [0] * len(adj)
    for rows in (adj, [row | 1 << v for v, row in enumerate(adj)]):
        seen = {}
        for v in reversed(base):
            twins = seen.get(rows[v], 0)
            later[v] |= twins
            seen[rows[v]] = twins | 1 << v
    return later


@lru_cache(maxsize=1024)
def order_constraints(padj, base=None):
    """Symmetry-breaking order constraints of the pattern with adjacency
    rows ``padj`` (a tuple) along ``base`` (a tuple of its vertices, by
    default 0, 1, ..., h-1), as ``(after, before)``: bit u of ``after[b]``,
    and bit b of ``before[u]``, stand for psi(b) < psi(u).

    ``after[b]`` is the orbit of b, less b, under the automorphisms that fix
    the vertices before b in the base, so every constraint points later in
    the base.  Each twin class is ordered by base position without a
    search; every other orbit test is a ``_match`` of the pattern on itself
    with the vertices before b fixed.  Patterns above ``ORBIT_SEARCH_MAX``
    vertices keep the twin constraints alone.
    """
    h = len(padj)
    base = range(h) if base is None else base
    after = _later_twins(padj, base)
    if h <= ORBIT_SEARCH_MAX:
        degree = [row.bit_count() for row in padj]
        masks = [(1 << h) - 1] * h  # candidates with the base before b fixed
        sigma = list(range(h))
        for k, b in enumerate(base):
            rest = [(u, masks[u]) for u in base[k + 1:]]
            orbit = after[b] | 1 << b
            todo = masks[b] & ~orbit
            while todo:
                u = (todo & -todo).bit_length() - 1
                todo ^= 1 << u
                if degree[u] == degree[b] and _match(
                    padj, padj, b, 1 << u, rest, sigma
                ) is not None:
                    # the cycle of sigma through b lies in the orbit too
                    while u != b:
                        orbit |= 1 << u
                        u = sigma[u]
                    todo &= ~orbit
            after[b] = orbit ^ 1 << b
            pb = padj[b]
            non = ~(pb | 1 << b)
            for u in base[k + 1:]:
                masks[u] &= pb if (pb >> u) & 1 else non
    before = [0] * h
    for b, later in enumerate(after):
        for u in iter_bits(later):
            before[u] |= 1 << b
    return tuple(after), tuple(before)


def _breadth_first(padj, root):
    """Breadth-first order of the component of ``root``, neighbours lowest
    id first, and the distance from ``root`` to its last vertex."""
    order, seen, depth = [root], 1 << root, {root: 0}
    for v in order:
        new = padj[v] & ~seen
        seen |= new
        for u in iter_bits(new):
            depth[u] = depth[v] + 1
            order.append(u)
    return order, depth[order[-1]]


@lru_cache(maxsize=1024)
def _centre_plan(padj):
    """``(base, orders)`` of ``find_induced``'s first search, or None when it
    keeps the base 0, 1, ..., h-1 and ``order_constraints(padj)``.

    The base is the breadth-first order from a centre of the connected
    pattern (least eccentricity, then lowest id), and ``orders`` are
    ``order_constraints`` along it, in the pattern's own labels.  Disconnected
    patterns, those whose centre is 0, and those above ``ORBIT_SEARCH_MAX``
    vertices (twin constraints alone, and a set-up linear in h) keep the
    id base.
    """
    h = len(padj)
    if not 1 < h <= ORBIT_SEARCH_MAX:
        return None
    base, radius = _breadth_first(padj, 0)
    if len(base) < h:
        return None
    for v in range(1, h):
        order, ecc = _breadth_first(padj, v)
        if ecc < radius:
            base, radius = order, ecc
    if base[0] == 0:
        return None
    base = tuple(base)
    return base, order_constraints(padj, base)


def _fixed_prefix(order, start):
    """Length of the id-order run ``start, start + 1, ...`` opening ``order``."""
    k = start
    for v in order:
        if v != k:
            break
        k += 1
    return k


def find_induced(host, pattern):
    """Lexicographically least induced embedding of ``pattern``, or None."""
    h = pattern.n
    if h > host.n:
        return None
    if h == 0:
        return Embedding(())
    hadj, padj = host.adj, tuple(pattern.adj)
    orders = order_constraints(padj)
    after = orders[0]
    base, first = _centre_plan(padj) or (range(h), orders)
    full = (1 << host.n) - 1
    mapping = [0] * h
    rest = [(u, full) for u in base[1:]]
    order = _match(hadj, padj, base[0], full, rest, mapping, first)
    if order is None:
        return None
    # the prefix shortcut holds only for a search branched from vertex 0
    # under the constraints along 0..h-1; a search from another root opens
    # with that root, so its embedding is refined from vertex 0
    i = _fixed_prefix(order, 0)
    # candidates of vertices j..h-1, narrowed by 0..j-1 as fixed in mapping;
    # only after[j] applies, as the orbits of the chain put every vertex
    # that before[j] names below j
    rest = [(u, full) for u in range(h)]
    while i < h:
        for j in range(rest[0][0], i):
            x = mapping[j]
            nb, pj, aj = hadj[x], padj[j], after[j]
            non = ~(nb | (1 << x))
            narrowed = []
            for u, m in rest[1:]:
                m &= nb if (pj >> u) & 1 else non
                if (aj >> u) & 1:
                    m &= -(2 << x)
                narrowed.append((u, m))
            rest = narrowed
        below = rest[0][1] & ((1 << mapping[i]) - 1)
        order = None
        if below:
            # a failed search leaves mapping untouched
            order = _match(hadj, padj, i, below, rest[1:], mapping, orders)
        i = i + 1 if order is None else _fixed_prefix(order, i)
    return Embedding(tuple(mapping))


def is_free(g, patterns):
    """First violated pattern (in input order) wins; free otherwise."""
    for idx, pattern in enumerate(patterns):
        emb = find_induced(g, pattern)
        if emb is not None:
            return FreenessWitness(free=False, pattern_index=idx, embedding=emb)
    return FreenessWitness(free=True)


def is_isomorphic(g1, g2):
    """Exact isomorphism by pruned backtracking; intended for n <= 16.

    Each vertex of g1 may go only to the vertices of g2 with its degree;
    the matcher's forward checking does the rest.
    """
    d1 = [row.bit_count() for row in g1.adj]
    d2 = [row.bit_count() for row in g2.adj]
    if sorted(d1) != sorted(d2):
        return False
    if not d1:
        return True
    classes = {}
    for w, d in enumerate(d2):
        classes[d] = classes.get(d, 0) | 1 << w
    cands = [(v, classes[d]) for v, d in enumerate(d1)]
    first = min(cands, key=lambda vc: vc[1].bit_count())
    cands.remove(first)
    return _match(g2.adj, g1.adj, *first, cands, [0] * g1.n) is not None


def is_self_complementary(g):
    return is_isomorphic(g, g.complement())


def _canonical_form(adj):
    """Canonical key of the graph with adjacency rows ``adj``.

    The key is the greatest row-major upper-triangle adjacency string over
    all labellings, read as an integer: bit ``m - 1 - i`` stands for the
    i-th pair of ``combinations(range(n), 2)``, m = n(n-1)/2.  Two graphs
    are isomorphic exactly when their keys are equal, and the key spells
    one member of the class.

    The search places one vertex per row.  The vertices not yet placed form
    an ordered partition; position k belongs to its first cell, so the vertex
    placed there comes from that cell, and every cell then splits into its
    neighbours of that vertex, placed first, and the rest.  The partition
    fixes the row of each placed vertex; the search goes on only from the
    vertices whose row is greatest among the cell's, and prunes a prefix
    of rows below the best key found so far.  No best labelling is lost:
    the vertices of a cell agree on every row placed so far, so reordering
    a cell changes only the rows still to come, and putting the neighbours
    of the vertex at position k first only raises row k.  Twins always
    share a cell, and swapping two is an automorphism that keeps every
    partition, so a cell tries only the last of each twin class.

    Among labellings the edge count is fixed, so the greatest string is the
    one whose sorted edge-index tuple is least: the graph the key spells is
    the class member that comes first in edge-mask order.
    """
    n = len(adj)
    best = -1
    twins = _later_twins(adj, range(n))

    def rec(cells, key, width):
        nonlocal best
        if not cells:
            best = max(best, key)
            return
        first, later = cells[0], cells[1:]
        top = -1
        for v in iter_bits(first):
            if twins[v] & first:
                continue
            nb = adj[v]
            row = 0
            split = []
            for c in (first ^ 1 << v, *later):
                a = c & nb
                k, size = a.bit_count(), c.bit_count()
                row = row << size | ((1 << k) - 1) << (size - k)
                if a:
                    split.append(a)
                if a != c:
                    split.append(c ^ a)
            if row > top:
                top, children = row, [split]
            elif row == top:
                children.append(split)
        key = key << width | top
        # the rows still to come have widths width - 1, ..., 0
        if key < best >> (width * (width - 1) // 2):
            return
        for split in children:
            rec(split, key, width - 1)

    rec([(1 << n) - 1] if n else [], 0, n - 1)
    return best


def _cycle_types(k, largest):
    """Partitions of ``k`` into parts of at most ``largest``, largest first."""
    if not k:
        yield ()
    for part in range(min(k, largest), 0, -1):
        for rest in _cycle_types(k - part, part):
            yield (part, *rest)


def _antimorphic_graphs(n):
    """Every graph on n vertices with a canonical antimorphism, up to the
    complement, as adjacency rows; n must be 0 or 1 mod 4.

    For each partition of n into 4-multiples (of n - 1 when n = 1 mod 4,
    the last vertex fixed), sigma cycles consecutive vertices, one cycle per
    part.  An antimorphism of a graph maps its edges onto its non-edges, so
    along each orbit of sigma on vertex pairs the edges are one alternate
    half; every orbit has even length, and each choice of halves is a graph
    that sigma maps onto its complement.  Flipping every half gives the
    complement, which sigma shows isomorphic, so the first orbit keeps its
    first half alone.
    """
    sigma = list(range(n))
    for parts in _cycle_types(n // 4, n // 4):
        start = 0
        for part in parts:
            length = 4 * part
            for i in range(length):
                sigma[start + i] = start + (i + 1) % length
            start += length
        halves = []
        seen = set()
        for pair in combinations(range(n), 2):
            orbit = []
            while pair not in seen:
                seen.add(pair)
                orbit.append(pair)
                u, v = pair
                pair = tuple(sorted((sigma[u], sigma[v])))
            if orbit:
                halves.append([Graph.from_edges(n, orbit[i::2]).adj for i in (0, 1)])
        if halves:
            del halves[0][1]
        # the halves are disjoint, so the union of their rows is the sum
        for choice in product(*halves):
            yield [sum(rows) for rows in zip([0] * n, *choice)]


def enumerate_self_complementary(n):
    """One representative per isomorphism class, in edge-mask order;
    n is at most 13 when it is 0 or 1 mod 4.

    A graph is self-complementary exactly when it has an antimorphism, a
    permutation of its vertices that maps edges onto non-edges.  Every
    cycle of an antimorphism has a length divisible by 4, except at most
    one fixed point (Sachs 1962; Ringel 1963), so none exists unless n is 0
    or 1 mod 4.  Conjugating an antimorphism to the canonical permutation
    of its cycle type relabels the graph, so the graphs that one canonical
    permutation per cycle type maps onto their complements meet every
    class: 4 candidates at n = 5, 136 at n = 8, where the edge subsets
    number C(28, 14) = 40,116,600.  Their ``_canonical_form`` keys are
    collected, and each key is decoded into the graph it spells.

    The representative of a class is its member whose sorted edge-index
    tuple, pairs taken in ``combinations(range(n), 2)`` order, is least,
    and the classes come in the order of those tuples: the first member of
    each class met by a walk over fixed-size edge subsets in
    ``combinations`` order.  Measured in-process on a 2-vCPU Xeon VM
    (Python 3.11.7): n = 5 (2 classes) in 0.18 ms, n = 8 (10) in 9 ms,
    n = 9 (36, from 528 candidates) in 51 ms and n = 12 (720, from 131,616)
    in 18 s.  The candidates grow about eightfold per step of 4 in n:
    n = 13 (5,600 classes from 1,050,688 candidates) takes minutes, and
    n = 16, with over 2^31 candidates, could not finish, so n above 13 is
    refused.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n % 4 > 1:
        return []
    if n > 13:
        raise ValueError(
            f"vertex count must be at most 13 when it is 0 or 1 mod 4, got {n}"
        )
    keys = {_canonical_form(adj) for adj in _antimorphic_graphs(n)}
    pairs = list(combinations(range(n), 2))[::-1]  # bit i of a key is pairs[i]
    return [
        Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if key >> i & 1])
        for key in sorted(keys, reverse=True)
    ]


def find_induced_c5(g):
    """Lexicographically least ordered induced 5-cycle, or None.

    The least embedding of C5 starts at its smallest vertex, and its second
    entry is smaller than the last (the reversed cycle embeds too), so each
    induced C5 has a unique canonical tuple.
    """
    emb = find_induced(g, C5)
    return None if emb is None else emb.mapping


def is_perfect_small(g):
    """No odd hole in g or its complement; intended for n <= 14.

    C5 is self-complementary, so it is searched for in g only.
    """
    return not any(
        find_induced(h, cycle(t)) is not None
        for h, shortest in ((g, 5), (g.complement(), 7))
        for t in range(shortest, g.n + 1, 2)
    )
