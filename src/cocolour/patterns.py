"""Induced-subgraph search, small-graph isomorphism and related tests.

The core search is one backtracking matcher with per-vertex candidate
bitmasks.  Assigning a pattern vertex intersects every unassigned candidate
set with either the host neighbourhood or its complement, so both edges and
non-edges prune (forward checking).  At every node it branches on the
unassigned pattern vertex with the fewest candidates, ties to the lowest id
(fail-first ordering, Haralick & Elliott 1980), and tries host candidates in
ascending order.  A ``None`` answer is therefore an exhaustive proof of
freeness explored in a good order; a found embedding is just some embedding.

``find_induced`` promises the lexicographically least embedding, so it
refines a found one: for pattern vertices i = 0, 1, ... in turn it keeps
vertices 0..i-1 fixed and has the matcher branch on vertex i over the host
candidates below its current value, in ascending order; the first that
extends is the least, and the embedding moves to it.  Whenever a search
branched on vertices i, i+1, ..., j in id order along its successful path,
their values are already least (each smaller candidate was refuted), so
the refinement skips them.

Locating an induced C5 and testing perfection (no odd hole in the graph or
its complement) are searches for cycle patterns on this same matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, cycle, iter_bits

C5 = cycle(5)


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex i -> host vertex mapping[i]."""

    mapping: tuple

    def is_valid(self, host, pattern):
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != len(m):
            return False
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != host.has_edge(m[u], m[v]):
                    return False
        return True


@dataclass(frozen=True)
class FreenessWitness:
    free: bool
    pattern_index: object = None
    embedding: object = None


def _match(hadj, padj, v, c, rest, mapping):
    """Branch on pattern vertex ``v`` over host candidates ``c``, then on
    the rest fail-first.

    ``rest`` lists (vertex, candidate mask) pairs in ascending vertex order;
    all masks must already respect every vertex assigned outside the call.
    On success the values are written into ``mapping`` and the branching
    order of the successful path is returned; None means no extension, and
    then ``mapping`` is left as it was.
    """
    order = []
    most = len(hadj) + 1  # above any candidate count

    def rec(v, c, rest):
        pv = padj[v]
        order.append(v)
        while c:
            low = c & -c
            c ^= low
            w = low.bit_length() - 1
            if rest:
                nb = hadj[w]
                non = ~(nb | low)
                nxt = []
                best = 0
                fewest = most
                for u, m in rest:
                    m &= nb if (pv >> u) & 1 else non
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
    hadj, padj = host.adj, pattern.adj
    full = (1 << host.n) - 1
    mapping = [0] * h
    # with every mask full, fail-first branches on vertex 0 first
    order = _match(hadj, padj, 0, full, [(u, full) for u in range(1, h)], mapping)
    if order is None:
        return None
    i = _fixed_prefix(order, 0)
    while i < h:
        # masks of vertices i..h-1 with 0..i-1 fixed as in mapping
        masks = [full] * h
        for j in range(i):
            x = mapping[j]
            nb, pj = hadj[x], padj[j]
            non = ~(nb | (1 << x))
            for u in range(i, h):
                masks[u] &= nb if (pj >> u) & 1 else non
        below = masks[i] & ((1 << mapping[i]) - 1)
        order = None
        if below:
            # a failed search leaves mapping untouched
            rest = [(u, masks[u]) for u in range(i + 1, h)]
            order = _match(hadj, padj, i, below, rest, mapping)
        i = i + 1 if order is None else _fixed_prefix(order, i)
    return Embedding(tuple(mapping))


def is_free(g, patterns):
    """First violated pattern (in input order) wins; free otherwise."""
    for idx, pattern in enumerate(patterns):
        emb = find_induced(g, pattern)
        if emb is not None:
            return FreenessWitness(free=False, pattern_index=idx, embedding=emb)
    return FreenessWitness(free=True)


def _refinement_labels(g):
    degs = [g.degree(v) for v in range(g.n)]
    return [
        (degs[v], tuple(sorted(degs[u] for u in iter_bits(g.adj[v]))))
        for v in range(g.n)
    ]


def is_isomorphic(g1, g2):
    """Exact isomorphism by pruned backtracking; intended for n <= 16."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    lab1 = _refinement_labels(g1)
    lab2 = _refinement_labels(g2)
    if sorted(lab1) != sorted(lab2):
        return False
    # candidates restricted to vertices with the same refined label
    cands = []
    for v in range(g1.n):
        mask = 0
        for w in range(g2.n):
            if lab1[v] == lab2[w]:
                mask |= 1 << w
        cands.append((v, mask))
    if not cands:
        return True
    first = min(cands, key=lambda vc: vc[1].bit_count())
    cands.remove(first)
    return _match(g2.adj, g1.adj, *first, cands, [0] * g1.n) is not None


def is_self_complementary(g):
    return is_isomorphic(g, g.complement())


def enumerate_self_complementary(n):
    """One representative per isomorphism class, in edge-mask order.

    Empty unless n(n-1)/4 is an integer; every candidate must have exactly
    that many edges, so enumeration runs over fixed-size edge subsets with a
    degree-sequence rejection before the isomorphism filter.
    """
    if n == 0:
        return [Graph.empty(0)]
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    if m % 2:
        return []
    reps = []
    for chosen in combinations(range(m), m // 2):
        g = Graph.from_edges(n, [pairs[i] for i in chosen])
        degs = sorted(g.degree(v) for v in range(n))
        if degs != sorted(n - 1 - d for d in degs):
            continue
        if not is_self_complementary(g):
            continue
        if any(is_isomorphic(g, r) for r in reps):
            continue
        reps.append(g)
    return reps


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
