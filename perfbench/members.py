"""Seeded (P2+P3, co-(P2+P3))-free graphs grown one vertex at a time.

Rejection-sampling whole random graphs almost never yields a class member
above 16 vertices.  Growing instead keeps the graph in the class after every
step: a candidate vertex is kept only if no induced P2+P3 or co-(P2+P3)
passes through it, which a search anchored at the new vertex decides
quickly.  Proposals copy a neighbourhood (twins with a few flips), join a
random clique (simplicial vertices, hence clique separators) or draw a
random neighbourhood, so members mix C5 blow-ups, clique-separated parts and
sparse or dense pieces.
"""

from __future__ import annotations

# P2+P3 laid out as the edge 0-1 plus the path 2-3-4.
P2_P3 = (0b10, 0b01, 0b1000, 0b10100, 0b1000)
CO_P2_P3 = tuple(0b11111 & ~row & ~(1 << v) for v, row in enumerate(P2_P3))
# One representative of each automorphism orbit of P2+P3 (and of its
# complement, which has the same automorphisms).
_ORBITS = (0, 2, 3)


def _through(adj, v, pattern, anchor):
    """Whether some induced copy of ``pattern`` maps vertex ``anchor`` to v."""
    n = len(adj)
    h = len(pattern)
    order = [anchor] + [i for i in range(h) if i != anchor]

    def rec(i, cands, used):
        if i == h:
            return True
        p = order[i]
        c = cands[i] & ~used
        while c:
            low = c & -c
            c ^= low
            w = low.bit_length() - 1
            nused = used | low
            nxt = list(cands)
            for j in range(i + 1, h):
                if (pattern[p] >> order[j]) & 1:
                    nxt[j] &= adj[w]
                else:
                    nxt[j] &= ~adj[w]
                if not nxt[j] & ~nused:
                    break
            else:
                if rec(i + 1, nxt, nused):
                    return True
        return False

    full = (1 << n) - 1
    return rec(0, [1 << v] + [full & ~(1 << v)] * (h - 1), 0)


def creates_pattern(adj, v):
    """Whether vertex v lies on an induced P2+P3 or co-(P2+P3) of adj."""
    return any(
        _through(adj, v, pattern, anchor)
        for pattern in (P2_P3, CO_P2_P3)
        for anchor in _ORBITS
    )


def _with_vertex(adj, nb):
    n = len(adj)
    out = [row | (1 << n) if (nb >> u) & 1 else row for u, row in enumerate(adj)]
    out.append(nb)
    return out


def _propose(rng, adj, style):
    """Neighbourhood mask for a candidate new vertex."""
    n = len(adj)
    if style == "sparse":
        return sum(1 << u for u in range(n) if rng.random() < 0.1)
    r = rng.random()
    if r < 0.08:  # isolated or pendant
        return 0 if rng.random() < 0.5 else 1 << rng.randrange(n)
    if r < 0.55:  # false or true twin of u, with up to two flips
        u = rng.randrange(n)
        nb = adj[u] | ((1 << u) if rng.random() < 0.5 else 0)
        for _ in range(rng.randint(0, 2)):
            nb ^= 1 << rng.randrange(n)
        return nb
    if r < 0.85:  # most of a random maximal clique
        order = list(range(n))
        rng.shuffle(order)
        nb, cand = 0, (1 << n) - 1
        for u in order:
            if (cand >> u) & 1:
                nb |= 1 << u
                cand &= adj[u]
        for u in range(n):
            if (nb >> u) & 1 and rng.random() < 0.3:
                nb ^= 1 << u
        return nb
    p = rng.random()  # random neighbourhood of random density
    return sum(1 << u for u in range(n) if rng.random() < p)


def grow_member(rng, n, style, complemented):
    """Adjacency rows of a seeded class member on n >= 5 vertices.

    ``style`` is "structured" (grown from a C5 by twin, clique and random
    proposals) or "sparse" (random neighbourhoods of density 0.1); the
    class is closed under complement, so ``complemented`` flips the result.
    """
    if style == "sparse":
        adj = []
    else:
        adj = [(1 << ((v + 1) % 5)) | (1 << ((v - 1) % 5)) for v in range(5)]
    while len(adj) < n:
        cand = _with_vertex(adj, _propose(rng, adj, style))
        if not creates_pattern(cand, len(adj)):
            adj = cand
    if complemented:
        adj = [((1 << n) - 1) & ~row & ~(1 << v) for v, row in enumerate(adj)]
    return adj


def relabel(rng, adj):
    """The graph with its vertices renumbered by a random permutation."""
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for u, row in enumerate(adj):
        out[perm[u]] = sum(1 << perm[v] for v in range(n) if (row >> v) & 1)
    return out


def spoil(rng, adj):
    """Add one vertex that puts the graph outside the class."""
    n = len(adj)
    while True:
        nb = sum(1 << u for u in range(n) if rng.random() < 0.5)
        cand = _with_vertex(adj, nb)
        if creates_pattern(cand, n):
            return cand
