"""Independent checks for benchmark outputs.

The helpers here do not call the program's search code: they are small
exact routines on bitmask adjacency rows, plus witness validators that take
a decoded graph.  The chromatic number and clique number routines are fast
enough for the G(n, p) graphs of ``solve-batch`` as well as the tiny graphs
of ``cli-small``.  Other instances are checked with the program's own
brute-force solvers (``solve_x3c_brute``, ``solve_sat_brute``), with values
known by construction, or with ``chromatic_number`` (``structure``).
"""

from __future__ import annotations

from itertools import permutations


def induced_embedding(host_adj, pattern_adj):
    """Some injective map pattern -> host preserving edges and non-edges."""
    h, n = len(pattern_adj), len(host_adj)
    if h > n:
        return None
    mapping = []

    def rec(i, used):
        if i == h:
            return True
        for w in range(n):
            if (used >> w) & 1:
                continue
            if all(
                ((pattern_adj[i] >> j) & 1) == ((host_adj[w] >> mapping[j]) & 1)
                for j in range(i)
            ):
                mapping.append(w)
                if rec(i + 1, used | (1 << w)):
                    return True
                mapping.pop()
        return False

    return tuple(mapping) if rec(0, 0) else None


def is_embedding(host_adj, pattern_adj, mapping):
    """Whether ``mapping`` is an induced embedding of pattern into host."""
    h = len(pattern_adj)
    if mapping is None or len(mapping) != h or len(set(mapping)) != h:
        return False
    if not all(isinstance(v, int) and 0 <= v < len(host_adj) for v in mapping):
        return False
    return all(
        ((pattern_adj[i] >> j) & 1) == ((host_adj[mapping[i]] >> mapping[j]) & 1)
        for i in range(h)
        for j in range(i + 1, h)
    )


def clique_number(adj):
    """Largest clique size by plain branching over candidate sets."""
    best = 0

    def rec(size, cand):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        v = cand.bit_length() - 1
        rec(size + 1, cand & adj[v])
        rec(size, cand & ~(1 << v))

    rec(0, (1 << len(adj)) - 1)
    return best


def colourable(adj, k):
    """Whether the graph has a proper k-colouring, by backtracking.

    The next vertex is the one with the fewest usable colour classes (ties:
    most uncoloured neighbours); it may open at most one new class.
    """
    classes = []  # vertex bitmask per open colour class

    def rec(left):
        if not left:
            return True
        best = None
        rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            usable = [c for c, members in enumerate(classes) if not adj[v] & members]
            key = (len(usable) + (len(classes) < k), -(adj[v] & left).bit_count())
            if best is None or key < best[0]:
                best = key, v, usable
        (options, _), v, usable = best
        if options == 0:
            return False
        left &= ~(1 << v)
        for c in usable:
            classes[c] |= 1 << v
            if rec(left):
                return True
            classes[c] &= ~(1 << v)
        if len(classes) < k:
            classes.append(1 << v)
            if rec(left):
                return True
            classes.pop()
        return False

    return rec((1 << len(adj)) - 1)


def chromatic_number(adj):
    k = clique_number(adj)
    while not colourable(adj, k):
        k += 1
    return k


def complement(adj):
    n = len(adj)
    full = (1 << n) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def is_self_complementary(adj):
    """Brute force over vertex permutations; for n <= 6."""
    comp = complement(adj)
    n = len(adj)
    return any(
        all(
            ((adj[u] >> v) & 1) == ((comp[p[u]] >> p[v]) & 1)
            for u in range(n)
            for v in range(u + 1, n)
        )
        for p in permutations(range(n))
    )


def proper_colouring(adj, colours, k):
    """Whether ``colours`` is a proper colouring of adj with colours 0..k-1."""
    n = len(adj)
    if not isinstance(colours, list) or len(colours) != n:
        return False
    if any(not isinstance(c, int) or not 0 <= c < k for c in colours):
        return False
    return all(
        colours[u] != colours[v]
        for u in range(n)
        for v in range(u + 1, n)
        if (adj[u] >> v) & 1
    )


def is_clique(adj, vertices):
    vs = list(vertices)
    if len(set(vs)) != len(vs) or any(not 0 <= v < len(adj) for v in vs):
        return False
    return all((adj[u] >> v) & 1 for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_clique_cover(adj, parts):
    seen = []
    for part in parts:
        if not part or not is_clique(adj, part):
            return False
        seen.extend(part)
    return sorted(seen) == list(range(len(adj)))


def kcol_verdict(k, t):
    """The k-colouring table for (Pt, co-Pt)-free graphs, as the paper states it."""
    if k <= 2 or t <= 5:
        return "Poly"
    if k == 3:
        return "Poly" if t <= 7 else "Open"
    return "NPComplete" if t >= 8 else "Open"


def edges(adj):
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if (adj[u] >> v) & 1]


def graph6(adj):
    """graph6 text of adj (n < 2**18)."""
    n = len(adj)
    bits = [(adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    if n <= 62:
        return chr(63 + n) + body
    return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)) + body


def graph_text(adj, ext):
    """File text for adj in the codec the CLI picks from extension ``ext``."""
    if ext == ".g6":
        return graph6(adj) + "\n"
    es = edges(adj)
    if ext == ".col":
        return "".join([f"p edge {len(adj)} {len(es)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in es])
    return "".join([f"{len(adj)} {len(es)}\n"] + [f"{u} {v}\n" for u, v in es])
