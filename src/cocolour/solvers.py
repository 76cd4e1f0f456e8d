"""Exact ground-truth solvers: colouring, cliques, clique cover, X3C, 3-SAT.

All solvers are exhaustive or branch-and-bound with deterministic tie-breaks;
there is no heuristic mode.  Optional ``budget`` arguments are wall-clock
seconds; exceeding one raises BudgetExceededError, which callers must treat
as "unknown", never as "no".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, product

from .graphs import Graph, iter_bits


class BudgetExceededError(RuntimeError):
    """The solver ran out of its wall-clock budget before deciding."""


@dataclass(frozen=True)
class Colouring:
    colours: tuple  # vertex -> colour in 0..k-1
    k: int


@dataclass(frozen=True)
class CliqueCover:
    parts: tuple  # of vertex tuples


def validate_colouring(g, col):
    if len(col.colours) != g.n:
        return False
    if g.n and (min(col.colours) < 0 or max(col.colours) >= col.k):
        return False
    return all(col.colours[u] != col.colours[v] for u, v in g.edges())


def validate_clique(g, vertices):
    vs = list(vertices)
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def validate_clique_cover(g, cover):
    seen = set()
    for part in cover.parts:
        if not validate_clique(g, part):
            return False
        for v in part:
            if v in seen:
                return False
            seen.add(v)
    return seen == set(range(g.n))


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, budget):
        self.at = None if budget is None else time.monotonic() + budget
        self.ticks = 0

    def check(self):
        if self.at is None:
            return
        if self.ticks == 0:
            self.ticks = 1024
            if time.monotonic() > self.at:
                raise BudgetExceededError("solver budget exceeded")
        else:
            self.ticks -= 1


def greedy_clique(g):
    """Deterministic greedy clique: max degree inside the candidate set."""
    clique = []
    cand = (1 << g.n) - 1
    while cand:
        best_v, best_key = -1, None
        for v in iter_bits(cand):
            key = (g.adj[v] & cand).bit_count()
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        clique.append(best_v)
        cand &= g.adj[best_v]
    return tuple(clique)


def _pick_dsatur(g, colours, sat, uncoloured_deg):
    """Highest saturation, then highest uncoloured degree, then lowest id."""
    best, best_key = -1, None
    for v in range(g.n):
        if colours[v] >= 0:
            continue
        key = (sat[v].bit_count(), uncoloured_deg[v], -v)
        if best_key is None or key > best_key:
            best, best_key = v, key
    return best


def _kcol_search(g, k, seed_clique, deadline):
    """DSATUR branch-and-bound for k-colourability.

    Symmetry breaking: a vertex may open at most one new colour class.
    ``seed_clique`` vertices are pre-assigned distinct colours.
    """
    n = g.n
    colours = [-1] * n
    sat = [0] * n  # bitmask of colours present in the neighbourhood
    uncoloured_deg = [g.degree(v) for v in range(n)]

    def assign(v, c):
        colours[v] = c
        bit = 1 << c
        touched = []
        for u in iter_bits(g.adj[v]):
            uncoloured_deg[u] -= 1
            if colours[u] < 0 and not (sat[u] & bit):
                sat[u] |= bit
                touched.append(u)
        return touched

    def unassign(v, c, touched):
        colours[v] = -1
        bit = 1 << c
        for u in iter_bits(g.adj[v]):
            uncoloured_deg[u] += 1
        for u in touched:
            sat[u] &= ~bit

    for i, v in enumerate(seed_clique):
        assign(v, i)
    used = len(seed_clique)

    def rec(done, used):
        deadline.check()
        if done == n:
            return True
        v = _pick_dsatur(g, colours, sat, uncoloured_deg)
        limit = min(used + 1, k)
        for c in range(limit):
            if (sat[v] >> c) & 1:
                continue
            touched = assign(v, c)
            if rec(done + 1, max(used, c + 1)):
                return True
            unassign(v, c, touched)
        return False

    if rec(len(seed_clique), used):
        return tuple(colours)
    return None


def is_k_colourable(g, k, budget=None):
    """Witness colouring iff chi(g) <= k, else None."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if g.n == 0:
        return Colouring((), 0)
    if k == 0:
        return None
    deadline = _Deadline(budget)
    seed = greedy_clique(g)
    if len(seed) > k:
        return None
    result = _kcol_search(g, k, seed, deadline)
    if result is None:
        return None
    return Colouring(result, max(result) + 1)


def _dsatur_greedy(g):
    """Plain greedy DSATUR; upper bound plus witness."""
    colours = [-1] * g.n
    sat = [0] * g.n
    uncoloured_deg = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        v = _pick_dsatur(g, colours, sat, uncoloured_deg)
        c = 0
        while (sat[v] >> c) & 1:
            c += 1
        colours[v] = c
        for u in iter_bits(g.adj[v]):
            uncoloured_deg[u] -= 1
            if colours[u] < 0:
                sat[u] |= 1 << c
    k = max(colours) + 1 if g.n else 0
    return Colouring(tuple(colours), k)


def chromatic_number(g, budget=None):
    """Exact chi with witness; intended for n <= 70."""
    if g.n == 0:
        return 0, Colouring((), 0)
    deadline = _Deadline(budget)
    seed = greedy_clique(g)
    ub_col = _dsatur_greedy(g)
    if len(seed) == ub_col.k:
        return ub_col.k, ub_col
    for k in range(len(seed), ub_col.k):
        result = _kcol_search(g, k, seed, deadline)
        if result is not None:
            return k, Colouring(result, max(result) + 1)
    return ub_col.k, ub_col


def max_clique(g, budget=None):
    """Exact clique number with witness; greedy-colouring upper bound."""
    if g.n == 0:
        return 0, ()
    deadline = _Deadline(budget)
    adj = g.adj
    best = list(greedy_clique(g))

    def expand(r, cand):
        deadline.check()
        order, bounds = [], []
        c = cand
        colour = 0
        while c:
            colour += 1
            q = c
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q &= ~adj[v]
                q ^= low
                c ^= low
                order.append(v)
                bounds.append(colour)
        sub = cand
        for i in range(len(order) - 1, -1, -1):
            if len(r) + bounds[i] <= len(best):
                return
            v = order[i]
            sub ^= 1 << v
            r.append(v)
            if len(r) > len(best):
                best[:] = r
            nxt = sub & adj[v]
            if nxt:
                expand(r, nxt)
            r.pop()

    expand([], (1 << g.n) - 1)
    return len(best), tuple(sorted(best))


def clique_cover_number(g, budget=None):
    """chi of the complement; colour classes become cliques of g."""
    comp = g.complement()
    k, col = chromatic_number(comp, budget)
    parts = [[] for _ in range(k)]
    for v, c in enumerate(col.colours):
        parts[c].append(v)
    cover = CliqueCover(tuple(tuple(p) for p in parts if p))
    if not validate_clique_cover(g, cover):
        raise RuntimeError("complement colouring did not give a clique cover")
    return k, cover


def solve_x3c_brute(inst):
    """First (in index order) exact 3-cover as triple indices, or None."""
    ground = frozenset(range(3 * inst.q))
    for chosen in combinations(range(inst.k), inst.q):
        seen = set()
        ok = True
        for idx in chosen:
            triple = inst.triples[idx]
            if seen.intersection(triple):
                ok = False
                break
            seen.update(triple)
        if ok and seen == ground:
            return chosen
    return None


def solve_sat_brute(inst):
    """First satisfying assignment by enumeration, or None; n <= 20."""
    for bits in product((False, True), repeat=inst.n):
        ok = True
        for clause in inst.clauses:
            if not any(bits[abs(lit) - 1] == (lit > 0) for lit in clause):
                ok = False
                break
        if ok:
            return bits
    return None
