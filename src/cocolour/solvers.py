"""Exact ground-truth solvers: colouring, cliques, clique cover, X3C, 3-SAT.

All solvers are exhaustive or branch-and-bound with deterministic tie-breaks;
there is no heuristic mode.  Optional ``budget`` arguments are wall-clock
seconds; exceeding one raises BudgetExceededError, which callers must treat
as "unknown", never as "no".
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from itertools import combinations, product

from . import BudgetExceededError
from .graphs import first_pair, iter_bits


class Colouring(namedtuple("Colouring", "colours k")):
    """``colours``: vertex -> colour in 0..k-1."""

    __slots__ = ()


class CliqueCover(namedtuple("CliqueCover", "parts")):
    """``parts``: a tuple of vertex tuples."""

    __slots__ = ()


def validate_colouring(g, col):
    if len(col.colours) != g.n:
        return False
    if g.n and (min(col.colours) < 0 or max(col.colours) >= col.k):
        return False
    # One vertex mask per colour; a proper colouring has no edge inside one.
    classes = [0] * (max(col.colours, default=-1) + 1)
    for v, c in enumerate(col.colours):
        classes[c] |= 1 << v
    return not any(row & classes[c] for row, c in zip(g.adj, col.colours))


def validate_clique(g, vertices):
    """True iff the vertices are pairwise adjacent; a repeated vertex fails."""
    return first_pair(g, vertices, adjacent=False) is None


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
        if budget is not None and math.isnan(budget):
            # no time compares greater than NaN, so it would never expire
            raise ValueError("budget must be a number of seconds, got nan")
        self.at = None if budget is None else time.monotonic() + budget
        self.ticks = 0

    def left(self):
        """Seconds left, or None without a budget: the budget to hand a callee."""
        return None if self.at is None else self.at - time.monotonic()

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
    adj = g.adj
    clique = []
    cand = (1 << g.n) - 1
    while cand:
        best_v, best_key = -1, None
        for v in iter_bits(cand):
            key = (adj[v] & cand).bit_count()
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        clique.append(best_v)
        cand &= adj[best_v]
    return tuple(clique)


def _add_one(slices, mask):
    """Bit-sliced counts plus one at the vertices of ``mask``, as a new
    list: a ripple-carry add, ``slices[i]`` holding bit i of each count."""
    out = slices[:]
    for i, s in enumerate(out):
        out[i] = s ^ mask
        mask &= s
        if not mask:
            return out
    if mask:
        out.append(mask)
    return out


def _kcol_search(g, k, seed_clique, deadline):
    """DSATUR branch-and-bound for k-colourability, with conflict-directed
    backjumping (Prosser 1993).

    Branches on the uncoloured vertex of highest saturation, trying its
    colours in ascending order.  Ties are broken in three ways:

    - while ``used < k``: highest uncoloured degree, then lowest id;
    - once ``used == k``, among decisions (two colours or more free):
      highest Sewell score (Sewell 1996), the sum over v's free colours c
      of its uncoloured neighbours with c free, then highest uncoloured
      degree, then lowest id;
    - once ``used == k``, among forced picks (one colour free) or dead ends
      (none): lowest id, with no score and no degree count.

    Forced colourings commute, as unit propagation does: whatever order
    the forced and dead-end ties are taken in, the same colourings follow
    or a wipe-out is found, so that order moves only the node where a
    wipe-out shows, never the result of plain backtracking.  Scoring only
    the decisions keeps the score off the most common nodes.

    Symmetry breaking: a vertex may open at most one new colour class.
    ``seed_clique`` (at most k vertices) is pre-assigned distinct colours.
    With k = n no vertex runs out of colours and ``used < k`` at every
    pick, so the first descent is plain greedy DSATUR and is returned as
    it stands.

    The state is bitsets: ``nbr[c]`` is the mask of vertices with a
    neighbour coloured c, ``cm[c]`` the mask of vertices coloured c and
    ``unc`` the mask of uncoloured vertices, so colouring v with c is
    ``nbr[c] |= adj[v]`` and undoing it restores the saved ``nbr[c]``.
    Saturations are kept bit-sliced and incrementally, after San Segundo
    2012: ``slices[i]`` holds bit i of every uncoloured vertex's count, so
    colouring v with c adds one at the vertices of ``adj[v] & ~nbr[c] &
    unc`` (``_add_one``), and the maximum is found by a descent from the
    top slice.  The search is a loop over an explicit stack of ``(vertex,
    colour, colours used before it, saved nbr[colour], conflict mask, saved
    slices)`` frames, so its depth is not bounded by Python's recursion
    limit.  Popping frames restores their saved ``nbr`` masks and the
    slices saved by the last frame popped.
    ``deadline.check()`` runs once per search node.

    A vertex v with no colour left is a dead end, and the state is then
    the one in which v was picked.  Its conflict mask holds, for each
    colour that neighbours block, the one of them coloured first, merged
    with the masks of the subtrees that failed below v.  A colour that the
    symmetry rule pruned adds nothing: swapping it with the new colour v
    did try maps any colouring to one that v's failed subtree excludes,
    and leaves the colours of the vertices searched before v alone.  The
    search pops frames up to the deepest vertex of the mask, merges the
    rest of the mask into that frame's and tries the frame's next colour.
    Seed vertices come first and are never popped, so a mask that names
    no searched vertex refutes the instance.  The frames skipped hold no
    solution, so the search returns the witness of plain backtracking,
    with the same branching order, and visits at most as many nodes.
    """
    adj = g.adj
    colours = [-1] * g.n
    nbr = [0] * k
    cm = [0] * k
    depth = [-1] * g.n  # stack index; -1 for the seed, which never moves
    unc = (1 << g.n) - 1
    slices = []
    for c, v in enumerate(seed_clique):
        colours[v] = c
        nbr[c] = adj[v]
        cm[c] = 1 << v
        unc ^= 1 << v
        slices = _add_one(slices, adj[v] & unc)
    used = len(seed_clique)
    stack = []
    while True:
        deadline.check()
        if not unc:
            return tuple(colours)
        best = unc
        for s in reversed(slices):
            if best & s:
                best &= s
        if not best & (best - 1):
            v = best.bit_length() - 1
        elif used < k:
            v, v_deg = -1, -1
            while best:
                low = best & -best
                best ^= low
                u = low.bit_length() - 1
                deg = (adj[u] & unc).bit_count()
                if deg > v_deg:
                    v, v_deg = u, deg
        else:  # a forced pick or dead end keeps the lowest id, unscored
            v = (best & -best).bit_length() - 1
            sat = 0
            for s in reversed(slices):
                sat = 2 * sat + (s >> v & 1)
            free = k - sat
            if free > 1:
                v_score = v_deg = -1
                while best:
                    low = best & -best
                    best ^= low
                    u = low.bit_length() - 1
                    a = adj[u] & unc
                    deg = a.bit_count()
                    if free * deg <= v_score:  # score <= free * deg: u cannot win
                        continue
                    score = 0
                    for m in nbr:
                        if not m >> u & 1:
                            score += (a & ~m).bit_count()
                    if score > v_score or score == v_score and deg > v_deg:
                        v, v_score, v_deg = u, score, deg
        unc ^= 1 << v
        c = 0
        conf = 0
        while True:
            limit = used + 1 if used < k else k
            while c < limit and nbr[c] >> v & 1:
                c += 1
            if c < limit:
                break
            for b in range(limit):
                blockers = adj[v] & cm[b]
                if blockers:
                    u = blockers.bit_length() - 1
                    rest = blockers ^ 1 << u
                    while rest:
                        w = rest.bit_length() - 1
                        rest ^= 1 << w
                        if depth[w] < depth[u]:
                            u = w
                    conf |= 1 << u
            unc |= 1 << v
            while stack and not conf >> stack[-1][0] & 1:
                u, b, _, nbr[b], _, _ = stack.pop()
                cm[b] ^= 1 << u
                unc |= 1 << u
            if not stack:
                return None
            v, c, used, nbr[c], frame_conf, slices = stack.pop()
            cm[c] ^= 1 << v
            conf = (conf | frame_conf) ^ 1 << v
            c += 1
        depth[v] = len(stack)
        stack.append((v, c, used, nbr[c], conf, slices))
        slices = _add_one(slices, adj[v] & ~nbr[c] & unc)
        nbr[c] |= adj[v]
        cm[c] |= 1 << v
        colours[v] = c
        if c == used:
            used += 1


def is_k_colourable(g, k, budget=None):
    """Witness colouring iff chi(g) <= k, else None."""
    if k < 0:
        raise ValueError("k must be non-negative")
    deadline = _Deadline(budget)  # refuses a NaN budget on every input
    if g.n == 0:
        return Colouring((), 0)
    if k == 0:
        return None
    seed = greedy_clique(g)
    if len(seed) > k:
        return None
    # any k >= n answers as k = n does, and the search state has k entries
    result = _kcol_search(g, min(k, g.n), seed, deadline)
    if result is None:
        return None
    return Colouring(result, max(result) + 1)


def chromatic_number(g, budget=None):
    """Exact chi with witness; intended for n <= 70."""
    deadline = _Deadline(budget)
    if g.n == 0:
        return 0, Colouring((), 0)
    seed = greedy_clique(g)
    # Unbudgeted, as it never backtracks: a budget of 0 still answers K_n.
    greedy = _kcol_search(g, g.n, (), _Deadline(None))
    ub_col = Colouring(greedy, max(greedy) + 1)
    if len(seed) == ub_col.k:
        return ub_col.k, ub_col
    for k in range(len(seed), ub_col.k):
        result = _kcol_search(g, k, seed, deadline)
        if result is not None:
            return k, Colouring(result, max(result) + 1)
    return ub_col.k, ub_col


def max_clique(g, budget=None):
    """Exact clique number with witness; greedy-colouring upper bound.

    Branch and bound over the candidate set, coloured greedily at each node
    (Tomita & Seki 2003): candidates are tried from the last colour class
    down, and a branch is cut once the clique plus its colour bound cannot
    beat the best found.  The search is a loop over an explicit stack of
    ``(colour order, bounds, index, candidates left)`` frames, so its depth
    is not bounded by Python's recursion limit.  ``deadline.check()`` runs
    once per search node.
    """
    deadline = _Deadline(budget)
    if g.n == 0:
        return 0, ()
    adj = g.adj
    best = list(greedy_clique(g))
    r, stack = [], []
    cand = (1 << g.n) - 1
    while True:
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
        i, sub = len(order), cand
        while True:
            i -= 1
            if i >= 0 and len(r) + bounds[i] > len(best):
                v = order[i]
                sub ^= 1 << v
                r.append(v)
                if len(r) > len(best):
                    best[:] = r
                cand = sub & adj[v]
                if cand:
                    stack.append((order, bounds, i, sub))
                    break
                r.pop()
            elif stack:
                order, bounds, i, sub = stack.pop()
                r.pop()
            else:
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
