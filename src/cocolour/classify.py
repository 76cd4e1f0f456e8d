"""Complexity verdicts for Colouring on hereditary graph classes.

Each classifier returns a Classification carrying the verdict, the rule that
fired, and when available a witness (an embedding or a containment fact), so
callers can check *why* a verdict was reached and not just what it was.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .graphs import components, parse_pattern

POLY = "Poly"
NP_COMPLETE = "NPComplete"
OPEN = "Open"

# Colouring is polynomial on H-free graphs if H is an induced subgraph of a
# host in _H_FREE_HOSTS, and on (H, co-H)-free graphs if H or co-H is an
# induced subgraph of a host in _H_COH_HOSTS.  The hosts are parsed on first
# use, so that a k-Colouring verdict, a table lookup, builds no graph.
_H_FREE_HOSTS = ("P1+P3", "P4")
_H_COH_HOSTS = ("K1,3", "P1+P4", "2P1+P3", "P2+P3", "P5")


@cache
def _host(name):
    return parse_pattern(name)


class Classification(namedtuple("Classification", "verdict rule witness", defaults=(None,))):
    __slots__ = ()


def classify_h_free(h):
    """Colouring restricted to H-free graphs: Poly iff H fits inside
    P1+P3 or P4, NP-complete otherwise.  Never Open."""
    from . import patterns

    for name in _H_FREE_HOSTS:
        emb = patterns.find_induced(_host(name), h)
        if emb is not None:
            return Classification(POLY, f"poly:subgraph-of-{name}", emb)
    return Classification(NP_COMPLETE, "npc:h-free-otherwise")


def classify_self_comp_family(hs):
    """Colouring on (H1,...,Hk)-free graphs, every Hi self-complementary:
    Poly iff some Hi fits inside P4."""
    from . import patterns

    for i, h in enumerate(hs):
        if not patterns.is_self_complementary(h):
            raise ValueError(f"graph at index {i} is not self-complementary")
    for i, h in enumerate(hs):
        emb = patterns.find_induced(_host("P4"), h)
        if emb is not None:
            return Classification(
                POLY, "poly:some-member-in-P4", (i, emb)
            )
    return Classification(NP_COMPLETE, "npc:no-member-in-P4")


def _linear_forest_exception(h):
    """Detect sP1+P3 (s >= 3) and sP1+P4 (s >= 2), the open cases."""
    comps = components(h)
    # A linear forest: acyclic, and no vertex of degree 3 or more.
    if h.edge_count != h.n - len(comps) or any(row.bit_count() > 2 for row in h.adj):
        return None
    sizes = [comp.bit_count() for comp in comps]
    trivial = sum(1 for s in sizes if s == 1)
    nontrivial = sorted(s for s in sizes if s > 1)
    if nontrivial == [3] and trivial >= 3:
        return f"{trivial}P1+P3"
    if nontrivial == [4] and trivial >= 2:
        return f"{trivial}P1+P4"
    return None


def classify_h_coh(h):
    """Colouring on (H, co-H)-free graphs.

    The open exceptions (a P3 with three or more isolated vertices, a P4
    with two or more) are checked structurally first, on both H and its
    complement.  Then Poly fires when H or co-H fits inside one of the five
    fixed hosts or has at most one edge (the sP1+P2 family for any s).
    """
    from . import patterns

    hbar = h.complement()
    for side, g in (("H", h), ("co-H", hbar)):
        name = _linear_forest_exception(g)
        if name is not None:
            return Classification(OPEN, f"open:{side}={name}")
    for side, g in (("H", h), ("co-H", hbar)):
        if g.edge_count <= 1:
            return Classification(POLY, f"poly:{side}-in-sP1+P2")
        for name in _H_COH_HOSTS:
            emb = patterns.find_induced(_host(name), g)
            if emb is not None:
                return Classification(
                    POLY, f"poly:{side}-in-{name}", emb
                )
    return Classification(NP_COMPLETE, "npc:h-coh-otherwise")


def classify_k_col_pt(k, t):
    """k-Colouring on (Pt, co-Pt)-free graphs."""
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    if k <= 2:
        return Classification(POLY, "poly:k<=2")
    if t <= 5:
        return Classification(POLY, "poly:t<=5")
    if k == 3:
        if t <= 7:
            return Classification(POLY, "poly:k=3,t<=7")
        return Classification(OPEN, "open:k=3,t>=8")
    if t >= 8:
        return Classification(NP_COMPLETE, "npc:k>=4,t>=8")
    return Classification(OPEN, "open:k>=4,t-in-6..7")
