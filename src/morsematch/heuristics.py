"""Greedy Morse matchings by repeated free-pair elimination.

Two dual strategies over a shrinking copy of the complex.  Coreduction
pairs a simplex with its unique remaining facet and otherwise declares
the smallest remaining simplex critical, working upward from vertices.
Reduction pairs a simplex with its unique remaining cofacet and
otherwise declares the largest remaining simplex critical, peeling from
the top.  Both remove the involved simplices immediately, so the pairing
order itself witnesses acyclicity; the result is still certified.  Both
run on simplex ids and record each pair in an up array (face id to
coface id), which certify takes as it is: validated on ids and searched
for cycles without a detour through simplex tuples.

Ties break on (dimension, vertex tuple) so runs are reproducible.
"""
from __future__ import annotations

import heapq

from .complexes import SimplicialComplex
from .hasse import OrientedHasse
from .morse import MorseMatching, certify


def coreduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining facet when one exists.

    A fresh complex has no simplex with exactly one facet (a vertex has
    none, an edge has two), so the loop starts by removing one critical
    vertex, which frees its neighbours.  Works on simplex ids, whose order
    is canonical: a heap holds candidate cofaces and stale entries are
    skipped on pop; criticals are taken smallest id first, which a
    pointer over the ids gives without a heap.
    """
    F, C = K.facet_ids, K.cofacet_ids
    alive = bytearray(b"\x01") * K.n
    left = K.n
    n_facets = [len(fs) for fs in F]

    up = [-1] * K.n
    pair_heap: list[int] = []
    crit = 0

    def remove(s: int) -> None:
        nonlocal left
        alive[s] = 0
        left -= 1
        for c in C[s]:
            if alive[c]:
                n_facets[c] -= 1
                if n_facets[c] == 1:
                    heapq.heappush(pair_heap, c)

    while left:
        while pair_heap:
            beta = heapq.heappop(pair_heap)
            if alive[beta] and n_facets[beta] == 1:
                alpha = next(f for f in F[beta] if alive[f])
                remove(beta)
                remove(alpha)
                up[alpha] = beta
                break
        else:
            while not alive[crit]:
                crit += 1
            remove(crit)
    return certify(K, OrientedHasse(K, up))


def reduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining cofacet when one exists.

    Removal keeps the remaining set downward closed (a pair is a maximal
    simplex plus a free facet, a critical is maximal), so counting
    cofacets inside the original complex stays accurate.  Works on ids
    like coreduction: candidate faces on a heap, criticals taken by the
    key (-dim, id), largest dimension first, through a pointer over the
    ids in that order.
    """
    F, C = K.facet_ids, K.cofacet_ids
    alive = bytearray(b"\x01") * K.n
    left = K.n
    n_cofacets = [len(cs) for cs in C]

    up = [-1] * K.n
    pair_heap = [s for s, k in enumerate(n_cofacets) if k == 1]
    crit_order = [
        s for d in range(K.dim, -1, -1) for s in range(K.offset(d), K.offset(d + 1))
    ]
    crit = 0

    def remove(s: int) -> None:
        nonlocal left
        alive[s] = 0
        left -= 1
        for f in F[s]:
            if alive[f]:
                n_cofacets[f] -= 1
                if n_cofacets[f] == 1:
                    heapq.heappush(pair_heap, f)

    while left:
        while pair_heap:
            alpha = heapq.heappop(pair_heap)
            if alive[alpha] and n_cofacets[alpha] == 1:
                beta = next(c for c in C[alpha] if alive[c])
                remove(beta)
                remove(alpha)
                up[alpha] = beta
                break
        else:
            while not alive[crit_order[crit]]:
                crit += 1
            remove(crit_order[crit])
    return certify(K, OrientedHasse(K, up))

