"""Greedy Morse matchings by repeated free-pair elimination.

Two dual strategies over a shrinking copy of the complex.  Coreduction
pairs a simplex with its unique remaining facet and otherwise declares
the smallest remaining simplex critical, working upward from vertices.
Reduction pairs a simplex with its unique remaining cofacet and
otherwise declares the largest remaining simplex critical, peeling from
the top.  Both remove the involved simplices immediately, so the pairing
order itself witnesses acyclicity; the result is still certified.

Ties break on (dimension, vertex tuple) so runs are reproducible.
"""
from __future__ import annotations

import heapq

from .complexes import SimplicialComplex, Simplex, facets_of
from .morse import MorseMatching, certify


def coreduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining facet when one exists.

    A fresh complex has no simplex with exactly one facet (a vertex has
    none, an edge has two), so the loop starts by removing one critical
    vertex, which frees its neighbours.  Heaps hold candidates keyed
    canonically; stale entries are skipped on pop.
    """
    alive = set(K.simplices)
    n_facets = {s: len(s) if len(s) > 1 else 0 for s in K.simplices}
    cofacets = K.cofacet_map

    pairs: list[tuple[Simplex, Simplex]] = []
    pair_heap: list[tuple[int, Simplex]] = []
    crit_heap = [(len(s), s) for s in K.simplices]
    heapq.heapify(crit_heap)

    def remove(s: Simplex) -> None:
        alive.discard(s)
        for c in cofacets[s]:
            if c in alive:
                n_facets[c] -= 1
                if n_facets[c] == 1:
                    heapq.heappush(pair_heap, (len(c), c))

    while alive:
        while pair_heap:
            _, beta = heapq.heappop(pair_heap)
            if beta in alive and n_facets[beta] == 1:
                alpha = next(f for f in facets_of(beta) if f in alive)
                remove(beta)
                remove(alpha)
                pairs.append((alpha, beta))
                break
        else:
            while True:
                _, s = heapq.heappop(crit_heap)
                if s in alive:
                    remove(s)
                    break
    return certify(K, pairs)


def reduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining cofacet when one exists.

    Removal keeps the remaining set downward closed (a pair is a maximal
    simplex plus a free facet, a critical is maximal), so counting
    cofacets inside the original complex stays accurate.
    """
    alive = set(K.simplices)
    cofacets = K.cofacet_map
    n_cofacets = {s: len(cs) for s, cs in cofacets.items()}

    pairs: list[tuple[Simplex, Simplex]] = []
    pair_heap: list[tuple[tuple[int, Simplex], Simplex]] = []
    crit_heap = [((-len(s), s), s) for s in K.simplices]
    heapq.heapify(crit_heap)

    for s, k in n_cofacets.items():
        if k == 1:
            heapq.heappush(pair_heap, ((len(s), s), s))

    def remove(s: Simplex) -> None:
        alive.discard(s)
        if len(s) < 2:
            return
        for f in facets_of(s):
            if f in alive:
                n_cofacets[f] -= 1
                if n_cofacets[f] == 1:
                    heapq.heappush(pair_heap, ((len(f), f), f))

    while alive:
        while pair_heap:
            _, alpha = heapq.heappop(pair_heap)
            if alpha in alive and n_cofacets[alpha] == 1:
                beta = next(c for c in cofacets[alpha] if c in alive)
                remove(beta)
                remove(alpha)
                pairs.append((alpha, beta))
                break
        else:
            while True:
                _, s = heapq.heappop(crit_heap)
                if s in alive:
                    remove(s)
                    break
    return certify(K, pairs)
