"""Greedy Morse matchings by repeated free-pair elimination.

Two dual strategies over a shrinking copy of the complex.  Coreduction
pairs a simplex with its unique remaining facet and otherwise declares
the smallest remaining simplex critical, working upward from vertices.
Reduction pairs a simplex with its unique remaining cofacet and
otherwise declares the largest remaining simplex critical, peeling from
the top.  Both remove the involved simplices immediately, so the pairing
order itself witnesses acyclicity; the result is still certified.

Both run one kernel, _eliminate, on simplex ids: it counts remaining
facets (coreduction) or cofacets (reduction), and only the order of
criticals differs.  The pairs go into an up array (face id to coface
id), which certify takes as it is.  Ties break on (dimension, vertex
tuple) so runs are reproducible.
"""
from __future__ import annotations

from heapq import heappop, heappush

from .complexes import SimplicialComplex
from .hasse import OrientedHasse
from .morse import MorseMatching, certify


def _eliminate(K: SimplicialComplex, counted, notified, order) -> list[int]:
    """The up array of greedy elimination over one side of the incidence.

    counted[s] holds the neighbours of s that its count covers, and
    notified, the inverse relation, the simplices whose counts drop when
    s goes.  A simplex with one counted neighbour left pairs with it,
    smallest id first, through a heap whose stale entries are skipped on
    pop; when none is left, the next alive id of order is critical.  The
    coface of a pair is the larger id of the two.
    """
    alive = bytearray(b"\x01") * K.n
    count = [len(xs) for xs in counted]
    heap = [s for s, k in enumerate(count) if k == 1]
    up = [-1] * K.n
    crits = iter(order)
    while True:
        while heap:
            x = heappop(heap)
            if alive[x] and count[x] == 1:
                for y in counted[x]:
                    if alive[y]:
                        break
                a, b = (x, y) if x < y else (y, x)
                up[a] = b
                alive[x] = alive[y] = 0
                gone = notified[x] + notified[y]
                break
        else:
            for x in crits:
                if alive[x]:
                    break
            else:
                return up
            alive[x] = 0
            gone = notified[x]
        for c in gone:
            if alive[c]:
                count[c] -= 1
                if count[c] == 1:
                    heappush(heap, c)


def coreduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining facet when one exists.

    No simplex of a fresh complex has one facet, so elimination starts
    by declaring the first vertex critical; criticals go in id order.
    """
    up = _eliminate(K, K.facet_ids, K.cofacet_ids, range(K.n))
    return certify(K, OrientedHasse(K, up))


def reduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining cofacet when one exists.

    Removal keeps the remaining set downward closed, so cofacet counts
    inside the original complex stay accurate.  Criticals go by the key
    (-dim, id), largest dimension first.
    """
    order = [s for d in range(K.dim, -1, -1) for s in range(K.offset(d), K.offset(d + 1))]
    up = _eliminate(K, K.cofacet_ids, K.facet_ids, order)
    return certify(K, OrientedHasse(K, up))
