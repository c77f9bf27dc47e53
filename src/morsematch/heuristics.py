"""Greedy Morse matchings by repeated free-pair elimination.

Two dual strategies over a shrinking copy of the complex.  Coreduction
pairs a simplex with its unique remaining facet and otherwise declares
the smallest remaining simplex critical, working upward from vertices.
Reduction pairs a simplex with its unique remaining cofacet and
otherwise declares the largest remaining simplex critical, peeling from
the top.  Both remove the involved simplices immediately, so the pairing
order itself witnesses acyclicity; the result is still certified.

Both run one kernel, complexes._eliminate, on simplex ids: it counts
remaining facets (coreduction) or cofacets (reduction), and only the
order of criticals differs.  The pairs go into an up array (face id to
coface id), which goes to certify.  Coreduction's is computed once per
complex and kept on it, since the maximum matching and the Betti
numbers start from it too (see complexes._coreduction); the certified
matching is not kept.  Ties break on (dimension, vertex tuple) so runs
are reproducible.
"""
from __future__ import annotations

from .complexes import SimplicialComplex, _coreduction, _eliminate
from .hasse import OrientedHasse
from .morse import MorseMatching, certify


def coreduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining facet when one exists.

    The up array is the one complexes._coreduction keeps on K; each call
    certifies it and returns a new, equal matching.
    """
    return certify(K, OrientedHasse(K, _coreduction(K)))


def reduction_matching(K: SimplicialComplex) -> MorseMatching:
    """Pair each simplex with its unique remaining cofacet when one exists.

    Removal keeps the remaining set downward closed, so cofacet counts
    inside the original complex stay accurate.  Criticals go by the key
    (-dim, id), largest dimension first.
    """
    order = [s for d in range(K.dim, -1, -1) for s in range(K.offset(d), K.offset(d + 1))]
    up = _eliminate(K, K.cofacet_ids, K.facet_ids, order)
    return certify(K, OrientedHasse(K, up))
