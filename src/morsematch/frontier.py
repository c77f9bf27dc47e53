"""Morse matchings by breadth-first repair of a maximum matching.

Start from a maximum-cardinality matching on the Hasse diagram, which
may be cyclic, and orient it.  It is grown from coreduction's acyclic
matching (see hasse), so most of its pairs close no cycle.  Matched up-edges connect to each other
through shared facets: from an up-edge (a, b), each facet of b other than
a that is itself matched upward carries a "leading" up-edge one step away.
The search grows a component of examined edges breadth-first.  Every
leading up-edge it meets is classified exactly once: kept (forward) when
pairing it closes no alternating cycle through the pairs the component
has kept so far, and reversed (backward) otherwise.  Kept edges stay
matched; reversed ones drop out of the matching.  A kept pair joins the
cycle test when it is classified, not when it later leaves the queue, so
every candidate is tested against all kept pairs it could close a cycle
with, and the output is acyclic in every dimension.

A component takes every facet edge of each coface it classifies out of
the working diagram, so the state is just a flag per absorbed coface:
bfs_component flags a coface when it classifies its pair and never steps
into or onto a flagged one, so it classifies no pair twice and later
components stay out of it.  Its queue is its list of kept pairs,
walked in the order they were kept.  The search runs on simplex ids,
reading and writing the up array of the orientation, and returns its
kept and reversed pairs as id pairs.  The FrontierResult keeps them as
its _ids, and Record decodes its components into EdgeComponent records
of simplex tuples only when they are first read, which the CLI never
does.

Cycles alternate up and down edges and need at least three up-edges, so
the first processed level of a component can never reverse anything.
Counting forward, backward and still-frontier edges after each processed
queue node shows the kept fraction of every component stays at least
(d+1)/(d*d+d+1) for its interface dimension d, which bounds the final
matching against the maximum one on the whole diagram by the same ratio
at d = dim K.  The search keeps no such count; the frozen reference in
tests/helpers.py does, and the tests check the bound at every step.
"""
from __future__ import annotations

from .complexes import Record, SimplicialComplex
from .hasse import Pair, OrientedHasse, max_cardinality_matching, max_matching_mates
from .morse import MorseMatching, certify, closes_cycle


class EdgeComponent(Record):
    """One BFS component: its interface dimension and its classifications.

    forward holds the kept pairs in the order they were kept, the seed
    pair first; backward holds the reversed ones.  Its edges are the facet
    edges of the cofaces in both, and dim is the dimension of the seed's
    coface.  A plain record: FrontierResult decodes it from the id pairs
    bfs_component returned.
    """

    dim: int
    forward: tuple[Pair, ...]
    backward: tuple[Pair, ...]


class FrontierResult(Record):
    """The certified matching, its components and the maximum matching's size.

    frontier_edges_matching leaves components unset and keeps _ids, the
    complex and the (forward, backward) id pairs of each component;
    Record decodes the components from them on first access.
    """

    morse: MorseMatching
    components: tuple[EdgeComponent, ...]
    source_matching_size: int
    _ids: tuple | None = None

    @staticmethod
    def _decode(K: SimplicialComplex, found) -> dict:
        S = K.simplices
        pairs = [[tuple((S[a], S[b]) for a, b in ids) for ids in comp] for comp in found]
        return {"components": tuple(EdgeComponent(len(fw[0][1]) - 1, fw, bw) for fw, bw in pairs)}


def _leading(F, up, absorbed, a: int, b: int) -> list[int]:
    """Faces of the up-edges one down-edge from the up-edge (a, b).

    They are the facets f of b other than a that are matched up, to a
    coface up[f] that is not yet absorbed: no earlier component took it
    and this one has not classified its pair.
    """
    return [f for f in F[b] if f != a and up[f] >= 0 and not absorbed[up[f]]]


def bfs_component(
    oh: OrientedHasse, a0: int, absorbed: bytearray, kept: list[int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Classify every up-edge reachable from the seed face a0, reversing cycle makers.

    The seed is the pair (a0, oh.up[a0]); every other pair is named by
    its face id too, since a face is matched up to at most one coface.
    Mutates oh: a backward-classified pair is reversed by setting its
    up entry to -1.  kept is an id array over the complex, -1 everywhere
    on entry; the face of the seed and of every pair kept so far points
    to its coface there, and the entries are cleared again on return, so
    one array serves every component of a run.  A kept pair enters it
    when it is classified, not when it leaves the queue.  A candidate
    up-edge (a, b) survives only when closes_cycle finds no alternating
    path from b back to a through those pairs, so the kept pairs stay
    acyclic in every dimension.  The queue is the forward list itself,
    and each kept pair's leading up-edges are read once, when it is
    dequeued.  absorbed is a flag per id: cofaces of earlier components
    are set there and are not entered, and this component sets each of
    its own when it classifies the pair, which also keeps it from
    classifying a pair twice.  Returns the kept and the reversed pairs
    as (face id, coface id) lists, (forward, backward), the seed first.
    """
    K, up = oh.complex, oh.up
    F = K.facet_ids
    b0 = up[a0]
    kept[a0] = b0
    absorbed[b0] = 1
    forward = [a0]
    backward: list[tuple[int, int]] = []
    for c in forward:  # the queue: forward grows as pairs are kept
        for a in _leading(F, up, absorbed, c, up[c]):
            b = up[a]
            absorbed[b] = 1
            if closes_cycle(kept, F, a, b):
                up[a] = -1
                backward.append((a, b))
            else:
                kept[a] = b
                forward.append(a)
    forward_pairs = [(a, kept[a]) for a in forward]
    for a in forward:
        kept[a] = -1
    return forward_pairs, backward


def frontier_edges_matching(K: SimplicialComplex) -> FrontierResult:
    """Run the full pipeline: match, orient, classify component by component.

    The orientation starts from the maximum matching's mate array: each
    simplex points up to its mate when the mate has the larger id, which
    is the coface.  Seeds are taken by coface id, so smallest first by
    (dimension, coface), and each is named by the face its coface is
    matched down to.  A component absorbs all facet edges of every coface
    it classifies, so a covering edge leaves the working diagram exactly
    when its coface is absorbed, and a seed is skipped once its coface is.  The returned
    matching is re-certified from scratch rather than trusted: certify
    validates the up array of the repaired orientation on ids and
    searches it anew.  The components stay id pairs until read.
    """
    mates = max_matching_mates(K)
    oh = OrientedHasse(K, [m if m > i else -1 for i, m in enumerate(mates)])
    absorbed = bytearray(K.n)
    kept = [-1] * K.n
    found = []
    for b, a in enumerate(mates):
        if 0 <= a < b and not absorbed[b]:
            found.append(bfs_component(oh, a, absorbed, kept))
    return FrontierResult.__new__(FrontierResult)._set(  # components stays unset until read
        morse=certify(K, oh),
        source_matching_size=max_cardinality_matching(K),
        _ids=(K, found),
    )
