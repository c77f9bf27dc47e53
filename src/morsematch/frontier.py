"""Morse matchings by breadth-first repair of a maximum matching.

Start from a maximum-cardinality matching on the Hasse diagram, which is
usually cyclic, and orient it.  Matched up-edges connect to each other
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
the working diagram, so the state between components is just the set of
absorbed cofaces: bfs_component and leading_up_edges take it and never
step into or onto an absorbed coface.

Cycles alternate up and down edges and need at least three up-edges, so
the first processed level of a component can never reverse anything.
Counting forward, backward and still-frontier edges after each processed
queue node keeps the kept fraction of every component at least
(d+1)/(d*d+d+1) for its interface dimension d, which bounds the final
matching against the maximum one on the whole diagram by the same ratio
at d = dim K.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .complexes import SimplicialComplex, Simplex, facets_of
from .hasse import Pair, OrientedHasse, max_matching_mates
from .morse import MorseMatching, certify, closes_cycle


@dataclass(frozen=True)
class EdgeComponent:
    """One BFS component: its classifications and per-step trace.

    Its edges are the facet edges of the cofaces in forward and backward.
    """

    seed: Pair
    dim: int
    forward: tuple[Pair, ...]
    backward: tuple[Pair, ...]
    trace: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class FrontierResult:
    morse: MorseMatching
    components: tuple[EdgeComponent, ...]
    source_matching_size: int


def leading_up_edges(oh: OrientedHasse, chi: Pair, absorbed=frozenset()) -> list[Pair]:
    """Up-edges reachable from chi through one down-edge of its coface.

    absorbed holds the cofaces whose facet edges earlier components took
    out of the diagram: nothing is reachable from chi when its coface is
    absorbed, and an up-edge whose coface is absorbed is gone.
    """
    alpha, beta = chi
    if not oh.is_up(alpha, beta):
        raise ValueError(f"not an up-edge: {alpha} -> {beta}")
    if beta in absorbed:
        return []
    out = []
    for a2 in facets_of(beta):
        if a2 == alpha:
            continue
        b2 = oh.up_partner(a2)
        if b2 is None or b2 in absorbed:
            continue
        out.append((a2, b2))
    return out


def bfs_component(
    oh: OrientedHasse, seed: Pair, absorbed=frozenset(), kept: list[int] | None = None
) -> EdgeComponent:
    """Classify every up-edge reachable from the seed, reversing cycle makers.

    Mutates oh: backward-classified pairs are unmatched.  kept is an id
    array over the complex, -1 everywhere on entry; the face of the seed
    and of every pair kept so far points to its coface there, and the
    entries are cleared again on return, so one array serves every
    component of a run (a fresh one is made when it is None).  A kept
    pair enters it when it is classified, not when it leaves the queue.
    A candidate up-edge (a, b) survives only when closes_cycle finds no
    alternating path from b back to a through those pairs, so the kept
    pairs stay acyclic in every dimension.  The trace records (forward,
    backward, frontier) totals after each processed queue node.  Cofaces
    in absorbed belong to earlier components and are not entered (see
    leading_up_edges).
    """
    alpha0, beta0 = seed
    if not oh.is_up(alpha0, beta0):
        raise ValueError(f"not an up-edge: {alpha0} -> {beta0}")
    K = oh.complex
    F, index = K.facet_ids, K.index
    if kept is None:
        kept = [-1] * K.n
    faces = [index[alpha0]]
    kept[faces[0]] = index[beta0]
    forward = [seed]
    backward: list[Pair] = []
    classified = {seed}
    frontier = set(leading_up_edges(oh, seed, absorbed))
    trace = []
    queue = deque([seed])
    while queue:
        chi = queue.popleft()
        for cand in leading_up_edges(oh, chi, absorbed):
            if cand in classified:
                continue
            classified.add(cand)
            frontier.discard(cand)
            a_i, b_i = cand
            a, b = index[a_i], index[b_i]
            if closes_cycle(kept, F, a, b):
                oh.unmatch(a_i, b_i)
                backward.append(cand)
            else:
                kept[a] = b
                faces.append(a)
                forward.append(cand)
                queue.append(cand)
                frontier.update(
                    le for le in leading_up_edges(oh, cand, absorbed)
                    if le not in classified
                )
        trace.append((len(forward), len(backward), len(frontier)))
    for a in faces:
        kept[a] = -1
    return EdgeComponent(
        seed=seed,
        dim=len(beta0) - 1,
        forward=tuple(forward),
        backward=tuple(backward),
        trace=tuple(trace),
    )


def frontier_edges_matching(K: SimplicialComplex) -> FrontierResult:
    """Run the full pipeline: match, orient, classify component by component.

    The orientation starts from the maximum matching's mate array: each
    simplex points up to its mate when the mate has the larger id, which
    is the coface.  Seeds are taken smallest first by (dimension, coface).
    A component absorbs all facet edges of every coface it classifies, so
    a covering edge leaves the working diagram exactly when its coface is
    absorbed, and a seed is skipped once its coface is.  The returned
    matching is re-certified from scratch rather than trusted: certify
    validates the up array of the repaired orientation on ids and
    searches it anew.
    """
    mates = max_matching_mates(K)
    oh = OrientedHasse(K, [m if m > i else -1 for i, m in enumerate(mates)])
    absorbed: set[Simplex] = set()
    kept = [-1] * K.n
    components = []
    for seed in sorted(oh.up_pairs(), key=lambda p: (len(p[1]), p[1])):
        if seed[1] in absorbed:
            continue
        comp = bfs_component(oh, seed, absorbed, kept)
        absorbed.update(beta for _, beta in comp.forward + comp.backward)
        components.append(comp)
    return FrontierResult(
        morse=certify(K, oh),
        components=tuple(components),
        source_matching_size=(K.n - mates.count(-1)) // 2,
    )
