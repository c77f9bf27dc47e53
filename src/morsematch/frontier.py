"""Morse matchings by breadth-first repair of a maximum matching.

Start from a maximum-cardinality matching on the Hasse diagram, which is
usually cyclic, and orient it.  Matched up-edges connect to each other
through shared facets: from an up-edge (a, b), each facet of b other than
a that is itself matched upward carries a "leading" up-edge one step away.
The search grows a component of examined edges breadth-first.  Every
leading up-edge it meets is classified exactly once: kept (forward) when
its facet edges join the component without closing a directed cycle, and
reversed (backward) otherwise.  Kept edges stay matched; reversed ones
drop out of the matching.

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
from .hasse import Pair, OrientedHasse, hasse, max_cardinality_matching, orient
from .morse import MorseMatching, certify

Edge = tuple[Simplex, Simplex]


@dataclass(frozen=True)
class EdgeComponent:
    """One BFS component: its edges, classifications, and per-step trace."""

    seed: Pair
    dim: int
    edges: frozenset[Edge]
    forward: tuple[Pair, ...]
    backward: tuple[Pair, ...]
    trace: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class FrontierResult:
    morse: MorseMatching
    components: tuple[EdgeComponent, ...]
    source_matching_size: int


def facet_edges(oh: OrientedHasse, beta: Simplex) -> list[Edge]:
    """Edges between beta and its facets, with their current orientation."""
    if beta not in oh.complex:
        raise ValueError(f"unknown simplex {beta}")
    if len(beta) < 2:
        raise ValueError("facet edges undefined for a vertex")
    return [oh.oriented_edge(beta, alpha) for alpha in facets_of(beta)]


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


def _reaches(adj: dict, extra: list[Edge], start: Simplex, goal: Simplex) -> bool:
    """Directed reachability start -> goal over adj plus the extra edges."""
    t_adj: dict[Simplex, list[Simplex]] = {}
    for a, b in extra:
        t_adj.setdefault(a, []).append(b)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for nbrs in (adj.get(x, ()), t_adj.get(x, ())):
            for y in nbrs:
                if y == goal:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return False


def bfs_component(oh: OrientedHasse, seed: Pair, absorbed=frozenset()) -> EdgeComponent:
    """Classify every up-edge reachable from the seed, reversing cycle makers.

    Mutates oh: backward-classified pairs are unmatched.  The component
    keeps its edge set acyclic throughout: a candidate up-edge (a, b) only
    survives when no directed path from b back to a exists through the
    edges gathered so far plus b's own facet edges.  The trace records
    (forward, backward, frontier) totals after each processed queue node.
    Cofaces in absorbed belong to earlier components and are not entered
    (see leading_up_edges).
    """
    alpha0, beta0 = seed
    if not oh.is_up(alpha0, beta0):
        raise ValueError(f"not an up-edge: {alpha0} -> {beta0}")
    d = len(beta0) - 1
    adj: dict[Simplex, list[Simplex]] = {}
    edges: list[Edge] = []

    def absorb(es: list[Edge]) -> None:
        for a, b in es:
            adj.setdefault(a, []).append(b)
            edges.append((a, b))

    forward = [seed]
    backward: list[Pair] = []
    classified = {seed}
    frontier = set(leading_up_edges(oh, seed, absorbed))
    trace = []
    queue = deque([seed])
    while queue:
        chi = queue.popleft()
        absorb(facet_edges(oh, chi[1]))
        for cand in leading_up_edges(oh, chi, absorbed):
            if cand in classified:
                continue
            classified.add(cand)
            frontier.discard(cand)
            a_i, b_i = cand
            if _reaches(adj, facet_edges(oh, b_i), b_i, a_i):
                oh.unmatch(a_i, b_i)
                absorb(facet_edges(oh, b_i))
                backward.append(cand)
            else:
                forward.append(cand)
                queue.append(cand)
                frontier.update(
                    le for le in leading_up_edges(oh, cand, absorbed)
                    if le not in classified
                )
        trace.append((len(forward), len(backward), len(frontier)))
    return EdgeComponent(
        seed=seed,
        dim=d,
        edges=frozenset(edges),
        forward=tuple(forward),
        backward=tuple(backward),
        trace=tuple(trace),
    )


def frontier_edges_matching(K: SimplicialComplex) -> FrontierResult:
    """Run the full pipeline: match, orient, classify component by component.

    Seeds are taken smallest first by (dimension, coface).  A component
    absorbs all facet edges of every coface it classifies, so a covering
    edge leaves the working diagram exactly when its coface is absorbed,
    and a seed is skipped once its coface is.  The returned matching is
    re-certified from scratch rather than trusted.
    """
    H = hasse(K)
    M = max_cardinality_matching(H)
    oh = orient(H, M)
    absorbed: set[Simplex] = set()
    components = []
    for seed in sorted(oh.up_pairs(), key=lambda p: (len(p[1]), p[1])):
        if seed[1] in absorbed:
            continue
        comp = bfs_component(oh, seed, absorbed)
        absorbed.update(beta for _, beta in comp.forward + comp.backward)
        components.append(comp)
    return FrontierResult(
        morse=certify(K, oh.pairs),
        components=tuple(components),
        source_matching_size=len(M),
    )
