"""Exact answers for small instances by exhaustive search.

Everything here is exponential in the worst case and exists to certify
results on complexes of a few dozen simplices: a branch-and-bound for
maximum acyclic matchings, a backtracking collapsibility test, and a
subset search for the least number of interior 2-faces whose removal
makes a 2-complex collapse down to a graph.

All budgets count search-node expansions, so runs are deterministic and
machine independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex, Simplex, betti_gf2, facets_of, proper_cofaces
from .hasse import Pair, max_cardinality_matching
from .heuristics import coreduction_matching, reduction_matching
from .morse import MorseMatching, certify, closes_cycle

SIZE_LIMIT = 40


@dataclass(frozen=True)
class OracleResult:
    matching: MorseMatching
    optimal: bool
    nodes: int
    pair_upper_bound: int


class _Exhausted(Exception):
    pass


class _Solved(Exception):
    pass


def _chain_bound(remaining: list[int]) -> int:
    """Max pairs if any cross-dimension pairing were allowed.

    Greedy along the dimension chain is exact for this relaxation: each
    level's nodes split between pairs below and pairs above.
    """
    total = 0
    carry = 0
    for d in range(len(remaining) - 1):
        x = min(remaining[d] - carry, remaining[d + 1])
        if x < 0:
            x = 0
        total += x
        carry = x
    return total


def optimal_morse_matching(K: SimplicialComplex, budget: int | None = None) -> OracleResult:
    """Branch-and-bound for a maximum acyclic matching on the face poset.

    Simplices are processed in canonical order; at each unmatched one the
    search tries every cofacet whose pairing keeps the current interfaces
    acyclic (pruning there is safe: reversing more edges later never
    unwinds an existing alternating cycle) and then the branch that
    leaves it critical.  Bounds: pairs so far plus a chain relaxation on
    unmatched counts per dimension, capped globally by the maximum
    cardinality matching and by homology, which forces at least sum(beta)
    critical simplices (parity-adjusted).  The greedy results seed the
    incumbent.  Without an explicit budget, complexes over 40 simplices
    are refused; with one, exhaustion returns the incumbent flagged
    non-optimal.
    """
    if budget is None and K.n > SIZE_LIMIT:
        raise ValueError(
            f"complex has {K.n} simplices, over the no-budget limit {SIZE_LIMIT}"
        )

    seed = max(
        (coreduction_matching(K), reduction_matching(K)),
        key=lambda m: len(m.pairs),
    )
    sum_beta = sum(betti_gf2(K))
    if (K.n - sum_beta) % 2:
        sum_beta += 1
    ub = min((K.n - sum_beta) // 2, len(max_cardinality_matching(K)))

    best: list[Pair] = list(seed.pairs)
    if len(best) >= ub:
        return OracleResult(matching=seed, optimal=True, nodes=0, pair_upper_bound=ub)

    order = K.simplices
    n = K.n
    remaining = [len(level) for level in K.by_dim]
    facets = {s: facets_of(s) for s in order if len(s) > 1}.__getitem__
    cofacets = K.cofacet_map
    partner: dict[Simplex, Simplex] = {}
    pairs: list[Pair] = []
    nodes = 0

    def search(i: int) -> None:
        nonlocal nodes
        while i < n and order[i] in partner:
            i += 1
        if i == n:
            if len(pairs) > len(best):
                best[:] = pairs
                if len(best) >= ub:
                    raise _Solved
            return
        if len(pairs) + _chain_bound(remaining) <= len(best):
            return
        nodes += 1
        if budget is not None and nodes > budget:
            raise _Exhausted
        s = order[i]
        d = len(s) - 1
        remaining[d] -= 1
        for t in cofacets[s]:
            if t in partner or closes_cycle(partner, facets, s, t):
                continue
            partner[s] = t
            partner[t] = s
            pairs.append((s, t))
            remaining[d + 1] -= 1
            search(i + 1)
            remaining[d + 1] += 1
            pairs.pop()
            del partner[s], partner[t]
        search(i + 1)
        remaining[d] += 1

    optimal = True
    try:
        search(0)
    except _Exhausted:
        optimal = False
    except _Solved:
        pass
    return OracleResult(
        matching=certify(K, best),
        optimal=optimal,
        nodes=nodes,
        pair_upper_bound=ub,
    )


@dataclass(frozen=True)
class CollapsibilityResult:
    collapsible: bool | None
    indeterminate: bool
    nodes: int
    sequence: tuple[Pair, ...] | None

    def __bool__(self) -> bool:
        if self.collapsible is None:
            raise ValueError("collapsibility is indeterminate, check the flag")
        return self.collapsible


def _free_pairs(alive: frozenset, coface_map: dict) -> list[Pair]:
    out = []
    for s in alive:
        live = [c for c in coface_map[s] if c in alive]
        if len(live) == 1:
            out.append((s, live[0]))
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return out


def is_collapsible(K: SimplicialComplex, budget: int | None = 200_000) -> CollapsibilityResult:
    """Search for a sequence of elementary collapses down to one vertex.

    A free simplex here is one with exactly a single proper coface; that
    coface is then maximal and covers it, and removing both preserves the
    homotopy type.  Dead ends are memoized.  Cheap refutations first:
    even simplex count, homology differing from a point, or no free face
    at all.  budget=None searches without limit.
    """
    if K.n == 1:
        return CollapsibilityResult(True, False, 0, ())
    coface_map = proper_cofaces(K)

    start = frozenset(K.simplices)
    if K.n % 2 == 0 or not _free_pairs(start, coface_map):
        return CollapsibilityResult(False, False, 0, None)
    b = betti_gf2(K)
    if b[0] != 1 or any(b[1:]):
        return CollapsibilityResult(False, False, 0, None)

    failed: set[frozenset] = set()
    trail: list[Pair] = []
    nodes = 0

    def search(alive: frozenset) -> bool:
        nonlocal nodes
        if len(alive) == 1:
            return True
        if alive in failed:
            return False
        nodes += 1
        if budget is not None and nodes > budget:
            raise _Exhausted
        for s, t in _free_pairs(alive, coface_map):
            trail.append((s, t))
            if search(alive - {s, t}):
                return True
            trail.pop()
        failed.add(alive)
        return False

    try:
        ok = search(start)
    except _Exhausted:
        return CollapsibilityResult(None, True, nodes, None)
    return CollapsibilityResult(ok, False, nodes, tuple(trail) if ok else None)


@dataclass(frozen=True)
class ErasabilityResult:
    er: int | None
    witness: tuple[Simplex, ...] | None
    lower: int
    upper: int
    indeterminate: bool
    tested: int


def _erases(K: SimplicialComplex, dead: frozenset) -> bool:
    """True when greedy free-edge collapses remove every remaining 2-face.

    Order of collapses cannot matter: distinct free edges of distinct
    triangles commute, and two free edges of one triangle leave the same
    triangle set either way.
    """
    count: dict[Simplex, int] = {}
    tris_of: dict[Simplex, list[Simplex]] = {}
    alive = set()
    for t in K.by_dim[2]:
        if t in dead:
            continue
        alive.add(t)
        for e in facets_of(t):
            count[e] = count.get(e, 0) + 1
            tris_of.setdefault(e, []).append(t)
    queue = [e for e, k in count.items() if k == 1]
    while queue:
        e = queue.pop()
        if count[e] != 1:
            continue
        t = next((x for x in tris_of[e] if x in alive), None)
        if t is None:
            continue
        alive.discard(t)
        for f in facets_of(t):
            count[f] -= 1
            if count[f] == 1:
                queue.append(f)
    return not alive


def erasability(K: SimplicialComplex, budget: int | None = 100_000) -> ErasabilityResult:
    """Fewest interior 2-faces whose removal lets the rest collapse to a graph.

    Interior means no edge of the face is free in K; faces with a free
    edge never need removing, since a free edge stays free until its face
    collapses away.  Subsets of interior faces are tried in increasing
    size, canonical order within a size.  On budget exhaustion the result
    brackets the answer: every smaller size was refuted, and removing all
    interior faces always works.
    """
    if K.dim != 2:
        raise ValueError(f"erasability needs a 2-complex, got dimension {K.dim}")
    edge_tris: dict[Simplex, int] = {}
    for t in K.by_dim[2]:
        for e in facets_of(t):
            edge_tris[e] = edge_tris.get(e, 0) + 1
    interior = tuple(
        t for t in K.by_dim[2]
        if all(edge_tris[e] != 1 for e in facets_of(t))
    )
    tested = 0
    for r in range(len(interior) + 1):
        for sub in combinations(interior, r):
            tested += 1
            if budget is not None and tested > budget:
                return ErasabilityResult(
                    er=None, witness=None, lower=r, upper=len(interior),
                    indeterminate=True, tested=tested - 1,
                )
            if _erases(K, frozenset(sub)):
                return ErasabilityResult(
                    er=r, witness=sub, lower=r, upper=r,
                    indeterminate=False, tested=tested,
                )
    raise AssertionError("removing all interior faces must erase")
