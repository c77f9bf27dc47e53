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
from .hasse import OrientedHasse, Pair, max_cardinality_matching
from .heuristics import coreduction_matching, reduction_matching
from .morse import MorseMatching, certify, closes_cycle

SIZE_LIMIT = 40


@dataclass(frozen=True)
class OracleResult:
    matching: MorseMatching
    optimal: bool
    nodes: int
    pair_upper_bound: int


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
    incumbent; an improvement is kept as its up map on ids and certified
    through the id entry of certify.  Without an explicit budget,
    complexes over 40 simplices are refused; with one, exhaustion returns
    the incumbent flagged non-optimal.
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

    best: dict[int, int] | None = None
    best_len = len(seed.pairs)
    if best_len >= ub:
        return OracleResult(matching=seed, optimal=True, nodes=0, pair_upper_bound=ub)

    n = K.n
    C = K.cofacet_ids
    facets = K.facet_ids.__getitem__
    dim = [d for d, level in enumerate(K.by_dim) for _ in level]
    remaining = [len(level) for level in K.by_dim]
    matched = bytearray(n)
    up: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    nodes = 0
    optimal = True

    # Depth-first over an explicit stack, in the order of the recursion
    # search(i): skip matched ids from i; at the end record an improvement;
    # otherwise prune on the bound, count the node, then try each free
    # cofacet t of s = i that closes no cycle, each time continuing with
    # search(s + 1), and last continue with s critical.  A frame [s, k, t]
    # holds the position k of the next cofacet to try (len(C[s]) for the
    # critical branch, beyond that for done) and the cofacet t that s is
    # matched with in the branch below it, or -1.  i is the id the next
    # search(i) starts from, or -1 when the top frame moves on instead.
    stack: list[list[int]] = []
    i = 0
    while True:
        if i >= 0:
            while i < n and matched[i]:
                i += 1
            if i == n:
                if len(pairs) > best_len:
                    best, best_len = dict(up), len(pairs)
                    if best_len >= ub:
                        break
            elif len(pairs) + _chain_bound(remaining) > best_len:
                nodes += 1
                if budget is not None and nodes > budget:
                    optimal = False
                    break
                remaining[dim[i]] -= 1
                stack.append([i, 0, -1])
            i = -1
        if not stack:
            break
        frame = stack[-1]
        s, k, t = frame
        if t >= 0:
            remaining[dim[t]] += 1
            pairs.pop()
            del up[s]
            matched[s] = matched[t] = 0
        cofs = C[s]
        while k < len(cofs):
            t = cofs[k]
            k += 1
            if matched[t] or closes_cycle(up, facets, s, t):
                continue
            matched[s] = matched[t] = 1
            up[s] = t
            pairs.append((s, t))
            remaining[dim[t]] -= 1
            frame[1], frame[2] = k, t
            i = s + 1
            break
        else:
            frame[2] = -1
            if k == len(cofs):
                frame[1] = k + 1
                i = s + 1
            else:
                remaining[dim[s]] += 1
                stack.pop()
    return OracleResult(
        matching=seed if best is None else certify(
            K, OrientedHasse(K, [best.get(s, -1) for s in range(n)])
        ),
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


def _free_pairs(alive: frozenset, cofaces: list) -> list[tuple[int, int]]:
    """(free simplex, its one live proper coface) as ids, in canonical order."""
    out = []
    live_of = alive.intersection
    for s in alive:
        if cofaces[s]:
            live = live_of(cofaces[s])
            if len(live) == 1:
                out.append((s, *live))
    out.sort()
    return out


def is_collapsible(K: SimplicialComplex, budget: int | None = 200_000) -> CollapsibilityResult:
    """Search for a sequence of elementary collapses down to one vertex.

    A free simplex here is one with exactly a single proper coface; that
    coface is then maximal and covers it, and removing both preserves the
    homotopy type.  Dead ends are memoized.  Cheap refutations first:
    even simplex count, homology differing from a point, or no free face
    at all.  budget=None searches without limit.  The search is depth
    first over an explicit stack of (alive ids, untried free pairs), so
    a long collapse sequence needs no recursion.
    """
    if K.n == 1:
        return CollapsibilityResult(True, False, 0, ())
    cofaces = proper_cofaces(K)

    start = frozenset(range(K.n))
    if K.n % 2 == 0 or not _free_pairs(start, cofaces):
        return CollapsibilityResult(False, False, 0, None)
    b = betti_gf2(K)
    if b[0] != 1 or any(b[1:]):
        return CollapsibilityResult(False, False, 0, None)

    failed: set[frozenset] = set()
    trail: list[tuple[int, int]] = []
    nodes = 1
    stack = [(start, iter(_free_pairs(start, cofaces)))]
    while budget is None or nodes <= budget:
        if not stack:
            return CollapsibilityResult(False, False, nodes, None)
        alive, untried = stack[-1]
        pair = next(untried, None)
        if pair is None:
            failed.add(alive)
            stack.pop()
            if stack:
                trail.pop()
            continue
        trail.append(pair)
        child = alive.difference(pair)
        if len(child) == 1:
            S = K.simplices
            return CollapsibilityResult(True, False, nodes, tuple((S[a], S[b]) for a, b in trail))
        if child in failed:
            trail.pop()
            continue
        nodes += 1
        stack.append((child, iter(_free_pairs(child, cofaces))))
    return CollapsibilityResult(None, True, nodes, None)


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
