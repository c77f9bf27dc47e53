"""Exact answers for small instances by exhaustive search.

Everything here is exponential in the worst case and exists to certify
results on complexes of a few dozen simplices: a branch-and-bound for
maximum acyclic matchings, a backtracking collapsibility test, and a
subset search for the least number of interior 2-faces whose removal
makes a 2-complex collapse down to a graph.  The collapse searches run
on simplex ids and count live cofacets from K.cofacet_ids, which finds
exactly the free faces of a downward-closed set (see complexes).  One
greedy collapse of the top-dimensional simplices through their free
faces, _top_core, runs the package's elimination kernel,
complexes._eliminate; is_collapsible keeps its own state, since it
undoes its collapses as it backtracks.  The core serves the erasability
test and the branch-and-bound's bound, which it lifts by one pair per
dunce hat: a complex whose greedy incumbent leaves just one extra
critical pair per hat, such as a wedge of hats, is proven optimal at the
root, with no node searched.

All budgets count search-node expansions, so runs are deterministic and
machine independent; a negative budget is refused with ValueError, as
the CLI refuses one.  Each search reports in an immutable Record
(OracleResult, CollapsibilityResult, ErasabilityResult).
"""
from __future__ import annotations

from itertools import combinations

from .complexes import Record, SimplicialComplex, Simplex, _eliminate, betti_gf2
from .hasse import OrientedHasse, Pair, max_cardinality_matching
from .heuristics import coreduction_matching, reduction_matching
from .morse import MorseMatching, certify, closes_cycle

SIZE_LIMIT = 40

# Bytes of alive flags is_collapsible may keep in its dead-end memo; one
# entry costs K.n bytes.
COLLAPSE_MEMO_BYTES = 1 << 27


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative or None, got {budget}")


class OracleResult(Record):
    matching: MorseMatching
    optimal: bool
    nodes: int
    pair_upper_bound: int


def optimal_morse_matching(K: SimplicialComplex, budget: int | None = None) -> OracleResult:
    """Branch-and-bound for a maximum acyclic matching on the face poset.

    Simplices are processed in canonical order; at each unmatched one the
    search tries every cofacet whose pairing keeps the current interfaces
    acyclic (pruning there is safe: reversing more edges later never
    unwinds an existing alternating cycle) and then the branch that
    leaves it critical.  Bounds: pairs so far plus a chain relaxation on
    unmatched counts per dimension, computed inline at every node: the
    most pairs if any pairing between adjacent dimensions were allowed,
    which greedy along the dimension chain attains, since each level's
    simplices split between pairs below and pairs above.  That is capped
    globally by the maximum cardinality matching and by a floor on the
    critical count, sum(beta) + 2 * max(0, k - beta_D),
    where D = K.dim and k counts the components of the top-dimensional
    core (see _top_core), two D-simplices adjacent when they share a
    (D-1)-face.  Each component holds a critical D-simplex.  Were every
    sigma in one matched, necessarily down to a face f(sigma), then
    f(sigma), not free in the core, would have a second core coface tau,
    and tau -> f(sigma) -> sigma would be a gradient step inside the
    component; every sigma there having a predecessor, the component
    would hold a closed V-path.  So c_D >= k.  The weak Morse
    inequalities give c_d >= beta_d, and the Euler characteristic
    equates the alternating sums of c and beta, so the excess
    c_D - beta_D is matched by as much excess at the dimensions of the
    other parity.  K.n minus the floor is always even, since over GF(2)
    sum(beta) = chi = K.n (mod 2) and the core term is even, so it halves
    exactly into pairs.  On a dunce hat, which has no free face, this closes
    the one pair by which homology alone falls short.  The greedy
    results seed the incumbent.  The search is a loop over a stack of
    generators, one per node, so no depth needs recursion.  Its state is
    flat id arrays: up[f] is the coface face f is matched with, or -1,
    which is what closes_cycle reads, and an improvement is a copy of
    it, handed to certify as an OrientedHasse.  Without an explicit budget,
    complexes over 40 simplices are refused; with one, exhaustion returns
    the incumbent flagged non-optimal.
    """
    _check_budget(budget)
    if budget is None and K.n > SIZE_LIMIT:
        raise ValueError(
            f"complex has {K.n} simplices, over the no-budget limit {SIZE_LIMIT}"
        )

    seed = max((coreduction_matching(K), reduction_matching(K)), key=len)
    beta = betti_gf2(K)
    floor = sum(beta) + 2 * max(0, _core_components(K) - beta[K.dim])
    ub = min((K.n - floor) // 2, max_cardinality_matching(K))

    best: list[int] | None = None
    best_len = len(seed)
    if best_len >= ub:
        return OracleResult(matching=seed, optimal=True, nodes=0, pair_upper_bound=ub)

    n = K.n
    C, F = K.cofacet_ids, K.facet_ids
    remaining = [K.offset(d + 1) - K.offset(d) for d in range(K.dim + 1)]
    dim = [d for d, k in enumerate(remaining) for _ in range(k)]
    chain = range(1, len(remaining))
    matched = bytearray(n)
    up = [-1] * n
    npairs = 0
    nodes = 0
    optimal = True

    def branches(s: int):
        """Yield s + 1, where the search goes on, once per choice at the unmatched id s.

        s is paired with each unmatched cofacet that closes no cycle, then
        left critical; a choice is applied just before its yield and undone
        just after.
        """
        nonlocal npairs
        remaining[dim[s]] -= 1
        for t in C[s]:
            if matched[t] or closes_cycle(up, F, s, t):
                continue
            matched[s] = matched[t] = 1
            up[s] = t
            npairs += 1
            remaining[dim[t]] -= 1
            yield s + 1
            remaining[dim[t]] += 1
            npairs -= 1
            up[s] = -1
            matched[s] = matched[t] = 0
        yield s + 1
        remaining[dim[s]] += 1

    stack = []
    i = 0
    while True:
        while i < n and matched[i]:
            i += 1
        if i == n:
            if npairs > best_len:
                best, best_len = up[:], npairs
                if best_len >= ub:
                    break
        else:
            bound = npairs
            x = 0
            for d in chain:  # x >= 0: the x before it is at most remaining[d - 1]
                x = remaining[d - 1] - x
                if x > remaining[d]:
                    x = remaining[d]
                bound += x
            if bound > best_len:
                nodes += 1
                if budget is not None and nodes > budget:
                    optimal = False
                    break
                stack.append(branches(i))
        while stack:
            i = next(stack[-1], -1)
            if i >= 0:
                break
            stack.pop()
        else:
            break
    return OracleResult(
        matching=seed if best is None else certify(K, OrientedHasse(K, best)),
        optimal=optimal,
        nodes=nodes,
        pair_upper_bound=ub,
    )


class CollapsibilityResult(Record):
    collapsible: bool | None
    indeterminate: bool
    nodes: int
    sequence: tuple[Pair, ...] | None

    def __bool__(self) -> bool:
        if self.collapsible is None:
            raise ValueError("collapsibility is indeterminate, check the flag")
        return self.collapsible


def is_collapsible(K: SimplicialComplex, budget: int | None = 200_000) -> CollapsibilityResult:
    """Search for a sequence of elementary collapses down to one vertex.

    A free simplex here is one with exactly a single proper coface; that
    coface is then maximal and covers it, and removing both preserves the
    homotopy type.  Dead ends are memoized by their alive flags until
    the memo holds COLLAPSE_MEMO_BYTES of them; past that the search goes
    on without adding to it, still exact, its time still bounded by the
    budget and its memory no longer growing.  Cheap refutations first:
    even simplex count, homology differing from a point, or no free face
    at all.  budget=None searches without limit.
    The search is depth first over an explicit stack of untried free
    pairs, one list per level in canonical order, so a long collapse
    sequence needs no recursion.  Unlike the greedy collapses, which run
    complexes._eliminate, it keeps its own state and changes it in place,
    undoably: alive flags, the number of live cofacets of every simplex
    and the set of free ones, updated when a pair is removed and undone
    when the search backs out of it, so a node costs its own free pairs
    rather than a scan of the complex.
    Live cofacets are enough because every state is downward closed, in
    which one live cofacet means one live proper coface (see complexes).
    """
    _check_budget(budget)
    if K.n == 1:
        return CollapsibilityResult(True, False, 0, ())
    F, C = K.facet_ids, K.cofacet_ids
    count = [len(cs) for cs in C]
    free = {s for s, c in enumerate(count) if c == 1}
    if K.n % 2 == 0 or not free:
        return CollapsibilityResult(False, False, 0, None)
    b = betti_gf2(K)
    if b[0] != 1 or any(b[1:]):
        return CollapsibilityResult(False, False, 0, None)
    alive = bytearray(b"\x01") * K.n

    # Removes (step -1) or restores (step 1) the free face a with its
    # coface b.  b has no live coface and a's one live cofacet is b, so
    # only the counts of their facets change, all of them live.
    def shift(a: int, b: int, step: int) -> None:
        alive[a] = alive[b] = step > 0
        for x in (a, b):
            for f in F[x]:
                count[f] += step
                if count[f] == 1:
                    free.add(f)
                else:
                    free.discard(f)

    def free_pairs() -> list[tuple[int, int]]:
        return [(s, next(t for t in C[s] if alive[t])) for s in sorted(free)]

    failed: set[bytes] = set()
    memo_room = COLLAPSE_MEMO_BYTES // K.n
    trail: list[tuple[int, int]] = []
    nodes = 1
    stack = [iter(free_pairs())]
    while budget is None or nodes <= budget:
        if not stack:
            return CollapsibilityResult(False, False, nodes, None)
        pair = next(stack[-1], None)
        if pair is None:
            if len(failed) < memo_room:
                failed.add(bytes(alive))
            stack.pop()
            if stack:
                shift(*trail.pop(), 1)
            continue
        shift(*pair, -1)
        trail.append(pair)
        if 2 * len(trail) == K.n - 1:
            S = K.simplices
            return CollapsibilityResult(True, False, nodes, tuple((S[a], S[b]) for a, b in trail))
        if bytes(alive) in failed:
            shift(*trail.pop(), 1)
            continue
        nodes += 1
        stack.append(iter(free_pairs()))
    return CollapsibilityResult(None, True, nodes, None)


class ErasabilityResult(Record):
    er: int | None
    witness: tuple[Simplex, ...] | None
    lower: int
    upper: int
    indeterminate: bool
    tested: int


def _top_core(K: SimplicialComplex, dead=()) -> bytearray:
    """Alive flags, by id, of the top-dimensional core of the D-simplices not in dead.

    D is K.dim.  Repeatedly deletes a D-simplex that has a (D-1)-face
    with exactly one remaining D-coface; the D-simplices left are
    flagged 1, every other id 0.  Order of deletions cannot matter: a
    face that is free stays free until its one coface goes, and two free
    faces of one D-simplex leave the same set either way.  The deletions
    are complexes._eliminate with only the (D-1)-faces counting, each
    over its D-cofaces not in dead: the D-simplices it never yields as
    cofaces are the core.
    """
    F = K.facet_ids
    lo, hi = K.offset(K.dim - 1), K.offset(K.dim)
    counted = [()] * K.n
    counted[lo:hi] = K.cofacet_ids[lo:hi]
    alive = bytearray(hi) + b"\x01" * (K.n - hi)
    for t in dead:
        alive[t] = 0
        for e in F[t]:
            counted[e] = [x for x in counted[e] if x != t]
    for _, t in _eliminate(K, counted, F, ()):
        alive[t] = 0
    return alive


def _core_components(K: SimplicialComplex) -> int:
    """Components of the top-dimensional core, two D-simplices adjacent when they share a (D-1)-face."""
    F, C = K.facet_ids, K.cofacet_ids
    alive = _top_core(K)
    k = 0
    for s in range(K.offset(K.dim), K.n):
        if alive[s]:
            k += 1
            alive[s] = 0
            stack = [s]
            while stack:
                for f in F[stack.pop()]:
                    for t in C[f]:
                        if alive[t]:
                            alive[t] = 0
                            stack.append(t)
    return k


def erasability(K: SimplicialComplex, budget: int | None = 100_000) -> ErasabilityResult:
    """Fewest interior 2-faces whose removal lets the rest collapse to a graph.

    Interior means no edge of the face is free in K: each has another
    cofacet.  Faces with a free edge never need removing, since a free
    edge stays free until its face collapses away.  Subsets of interior
    faces, as ids, are tried in increasing size, canonical order within
    a size.  On budget exhaustion the result brackets the
    answer: every smaller size was refuted, and removing all interior
    faces always works.
    """
    _check_budget(budget)
    if K.dim != 2:
        raise ValueError(f"erasability needs a 2-complex, got dimension {K.dim}")
    F, C = K.facet_ids, K.cofacet_ids
    interior = tuple(
        t for t in range(K.offset(2), K.n) if all(len(C[e]) != 1 for e in F[t])
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
            if not any(_top_core(K, sub)):
                return ErasabilityResult(
                    er=r, witness=tuple(K.simplices[t] for t in sub), lower=r, upper=r,
                    indeterminate=False, tested=tested,
                )
    raise AssertionError("removing all interior faces must erase")
