"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and self-contained: subset tests
instead of incidence caches, exhaustive search instead of augmenting
paths, dense numpy arithmetic for ranks.  Slow is fine at test scale;
what matters is that none of it shares code paths with the package.
reference_max_matching_mates grows a maximum matching from the frozen
coreduction below by a plain BFS whose marks never outlive a search, so
that the package's search, which keeps the marks of failed searches, can
be held to the same mate array; is_maximum_matching checks maximality
independently.  reference_betti_gf2 is a frozen copy of the package's
dense elimination over the full complex, kept so that the Betti numbers
of the Morse complex can be held to it; it ranks the rows of
boundary_matrix_gf2 with reference_gf2_rank and counts components with
reference_component_roots, all frozen copies, so that it shares no code
with betti_gf2.
reference_random_complex is the generator's component linking as it stood
on reference_component_roots, before it became a union-find over the
facets, kept so that the union-find can be held to the same complexes.
reference_coreduction_matching and
reference_reduction_matching are frozen copies of the two greedy loops
as they stood before they became one elimination kernel, kept so that
the kernel can be held to the same up arrays.
reference_canonicalize_single_critical_vertex is a frozen copy of the
package's tuple-based canonicalization, before it moved onto the
certified up array, kept so that the id version can be held to the same
results; reference_gamma_graph, the graph it spans, is the only gamma
graph left, since the package builds its spanning tree on ids without
one.  facets_of and cofacets_of list the incidence of one simplex by
slicing and by subset tests, apart from the complex's id tuples; level
is the slice of a complex's simplices of one dimension, by its offsets.
reference_bfs_component is a frozen copy of frontier's component search
as it stood with a deque for its queue, a set of classified faces and a
per-step count of kept, reversed and frontier edges, kept so that the
search on its forward list and absorbed flags can be held to the same
components and state, and so that the count behind the ratio bound is
still checked.
sparse_complexes is the one hypothesis strategy of few-facet random
complexes on spare vertices, so that the suite draws disconnected input
from one place.
dunce_hat_with_tetrahedron is a dunce hat with a solid tetrahedron on
one of its triangles: the oracle's bound stays one pair above the
optimum on it and its wedges, so budgeted searches there still run out.
reference_close and reference_complex build through frozen copies of
the package's tuple closure and builder as they stood before cofacets
were finalized per level and before simplices were packed into integer
keys, kept so that both constructions can be held to them; they fill a
plain record with the complex's fields, not a complex.
reference_simplex_boundary is simplex_boundary's complex as it was
built then, from every proper face through the validating constructor.
reference_optimal_morse_matching is a frozen copy of the oracle's
branch-and-bound as it stood with hand-encoded [s, k, t] frames, kept so
that the search on a stack of choice generators can be held to the same
nodes, verdict, bound and matching; its floor comes from
reference_core_components over reference_top_core, frozen copies of the
oracle's top-dimensional core as it stood with its own queue of free
faces, so the reference shares no collapse code with the search it
checks, and the core on the elimination kernel is held to them.
reference_collapse_sequence is a frozen copy of collapse_sequence as it
stood with its own heap of free faces, kept so that the sequence on the
elimination kernel can be held to the same pairs and errors.
reference_morse_inequalities is check_morse_inequalities as it stood
with a double sum per alternating inequality, kept so that the one-pass
running sums can be held to the same report.
reference_parse_complex is the complex parser as it stood reading one
line at a time into vertex tuples, kept so that the bulk parse straight
to packed keys can be held to the same complexes and the same errors.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict, deque
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from morsematch import (
    MorseMatching,
    OracleResult,
    ParseError,
    SimplicialComplex,
    betti_gf2,
    certify,
    coreduction_matching,
    dunce_hat,
    from_maximal_simplices,
    frontier_edges_matching,
    max_cardinality_matching,
    random_complex,
    reduction_matching,
    rp2,
    simplex,
)
from morsematch.frontier import EdgeComponent, _leading
from morsematch.hasse import OrientedHasse, max_matching_mates
from morsematch.morse import MorseInequalityReport, closes_cycle
from morsematch.oracle import SIZE_LIMIT

Simplex = tuple[int, ...]
Pair = tuple[Simplex, Simplex]


def covering_pairs(simplices) -> list[Pair]:
    """All (face, coface) covering pairs, found by pairwise subset tests."""
    out = []
    by_len = defaultdict(list)
    for s in simplices:
        by_len[len(s)].append(s)
    for k, faces in sorted(by_len.items()):
        for t in by_len.get(k + 1, ()):
            tset = set(t)
            for s in faces:
                if set(s) < tset:
                    out.append((s, t))
    return out


def facets_of(s: Simplex) -> list[Simplex]:
    """Codimension-1 faces of s, in canonical order; none for a vertex."""
    return list(combinations(s, len(s) - 1)) if len(s) > 1 else []


def level(K: SimplicialComplex, d: int) -> tuple[Simplex, ...]:
    """The d-simplices of K in canonical order; none past the top dimension."""
    return K.simplices[K.offset(d):K.offset(d + 1)]


def cofacets_of(K: SimplicialComplex, s: Simplex) -> tuple[Simplex, ...]:
    """Codimension-1 cofaces of s in K, in canonical order, by subset tests."""
    return tuple(t for t in level(K, len(s)) if set(s) < set(t))


def brute_max_matching_size(simplices) -> int:
    """Exact maximum matching on the covering graph by subset enumeration.

    Dynamic programming over bitmasks of matched nodes; exponential in
    the number of simplices, so callers keep inputs at or below 16.
    """
    nodes = sorted(simplices, key=lambda s: (len(s), s))
    if len(nodes) > 20:
        raise ValueError("brute force limited to 20 simplices")
    index = {s: i for i, s in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for sigma, tau in covering_pairs(nodes):
        adj[index[sigma]].append(index[tau])
        adj[index[tau]].append(index[sigma])
    n = len(nodes)

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        i = 0
        while i < n and mask >> i & 1:
            i += 1
        if i == n:
            return 0
        mask |= 1 << i
        top = best(mask)
        for j in adj[i]:
            if not mask >> j & 1:
                top = max(top, 1 + best(mask | 1 << j))
        return top

    size = best(0)
    best.cache_clear()
    return size


def reference_coreduction_matching(K: SimplicialComplex) -> MorseMatching:
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


def reference_reduction_matching(K: SimplicialComplex) -> MorseMatching:
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


def reference_max_matching_mates(K: SimplicialComplex) -> tuple[int, ...]:
    """The maximum matching grown from reference_coreduction_matching by plain BFS.

    The mates start as the frozen coreduction's pairs; then one plain BFS
    per free even-dimension node u, top dimension first, marks a node
    reached with stamp[x] == u and stops at the first free node it pops a
    neighbour of.  No mark outlives its search.  The package must return
    this exact mate array; it is not cached on K.
    """
    F, C = K.facet_ids, K.cofacet_ids
    index = {s: i for i, s in enumerate(K.simplices)}
    mate = [-1] * K.n
    for sigma, tau in reference_coreduction_matching(K).pairs:
        a, b = index[sigma], index[tau]
        mate[a], mate[b] = b, a
    prev = [-1] * K.n
    stamp = [-1] * K.n
    for d in range(K.dim - K.dim % 2, -1, -2):
        for u in range(K.offset(d), K.offset(d + 1)):
            if mate[u] >= 0:
                continue
            stamp[u] = u
            q = [u]
            end = -1
            for x in q:
                for y in F[x] + C[x]:
                    if stamp[y] == u:
                        continue
                    stamp[y] = u
                    prev[y] = x
                    z = mate[y]
                    if z < 0:
                        end = y
                        break
                    if stamp[z] != u:
                        stamp[z] = u
                        q.append(z)
                if end >= 0:
                    break
            y = end
            while y >= 0:
                x = prev[y]
                nxt = mate[x]
                mate[x] = y
                mate[y] = x
                y = nxt
    return tuple(mate)


def reference_component_roots(K: SimplicialComplex) -> list[int]:
    """The least vertex of each connected component of the 1-skeleton, ascending."""
    adj: dict[int, list[int]] = {v: [] for v in K.vertices}
    if K.dim >= 1:
        for a, b in level(K, 1):
            adj[a].append(b)
            adj[b].append(a)
    roots = []
    seen: set[int] = set()
    for root in adj:
        if root in seen:
            continue
        roots.append(root)
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return roots


def reference_random_complex(
    seed: int, dim: int, n_vertices: int, n_facets: int
) -> SimplicialComplex:
    """random_complex(..., connected=True) as it linked components on their roots.

    The same draws from the seed; the closure of the facets is built, its
    components found by reference_component_roots, and consecutive roots
    joined by an edge in a second closure over its maximal simplices.
    """
    rng = random.Random(seed)
    facets = []
    for _ in range(n_facets):
        k = rng.randint(2, dim + 1)
        facets.append(tuple(sorted(rng.sample(range(n_vertices), k))))
    K = from_maximal_simplices(facets)
    roots = reference_component_roots(K)
    if len(roots) == 1:
        return K
    links = [(roots[i], roots[i + 1]) for i in range(len(roots) - 1)]
    return from_maximal_simplices(list(K.facets()) + links)


def boundary_matrix_gf2(K: SimplicialComplex, d: int) -> list[int]:
    """Mod-2 boundary matrix of dimension d as bit rows.

    Row i corresponds to the i-th d-simplex in canonical order; bit j is
    set when the j-th (d-1)-simplex is one of its facets.
    """
    if not 1 <= d <= K.dim:
        raise ValueError(f"no boundary matrix in dimension {d}")
    lo, start, stop = K.offset(d - 1), K.offset(d), K.offset(d + 1)
    F = K.facet_ids
    rows = []
    for i in range(start, stop):
        row = 0
        for f in F[i]:
            row |= 1 << (f - lo)
        rows.append(row)
    return rows


def reference_gf2_rank(rows) -> int:
    """Rank of GF(2) bit rows by elimination on leading bits.

    A frozen copy of complexes._gf2_rank, so that reference_betti_gf2
    ranks with code of its own.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = row
                rank += 1
                break
            row ^= p
    return rank


def reference_betti_gf2(K: SimplicialComplex) -> tuple[int, ...]:
    """Mod-2 Betti numbers by dense elimination on the full complex.

    A frozen copy of the package's betti_gf2 before it moved to the Morse
    complex: every boundary row is a bit row as wide as the level below,
    ranked by reference_gf2_rank, and rank boundary_1 is the vertex count
    less the component count.  Not cached on K.
    """
    ranks = [0] * (K.dim + 2)
    if K.dim:
        ranks[1] = len(level(K, 0)) - len(reference_component_roots(K))
    for d in range(2, K.dim + 1):
        ranks[d] = reference_gf2_rank(boundary_matrix_gf2(K, d))
    return tuple(len(level(K, d)) - ranks[d] - ranks[d + 1] for d in range(K.dim + 1))


def max_matching_pairs(K: SimplicialComplex) -> frozenset[Pair]:
    """The package's maximum matching as (face, coface) pairs, read off its mate array."""
    S = K.simplices
    return frozenset((S[i], S[j]) for i, j in enumerate(max_matching_mates(K)) if i < j)


def _pairs_of(matching) -> frozenset[Pair]:
    if isinstance(matching, MorseMatching):
        return matching.pairs
    return frozenset(matching)


def reference_gamma_graph(K: SimplicialComplex, matching) -> dict[int, tuple[int, ...]]:
    """1-skeleton minus the edges matched with 2-simplices, as adjacency.

    For an acyclic matching on a connected complex this graph is always
    connected: walking from any vertex along unmatched or downward-matched
    edges reaches every other vertex.
    """
    if len(reference_component_roots(K)) != 1:
        raise ValueError("connected complex required")
    removed = {
        sigma for sigma, tau in _pairs_of(matching)
        if len(sigma) == 2 and len(tau) == 3
    }
    adj: dict[int, list[int]] = {v: [] for v in K.vertices}
    if K.dim >= 1:
        for a, b in level(K, 1):
            if (a, b) in removed:
                continue
            adj[a].append(b)
            adj[b].append(a)
    return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def reference_canonicalize_single_critical_vertex(
    K: SimplicialComplex, matching, p: int
) -> MorseMatching:
    """Rebuild the vertex-edge pairs so p is the only critical vertex.

    Pairs whose coface has dimension 2 or more are kept.  The vertex-edge
    pairing is replaced wholesale: a depth-first spanning tree (canonical
    neighbor order) of the gamma graph rooted at p matches every other
    vertex with its tree edge toward the root.  Every directed path in
    the rebuilt 1-interface then descends toward p, so no cycle appears
    and the critical counts above dimension 1 are untouched.
    """
    if (p,) not in K:
        raise ValueError(f"unknown simplex {(p,)}")
    mm = matching if isinstance(matching, MorseMatching) else certify(K, matching)
    if not mm.acyclic:
        raise ValueError("matching is not acyclic")
    gamma = reference_gamma_graph(K, mm.pairs)
    parent: dict[int, int | None] = {p: None}
    stack = [(p, iter(gamma[p]))]
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            continue
        if w not in parent:
            parent[w] = v
            stack.append((w, iter(gamma[w])))
    if len(parent) != len(gamma):
        raise RuntimeError("gamma graph is disconnected despite an acyclic matching")
    kept = {(s, t) for s, t in mm.pairs if len(s) >= 2}
    tree = {
        ((v,), tuple(sorted((v, q))))
        for v, q in parent.items() if q is not None
    }
    out = certify(K, kept | tree)
    if not out.acyclic:
        raise RuntimeError("canonicalization produced a cyclic matching")
    return out


def reference_bfs_component(
    oh: OrientedHasse, a0: int, absorbed: bytearray, kept: list[int]
) -> tuple[EdgeComponent, tuple[tuple[int, int, int], ...]]:
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
    acyclic in every dimension.  Returns the component and its trace:
    the (forward, backward, frontier) totals after each processed queue
    node.  absorbed is a flag per id: cofaces of earlier components are
    set there and are not entered, and this component sets its own on
    return.
    """
    K, up = oh.complex, oh.up
    F = K.facet_ids
    b0 = up[a0]
    kept[a0] = b0
    forward = [a0]
    backward: list[tuple[int, int]] = []
    classified = {a0}
    frontier = set(_leading(F, up, absorbed, a0, b0))
    trace = []
    queue = deque([a0])
    while queue:
        c = queue.popleft()
        for a in _leading(F, up, absorbed, c, up[c]):
            if a in classified:
                continue
            classified.add(a)
            frontier.discard(a)
            b = up[a]
            if closes_cycle(kept, F, a, b):
                up[a] = -1
                backward.append((a, b))
            else:
                kept[a] = b
                forward.append(a)
                queue.append(a)
                frontier.update(
                    f for f in _leading(F, up, absorbed, a, b) if f not in classified
                )
        trace.append((len(forward), len(backward), len(frontier)))
    S = K.simplices
    forward_pairs = tuple((S[a], S[up[a]]) for a in forward)
    for a in forward:
        absorbed[up[a]] = 1
        kept[a] = -1
    for _, b in backward:
        absorbed[b] = 1
    component = EdgeComponent(
        len(S[b0]) - 1, forward_pairs, tuple((S[a], S[b]) for a, b in backward)
    )
    return component, tuple(trace)


def is_maximum_matching(simplices, mates) -> bool:
    """Whether mates is a maximum matching on the covering graph (Berge).

    mates[i] is the position in simplices of the simplex matched with
    simplices[i], or -1.  The covering edges come from deleting one vertex
    at a time.  The matching must pair covering simplices symmetrically;
    it is maximum when one alternating search, grown from every free
    even-dimension simplex at once, reaches no free odd-dimension one: in
    a bipartite graph that search finds an augmenting path if any exists.
    """
    simplices = list(simplices)
    pos = {s: i for i, s in enumerate(simplices)}
    adj: list[list[int]] = [[] for _ in simplices]
    for j, t in enumerate(simplices):
        if len(t) > 1:
            for k in range(len(t)):
                i = pos[t[:k] + t[k + 1:]]
                adj[i].append(j)
                adj[j].append(i)
    for i, j in enumerate(mates):
        if j >= 0 and (mates[j] != i or j not in adj[i]):
            return False
    even = [i for i, s in enumerate(simplices) if len(s) % 2 == 1]
    seen = {i for i in even if mates[i] < 0}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == mates[x] or y in seen:
                continue
            if mates[y] < 0:
                return False
            seen.add(y)
            if mates[y] not in seen:
                seen.add(mates[y])
                stack.append(mates[y])
    return True


def oriented_adjacency(simplices, pairs, edges=None) -> dict[Simplex, list[Simplex]]:
    """Whole-graph orientation: matched covering edges up, the rest down.

    edges, when given, are the covering pairs of simplices already found.
    """
    matched = set(pairs)
    adj: dict[Simplex, list[Simplex]] = defaultdict(list)
    for sigma, tau in covering_pairs(simplices) if edges is None else edges:
        if (sigma, tau) in matched:
            adj[sigma].append(tau)
        else:
            adj[tau].append(sigma)
    return adj


def has_directed_cycle(adj) -> bool:
    """Plain three-color depth-first search over the full digraph."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = defaultdict(int)
    for root in list(adj):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adj.get(root, ())))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = BLACK
                stack.pop()
            elif color[nxt] == GRAY:
                return True
            elif color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, iter(adj.get(nxt, ()))))
    return False


def brute_optimal_pairs(simplices) -> int:
    """Most pairs an acyclic matching can have, by exhaustive branching.

    Covering pairs are taken in a fixed order and each one is left out or,
    when both its simplices are still free, put in.  A partial matching
    whose whole-graph orientation has a directed cycle is dropped with
    all its extensions: a cycle alternates up and down edges, so every
    coface on it is matched already, and pairing two free simplices never
    removes one.  The search stops early once a matching leaves only
    sum(betti) critical simplices (Betti numbers from betti_numpy), which
    the weak Morse inequalities say no matching beats.  Exponential when
    the optimum stays below that; callers keep inputs small.
    """
    simplices = list(simplices)
    ceiling = (len(simplices) - sum(betti_numpy(simplices))) // 2
    candidates = covering_pairs(simplices)
    best = 0
    stack: list[tuple[int, tuple[Pair, ...]]] = [(0, ())]
    while stack and best < ceiling:
        start, chosen = stack.pop()
        best = max(best, len(chosen))
        used = {s for pair in chosen for s in pair}
        for j in range(len(candidates) - 1, start - 1, -1):
            a, b = candidates[j]
            if a in used or b in used:
                continue
            grown = chosen + ((a, b),)
            if not has_directed_cycle(oriented_adjacency(simplices, grown, candidates)):
                stack.append((j + 1, grown))
    return best


def _rank_gf2(mat: np.ndarray) -> int:
    m = mat.astype(np.uint8).copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        r += 1
        if r == rows:
            break
    return r


def betti_numpy(simplices) -> tuple[int, ...]:
    """Mod-2 Betti numbers from dense numpy boundary matrices."""
    by_dim: dict[int, list[Simplex]] = defaultdict(list)
    for s in simplices:
        by_dim[len(s) - 1].append(s)
    top = max(by_dim)
    ranks = {}
    for d in range(1, top + 1):
        rows = {s: i for i, s in enumerate(sorted(by_dim[d - 1]))}
        cols = sorted(by_dim[d])
        mat = np.zeros((len(rows), len(cols)), dtype=np.uint8)
        for j, t in enumerate(cols):
            for k in range(len(t)):
                mat[rows[t[:k] + t[k + 1 :]], j] = 1
        ranks[d] = _rank_gf2(mat)
    out = []
    for d in range(top + 1):
        out.append(len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return tuple(out)


def replay_collapses(simplices, sequence) -> frozenset[Simplex]:
    """Execute elementary collapses, re-verifying freeness at every step.

    A step (sigma, tau) is legal only when tau is the one remaining
    proper coface of sigma, of any codimension.  Every coface of sigma
    contains its first vertex, so the subset tests run over the remaining
    simplices on that vertex only.  Returns what remains.
    """
    remaining = set(simplices)
    on_vertex: dict[int, set[Simplex]] = defaultdict(set)
    for t in remaining:
        for v in t:
            on_vertex[v].add(t)
    for sigma, tau in sequence:
        assert sigma in remaining, f"{sigma} already removed"
        assert tau in remaining, f"{tau} already removed"
        sset = set(sigma)
        cofaces = [t for t in on_vertex[sigma[0]] if len(t) > len(sigma) and sset < set(t)]
        assert cofaces == [tau] or set(cofaces) == {tau}, (
            f"{sigma} is not free: cofaces {sorted(cofaces)}"
        )
        for s in (sigma, tau):
            remaining.discard(s)
            for v in s:
                on_vertex[v].discard(s)
    return frozenset(remaining)


def euler(simplices) -> int:
    return sum(-1 if len(s) % 2 == 0 else 1 for s in simplices)


def alternating_sum(counts) -> int:
    """c_0 - c_1 + c_2 - ... of per-dimension counts."""
    return sum((-1) ** d * c for d, c in enumerate(counts))


def profile_of(K: SimplicialComplex, pairs) -> tuple[int, ...]:
    """Critical counts recomputed from scratch."""
    matched = {s for p in pairs for s in p}
    counts = [0] * (K.dim + 1)
    for s in K.simplices:
        if s not in matched:
            counts[len(s) - 1] += 1
    return tuple(counts)


def named_complexes() -> dict[str, SimplicialComplex]:
    """Fixed corpus reused across the suite."""
    return {
        "vertex": from_maximal_simplices([(0,)]),
        "edge": from_maximal_simplices([(0, 1)]),
        "path2": from_maximal_simplices([(0, 1), (1, 2)]),
        "circle": from_maximal_simplices([(0, 1), (1, 2), (0, 2)]),
        "triangle": from_maximal_simplices([(0, 1, 2)]),
        "two_triangles": from_maximal_simplices([(0, 1, 2), (1, 2, 3)]),
        "sphere": from_maximal_simplices(
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        ),
        "tetrahedron": from_maximal_simplices([(1, 2, 3, 4)]),
        "rp2": rp2(),
        "dunce": dunce_hat(),
    }


def sparse_complexes():
    """Random complexes in dims 1-4 of a few facets on spare vertices.

    Two to eight facets over 4d + 12 vertices leave most of them with
    several components.
    """
    return st.builds(
        lambda s, d, k: random_complex(s, dim=d, n_vertices=4 * d + 12, n_facets=k),
        st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 8),
    )


def dunce_hat_with_tetrahedron() -> SimplicialComplex:
    """The dunce hat with the solid tetrahedron (1, 2, 4, 9) on its triangle (1, 2, 4).

    Contractible and 57 simplices.  The tetrahedron has free triangles,
    so the top-dimensional core is empty and the oracle's bound falls
    back on homology, one pair above the optimum of 27 pairs.
    """
    return from_maximal_simplices(dunce_hat().facets() + ((1, 2, 4, 9),))


def all_algorithms():
    """Every matching producer in the package, normalized to pair sets."""
    return {
        "frontier": lambda K: frontier_edges_matching(K).morse.pairs,
        "coreduction": lambda K: coreduction_matching(K).pairs,
        "reduction": lambda K: reduction_matching(K).pairs,
    }


def brute_closure(facets) -> dict:
    """A complex's fields rebuilt from its maximal simplices by brute force.

    Every non-empty vertex subset of each facet, sorted by (length,
    tuple); the facets of a simplex are found by deleting one vertex and
    its cofacets by adding one.  Returns simplices, facet_ids,
    cofacet_ids and offsets (the first id of each dimension, and n after
    the last) as plain tuples.
    """
    faces = set()
    for f in facets:
        vs = sorted(set(f))
        for mask in range(1, 1 << len(vs)):
            faces.add(tuple(v for k, v in enumerate(vs) if mask >> k & 1))
    simplices = tuple(sorted(faces, key=lambda s: (len(s), s)))
    pos = {s: i for i, s in enumerate(simplices)}
    verts = [s[0] for s in simplices if len(s) == 1]
    facet_ids = tuple(
        tuple(sorted(pos[s[:k] + s[k + 1:]] for k in range(len(s)))) if len(s) > 1 else ()
        for s in simplices
    )
    cofacet_ids = tuple(
        tuple(sorted(
            pos[t] for v in verts if v not in s
            for t in [tuple(sorted(s + (v,)))] if t in pos
        ))
        for s in simplices
    )
    top = len(simplices[-1])
    by_dim = tuple(tuple(s for s in simplices if len(s) == d + 1) for d in range(top))
    offsets = tuple(sum(len(level) for level in by_dim[:d]) for d in range(top + 1))
    return {
        "simplices": simplices,
        "facet_ids": facet_ids,
        "cofacet_ids": cofacet_ids,
        "offsets": offsets,
    }


def _reference_levels(simplices) -> list[set[Simplex]]:
    """Canonical simplices grouped into one set per dimension."""
    levels: list[set[Simplex]] = [set() for _ in range(max(map(len, simplices)))]
    for s in simplices:
        levels[len(s) - 1].add(s)
    return levels


def _reference_build(self, levels: list[set[Simplex]]) -> None:
    """Fill every field from one set of canonical d-simplices per dimension d.

    One sweep, level by level: sort the level into ids, look up the
    facet ids of each of its simplices among the ids of the level
    below, and append each simplex's id to the cofacet lists of its
    facets.  The first face missing in canonical order raises.
    """
    simplices: list[Simplex] = []
    offsets: list[int] = []
    index: dict[Simplex, int] = {}
    facet_ids: list[tuple[int, ...]] = []
    cofacets: list[list[int]] = []
    get = index.__getitem__
    for d, level in enumerate(levels):
        lo = len(simplices)
        members = sorted(level)
        simplices += members
        offsets.append(lo)
        index.update(zip(members, range(lo, len(simplices))))
        cofacets += [[] for _ in members]
        if not d:
            facet_ids += [()] * len(members)
            continue
        try:
            fids = [tuple(map(get, combinations(s, d))) for s in members]
        except KeyError as exc:
            raise ValueError(f"not downward closed: missing face {exc.args[0]}") from None
        for i, fs in enumerate(fids, lo):
            for f in fs:
                cofacets[f].append(i)
        facet_ids += fids
    self.simplices: tuple[Simplex, ...] = tuple(simplices)
    self.facet_ids: tuple[tuple[int, ...], ...] = tuple(facet_ids)
    self.cofacet_ids: tuple[tuple[int, ...], ...] = tuple(map(tuple, cofacets))
    self._offsets: tuple[int, ...] = (*offsets, len(simplices))
    self.dim: int = len(levels) - 1
    self.n: int = len(simplices)
    self._coreduction = self._mates = self._betti = None


def reference_close(tops: list[Simplex]) -> SimpleNamespace:
    """The complex of a non-empty list of canonical simplices and all their faces.

    The closure is taken one level at a time, the facets of each distinct
    d-simplex going into level d-1, and its faces are valid because they
    are subsets of valid ones, so nothing is checked again here.
    """
    levels = _reference_levels(tops)
    for d in range(len(levels) - 1, 0, -1):
        below = levels[d - 1]
        for s in levels[d]:
            below.update(combinations(s, d))
    K = SimpleNamespace()
    _reference_build(K, levels)
    return K


def reference_complex(simplices) -> SimpleNamespace:
    """SimplicialComplex(simplices) as built by the frozen builder above."""
    members = {simplex(s) for s in simplices}
    if not members:
        raise ValueError("empty complex")
    K = SimpleNamespace()
    _reference_build(K, _reference_levels(members))
    return K


def reference_simplex_boundary(n: int) -> SimplicialComplex:
    """The boundary of the n-simplex on vertices 1..n+1, through the validating constructor."""
    verts = tuple(range(1, n + 2))
    faces = [c for k in range(1, n + 1) for c in combinations(verts, k)]
    return SimplicialComplex(faces)


def reference_optimal_morse_matching(K: SimplicialComplex, budget: int | None = None) -> OracleResult:
    """optimal_morse_matching as it stood with its recursion encoded in [s, k, t] frames."""
    if budget is None and K.n > SIZE_LIMIT:
        raise ValueError(
            f"complex has {K.n} simplices, over the no-budget limit {SIZE_LIMIT}"
        )

    seed = max((coreduction_matching(K), reduction_matching(K)), key=len)
    beta = betti_gf2(K)
    floor = sum(beta) + 2 * max(0, reference_core_components(K) - beta[K.dim])
    ub = min((K.n - floor) // 2, max_cardinality_matching(K))

    best: list[int] | None = None
    best_len = len(seed)
    if best_len >= ub:
        return OracleResult(matching=seed, optimal=True, nodes=0, pair_upper_bound=ub)

    n = K.n
    C, F = K.cofacet_ids, K.facet_ids
    dim = [d for d in range(K.dim + 1) for _ in level(K, d)]
    remaining = [len(level(K, d)) for d in range(K.dim + 1)]
    chain = range(1, len(remaining))
    matched = bytearray(n)
    up = [-1] * n
    npairs = 0
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
                if npairs > best_len:
                    best, best_len = up[:], npairs
                    if best_len >= ub:
                        break
            else:
                bound = npairs
                x = 0
                for d in chain:
                    x = remaining[d - 1] - x
                    if x > remaining[d]:
                        x = remaining[d]
                    elif x < 0:
                        x = 0
                    bound += x
                if bound > best_len:
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
            npairs -= 1
            up[s] = -1
            matched[s] = matched[t] = 0
        cofs = C[s]
        m = len(cofs)
        while k < m:
            t = cofs[k]
            k += 1
            if matched[t] or closes_cycle(up, F, s, t):
                continue
            matched[s] = matched[t] = 1
            up[s] = t
            npairs += 1
            remaining[dim[t]] -= 1
            frame[1], frame[2] = k, t
            i = s + 1
            break
        else:
            frame[2] = -1
            if k == m:
                frame[1] = k + 1
                i = s + 1
            else:
                remaining[dim[s]] += 1
                stack.pop()
    return OracleResult(
        matching=seed if best is None else certify(K, OrientedHasse(K, best)),
        optimal=optimal,
        nodes=nodes,
        pair_upper_bound=ub,
    )


def reference_top_core(K: SimplicialComplex, dead=()) -> bytearray:
    """Alive flags, by id, of the top-dimensional core of the D-simplices not in dead.

    D is K.dim.  Repeatedly deletes a D-simplex that has a (D-1)-face
    with exactly one remaining D-coface, popping such faces off a stack;
    the D-simplices left are flagged 1, every other id 0.
    """
    F, C = K.facet_ids, K.cofacet_ids
    alive = bytearray(K.n)
    count = [0] * K.n
    for t in range(K.offset(K.dim), K.n):
        if t not in dead:
            alive[t] = 1
            for e in F[t]:
                count[e] += 1
    queue = [e for e, k in enumerate(count) if k == 1]
    while queue:
        e = queue.pop()
        if count[e] != 1:
            continue
        t = next(x for x in C[e] if alive[x])
        alive[t] = 0
        for f in F[t]:
            count[f] -= 1
            if count[f] == 1:
                queue.append(f)
    return alive


def reference_core_components(K: SimplicialComplex) -> int:
    """Components of reference_top_core(K), D-simplices adjacent when they share a (D-1)-face."""
    F, C = K.facet_ids, K.cofacet_ids
    alive = reference_top_core(K)
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


def reference_collapse_sequence(K: SimplicialComplex, matching, sub) -> tuple[Pair, ...]:
    """collapse_sequence as it stood with its own heap of free faces and a delete closure."""
    mm = matching
    if not (isinstance(mm, MorseMatching) and mm._ids is not None and mm._ids[0] is K):
        mm = certify(K, getattr(matching, "pairs", matching))
    if not mm.acyclic:
        raise ValueError("matching is not acyclic")
    lower = {tuple(sorted(s)) for s in sub}
    if unknown := [s for s in lower if s not in K]:
        raise ValueError(f"unknown simplex {min(unknown, key=lambda s: (len(s), s))}")
    S, F, C = K.simplices, K.facet_ids, K.cofacet_ids
    covered = bytearray(K.n)
    for s in sorted(map(K._id, lower)):
        for f in F[s]:
            if not covered[f]:
                raise ValueError(f"subcomplex not downward closed: missing {S[f]}")
        covered[s] = 1
    up = mm._ids[1]
    work: set[int] = set()
    for s, t in enumerate(up):
        if t >= 0 and not covered[s] and not covered[t]:
            covered[s] = covered[t] = 1
            work.add(s)
    if (s := covered.find(0)) >= 0:
        raise ValueError(f"not matched away: {S[s]}")
    alive = bytearray(b"\x01") * K.n
    count = [len(cs) for cs in C]
    heap = sorted(s for s in work if count[s] == 1)

    def delete(x: int) -> None:
        alive[x] = 0
        for f in F[x]:
            if alive[f]:
                count[f] -= 1
                if count[f] == 1 and f in work:
                    heapq.heappush(heap, f)

    out = []
    while work:
        s = -1
        while heap:
            s = heapq.heappop(heap)
            if s in work and count[s] == 1:
                break
            s = -1
        if s < 0:
            raise RuntimeError("acyclicity violated: no free pair remains")
        work.discard(s)
        delete(s)
        delete(up[s])
        out.append((S[s], S[up[s]]))
    return tuple(out)


def reference_morse_inequalities(counts, betti) -> MorseInequalityReport:
    """check_morse_inequalities with a double sum of signed terms per index."""
    c = tuple(counts)
    b = tuple(betti)
    top = max(len(c), len(b))
    cc = c + (0,) * (top + 1 - len(c))
    bb = b + (0,) * (top + 1 - len(b))
    alt = []
    for d in range(top + 1):
        sc = sum((-1) ** (d - i) * cc[i] for i in range(d + 1))
        sb = sum((-1) ** (d - i) * bb[i] for i in range(d + 1))
        if sc < sb:
            alt.append(d)
    point = [i for i in range(top + 1) if cc[i] < bb[i]]
    return MorseInequalityReport(
        ok=not alt and not point,
        alternating_failures=tuple(alt),
        pointwise_failures=tuple(point),
    )


def _reference_parse_vertices(token_text: str, lineno: int) -> Simplex:
    verts = []
    try:
        for tok in token_text.split():
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"line {lineno}: bad vertex id {tok!r}")
            verts.append(int(tok))
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"line {lineno}: vertex id of {len(tok)} digits is too long") from None
    if not verts:
        raise ParseError(f"line {lineno}: no vertices")
    if len(set(verts)) != len(verts):
        raise ParseError(f"line {lineno}: repeated vertex in {token_text.strip()!r}")
    return tuple(sorted(verts))


def reference_parse_complex(text: str) -> SimplicialComplex:
    """parse_complex as it stood: each line that is not blank or a # comment parsed in turn."""
    maximal = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            maximal.append(_reference_parse_vertices(line, lineno))
    if not maximal:
        raise ParseError("no simplices in input")
    return from_maximal_simplices(maximal)
