"""Validation and surgery for discrete Morse matchings.

A matching is Morse when the matched-edges-up orientation of the Hasse
diagram has no directed cycle.  Cycles can only live inside a single
d-interface (a directed edge changes dimension by exactly one, up from
d-1 or down from d), so acyclicity is checked one interface at a time.
Critical simplices are the unmatched ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappop
from itertools import combinations

from .complexes import (
    Simplex,
    SimplicialComplex,
    canonical_key,
    facets_of,
    is_connected,
    proper_cofaces,
)
from .hasse import Pair, OrientedHasse, orient


@dataclass(frozen=True)
class CriticalProfile:
    """Counts of critical simplices per dimension."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def alternating_sum(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))


@dataclass(frozen=True)
class MorseMatching:
    """A matching together with its acyclicity certificate.

    When the matching is not acyclic, witness holds one alternating cycle
    as a simplex sequence (a1, b1, a2, b2, ...) following the directed
    edges, with every (a_i, b_i) a matched pair.
    """

    pairs: frozenset[Pair]
    acyclic: bool
    witness: tuple[Simplex, ...] | None = None

    def __len__(self) -> int:
        return len(self.pairs)


def _directed_cycle(adj: dict, order) -> list | None:
    """First directed cycle found by DFS over adj, or None; deterministic."""
    state: dict = {}
    for root in order:
        if state.get(root):
            continue
        stack = [(root, iter(adj.get(root, ())))]
        state[root] = 1
        path = [root]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                path.pop()
                state[node] = 2
                continue
            st = state.get(nxt, 0)
            if st == 0:
                state[nxt] = 1
                path.append(nxt)
                stack.append((nxt, iter(adj.get(nxt, ()))))
            elif st == 1:
                return path[path.index(nxt):]
    return None


def closes_cycle(partner: dict, facets, alpha: Simplex, beta: Simplex) -> bool:
    """True when matching alpha with beta closes an alternating cycle.

    partner maps each matched simplex to its mate and must itself be
    acyclic, so any new cycle runs through the new pair; facets(b) gives
    the facets of b.  Walks the interface of dimension len(beta)-1: down
    from a matched coface to any facet except its partner, then up along
    that facet's own matched coface, looking for a path from beta back
    to alpha.  This is the incremental test for a growing matching;
    is_acyclic certifies a finished one independently.
    """
    top = len(beta)
    seen = {beta}
    stack = [beta]
    while stack:
        b = stack.pop()
        mate = alpha if b == beta else partner[b]
        for y in facets(b):
            if y == mate:
                continue
            if y == alpha:
                return True
            up = partner.get(y)
            if up is not None and len(up) == top and up not in seen:
                seen.add(up)
                stack.append(up)
    return False


def is_acyclic(oh: OrientedHasse):
    """Certify the orientation, one d-interface at a time.

    Returns (True, None) or (False, witness) where witness is an
    alternating cycle normalized to start at its smallest lower simplex.
    """
    K = oh.complex
    for d in range(1, K.dim + 1):
        adj: dict[Simplex, list[Simplex]] = {}
        for tau in K.by_dim[d]:
            downs = []
            for sigma in facets_of(tau):
                if oh.is_up(sigma, tau):
                    adj.setdefault(sigma, []).append(tau)
                else:
                    downs.append(sigma)
            adj[tau] = downs
        cycle = _directed_cycle(adj, K.by_dim[d - 1] + K.by_dim[d])
        if cycle is not None:
            lows = [i for i, s in enumerate(cycle) if len(s) == d]
            start = min(lows, key=lambda i: canonical_key(cycle[i]))
            witness = tuple(cycle[start:] + cycle[:start])
            return False, witness
    return True, None


def certify(K: SimplicialComplex, pairs) -> MorseMatching:
    """Validate a matching and attach its acyclicity certificate."""
    oh = orient(K, pairs)
    ok, witness = is_acyclic(oh)
    return MorseMatching(pairs=oh.pairs, acyclic=ok, witness=witness)


def _pairs_of(matching) -> frozenset[Pair]:
    if isinstance(matching, MorseMatching):
        return matching.pairs
    return frozenset(matching)


def critical_profile(K: SimplicialComplex, matching) -> CriticalProfile:
    """Count unmatched simplices per dimension."""
    matched: set[Simplex] = set()
    for sigma, tau in _pairs_of(matching):
        matched.add(sigma)
        matched.add(tau)
    counts = tuple(
        sum(1 for s in level if s not in matched) for level in K.by_dim
    )
    return CriticalProfile(counts)


@dataclass(frozen=True)
class MorseInequalityReport:
    """Outcome of the Morse inequality checks against Betti numbers."""

    ok: bool
    alternating_failures: tuple[int, ...]
    pointwise_failures: tuple[int, ...]


def check_morse_inequalities(profile, betti) -> MorseInequalityReport:
    """Check alternating-sum and per-dimension lower bounds.

    For each d, the alternating sum c_d - c_{d-1} + ... must be at least
    the same sum of Betti numbers; summing consecutive inequalities gives
    the per-dimension bound c_i >= beta_i.  Checking one index past the
    top dimension pins the Euler equality from both sides.
    """
    c = profile.counts if isinstance(profile, CriticalProfile) else tuple(profile)
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


def gamma_graph(K: SimplicialComplex, matching) -> dict[int, tuple[int, ...]]:
    """1-skeleton minus the edges matched with 2-simplices, as adjacency.

    For an acyclic matching on a connected complex this graph is always
    connected: walking from any vertex along unmatched or downward-matched
    edges reaches every other vertex.
    """
    if not is_connected(K):
        raise ValueError("connected complex required")
    removed = {
        sigma for sigma, tau in _pairs_of(matching)
        if len(sigma) == 2 and len(tau) == 3
    }
    adj: dict[int, list[int]] = {v: [] for v in K.vertices}
    if K.dim >= 1:
        for a, b in K.by_dim[1]:
            if (a, b) in removed:
                continue
            adj[a].append(b)
            adj[b].append(a)
    return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def canonicalize_single_critical_vertex(K: SimplicialComplex, matching, p: int) -> MorseMatching:
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
    gamma = gamma_graph(K, mm.pairs)
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


def collapse_sequence(K: SimplicialComplex, matching, sub) -> tuple[Pair, ...]:
    """Order the pairs covering K minus the subcomplex into elementary collapses.

    sub may be a SimplicialComplex or an iterable of simplices; it must be
    downward closed and its complement in K must be exactly a union of
    matched pairs.  Pairs are emitted greedily: at every step some matched
    simplex must be a free face of its partner in what remains (smallest
    simplex first on ties), otherwise the matching was not acyclic and a
    RuntimeError reports it.
    """
    mm = matching if isinstance(matching, MorseMatching) else certify(K, matching)
    if not mm.acyclic:
        raise ValueError("matching is not acyclic")
    if isinstance(sub, SimplicialComplex):
        lower = set(sub.simplices)
    else:
        lower = {tuple(sorted(s)) for s in sub}
    for s in lower:
        if s not in K:
            raise ValueError(f"unknown simplex {s}")
        for f in facets_of(s):
            if f not in lower:
                raise ValueError(f"subcomplex not downward closed: missing {f}")
    removed = set(K.simplices) - lower
    partner: dict[Simplex, Simplex] = {}
    for sigma, tau in mm.pairs:
        partner[sigma] = tau
        partner[tau] = sigma
    for s in sorted(removed, key=canonical_key):
        if s not in partner or partner[s] not in removed:
            raise ValueError(f"not matched away: {s}")
    work = {(s, t) for s, t in mm.pairs if s in removed}

    alive = set(K.simplices)
    count = {s: len(cs) for s, cs in proper_cofaces(K).items()}

    heap: list[tuple[tuple, Pair]] = []
    for s, t in work:
        if count[s] == 1:
            heappush(heap, (canonical_key(s), (s, t)))

    def delete(x: Simplex) -> None:
        alive.discard(x)
        for k in range(1, len(x)):
            for f in combinations(x, k):
                if f in alive:
                    count[f] -= 1
                    if count[f] == 1 and f in partner:
                        t = partner[f]
                        if (f, t) in work:
                            heappush(heap, (canonical_key(f), (f, t)))

    out = []
    while work:
        pair = None
        while heap:
            _, (s, t) = heappop(heap)
            if (s, t) in work and count[s] == 1:
                pair = (s, t)
                break
        if pair is None:
            raise RuntimeError("acyclicity violated: no free pair remains")
        work.discard(pair)
        delete(pair[0])
        delete(pair[1])
        out.append(pair)
    return tuple(out)
