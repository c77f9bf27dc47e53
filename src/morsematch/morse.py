"""Validation and surgery for discrete Morse matchings.

A matching is Morse when the matched-edges-up orientation of the Hasse
diagram has no directed cycle.  Cycles can only live inside a single
d-interface (a directed edge changes dimension by exactly one, up from
d-1 or down from d), so acyclicity is checked one interface at a time,
on simplex ids: certify takes simplex pairs from outside, or an up array
of ids from the package's own algorithms, runs both through one
validator and then a search over the matched cofaces alone; is_acyclic
is certify's verdict on an OrientedHasse, read as (acyclic, witness).
Critical simplices are the unmatched ones.  critical_profile and the two
surgery functions, canonicalize_single_critical_vertex and
collapse_sequence, accept a matching by one rule, _accept, and then work
on its up array.
"""
from __future__ import annotations

from .complexes import (
    Record,
    Simplex,
    SimplicialComplex,
    _eliminate,
    canonical_key,
    is_connected,
)
from .hasse import Pair, OrientedHasse, orient


class CriticalProfile(Record):
    """Counts of critical simplices per dimension."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


class MorseMatching(Record):
    """A matching together with its acyclicity certificate.

    When the matching is not acyclic, witness holds one alternating cycle
    as a simplex sequence (a1, b1, a2, b2, ...) following the directed
    edges, with every (a_i, b_i) a matched pair.  certify keeps only _ids,
    the complex it ran on and the validated up array as a tuple; pairs is
    built from them on first access and kept, and len counts from them.
    The ids take no part in comparisons, the repr or pickling.
    """

    pairs: frozenset[Pair]
    acyclic: bool
    witness: tuple[Simplex, ...] | None = None
    _ids: tuple[SimplicialComplex, tuple[int, ...]] | None = None

    def __getattr__(self, name: str):
        # Called only when lookup fails, so for pairs when certify left it unset.
        if name != "pairs" or self._ids is None:
            raise AttributeError(name)
        K, up = self._ids
        self._set(pairs=frozenset(OrientedHasse(K, up).up_pairs()))
        return self.pairs

    def __len__(self) -> int:
        if self._ids is None:
            return len(self.pairs)
        up = self._ids[1]
        return len(up) - up.count(-1)


def closes_cycle(up: list[int], F, alpha: int, beta: int) -> bool:
    """True when matching face alpha with coface beta closes an alternating cycle.

    Everything is on simplex ids: up[f] is the coface face f is matched
    with, or -1, and F is K.facet_ids.  alpha and beta must both be
    unmatched in up, and the pairs in up acyclic, so any new cycle runs
    through the new pair.  Walks the interface of dimension dim(beta):
    down from a matched coface to any of its facets, then up along that
    facet's own matched coface, looking for a path from beta back to
    alpha.  The only down-edge skipped is beta's to alpha; a coface's
    step down to its own mate leads straight back to it.  This is the
    one incremental test for a growing matching, shared by frontier and
    the oracle; certify checks a finished one independently.
    """
    stack = [c for y in F[beta] if y != alpha and (c := up[y]) >= 0]
    if not stack:
        return False
    seen = {beta, *stack}
    while stack:
        for y in F[stack.pop()]:
            if y == alpha:
                return True
            c = up[y]
            if c >= 0 and c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def _witness(K: SimplicialComplex, up) -> tuple[Simplex, ...] | None:
    """One alternating cycle of a validated up array, or None when it is acyclic.

    Unmatched (d-1)-simplices are sinks and unmatched d-simplices are
    sources, so a depth-first search over the matched d-simplices alone
    finds every cycle: from a coface b it steps to up[f] for each facet f
    of b but b's mate, roots taken in the id order of their mates.
    state[b] is 1 while b is on the search path and 2 once finished.  The
    cycle's lower simplices are the mates of its cofaces, and it is
    normalized to start at its smallest lower simplex.
    """
    F = K.facet_ids
    state = bytearray(K.n)
    for root in up:
        if root < 0 or state[root]:
            continue
        state[root] = 1
        path = [root]
        stack = [iter(F[root])]
        while stack:
            b = path[-1]
            for f in stack[-1]:
                c = up[f]
                if c < 0 or c == b or state[c] == 2:
                    continue
                if state[c] == 1:
                    cycle = path[path.index(c):]
                    cycle = [(next(g for g in F[x] if up[g] == x), x) for x in cycle]
                    k = cycle.index(min(cycle))
                    S = K.simplices
                    return tuple(S[x] for pair in cycle[k:] + cycle[:k] for x in pair)
                state[c] = 1
                path.append(c)
                stack.append(iter(F[c]))
                break
            else:
                stack.pop()
                state[path.pop()] = 2
    return None


def is_acyclic(oh: OrientedHasse):
    """certify(oh.complex, oh) read as (True, None) or (False, witness).

    The witness is an alternating cycle normalized to start at its
    smallest lower simplex.  An up array that is malformed raises
    ValueError, and one that is no matching InvalidMatching, as in orient.
    """
    mm = certify(oh.complex, oh)
    return mm.acyclic, mm.witness


def certify(K: SimplicialComplex, pairs) -> MorseMatching:
    """Validate a matching and attach its acyclicity certificate.

    pairs are (face, coface) simplex pairs or, from the package's own
    algorithms, an OrientedHasse of K (see orient): both are validated
    on ids by the same checks, in one pass, before the cycle search.
    """
    oh = orient(K, pairs)
    witness = _witness(K, oh.up)
    return MorseMatching.__new__(MorseMatching)._set(  # pairs stays unset until read
        acyclic=witness is None, witness=witness, _ids=(K, tuple(oh.up))
    )


def _accept(K: SimplicialComplex, matching) -> MorseMatching:
    """A MorseMatching certified on K itself as it is, anything else certified on K once."""
    ids = matching._ids if isinstance(matching, MorseMatching) else None
    if ids is not None and ids[0] is K:
        return matching
    return certify(K, getattr(matching, "pairs", matching))


def critical_profile(K: SimplicialComplex, matching) -> CriticalProfile:
    """Count unmatched simplices per dimension.

    Counts from the up array of the matching _accept gives, so pairs that
    are no matching on K, or name a simplex K lacks, raise InvalidMatching.
    The d-simplices matched up are its entries other than -1 in dimension
    d, and as many (d+1)-simplices are matched down.
    """
    up = _accept(K, matching)._ids[1]
    counts = []
    below = 0
    for d in range(K.dim + 1):
        lo, hi = K.offset(d), K.offset(d + 1)
        matched_up = hi - lo - up[lo:hi].count(-1)
        counts.append(hi - lo - matched_up - below)
        below = matched_up
    return CriticalProfile(tuple(counts))


class MorseInequalityReport(Record):
    """Outcome of the Morse inequality checks against Betti numbers."""

    ok: bool
    alternating_failures: tuple[int, ...]
    pointwise_failures: tuple[int, ...]


def check_morse_inequalities(counts, betti) -> MorseInequalityReport:
    """Check critical counts per dimension against the Betti numbers.

    For each d, the alternating sum c_d - c_{d-1} + ... must be at least
    the same sum of Betti numbers, both kept running in one pass; summing
    consecutive inequalities gives the per-dimension bound c_i >= beta_i.
    Checking one index past the top dimension pins the Euler equality
    from both sides.
    """
    c = tuple(counts)
    b = tuple(betti)
    top = max(len(c), len(b))
    cc = c + (0,) * (top + 1 - len(c))
    bb = b + (0,) * (top + 1 - len(b))
    alt = []
    sc = sb = 0  # the alternating sums, S_d = x_d - S_{d-1}
    for d in range(top + 1):
        sc, sb = cc[d] - sc, bb[d] - sb
        if sc < sb:
            alt.append(d)
    point = [i for i in range(top + 1) if cc[i] < bb[i]]
    return MorseInequalityReport(
        ok=not alt and not point,
        alternating_failures=tuple(alt),
        pointwise_failures=tuple(point),
    )


def canonicalize_single_critical_vertex(K: SimplicialComplex, matching, p: int) -> MorseMatching:
    """Rebuild the vertex-edge pairs so p is the only critical vertex.

    Pairs whose coface has dimension 2 or more are kept.  The vertex-edge
    pairing is replaced wholesale, on a copy of the accepted up array with
    its vertex entries cleared: a depth-first spanning tree of the gamma
    graph (the 1-skeleton less the edges matched up to triangles, which an
    acyclic matching on a connected complex leaves connected) rooted at p
    (vertex ids, neighbours ascending) matches every other vertex with
    its tree edge toward the root.  Every directed path
    in the rebuilt 1-interface then descends toward p, so no cycle appears
    and the critical counts above dimension 1 are untouched.
    """
    root = K._id((p,))
    if root < 0:
        raise ValueError(f"unknown simplex {(p,)}")
    mm = _accept(K, matching)
    if not mm.acyclic:
        raise ValueError("matching is not acyclic")
    F, C = K.facet_ids, K.cofacet_ids
    nv = K.offset(1)
    up = [-1] * nv + list(mm._ids[1][nv:])
    reached = bytearray(nv)
    reached[root] = 1
    stack = [(root, iter(C[root]))]
    while stack:
        v, edges = stack[-1]
        for e in edges:
            w = F[e][F[e][0] == v]  # the edge's other end
            if up[e] < 0 and not reached[w]:
                reached[w], up[w] = 1, e
                stack.append((w, iter(C[w])))
                break
        else:
            stack.pop()
    if reached.count(0):
        if not is_connected(K):
            raise ValueError("connected complex required")
        raise RuntimeError("gamma graph is disconnected despite an acyclic matching")
    out = certify(K, OrientedHasse(K, up))
    if not out.acyclic:
        raise RuntimeError("canonicalization produced a cyclic matching")
    return out


def collapse_sequence(K: SimplicialComplex, matching, sub) -> tuple[Pair, ...]:
    """Order the pairs covering K minus the subcomplex into elementary collapses.

    sub may be a SimplicialComplex or an iterable of simplices; it must be
    downward closed (its first unknown simplex, then its first missing
    face, is reported in canonical order, as the constructors do) and its
    complement in K must be exactly a union of matched pairs.  Pairs are
    emitted greedily: at every step some matched simplex must be a free
    face of its partner in what remains (smallest simplex first on ties),
    otherwise the matching was not acyclic and a RuntimeError reports it.
    What remains stays downward closed, so a simplex is free when it has
    one live cofacet (see complexes).  The collapse is complexes._eliminate
    with only the faces to collapse counting their cofacets: a face's one
    live cofacet is then its mate, which goes only with it.
    """
    mm = _accept(K, matching)
    if not mm.acyclic:
        raise ValueError("matching is not acyclic")
    lower = {tuple(sorted(s)) for s in sub}
    if unknown := [s for s in lower if s not in K]:
        raise ValueError(f"unknown simplex {min(unknown, key=canonical_key)}")
    S, F, C = K.simplices, K.facet_ids, K.cofacet_ids
    # A simplex is covered when it lies in sub or in a matched pair outside
    # it; the faces of those pairs are the ones to collapse.  Facets have
    # smaller ids, so ascending ids meet each one before its cofacets.
    covered = bytearray(K.n)
    for s in sorted(map(K._id, lower)):
        for f in F[s]:
            if not covered[f]:
                raise ValueError(f"subcomplex not downward closed: missing {S[f]}")
        covered[s] = 1
    up = mm._ids[1]
    counted = [()] * K.n
    faces = 0
    for s, t in enumerate(up):
        if t >= 0 and not covered[s] and not covered[t]:
            covered[s] = covered[t] = 1
            counted[s] = C[s]
            faces += 1
    if (s := covered.find(0)) >= 0:
        raise ValueError(f"not matched away: {S[s]}")
    out = tuple((S[a], S[b]) for a, b in _eliminate(K, counted, F, ()))
    if len(out) < faces:
        raise RuntimeError("acyclicity violated: no free pair remains")
    return out
