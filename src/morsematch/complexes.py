"""Finite simplicial complexes with explicit face sets.

A simplex is a tuple of strictly increasing, non-negative vertex ids.
A complex stores every face (downward closure) and is immutable once
built.  Orderings are canonical throughout: simplices compare by
(dimension, vertex tuple), which keeps every derived structure
deterministic.
"""
from __future__ import annotations

from itertools import combinations
from types import MappingProxyType

Simplex = tuple[int, ...]


def simplex(vertices) -> Simplex:
    """Build a canonical simplex from an iterable of vertex ids."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("empty simplex")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"bad vertex id {v!r}")
    if len(set(vs)) != len(vs):
        raise ValueError(f"degenerate facet {tuple(vertices)!r}")
    return vs


def canonical_key(s: Simplex):
    """Sort key ordering simplices by dimension, then lexicographically."""
    return (len(s), s)


def facets_of(s: Simplex) -> list[Simplex]:
    """Codimension-1 faces of s, in canonical order."""
    if len(s) <= 1:
        return []
    return [s[:i] + s[i + 1:] for i in range(len(s) - 1, -1, -1)]


class SimplicialComplex:
    """A downward-closed finite set of simplices.

    The complex is the package's one incidence store: facets are computed
    on demand by facets_of, and the codimension-1 cofaces of every simplex
    are kept in canonical order in the read-only cofacet_map.
    """

    __slots__ = ("simplices", "by_dim", "dim", "n", "_members", "cofacet_map")

    def __init__(self, simplices):
        members = sorted({simplex(s) for s in simplices}, key=canonical_key)
        if not members:
            raise ValueError("empty complex")
        member_set = frozenset(members)
        for s in members:
            for f in facets_of(s):
                if f not in member_set:
                    raise ValueError(f"not downward closed: missing face {f}")
        self.simplices: tuple[Simplex, ...] = tuple(members)
        self._members = member_set
        self.dim: int = len(members[-1]) - 1
        self.n: int = len(members)
        by_dim: list[list[Simplex]] = [[] for _ in range(self.dim + 1)]
        for s in members:
            by_dim[len(s) - 1].append(s)
        self.by_dim: tuple[tuple[Simplex, ...], ...] = tuple(tuple(level) for level in by_dim)
        cofacets: dict[Simplex, list[Simplex]] = {s: [] for s in members}
        for t in members:
            for f in facets_of(t):
                cofacets[f].append(t)
        self.cofacet_map = MappingProxyType({s: tuple(ts) for s, ts in cofacets.items()})

    def __contains__(self, s) -> bool:
        return s in self._members

    def __iter__(self):
        return iter(self.simplices)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, dim={self.dim})"

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.by_dim[0])

    def cofacets_of(self, s: Simplex) -> tuple[Simplex, ...]:
        """Codimension-1 cofaces of s, in canonical order."""
        if s not in self._members:
            raise ValueError(f"unknown simplex {s}")
        return self.cofacet_map[s]

    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices, in canonical order."""
        return tuple(s for s in self.simplices if not self.cofacet_map[s])


def proper_cofaces(K: SimplicialComplex) -> dict[Simplex, list[Simplex]]:
    """Every proper coface of every simplex, each list in canonical order."""
    cofaces: dict[Simplex, list[Simplex]] = {s: [] for s in K.simplices}
    for t in K.simplices:
        for k in range(1, len(t)):
            for f in combinations(t, k):
                cofaces[f].append(t)
    return cofaces


def from_maximal_simplices(facets) -> SimplicialComplex:
    """Build the downward closure of the given simplices."""
    facets = list(facets)
    if not facets:
        raise ValueError("empty complex")
    closure: set[Simplex] = set()
    for f in facets:
        top = simplex(f)
        for k in range(1, len(top) + 1):
            closure.update(combinations(top, k))
    return SimplicialComplex(closure)


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(level) for d, level in enumerate(K.by_dim))


def boundary_matrix_gf2(K: SimplicialComplex, d: int) -> list[int]:
    """Mod-2 boundary matrix of dimension d as bit rows.

    Row i corresponds to the i-th d-simplex in canonical order; bit j is
    set when the j-th (d-1)-simplex is one of its facets.
    """
    if not 1 <= d <= K.dim:
        raise ValueError(f"no boundary matrix in dimension {d}")
    index = {s: i for i, s in enumerate(K.by_dim[d - 1])}
    rows = []
    for s in K.by_dim[d]:
        row = 0
        for f in facets_of(s):
            row |= 1 << index[f]
        rows.append(row)
    return rows


def gf2_rank(rows) -> int:
    """Rank of a set of GF(2) bit rows by elimination on leading bits."""
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


def betti_gf2(K: SimplicialComplex) -> tuple[int, ...]:
    """Mod-2 Betti numbers (beta_0, ..., beta_D).

    beta_d = dim ker(boundary_d) - rank(boundary_{d+1}), with the boundary
    maps taken over GF(2).
    """
    ranks = [0] * (K.dim + 2)
    for d in range(1, K.dim + 1):
        ranks[d] = gf2_rank(boundary_matrix_gf2(K, d))
    return tuple(
        len(K.by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(K.dim + 1)
    )


def is_connected(K: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton (a single vertex counts as connected)."""
    verts = K.vertices
    adj: dict[int, list[int]] = {v: [] for v in verts}
    if K.dim >= 1:
        for a, b in K.by_dim[1]:
            adj[a].append(b)
            adj[b].append(a)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)
