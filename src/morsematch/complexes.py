"""Finite simplicial complexes with explicit face sets.

A simplex is a tuple of strictly increasing, non-negative vertex ids.
A complex stores every face (downward closure) and is immutable once
built.  Orderings are canonical throughout: simplices compare by
(dimension, vertex tuple), which keeps every derived structure
deterministic.

Each simplex also has an integer id, its position in the canonical
order, and the complex stores its incidence once as tuples of facet ids
and cofacet ids.  Algorithms keep their state in lists indexed by id and
speak simplex tuples only at the API edge.

The collapse routines need no incidence beyond cofacet_ids: in a
downward-closed set a simplex has one proper coface exactly when it has
one cofacet, since a second coface c above the cofacet b brings in a
second cofacet, the other face of c between them.  Elementary collapses
keep the set downward closed, so live cofacet counts find every free face.

One builder fills a complex, from one set of canonical simplices per
dimension, in a single sweep up the dimensions: it sorts each level into
ids and looks up the facet ids of its simplices among the level below,
which also fills the cofacet ids and finds the first missing face.  The
constructor validates every simplex it is given before grouping them;
from_maximal_simplices validates only the maximal ones and closes them
downward one level at a time, since every face of a valid simplex is
valid.  The file parser, which checks its simplices as it reads them,
shares that closure step.

Record, at the end, is the base of the package's result types
(MorseMatching, FrontierResult, OracleResult and the rest): immutable
fields in __slots__, declared like a frozen dataclass's.  It stands in
for dataclasses, whose import would take most of the CLI's start-up.
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


def _levels(simplices) -> list[set[Simplex]]:
    """Canonical simplices grouped into one set per dimension."""
    levels: list[set[Simplex]] = [set() for _ in range(max(map(len, simplices)))]
    for s in simplices:
        levels[len(s) - 1].add(s)
    return levels


class SimplicialComplex:
    """A downward-closed finite set of simplices.

    The complex is the package's one incidence store.  Every simplex has
    an id, its position in simplices, so ids sort in canonical order and
    the ids of one dimension are contiguous.  The read-only index maps a
    simplex to its id; facet_ids[i] and cofacet_ids[i] hold the ids of
    the codimension-1 faces and cofaces of simplex i, ascending, so in
    canonical order.  Hot loops run on ids and turn them back into
    simplices at the edge.
    The maximum matching (as a mate array) and the Betti numbers are
    filled in on first request and kept, since the complex never changes.
    """

    __slots__ = (
        "simplices", "by_dim", "dim", "n", "index", "facet_ids", "cofacet_ids",
        "_mates", "_betti",
    )

    def __init__(self, simplices):
        members = {simplex(s) for s in simplices}
        if not members:
            raise ValueError("empty complex")
        self._build(_levels(members))

    def _build(self, levels: list[set[Simplex]]) -> None:
        """Fill every field from one set of canonical d-simplices per dimension d.

        One sweep, level by level: sort the level into ids, look up the
        facet ids of each of its simplices among the ids of the level
        below, and append each simplex's id to the cofacet lists of its
        facets.  The first face missing in canonical order raises.
        """
        simplices: list[Simplex] = []
        by_dim: list[tuple[Simplex, ...]] = []
        index: dict[Simplex, int] = {}
        facet_ids: list[tuple[int, ...]] = []
        cofacets: list[list[int]] = []
        get = index.__getitem__
        for d, level in enumerate(levels):
            lo = len(simplices)
            members = sorted(level)
            simplices += members
            by_dim.append(tuple(members))
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
        self.index: MappingProxyType[Simplex, int] = MappingProxyType(index)
        self.facet_ids: tuple[tuple[int, ...], ...] = tuple(facet_ids)
        self.cofacet_ids: tuple[tuple[int, ...], ...] = tuple(map(tuple, cofacets))
        self.by_dim: tuple[tuple[Simplex, ...], ...] = tuple(by_dim)
        self.dim: int = len(levels) - 1
        self.n: int = len(simplices)
        self._mates = None
        self._betti = None

    def __contains__(self, s) -> bool:
        return s in self.index

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

    def __reduce__(self):
        # index is a mappingproxy, which cannot be pickled; the kept
        # matching and Betti numbers are recomputed on demand instead.
        return SimplicialComplex, (self.simplices,)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.by_dim[0])

    def offset(self, d: int) -> int:
        """Id of the first d-simplex; the d-simplices hold ids offset(d) .. offset(d+1)-1."""
        return sum(len(level) for level in self.by_dim[:d])

    def cofacets_of(self, s: Simplex) -> tuple[Simplex, ...]:
        """Codimension-1 cofaces of s, in canonical order."""
        i = self.index.get(s)
        if i is None:
            raise ValueError(f"unknown simplex {s}")
        S = self.simplices
        return tuple(S[j] for j in self.cofacet_ids[i])

    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices, in canonical order."""
        return tuple(s for s, cs in zip(self.simplices, self.cofacet_ids) if not cs)


def from_maximal_simplices(facets) -> SimplicialComplex:
    """Build the downward closure of the given simplices.

    Only the given simplices are checked (see _close for the closure).
    """
    tops = [simplex(f) for f in facets]
    if not tops:
        raise ValueError("empty complex")
    return _close(tops)


def _close(tops: list[Simplex]) -> SimplicialComplex:
    """The complex of a non-empty list of canonical simplices and all their faces.

    The closure is taken one level at a time, the facets of each distinct
    d-simplex going into level d-1, and its faces are valid because they
    are subsets of valid ones, so nothing is checked again here.
    """
    levels = _levels(tops)
    for d in range(len(levels) - 1, 0, -1):
        below = levels[d - 1]
        for s in levels[d]:
            below.update(combinations(s, d))
    K = SimplicialComplex.__new__(SimplicialComplex)
    K._build(levels)
    return K


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(level) for d, level in enumerate(K.by_dim))


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
    maps taken over GF(2), boundary_1's rank being the vertex count less
    the component count.  Computed once per complex and kept.
    """
    if K._betti is None:
        ranks = [0] * (K.dim + 2)
        if K.dim:
            ranks[1] = len(K.by_dim[0]) - len(component_roots(K))
        for d in range(2, K.dim + 1):
            ranks[d] = gf2_rank(boundary_matrix_gf2(K, d))
        K._betti = tuple(
            len(K.by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(K.dim + 1)
        )
    return K._betti


def component_roots(K: SimplicialComplex) -> list[int]:
    """The least vertex of each connected component of the 1-skeleton, ascending."""
    adj: dict[int, list[int]] = {v: [] for v in K.vertices}
    if K.dim >= 1:
        for a, b in K.by_dim[1]:
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


def is_connected(K: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton (a single vertex counts as connected)."""
    return len(component_roots(K)) == 1


class _Fields(type):
    """Metaclass of Record: the annotated fields of a class body become its __slots__.

    A value a field is given there becomes its default, so fields with
    defaults come last, and private ones (a leading underscore) last of all.
    The field names are read from the body's __annotations__, which the
    declaring modules keep a plain dict with `from __future__ import annotations`.
    A subclass that annotates nothing keeps the fields of its base.
    """

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["__slots__"] = fields
        if fields:
            ns["_fields"] = fields
            ns["_defaults"] = tuple(ns.pop(f) for f in fields if f in ns)
        cls = super().__new__(mcls, name, bases, ns)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        return cls


class Record(metaclass=_Fields):
    """Base of the package's immutable result types, declared like dataclasses.

    Built by position, the fast path, or by keyword.  Equality, hashing,
    the repr and pickling go over the public fields; assignment and
    deletion raise AttributeError.
    """

    _fields = _defaults = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            fields, cls = self._fields, type(self).__name__
            given = dict(zip(fields[len(fields) - len(self._defaults):], self._defaults))
            given.update(zip(fields, args))
            if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
                raise TypeError(
                    f"{cls}() takes {fields}, got {len(args)} by position and {list(kwargs)}"
                )
            given.update(kwargs)
            if len(given) < len(fields):
                raise TypeError(f"{cls}() missing {[f for f in fields if f not in given]}")
            args = [given[f] for f in fields]
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _public(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields if f[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._public() == other._public()

    def __hash__(self) -> int:
        return hash(self._public())

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._public()
