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
which also fills the cofacet ids and finds the first missing face.  It
keeps few containers alive at once: each level's set is cleared once
sorted, the cofacet lists of level d-1 become tuples as soon as level d
has been swept, and every id is the one int object the index holds.  The
constructor validates every simplex it is given before grouping them;
from_maximal_simplices validates only the maximal ones and closes them
downward one level at a time, since every face of a valid simplex is
valid.  The file parser, which checks its simplices as it reads them,
shares that closure step.

Homology comes from discrete Morse theory.  The elimination kernel of
the greedy heuristics lives here, on the incidence it reads, so that
coreduction's up array can be computed once per complex and kept on it
(_coreduction) for the three modules that start from it: hasse grows the
maximum matching from it, heuristics certifies it as coreduction's
result, and betti_gf2 ranks the boundary of its Morse complex, which
has only the critical simplices as cells.  is_connected reads
beta_0 == 1 from those kept Betti numbers.

Record, at the end, is the base of the package's result types
(MorseMatching, FrontierResult, OracleResult and the rest): immutable
fields in __slots__, declared like a frozen dataclass's.  It stands in
for dataclasses, whose import would take most of the CLI's start-up.
"""
from __future__ import annotations

from heapq import heappop, heappush
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
    Coreduction's up array, the maximum matching grown from it (as a mate
    array) and the Betti numbers of its Morse complex are filled in on
    first request and kept, since the complex never changes; connectivity
    is read from those Betti numbers.
    """

    __slots__ = (
        "simplices", "by_dim", "dim", "n", "index", "facet_ids", "cofacet_ids",
        "_coreduction", "_mates", "_betti",
    )

    def __init__(self, simplices):
        members = {simplex(s) for s in simplices}
        if not members:
            raise ValueError("empty complex")
        self._build(_levels(members))

    def _build(self, levels: list[set[Simplex]]) -> None:
        """Fill every field from one set of canonical d-simplices per dimension d.

        One sweep, level by level: sort the level into ids, clearing its
        set, look up the facet ids of each of its simplices among the ids
        of the level below, and append each simplex's id to the cofacet
        lists of its facets.  Those lists of level d-1 are then complete
        and become tuples in place.  Every id is the one int object the
        index holds, in facet and cofacet tuples alike.  The first face
        missing in canonical order raises.
        """
        simplices: list[Simplex] = []
        by_dim: list[tuple[Simplex, ...]] = []
        index: dict[Simplex, int] = {}
        facet_ids: list[tuple[int, ...]] = []
        cofacets: list[list[int] | tuple[int, ...]] = []
        get = index.__getitem__
        below = 0
        for d, level in enumerate(levels):
            lo = len(simplices)
            members = sorted(level)
            level.clear()
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
            for i, fs in zip(map(get, members), fids):
                for f in fs:
                    cofacets[f].append(i)
            facet_ids += fids
            cofacets[below:lo] = map(tuple, cofacets[below:lo])
            below = lo
        cofacets[below:] = map(tuple, cofacets[below:])
        self.simplices: tuple[Simplex, ...] = tuple(simplices)
        self.index: MappingProxyType[Simplex, int] = MappingProxyType(index)
        self.facet_ids: tuple[tuple[int, ...], ...] = tuple(facet_ids)
        self.cofacet_ids: tuple[tuple[int, ...], ...] = tuple(cofacets)
        self.by_dim: tuple[tuple[Simplex, ...], ...] = tuple(by_dim)
        self.dim: int = len(levels) - 1
        self.n: int = len(simplices)
        self._coreduction = self._mates = self._betti = None

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
        # matchings and Betti numbers are recomputed on demand instead.
        return SimplicialComplex, (self.simplices,)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.by_dim[0])

    def offset(self, d: int) -> int:
        """Id of the first d-simplex; the d-simplices hold ids offset(d) .. offset(d+1)-1."""
        return sum(len(level) for level in self.by_dim[:d])

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


def _gf2_rank(rows) -> int:
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
    """Mod-2 Betti numbers (beta_0, ..., beta_D), from the Morse complex of coreduction.

    An acyclic matching leaves a Morse complex on the critical simplices
    with the homology of K (Forman).  Over GF(2), the boundary of a
    critical d-simplex is the sum of flow(f) over its facets f: flow(f) is
    f when f is critical, 0 when f is matched down, and otherwise the sum
    of flow(g) over the facets g != f of up[f].  flow is memoized per
    simplex and filled on an explicit stack; a simplex met again while
    its own flow is still open would be a gradient cycle, which raises.
    A critical simplex gets its bit only when a boundary first reaches
    it, so the rows are as wide as the critical cells they touch, not as
    the level below.  beta_d = c_d - rank_d - rank_{d+1}, with c_d the
    critical d-simplices and the ranks from _gf2_rank.  The matching is
    coreduction's (see _coreduction); computed once per complex and kept.
    """
    if K._betti is not None:
        return K._betti
    F, up = K.facet_ids, _coreduction(K)
    flow: list = [None] * K.n
    for b in up:
        if b >= 0:
            flow[b] = 0
    critical = [b < 0 and flow[i] is None for i, b in enumerate(up)]
    opened = bytearray(K.n)
    counts, ranks = [], [0] * (K.dim + 2)
    for d in range(K.dim + 1):
        lo, hi = K.offset(d), K.offset(d + 1)
        counts.append(critical[lo:hi].count(True))
        if not d:
            continue
        bit = 1
        rows = []
        for s in range(lo, hi):
            if not critical[s]:
                continue
            row = 0
            for f in F[s]:
                stack = [f] if flow[f] is None else ()
                while stack:
                    x = stack[-1]
                    if flow[x] is None:
                        c = up[x]
                        if c < 0:  # critical: the next bit
                            flow[x] = bit
                            bit <<= 1
                        elif todo := [g for g in F[c] if g != x and flow[g] is None]:
                            if opened[x]:
                                raise RuntimeError("gradient cycle in the coreduction matching")
                            opened[x] = 1
                            stack += todo
                            continue
                        else:
                            v = 0
                            for g in F[c]:
                                if g != x:
                                    v ^= flow[g]
                            flow[x] = v
                    stack.pop()
                row ^= flow[f]
            rows.append(row)
        ranks[d] = _gf2_rank(rows)
    K._betti = tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(counts))
    return K._betti


def is_connected(K: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton (a single vertex counts as connected), from beta_0."""
    return betti_gf2(K)[0] == 1


def _eliminate(K: SimplicialComplex, counted, notified, order) -> list[int]:
    """The up array of greedy elimination over one side of the incidence.

    counted[s] holds the neighbours of s that its count covers, and
    notified, the inverse relation, the simplices whose counts drop when
    s goes.  A simplex with one counted neighbour left pairs with it,
    smallest id first, through a heap whose stale entries are skipped on
    pop; when none is left, the next alive id of order is critical.  The
    coface of a pair is the larger id of the two.
    """
    alive = bytearray(b"\x01") * K.n
    count = [len(xs) for xs in counted]
    heap = [s for s, k in enumerate(count) if k == 1]
    up = [-1] * K.n
    crits = iter(order)
    while True:
        while heap:
            x = heappop(heap)
            if alive[x] and count[x] == 1:
                for y in counted[x]:
                    if alive[y]:
                        break
                a, b = (x, y) if x < y else (y, x)
                up[a] = b
                alive[x] = alive[y] = 0
                gone = notified[x] + notified[y]
                break
        else:
            for x in crits:
                if alive[x]:
                    break
            else:
                return up
            alive[x] = 0
            gone = notified[x]
        for c in gone:
            if alive[c]:
                count[c] -= 1
                if count[c] == 1:
                    heappush(heap, c)


def _coreduction(K: SimplicialComplex) -> tuple[int, ...]:
    """Coreduction's up array, eliminated once per complex and kept on it.

    Elimination pairs each simplex with its unique remaining facet, and
    declares the smallest remaining simplex critical when none has one;
    no simplex of a fresh complex has one facet, so it starts with the
    first vertex.  The maximum matching and the Betti numbers start from
    this array, and heuristics.coreduction_matching certifies it.
    """
    if K._coreduction is None:
        K._coreduction = tuple(_eliminate(K, K.facet_ids, K.cofacet_ids, range(K.n)))
    return K._coreduction


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
    deletion raise AttributeError.  A builder that leaves fields unset
    until read makes the record with __new__ and names the rest in _set.
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

    def _set(self, **fields):
        """Set the named fields on a record made with __new__, and return it."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

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
