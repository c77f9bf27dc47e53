"""Finite simplicial complexes with explicit face sets.

A simplex is a tuple of strictly increasing, non-negative vertex ids.
A complex stores every face (downward closure) and is immutable once
built.  Orderings are canonical throughout: simplices compare by
(dimension, vertex tuple), which keeps every derived structure
deterministic.

Each simplex also has an integer id, its position in the canonical
order, and the complex stores its incidence once as tuples of facet ids
and cofacet ids.  Algorithms keep their state in lists indexed by id and
speak simplex tuples only at the API edge.  The canonical order is kept
once, with the first id of each dimension (offset), and one way at a
time.  A complex is built on packed integer keys: the distinct vertex
labels are ranked 0..V-1, and a d-simplex is the int of its vertex
ranks, bits = (V-1).bit_length() bits each (at least 1), the first
vertex highest, so huge vertex ids cost nothing and keys of one
dimension sort in canonical order.  Until simplices is first read, the
order is one sorted key list per dimension; that read decodes the
tuples level by level, keeps them and drops the keys.  A simplex's id
is found by bisecting its level either way (the probe is packed first
while the keys are kept), so no routine that takes simplices from
outside (membership, orienting given pairs, collapse sequences,
canonicalization) needs a second copy of the order or a map from
simplex to id, and the package's algorithms, which run on ids, never
decode a tuple unless a result is read as simplices.

The collapse routines need no incidence beyond cofacet_ids: in a
downward-closed set a simplex has one proper coface exactly when it has
one cofacet, since a second coface c above the cofacet b brings in a
second cofacet, the other face of c between them.  Elementary collapses
keep the set downward closed, so live cofacet counts find every free face.
Every greedy collapse runs one kernel, _eliminate, below: the collapse
sequence of a matching (morse.collapse_sequence) and the oracle's
top-dimensional core (oracle._top_core) as well as the two heuristics.
Only oracle.is_collapsible keeps its own state, since it backtracks and
undoes its collapses.

One builder fills a complex, from one sorted key list per dimension,
in a single sweep up the dimensions.  No face is ever a tuple: the
faces of a level's keys that drop the vertex at one position come from
one chain of C-level maps of shifts, masks and ors (_faces), both to
close a complex downward and to look up the facet ids of each level in
a map of the level below alone, which also fills the cofacet ids and
finds the first missing face, in canonical order.  It keeps few
containers alive at once: a level's map goes once the level above has
been swept, the cofacet lists of level d-1 become tuples one at a time
as soon as level d has been swept, and every id is one int object
shared by the facet and cofacet tuples.  The constructor validates
every simplex it is given, packs them (_pack) and drops its own set of
them before the build; from_maximal_simplices validates only the
maximal ones, packs them and closes the keys downward one level at a
time, since every face of a valid simplex is valid.  The file parser,
which checks its simplices as it reads them, and every generator share
that closure step, and with it one bound, CLOSURE_CAP simplices,
checked before a too-large simplex makes any face and then as the
faces are made.

Homology comes from discrete Morse theory.  The elimination kernel
lives here, on the incidence it reads, and yields its pairs in order,
so that coreduction's up array can be filled from it once per complex
and kept on it (_coreduction) for the three modules that start from
it: hasse grows the maximum matching from it, heuristics certifies it
as coreduction's result, and betti_gf2 ranks the boundary of its Morse complex, which
has only the critical simplices as cells.  That Morse complex comes
from one kernel, _morse_boundary, which takes the up array of any
acyclic matching; betti_gf2 is its rank step on coreduction's.
is_connected reads beta_0 == 1 from the kept Betti numbers.

Record, at the end, is the base of the package's result types
(MorseMatching, FrontierResult, OracleResult and the rest): immutable
fields in __slots__, declared like a frozen dataclass's.  It stands in
for dataclasses, whose import would take most of the CLI's start-up.
"""
from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, repeat
from operator import and_, eq, lshift, not_, or_, rshift

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


def _pack(simplices):
    """The sorted distinct labels of canonical simplices, the bits of a rank, and their keys.

    A simplex's key holds the rank of each vertex among the labels, bits
    bits each, the first vertex highest, so keys of one dimension sort in
    canonical order.  The keys come as one set per dimension d, of the
    simplices of d + 1 vertices; each set is packed from one flat list of
    ranks, its columns taken by slicing.
    """
    labels = tuple(sorted(set(chain.from_iterable(simplices))))
    bits = max(1, (len(labels) - 1).bit_length())
    rank = dict(zip(labels, range(len(labels)))).__getitem__
    lens = [*map(len, simplices)]
    levels = []
    for k in range(1, max(lens) + 1):
        ranks = [*map(rank, chain.from_iterable(compress(simplices, map(eq, lens, repeat(k)))))]
        keys = ranks[::k]
        for i in range(1, k):
            keys = map(or_, map(lshift, keys, repeat(bits)), ranks[i::k])
        levels.append(set(keys))
    return labels, bits, levels


def _faces(keys, d: int, bits: int) -> list:
    """The facets of packed d-simplices, as one iterator of keys per vertex position.

    The j-th iterator yields, for each of keys, the key of its face
    without its vertex at position j (0 the first): the vertices before
    j move down one place, those after it stay, so dropping the first
    vertex is a mask and dropping the last a shift.
    """
    out = [map(and_, keys, repeat((1 << bits * d) - 1))]
    for j in range(1, d):
        low = bits * (d - j)
        out.append(map(or_, map(lshift, map(rshift, keys, repeat(low + bits)), repeat(low)),
                       map(and_, keys, repeat((1 << low) - 1))))
    out.append(map(rshift, keys, repeat(bits)))
    return out


def _decode(keys, k: int, labels, bits: int):
    """The simplex tuples of packed keys of k vertices each, read column by column."""
    mask, label = (1 << bits) - 1, labels.__getitem__
    return zip(*[
        map(label, map(and_, map(rshift, keys, repeat(bits * (k - 1 - i))), repeat(mask)))
        for i in range(k)
    ])


class SimplicialComplex:
    """A downward-closed finite set of simplices.

    The complex is the package's one incidence store.  Every simplex has
    an id, its position in simplices, so ids sort in canonical order and
    the ids of one dimension are contiguous, from offset(d) on; _id
    finds a simplex's id by bisection within its dimension.  facet_ids[i]
    and cofacet_ids[i] hold the ids of the codimension-1 faces and
    cofaces of simplex i, ascending, so in canonical order.  Hot loops
    run on ids and turn them back into simplices at the edge.

    The order is kept one way at a time: as the sorted packed keys of
    each dimension (see _pack) until simplices is first read, then as the
    simplex tuples, decoded once and kept, the keys dropped.  _id packs a
    probe to bisect the keys, or bisects the tuples once they exist.
    vertices is the sorted label tuple the keys rank into.
    Coreduction's up array, the maximum matching grown from it (as a mate
    array) and the Betti numbers of its Morse complex are filled in on
    first request and kept, since the complex never changes; connectivity
    is read from those Betti numbers.
    """

    __slots__ = (
        "_labels", "_bits", "_keys", "_simplices", "dim", "n", "facet_ids", "cofacet_ids",
        "_offsets", "_coreduction", "_mates", "_betti",
    )

    def __init__(self, simplices):
        members = {simplex(s) for s in simplices}
        if not members:
            raise ValueError("empty complex")
        labels, bits, levels = _pack(members)
        del members  # the keys stand for every simplex; the build needs no tuple
        for d, level in enumerate(levels):
            levels[d] = sorted(level)  # each set goes as its list comes
        self._build(labels, bits, levels)

    def _build(self, labels: tuple[int, ...], bits: int, levels: list[list[int]]) -> None:
        """Fill every field from one sorted list of packed d-simplex keys per dimension d.

        The offsets are the running sums of the level sizes.  One sweep,
        level by level: the facet ids of the level's simplices are looked
        up in the map of the level below only, position by position from
        the last vertex dropped to the first (_faces), which is the order
        of combinations, so the first face missing in canonical order
        raises.  That map then gives way to the level's own, whose ids go
        onto the cofacet lists of the level below.  Those lists are
        then complete and become tuples one at a time, so a level's lists
        and tuples are never all alive together; the top level has none.
        Every id is one int object, shared by facet and cofacet tuples.
        The key lists are kept as the complex's order.
        """
        offsets = (0, *accumulate(map(len, levels)))
        facet_ids: list[tuple[int, ...]] = []
        cofacets: list[list[int] | tuple[int, ...]] = []
        below = 0
        for d, members in enumerate(levels):
            lo, hi = offsets[d], offsets[d + 1]
            if d:
                get = ids.__getitem__
                try:
                    fids = [*zip(*[map(get, fs) for fs in reversed(_faces(members, d, bits))])]
                except KeyError as exc:
                    (face,) = _decode([exc.args[0]], d, labels, bits)
                    raise ValueError(f"not downward closed: missing face {face}") from None
                del get, ids  # the level below is swept: free its map before this one's
            else:
                fids = [()] * len(members)
            ids = dict(zip(members, range(lo, hi)))
            cofacets += [[] for _ in range(below, lo)]
            for i, fs in zip(ids.values(), fids):
                for f in fs:
                    cofacets[f].append(i)
            for f in range(below, lo):
                cofacets[f] = tuple(cofacets[f])
            facet_ids += fids
            below = lo
        cofacets += [()] * (offsets[-1] - below)
        self._labels, self._bits, self._keys, self._simplices = labels, bits, levels, None
        self.facet_ids: tuple[tuple[int, ...], ...] = tuple(facet_ids)
        self.cofacet_ids: tuple[tuple[int, ...], ...] = tuple(cofacets)
        self._offsets: tuple[int, ...] = offsets
        self.dim: int = len(levels) - 1
        self.n: int = offsets[-1]
        self._coreduction = self._mates = self._betti = None

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        """Every simplex in canonical order, decoded from the keys on first read and kept."""
        if self._simplices is None:
            labels, bits = self._labels, self._bits
            self._simplices = tuple(chain.from_iterable(
                _decode(keys, k, labels, bits) for k, keys in enumerate(self._keys, 1)
            ))
            self._keys = None
        return self._simplices

    def _id(self, s) -> int:
        """The id of s, bisected within its dimension, or -1 when K lacks s.

        A probe that is no tuple, or whose length is not one to dim + 1,
        is absent.  Before simplices is read, s is packed, each vertex
        found by bisecting the labels, and its key bisected; an entry that
        is no label is absent, and so is an unsorted or repeated s, whose
        ranks do not increase, as those of every kept key do.  After, s
        is bisected among the tuples.  An entry that does not compare
        with ints fails a comparison (TypeError): absent too.
        """
        if not (isinstance(s, tuple) and 0 < len(s) <= self.dim + 1):
            return -1
        lo, hi = self._offsets[len(s) - 1 : len(s) + 1]
        try:
            if self._keys is None:
                S = self._simplices
                i = bisect_left(S, s, lo, hi)
                return i if i < hi and S[i] == s else -1
            labels, key = self._labels, 0
            for v in s:
                r = bisect_left(labels, v)
                if r == len(labels) or labels[r] != v:
                    return -1
                key = key << self._bits | r
        except TypeError:
            return -1
        keys = self._keys[len(s) - 1]
        i = bisect_left(keys, key)
        return lo + i if i < len(keys) and keys[i] == key else -1

    def __contains__(self, s) -> bool:
        return self._id(s) >= 0

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
        # Only the simplices are pickled: the incidence and offsets are
        # rebuilt by the constructor, which revalidates them, and the kept
        # matchings and Betti numbers on demand.
        return SimplicialComplex, (self.simplices,)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._labels

    def offset(self, d: int) -> int:
        """Id of the first d-simplex: 0 below dimension 0, n past the top dimension.

        The d-simplices hold ids offset(d) .. offset(d+1)-1.
        """
        return self._offsets[min(max(d, 0), self.dim + 1)]

    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices, in canonical order; only they are decoded while the keys are kept."""
        C = self.cofacet_ids
        if self._keys is None:
            return tuple(compress(self.simplices, map(not_, C)))
        labels, bits, at = self._labels, self._bits, self._offsets
        return tuple(chain.from_iterable(
            _decode([*compress(keys, map(not_, C[at[k - 1] : at[k]]))], k, labels, bits)
            for k, keys in enumerate(self._keys, 1)
        ))


def from_maximal_simplices(facets) -> SimplicialComplex:
    """Build the downward closure of the given simplices.

    Only the given simplices are checked (see _close for the closure).
    """
    tops = [simplex(f) for f in facets]
    if not tops:
        raise ValueError("empty complex")
    return _close(tops)


# Most simplices a closure makes.  Building the 478 264-simplex sparse 2-D
# complex random_complex(7, dim=2, n_vertices=80000, n_facets=160000,
# connected=True), which it admits, peaks at 185 MB resident on Python
# 3.11, some 0.39 KB a simplex, so about 400 MB at the cap; the complex
# keeps 88 MB of it, as traced by tracemalloc.
CLOSURE_CAP = 1 << 20


def _close(tops: list[Simplex]) -> SimplicialComplex:
    """The complex of a non-empty list of canonical simplices and all their faces.

    The list is emptied once its simplices are packed, so that no tuple
    is alive through the closure and build; both callers hand over a
    list of their own.

    The closure is taken on packed keys (_pack) one level at a time, the
    facets of each distinct d-simplex (_faces) going into level d-1, and
    its faces are valid because they are subsets of valid ones, so
    nothing is checked again here.  A level is sorted once it is whole,
    before its own faces are made.  It refuses past CLOSURE_CAP
    simplices: a simplex whose own faces are too many before any face is
    made (its vertex count clipped at the cap's bit length, so no huge
    power of two is formed), otherwise as soon as the running count of
    the levels passes the cap.  A level is closed in chunks of as many
    simplices as the room left can take all the faces of, at least one,
    so the count passes the cap by at most the faces of one simplex.
    """
    top = max(map(len, tops))
    if (1 << min(top, CLOSURE_CAP.bit_length())) - 1 > CLOSURE_CAP:
        raise ValueError(f"closure would be over the cap of {CLOSURE_CAP} simplices")
    labels, bits, levels = _pack(tops)
    tops.clear()  # the caller's own list: the keys stand for it from here on
    room = CLOSURE_CAP - len(levels[-1])
    if room < 0:
        raise ValueError(f"closure would be over the cap of {CLOSURE_CAP} simplices")
    for d in range(top - 1, 0, -1):
        below = levels[d - 1]
        level = levels[d] = sorted(levels[d])
        i = 0
        while i < len(level):
            step = max(1, (room - len(below)) // (d + 1))
            for faces in _faces(level[i : i + step], d, bits):
                below.update(faces)
            if len(below) > room:
                raise ValueError(f"closure would be over the cap of {CLOSURE_CAP} simplices")
            i += step
        room -= len(below)
    levels[0] = sorted(levels[0])
    K = SimplicialComplex.__new__(SimplicialComplex)
    K._build(labels, bits, levels)
    return K


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * (K.offset(d + 1) - K.offset(d)) for d in range(K.dim + 1))


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


def _morse_boundary(K: SimplicialComplex, up) -> tuple[list[int], list[list[int]]]:
    """Critical counts c_d and GF(2) boundary rows, per dimension d, of an acyclic up array.

    These make the Morse complex of the matching, with the homology of K
    (Forman).  A critical d-simplex has as boundary the sum of flow(f)
    over its facets f: flow(f) is f when f is critical, 0 when f is
    matched down, else the sum of flow(g) over the facets g != f of up[f],
    memoized per simplex and filled on an explicit stack.  A simplex met
    again while its own flow is still open closes a gradient cycle, which
    raises RuntimeError.  Bits restart in each dimension: a critical simplex
    gets the next one when a boundary first reaches it.
    """
    F = K.facet_ids
    flow: list = [None] * K.n
    for b in up:
        if b >= 0:
            flow[b] = 0
    critical = [b < 0 and flow[i] is None for i, b in enumerate(up)]
    opened = bytearray(K.n)
    counts, rows = [], [[] for _ in range(K.dim + 1)]
    for d in range(K.dim + 1):
        lo, hi = K.offset(d), K.offset(d + 1)
        counts.append(critical[lo:hi].count(True))
        bit = 1
        for s in compress(range(lo, hi), critical[lo:hi]) if d else ():
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
                                raise RuntimeError(f"gradient cycle through {K.simplices[x]}")
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
            rows[d].append(row)
    return counts, rows


def betti_gf2(K: SimplicialComplex) -> tuple[int, ...]:
    """Mod-2 Betti numbers (beta_0, ..., beta_D), from the Morse complex of coreduction.

    beta_d = c_d - r_d - r_{d+1}, from _morse_boundary on coreduction's up
    array (see _coreduction), r_d the rank of its d-rows; kept on K.
    """
    if K._betti is None:
        counts, rows = _morse_boundary(K, _coreduction(K))
        r = [_gf2_rank(x) for x in rows] + [0]
        K._betti = tuple(c - r[d] - r[d + 1] for d, c in enumerate(counts))
    return K._betti


def is_connected(K: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton (a single vertex counts as connected), from beta_0."""
    return betti_gf2(K)[0] == 1


def _eliminate(K: SimplicialComplex, counted, notified, order):
    """Greedy elimination over one side of the incidence, yielding its pairs in order.

    counted[s] holds the neighbours of s that its count covers, and
    notified, the inverse relation, the simplices whose counts drop when
    s goes.  A simplex with one counted neighbour left pairs with it,
    smallest id first, through a heap whose stale entries are skipped on
    pop; when none is left, the next alive id of order is critical, and
    once order runs out the elimination stops.  Each pair is yielded as
    (face id, coface id), the coface the larger id of the two.  The
    heuristics count facets or cofacets of every simplex and run order to
    its end; collapse_sequence and the oracle's top core count only the
    faces they may collapse, with order empty.
    """
    alive = bytearray(b"\x01") * K.n
    count = [len(xs) for xs in counted]
    heap = [s for s, k in enumerate(count) if k == 1]
    crits = iter(order)
    while True:
        while heap:
            x = heappop(heap)
            if alive[x] and count[x] == 1:
                for y in counted[x]:
                    if alive[y]:
                        break
                alive[x] = alive[y] = 0
                yield (x, y) if x < y else (y, x)
                gone = notified[x] + notified[y]
                break
        else:
            for x in crits:
                if alive[x]:
                    break
            else:
                return
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
        up = [-1] * K.n
        for a, b in _eliminate(K, K.facet_ids, K.cofacet_ids, range(K.n)):
            up[a] = b
        K._coreduction = tuple(up)
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
