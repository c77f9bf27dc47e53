"""Matchings on the covering graph of a face poset.

The Hasse diagram of a complex is the covering graph of its face poset:
one edge joins each simplex to each of its codimension-1 faces.  The
complex already stores that incidence on simplex ids (K.facet_ids and
K.cofacet_ids), so there is no separate diagram object: matching,
validation and orientation take the complex itself and work on ids
inside.  A matching selects disjoint covering pairs; orienting the
diagram by a matching points matched edges up (face to coface) and
everything else down.  The maximum matching is grown from coreduction's
matching, which complexes keeps on the complex, and comes out as a mate
array on ids; other matchings go in as simplex pairs, with one
exception: orient, the validator that morse.certify runs, also takes an
OrientedHasse whose up array the package's own algorithms filled on
ids, so that certifying their results never maps ids to tuples and back.

certify is the package's one public matching check.  orient,
OrientedHasse and hasse(K), which lists the covering edges as simplex
pairs, are the package's own entries: morsematch does not export them.
Nothing in the package calls hasse; it stays because benchmarks/tracer.py
wraps it, as it wraps orient and OrientedHasse.up_pairs.
"""
from __future__ import annotations

from .complexes import Simplex, SimplicialComplex, _coreduction

Pair = tuple[Simplex, Simplex]


def hasse(K: SimplicialComplex) -> list[tuple[Simplex, Simplex]]:
    """Covering edges (coface, facet) of K, cofaces and facets in canonical order."""
    S = K.simplices
    return [(tau, S[f]) for tau, fs in zip(S, K.facet_ids) for f in fs]


def max_cardinality_matching(K: SimplicialComplex) -> int:
    """Size of a maximum matching on the covering graph, from max_matching_mates."""
    return (K.n - max_matching_mates(K).count(-1)) // 2


def max_matching_mates(K: SimplicialComplex) -> tuple[int, ...]:
    """Maximum matching on the covering graph, grown from coreduction's matching.

    The graph is bipartite between even and odd dimensions.  The search
    starts from coreduction's up array, kept on the complex (see
    complexes._coreduction), and
    augments once from each even-dimension node it leaves free, top
    dimension first and in id order, with neighbours, facet ids then
    cofacet ids, in canonical order, so ties between maximum matchings
    resolve the same way on every run.  By Berge's theorem that one pass
    reaches a maximum matching: a free node with no augmenting path never
    gains one as the matching grows.  Each search is a plain
    breadth-first search that stops at the first free neighbour of the
    first popped node that has one.  stamp[y] == epoch marks an odd node
    reached, and the epoch moves on only after an augmentation, so a
    failed search leaves its marks: until the matching changes, nothing
    it reached leads to a free node, and a node it reached leads only to
    nodes it reached, so skipping them changes neither the order in
    which a later search queues the other nodes nor the path it finds.
    Even nodes need no mark: one is queued only through its mate.

    The result is the mate array, mate[i] the id matched with simplex i
    or -1, computed once per complex and kept on it.
    """
    if K._mates is not None:
        return K._mates
    F, C = K.facet_ids, K.cofacet_ids
    mate = [-1] * K.n
    for a, b in enumerate(_coreduction(K)):
        if b >= 0:
            mate[a], mate[b] = b, a
    prev = [-1] * K.n
    stamp = [-1] * K.n
    epoch = 0
    for d in range(K.dim - K.dim % 2, -1, -2):
        for u in range(K.offset(d), K.offset(d + 1)):
            if mate[u] >= 0:
                continue
            q = [u]
            for x in q:
                for y in F[x] + C[x]:
                    if stamp[y] != epoch:
                        stamp[y] = epoch
                        prev[y] = x
                        z = mate[y]
                        if z < 0:
                            break
                        q.append(z)
                else:
                    continue
                break
            else:
                continue  # no augmenting path: the marks stay
            while y >= 0:
                x = prev[y]
                nxt = mate[x]
                mate[x] = y
                mate[y] = x
                y = nxt
            epoch += 1
    K._mates = tuple(mate)
    return K._mates


class InvalidMatching(ValueError):
    """Every problem the matching validator (orient) found, in pair order.

    Each problem is (pair number counted from 1, message, simplex it
    concerns); the message has a {} slot where it names the simplex.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.describe(repr)))

    def describe(self, show) -> list[str]:
        """One line per problem, each simplex rendered by show."""
        return [f"pair {i}: " + text.format(show(s)) for i, text, s in self.problems]


class OrientedHasse:
    """Hasse diagram oriented by a matching: matched covering pairs point up.

    up[i] is the id of the coface that simplex i is matched up to, or -1.
    The constructor takes that array as it is; orient builds a validated
    one.  Algorithms that repair a matching read and write the array in
    place: setting up[i] to -1 unmatches a pair, turning its up-edge back
    into a down-edge.
    """

    __slots__ = ("complex", "up")

    def __init__(self, K: SimplicialComplex, up: list[int]):
        self.complex = K
        self.up = up

    def up_pairs(self) -> list[Pair]:
        """Matched pairs (face, coface), faces in canonical order."""
        S = self.complex.simplices
        return [(S[a], S[b]) for a, b in enumerate(self.up) if b >= 0]


def orient(K: SimplicialComplex, pairs) -> OrientedHasse:
    """Orient the Hasse diagram of K by a matching, validating it on ids first.

    pairs are (face, coface) simplex pairs, mapped to ids here (a simplex
    K lacks gets an id from K.n on), or an OrientedHasse of K: the id
    entry of the package's own algorithms, which hold their pairs as an
    up array already.  Both go through this one validator, which raises
    InvalidMatching listing every unknown simplex, non-covering pair and
    simplex matched twice, in pair order.  An OrientedHasse that one pass
    finds sound is returned as it is; only a faulty one is listed.  One
    whose up array is not K.n long, or holds an entry other than -1 or a
    simplex id, is malformed rather than a matching: ValueError.
    """
    n, F = K.n, K.facet_ids
    unknown: dict[Simplex, int] = {}
    if isinstance(pairs, OrientedHasse):
        if pairs.complex is not K:
            raise ValueError("orientation of another complex")
        up = pairs.up
        if len(up) != n:
            raise ValueError(f"up array has {len(up)} entries for {n} simplices")
        used = bytearray(n)
        try:
            for a, b in enumerate(up):
                if b != -1:
                    if not 0 <= b < n or used[b] or up[b] != -1 or a not in F[b]:
                        break
                    used[b] = 1
            else:
                return pairs
        except TypeError:  # an entry that is no int; the walk below names it
            pass
        ids = []
        for a, b in enumerate(up):
            if b != -1:
                if not (isinstance(b, int) and 0 <= b < n):
                    raise ValueError(f"face id {a} has up entry {b!r}, not -1 or a simplex id")
                ids.append((a, b))
    else:
        def id_of(s):
            i = K._id(s)
            return unknown.setdefault(s, n + len(unknown)) if i < 0 else i

        ids = [(id_of(sigma), id_of(tau)) for sigma, tau in pairs]
    up = [-1] * n
    used = bytearray(n + len(unknown))
    problems = []
    for i, (a, b) in enumerate(ids, start=1):
        if a >= n or b >= n:
            problems += [(i, "unknown simplex {}", x) for x in (a, b) if x >= n]
        elif a in F[b]:
            up[a] = b
        else:
            problems.append((i, "not a covering pair", b))
        if used[a] or used[b] or a == b:
            for x in (a, b):
                if used[x]:
                    problems.append((i, "simplex {} matched twice", x))
                used[x] = 1
        used[a] = used[b] = 1
    if problems:
        S = [*K.simplices, *unknown]
        raise InvalidMatching((i, text, S[x]) for i, text, x in problems)
    return OrientedHasse(K, up)
