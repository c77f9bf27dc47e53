"""Matchings on the covering graph of a face poset.

The Hasse diagram of a complex is the covering graph of its face poset:
one edge joins each simplex to each of its codimension-1 faces.  The
complex already stores that incidence (facets_of and K.cofacet_map), so
there is no separate diagram object: matching, validation and
orientation take the complex itself, and hasse(K) lists the covering
edges only for a caller that wants them as data.  A matching selects
disjoint covering pairs; orienting the diagram by a matching points
matched edges up (face to coface) and everything else down.
"""
from __future__ import annotations

from collections import deque

from .complexes import Simplex, SimplicialComplex, canonical_key, facets_of

Pair = tuple[Simplex, Simplex]


def hasse(K: SimplicialComplex) -> list[tuple[Simplex, Simplex]]:
    """Covering edges (coface, facet) of K, cofaces and facets in canonical order."""
    return [(tau, sigma) for tau in K.simplices for sigma in facets_of(tau)]


def max_cardinality_matching(K: SimplicialComplex) -> frozenset[Pair]:
    """Maximum matching on the covering graph by alternating-path augmentation.

    The graph is bipartite between even and odd dimensions.  Scan order is
    fixed, augmenting from even-dimension nodes top dimension first and
    lexicographic within one, with adjacency in canonical order, so ties
    between maximum matchings resolve the same way on every run.  Seeding
    from the top tends to leave the leftover matching closer to acyclic.
    A node's neighbours, its facets followed by its stored cofacets, are
    already in canonical order: facets_of yields canonical order and every
    facet is shorter than every cofacet.  They are joined the first time
    the search pops the node; on dense complexes a node is popped many
    times over.
    """
    cofacets = K.cofacet_map
    nbrs: dict[Simplex, tuple[Simplex, ...]] = {}
    left = sorted(
        (s for s in K.simplices if len(s) % 2 == 1),
        key=lambda s: (-len(s), s),
    )
    match: dict[Simplex, Simplex] = {}
    for u in left:
        if u in match:
            continue
        prev: dict[Simplex, Simplex] = {}
        seen = {u}
        q = deque([u])
        end = None
        while q and end is None:
            x = q.popleft()
            adj = nbrs.get(x)
            if adj is None:
                adj = nbrs[x] = (*facets_of(x), *cofacets[x])
            for y in adj:
                if y in prev:
                    continue
                prev[y] = x
                z = match.get(y)
                if z is None:
                    end = y
                    break
                if z not in seen:
                    seen.add(z)
                    q.append(z)
        if end is None:
            continue
        y = end
        while y is not None:
            x = prev[y]
            nxt = match.get(x)
            match[x] = y
            match[y] = x
            y = nxt
    pairs = set()
    for a, b in match.items():
        if len(a) < len(b):
            pairs.add((a, b))
    return frozenset(pairs)


class InvalidMatching(ValueError):
    """Every problem validate_matching found, in pair order.

    Each problem is (pair number counted from 1, message, simplex it
    concerns); the message has a {} slot where it names the simplex.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.describe(repr)))

    def describe(self, show) -> list[str]:
        """One line per problem, each simplex rendered by show."""
        return [f"pair {i}: " + text.format(show(s)) for i, text, s in self.problems]


def validate_matching(K: SimplicialComplex, pairs) -> frozenset[Pair]:
    """Check pairs form a matching by covering relations; return them frozen.

    Raises InvalidMatching listing every unknown simplex, non-covering
    pair and simplex matched twice.
    """
    problems = []
    seen: set[Simplex] = set()
    out = set()
    for i, (sigma, tau) in enumerate(pairs, start=1):
        out.add((sigma, tau))
        for x in (sigma, tau):
            if x not in K:
                problems.append((i, "unknown simplex {}", x))
        if sigma in K and tau in K and not (
            len(tau) == len(sigma) + 1 and set(sigma) < set(tau)
        ):
            problems.append((i, "not a covering pair", tau))
        for x in (sigma, tau):
            if x in seen:
                problems.append((i, "simplex {} matched twice", x))
            seen.add(x)
    if problems:
        raise InvalidMatching(problems)
    return frozenset(out)


class OrientedHasse:
    """Hasse diagram oriented by a matching: matched covering pairs point up.

    The orientation is mutable in one direction only; unmatching a pair
    turns its up-edge back into a down-edge.  Algorithms that repair
    matchings rely on this.
    """

    __slots__ = ("complex", "_partner")

    def __init__(self, K: SimplicialComplex, pairs):
        self.complex = K
        self._partner: dict[Simplex, Simplex] = {}
        for sigma, tau in pairs:
            self._partner[sigma] = tau
            self._partner[tau] = sigma

    def is_up(self, sigma: Simplex, tau: Simplex) -> bool:
        """Whether the covering edge from face sigma to coface tau is matched."""
        return self._partner.get(sigma) == tau and len(sigma) < len(tau)

    def up_partner(self, s: Simplex):
        """The coface s is matched to, or None."""
        p = self._partner.get(s)
        if p is not None and len(p) > len(s):
            return p
        return None

    def up_pairs(self) -> list[Pair]:
        out = [
            (s, t) for s, t in self._partner.items() if len(s) < len(t)
        ]
        out.sort(key=lambda p: canonical_key(p[0]))
        return out

    @property
    def pairs(self) -> frozenset[Pair]:
        return frozenset(self.up_pairs())

    def unmatch(self, sigma: Simplex, tau: Simplex) -> None:
        """Reverse the up-edge of a matched pair."""
        if not self.is_up(sigma, tau):
            raise ValueError(f"not an up-edge: {sigma} -> {tau}")
        del self._partner[sigma]
        del self._partner[tau]


def orient(K: SimplicialComplex, pairs) -> OrientedHasse:
    """Orient the Hasse diagram of K by a matching, validating the matching first."""
    return OrientedHasse(K, validate_matching(K, pairs))
