"""Named complexes and deterministic random ones for tests and benchmarks.

Every generator whose size is known before it builds refuses past one
cap, SIMPLEX_CAP, before making any face.  random_complex, whose size is
known only after closing its facets, stays uncapped; it closes them
once, links included, finding the components it links by a union-find.
"""
from __future__ import annotations

import random
from itertools import combinations

from .complexes import SimplicialComplex, from_maximal_simplices
from .morse import MorseMatching, certify

# Minimal projective plane: 6 vertices, full K6 1-skeleton, 10 triangles,
# every edge in exactly two of them and every vertex link a 5-cycle.
RP2_FACETS = (
    (0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)

# Dunce hat on 8 vertices and 17 triangles.  Obtained by triangulating a
# disk whose boundary runs 1,2,3 three times and gluing the three arcs:
# sides A->B, B->C, A->C of a subdivided triangle all map to the path
# 1->2->3->1, the five interior points become vertices 4..8.  Contractible
# (mod-2 and mod-3 homology of a point) with no free face at all.
DUNCE_HAT_FACETS = (
    (1, 2, 4), (1, 2, 5), (1, 2, 8), (1, 3, 6), (1, 3, 7), (1, 3, 8),
    (1, 4, 5), (1, 6, 7), (2, 3, 4), (2, 3, 5), (2, 3, 7), (2, 7, 8),
    (3, 4, 8), (3, 5, 6), (4, 5, 6), (4, 6, 7), (4, 7, 8),
)


# Most simplices a generator builds.  The n-simplex has 2**(n+1) - 1
# faces at about 1 KB each, so the cap admits n <= 15 (some 70 MB) and
# refuses n = 16 before any face is made.
SIMPLEX_CAP = 1 << 16


def _check_simplex_cap(what: str, faces: int) -> None:
    if faces > SIMPLEX_CAP:
        raise ValueError(f"{what} would be over the cap of {SIMPLEX_CAP} simplices")


def simplex_boundary(n: int) -> tuple[SimplicialComplex, MorseMatching]:
    """Boundary of the n-simplex on vertices 1..n+1 with its standard matching.

    Every face not containing vertex 1 is paired with its extension by 1;
    only the vertex (1,) and the opposite facet (2,...,n+1) stay critical.
    Refuses past SIMPLEX_CAP simplices.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_simplex_cap(f"boundary of the {n}-simplex", (1 << n + 1) - 2)
    verts = tuple(range(1, n + 2))
    K = from_maximal_simplices(combinations(verts, n))
    rest = verts[1:]
    pairs = set()
    for k in range(1, n):
        for S in combinations(rest, k):
            pairs.add((S, tuple(sorted(S + (1,)))))
    return K, certify(K, pairs)


def full_simplex(n: int) -> SimplicialComplex:
    """The solid n-simplex on vertices 0..n.  Refuses past SIMPLEX_CAP simplices."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_simplex_cap(f"solid {n}-simplex", (1 << n + 1) - 1)
    verts = tuple(range(n + 1))
    return from_maximal_simplices([verts])


def rp2() -> SimplicialComplex:
    return from_maximal_simplices(RP2_FACETS)


def dunce_hat() -> SimplicialComplex:
    return from_maximal_simplices(DUNCE_HAT_FACETS)


def wedge(K: SimplicialComplex, p: int, copies: int) -> SimplicialComplex:
    """Glue the given number of relabeled copies of K at the vertex p.

    Copy j shifts every vertex except p by j times a fixed stride, so the
    copies share exactly the basepoint and nothing else.  The result has
    (n - 1) * copies + 1 simplices for an n-simplex input, and past
    SIMPLEX_CAP of them nothing is built.
    """
    if (p,) not in K:
        raise ValueError(f"basepoint {p} is not a vertex of the complex")
    if copies < 1:
        raise ValueError("copies must be at least 1")
    _check_simplex_cap(f"wedge of {copies} copies", (K.n - 1) * copies + 1)
    stride = max(K.vertices) + 1
    out = []
    for j in range(copies):
        for f in K.facets():
            out.append(tuple(v if v == p else v + j * stride for v in f))
    return from_maximal_simplices(out)


def amplified(K: SimplicialComplex, p: int, c: int) -> SimplicialComplex:
    """Wedge of n**(c-1) copies of K at p, n the simplex count of K.

    Any Morse matching on the result that stays below n**(c-1) + 1 critical
    simplices would certify K collapsible, which is what makes this body
    useful as a hardness amplifier.  The copy count stops growing as soon
    as its wedge is past SIMPLEX_CAP, so the power of n is never computed
    in full, and wedge then refuses it.
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    copies = 1
    for _ in range(c - 1 if K.n > 1 else 0):
        if (K.n - 1) * copies + 1 > SIMPLEX_CAP:
            break
        copies *= K.n
    return wedge(K, p, copies)


def _root(parent: dict[int, int], v: int) -> int:
    """Root of v in a union-find forest, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def random_complex(
    seed: int,
    dim: int = 2,
    n_vertices: int = 10,
    n_facets: int = 8,
    connected: bool = False,
) -> SimplicialComplex:
    """Closure of random facets, reproducible from the seed.

    Facet sizes are drawn uniformly from 2..dim+1 on vertex ids below
    n_vertices.  With connected=True the components get chained together
    by extra edges between their smallest vertices, in ascending order: in
    the union-find over the facets the smaller root wins, so each root is
    its component's least vertex, the first vertex of some facet.
    """
    if not 1 <= dim <= 4:
        raise ValueError("dim must be between 1 and 4")
    if n_vertices < dim + 1:
        raise ValueError("need at least dim+1 vertices")
    if n_facets < 1:
        raise ValueError("need at least one facet")
    rng = random.Random(seed)
    facets = []
    for _ in range(n_facets):
        k = rng.randint(2, dim + 1)
        facets.append(tuple(sorted(rng.sample(range(n_vertices), k))))
    if connected:
        parent = {v: v for f in facets for v in f}
        for f in facets:
            r = _root(parent, f[0])
            for v in f[1:]:
                s = _root(parent, v)
                if s < r:
                    parent[r] = r = s
                elif s > r:
                    parent[s] = r
        roots = sorted({f[0] for f in facets if parent[f[0]] == f[0]})
        facets += zip(roots, roots[1:])
    return from_maximal_simplices(facets)
