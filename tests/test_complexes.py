"""Core complex construction, incidence queries, and mod-2 homology."""

import copy
import pickle
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from morsematch import (
    ParseError,
    SimplicialComplex,
    betti_gf2,
    canonical_key,
    canonicalize_single_critical_vertex,
    certify,
    coreduction_matching,
    critical_profile,
    dunce_hat,
    euler_characteristic,
    from_maximal_simplices,
    frontier_edges_matching,
    is_connected,
    optimal_morse_matching,
    parse_complex,
    random_complex,
    read_complex,
    reduction_matching,
    rp2,
    simplex,
    simplex_boundary,
    wedge,
    write_complex,
)
from morsematch import cli, complexes
from morsematch.complexes import _coreduction, _gf2_rank, _morse_boundary
from morsematch.hasse import OrientedHasse, max_matching_mates
from morsematch.oracle import SIZE_LIMIT
from helpers import (
    betti_numpy,
    boundary_matrix_gf2,
    brute_closure,
    cofacets_of,
    dunce_hat_with_tetrahedron,
    euler,
    facets_of,
    named_complexes,
    reference_betti_gf2,
    reference_close,
    reference_complex,
    reference_gf2_rank,
    reference_max_matching_mates,
    sparse_complexes,
)


def test_simplex_sorts_and_validates():
    assert simplex([2, 0, 1]) == (0, 1, 2)
    assert simplex((5,)) == (5,)
    with pytest.raises(ValueError, match="empty simplex"):
        simplex([])
    with pytest.raises(ValueError, match="degenerate facet"):
        simplex([1, 1, 2])
    with pytest.raises(ValueError, match="bad vertex id"):
        simplex(["a"])


def test_canonical_key_orders_by_dimension_then_lex():
    items = [(2,), (0, 1), (1,), (0, 1, 2), (0, 2)]
    ordered = sorted(items, key=canonical_key)
    assert ordered == [(1,), (2,), (0, 1), (0, 2), (0, 1, 2)]


def test_from_maximal_simplices_closes_downward():
    circle = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
    assert len(circle) == 6
    triangle = from_maximal_simplices([(0, 1, 2)])
    assert len(triangle) == 7
    point = from_maximal_simplices([(0,), (0,)])
    assert len(point) == 1
    with pytest.raises(ValueError, match="empty complex"):
        from_maximal_simplices([])


def test_membership_and_vertices():
    K = from_maximal_simplices([(0, 1, 2)])
    assert (0, 1) in K
    assert (0, 1, 2) in K
    assert (3,) not in K
    assert K.vertices == (0, 1, 2)
    assert K.dim == 2 and K.n == 7


def incident(K, ids_of, s):
    """The simplices ids_of (K.facet_ids or K.cofacet_ids) lists for s."""
    return [K.simplices[j] for j in ids_of[K.simplices.index(s)]]


def test_facets_of_is_lexicographic():
    K = from_maximal_simplices([(0, 1, 2), (3, 7)])
    assert incident(K, K.facet_ids, (0, 1, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert incident(K, K.facet_ids, (3, 7)) == [(3,), (7,)]
    assert incident(K, K.facet_ids, (0,)) == []


def test_cofacets_of():
    K = from_maximal_simplices([(0, 1, 2), (1, 2, 3)])
    assert incident(K, K.cofacet_ids, (1, 2)) == [(0, 1, 2), (1, 2, 3)]
    assert incident(K, K.cofacet_ids, (0, 1, 2)) == []
    circle = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
    assert incident(circle, circle.cofacet_ids, (0,)) == [(0, 1), (0, 2)]


ID_CORPUS = [
    random_complex(seed, dim=dim, n_vertices=9, n_facets=12, connected=True)
    for dim in (2, 3, 4)
    for seed in range(3)
]


@pytest.mark.parametrize("K", ID_CORPUS, ids=lambda K: f"n{K.n}-d{K.dim}")
def test_id_arrays_map_back_to_the_incidence(K):
    S = K.simplices
    assert len(K.facet_ids) == len(K.cofacet_ids) == K.n
    for i, s in enumerate(S):
        assert K._id(s) == i
        assert [S[j] for j in K.facet_ids[i]] == facets_of(s)
        assert tuple(S[j] for j in K.cofacet_ids[i]) == cofacets_of(K, s)
        assert list(K.facet_ids[i]) == sorted(K.facet_ids[i])
        assert list(K.cofacet_ids[i]) == sorted(K.cofacet_ids[i])
    assert sorted(S, key=canonical_key) == list(S)


@pytest.mark.parametrize("K", ID_CORPUS, ids=lambda K: f"n{K.n}-d{K.dim}")
def test_dropping_a_face_breaks_downward_closure(K):
    top = K.simplices[-1]
    missing = facets_of(top)[0]
    rest = [s for s in K.simplices if s != missing]
    message = re.escape(f"not downward closed: missing face {missing}")
    with pytest.raises(ValueError, match=message):
        SimplicialComplex(rest)


def test_facets_returns_maximal_simplices():
    K = from_maximal_simplices([(0, 1, 2), (2, 3)])
    assert K.facets() == ((2, 3), (0, 1, 2))


@pytest.mark.parametrize(
    "maximal, chi",
    [
        ([(0, 1, 2)], 1),
        ([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], 2),
        ([(0, 1), (1, 2), (0, 2)], 0),
    ],
)
def test_euler_characteristic(maximal, chi):
    assert euler_characteristic(from_maximal_simplices(maximal)) == chi


def test_boundary_matrix_shape_and_rank():
    K = from_maximal_simplices([(0, 1, 2)])
    rows = boundary_matrix_gf2(K, 1)
    assert len(rows) == 3
    assert reference_gf2_rank(rows) == 2
    with pytest.raises(ValueError, match="no boundary matrix"):
        boundary_matrix_gf2(K, 5)


def test_betti_point_sphere_projective_plane():
    point = from_maximal_simplices([(0,)])
    assert betti_gf2(point) == (1,)
    sphere = from_maximal_simplices([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert betti_gf2(sphere) == (1, 0, 1)
    assert betti_gf2(rp2()) == (1, 1, 1)


def test_betti_matches_numpy_reference():
    for name, K in named_complexes().items():
        assert betti_gf2(K) == betti_numpy(K.simplices), name


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 12))
def test_betti_matches_numpy_reference_on_disconnected_complexes(seed, dim, facets):
    # coreduction leaves one critical vertex per component, so inputs of
    # several components must agree with dense elimination too
    K = random_complex(seed, dim=dim, n_vertices=dim + 8, n_facets=facets, connected=False)
    assert betti_gf2(K) == betti_numpy(K.simplices)


def complexes_for_homology():
    """Sparse and denser random complexes in dims 1-4, dunce and RP2 wedges.

    The sparse ones draw a few facets on spare vertices, so most have
    several components.  Coreduction leaves two critical simplices beyond
    the homology on each dunce hat, so on the wedges the Morse complex has
    boundaries to rank.
    """
    seeds, dims = st.integers(0, 2**32 - 1), st.integers(1, 4)
    denser = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=d + 7, n_facets=40, connected=True),
        seeds, dims,
    )
    wedges = st.builds(
        lambda base, copies: wedge(base(), 1, copies),
        st.sampled_from([dunce_hat, rp2]), st.integers(1, 12),
    )
    return st.one_of(sparse_complexes(), denser, wedges)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(complexes_for_homology())
def test_morse_complex_betti_numbers_equal_both_references(K):
    assert betti_gf2(K) == reference_betti_gf2(K) == betti_numpy(K.simplices)


def test_morse_complex_betti_numbers_where_coreduction_leaves_many_criticals():
    # Dense 2-D input: coreduction leaves over a thousand critical simplices
    # beyond the homology, so most Morse boundaries are not zero.
    K = random_complex(2, dim=2, n_vertices=150, n_facets=20000, connected=True)
    criticals = K.n - 2 * (K.n - _coreduction(K).count(-1))
    beta = betti_gf2(K)
    assert criticals - sum(beta) > 1000
    assert beta == reference_betti_gf2(K)


def morse_complex_betti(K, matching) -> tuple[int, ...]:
    """Betti numbers ranked from the Morse complex of a certified matching.

    The critical counts the kernel reports must be the matching's own.
    """
    assert matching.acyclic
    counts, rows = _morse_boundary(K, matching._ids[1])
    assert tuple(counts) == critical_profile(K, matching).counts
    r = [_gf2_rank(x) for x in rows] + [0]
    return tuple(c - r[d] - r[d + 1] for d, c in enumerate(counts))


def certified_matchings(K) -> dict:
    """Every algorithm's certified matching on K, each also canonicalized.

    The oracle runs without a budget, so only on K of at most SIZE_LIMIT
    simplices; canonicalizing to one critical vertex needs K connected.
    """
    found = {
        "frontier": frontier_edges_matching(K).morse,
        "coreduction": coreduction_matching(K),
        "reduction": reduction_matching(K),
    }
    if K.n <= SIZE_LIMIT:
        found["oracle"] = optimal_morse_matching(K).matching
    if is_connected(K):
        for name, m in list(found.items()):
            found[f"{name}, canonicalized"] = canonicalize_single_critical_vertex(K, m, K.vertices[0])
    return found


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(complexes_for_homology())
def test_morse_complex_of_every_certified_matching_has_the_homology_of_k(K):
    # Forman's theorem as an invariant, checked without certify's cycle search
    beta = betti_gf2(K)
    if K.n <= 400:
        assert beta == betti_numpy(K.simplices)
    for name, matching in certified_matchings(K).items():
        assert morse_complex_betti(K, matching) == beta, name


def test_morse_complex_of_every_matching_on_dense_2d_input():
    K = random_complex(2, dim=2, n_vertices=150, n_facets=20000, connected=True)
    assert K.n == 21050
    beta = reference_betti_gf2(K)
    for name, matching in certified_matchings(K).items():
        assert morse_complex_betti(K, matching) == beta, name


def test_morse_complex_of_the_standard_and_budgeted_oracle_matchings():
    for n in range(1, 8):
        K, standard = simplex_boundary(n)
        sphere = (1,) + (0,) * (n - 2) + (1,) if n > 1 else (2,)
        assert morse_complex_betti(K, standard) == betti_numpy(K.simplices) == sphere, n
    H = dunce_hat_with_tetrahedron()
    result = optimal_morse_matching(H, budget=2000)
    assert not result.optimal
    assert morse_complex_betti(H, result.matching) == betti_numpy(H.simplices) == (1, 0, 0, 0)


def test_morse_boundary_raises_on_a_gradient_cycle():
    # A triangle's boundary with a pendant edge (0, 3).  Vertices 0, 1, 2
    # match up around the circle, 0 -> 01 -> 1 -> 12 -> 2 -> 02 -> 0, and
    # the boundary of the critical edge (0, 3) reaches that cycle at 0.
    K = from_maximal_simplices([(0, 1), (1, 2), (0, 2), (0, 3)])
    up = [-1] * K.n
    for v, e in ((0, (0, 1)), (1, (1, 2)), (2, (0, 2))):
        up[K.simplices.index((v,))] = K.simplices.index(e)
    assert not certify(K, OrientedHasse(K, up)).acyclic
    with pytest.raises(RuntimeError, match="gradient cycle"):
        _morse_boundary(K, up)


def test_euler_equals_alternating_betti_sum():
    for name, K in named_complexes().items():
        beta = betti_gf2(K)
        total = sum((-1) ** i * b for i, b in enumerate(beta))
        assert euler_characteristic(K) == total == euler(K.simplices), name


def test_downward_closure_and_incidence_consistency():
    for name, K in named_complexes().items():
        for s in K:
            if len(s) > 1:
                for f in facets_of(s):
                    assert f in K, (name, s, f)
        for s in K:
            for t in incident(K, K.cofacet_ids, s):
                assert s in facets_of(t), (name, s, t)


def test_is_connected():
    assert is_connected(from_maximal_simplices([(0, 1), (1, 2)]))
    assert not is_connected(from_maximal_simplices([(0, 1), (2, 3)]))
    assert is_connected(from_maximal_simplices([(4,)]))


def test_pickle_and_deepcopy_rebuild_the_complex():
    K = random_complex(3, dim=3, n_vertices=9, n_facets=8)
    betti_gf2(K)
    for twin in (pickle.loads(pickle.dumps(K)), copy.deepcopy(K)):
        assert twin == K and twin is not K
        assert twin.facet_ids == K.facet_ids
        assert twin.cofacet_ids == K.cofacet_ids
        assert twin._offsets == K._offsets
        assert twin._betti is None and twin._mates is None


def test_pickle_drops_the_kept_coreduction_and_recomputes_equal_results():
    K = wedge(dunce_hat(), 1, 3)
    mates, beta = max_matching_mates(K), betti_gf2(K)
    assert K._coreduction is not None
    twin = pickle.loads(pickle.dumps(K))
    assert twin._coreduction is None and twin._mates is None and twin._betti is None
    assert max_matching_mates(twin) == mates == reference_max_matching_mates(twin)
    assert betti_gf2(twin) == beta
    assert twin._coreduction == K._coreduction


def test_complex_equality_and_hash():
    a = from_maximal_simplices([(0, 1, 2)])
    b = from_maximal_simplices([(0, 1), (0, 1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != from_maximal_simplices([(0, 1)])


# (simplices, text, error from SimplicialComplex and from_maximal_simplices,
# error from parse_complex); a text of None has no file form.
BAD_INPUTS = {
    "empty": ([], "", (ValueError, "empty complex"), (ParseError, "no simplices in input")),
    "empty simplex": (
        [(0, 1), ()], "\n  \n", (ValueError, "empty simplex"), (ParseError, "no simplices in input"),
    ),
    "degenerate facet": (
        [(0, 1), (2, 0, 2)], "0 1\n2 0 2\n",
        (ValueError, "degenerate facet (2, 0, 2)"), (ParseError, "line 2: repeated vertex in '2 0 2'"),
    ),
    "string vertex": (
        [("a",)], "a\n", (ValueError, "bad vertex id 'a'"), (ParseError, "line 1: bad vertex id 'a'"),
    ),
    "string among ints": (
        [(0, "a")], "0 a\n",
        (TypeError, "'<' not supported between instances of 'str' and 'int'"),
        (ParseError, "line 1: bad vertex id 'a'"),
    ),
    "negative vertex": (
        [(0, -1)], "0 -1\n", (ValueError, "bad vertex id -1"), (ParseError, "line 1: bad vertex id '-1'"),
    ),
    "bool vertex": (
        [(0, True)], "0 True\n",
        (ValueError, "bad vertex id True"), (ParseError, "line 1: bad vertex id 'True'"),
    ),
    "float next to its int": (
        [(0, 1), (1, 1.0)], "0 1\n1 1.0\n",
        (ValueError, "bad vertex id 1.0"), (ParseError, "line 2: bad vertex id '1.0'"),
    ),
}


def raised(fn, arg) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(arg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_construction_errors(name):
    simplices, text, error, parse_error = BAD_INPUTS[name]
    for build in (SimplicialComplex, from_maximal_simplices):
        assert raised(build, simplices) == error
        assert raised(build, (s for s in simplices)) == error
    assert raised(parse_complex, text) == parse_error


def test_first_missing_face_in_canonical_order_is_reported():
    # (3,), (5,), (5, 6) and more are missing; the edge (3, 4) comes first
    simplices = [(5, 6, 7), (0,), (1,), (0, 1), (3, 4), (4,)]
    for arg in (simplices, iter(simplices), reversed(simplices)):
        assert raised(SimplicialComplex, arg) == (ValueError, "not downward closed: missing face (3,)")
    # both (0, 2) and (1, 2) are missing from the triangle's facets
    simplices = [(0, 1, 2), (0,), (1,), (2,), (0, 1)]
    assert raised(SimplicialComplex, simplices) == (
        ValueError, "not downward closed: missing face (0, 2)",
    )


def test_closure_refuses_past_the_cap(monkeypatch):
    def build(*args):
        raise AssertionError("closed past the cap")

    # A simplex of 2**21 - 1 faces or more is refused before any face is made.
    with monkeypatch.context() as mp:
        mp.setattr(complexes, "_faces", build)
        for k in (21, 30):
            with pytest.raises(ValueError, match="closure would be over the cap of 1048576 simplices"):
                from_maximal_simplices([range(k)])
    monkeypatch.setattr(complexes, "CLOSURE_CAP", 64)
    triangles = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(10)]
    assert from_maximal_simplices(triangles[:9]).n == 63
    assert from_maximal_simplices([range(6)]).n == 63
    assert from_maximal_simplices([(v,) for v in range(64)]).n == 64
    for tops in (triangles, [range(7)], [(v,) for v in range(65)]):
        with pytest.raises(ValueError, match="over the cap of 64 simplices"):
            from_maximal_simplices(tops)
    # 60 disjoint edges leave room for 4 vertices, so the third edge closed
    # is the last: the count is checked as each simplex adds its faces.
    closed = []
    faces = complexes._faces

    def counted(keys, d, bits):
        closed.extend(keys)
        return faces(keys, d, bits)

    monkeypatch.setattr(complexes, "_faces", counted)
    with pytest.raises(ValueError, match="over the cap of 64 simplices"):
        from_maximal_simplices([(2 * i, 2 * i + 1) for i in range(60)])
    assert len(closed) == 3


def test_one_shot_generators_build_the_same_complex():
    facets = [(2, 0, 1), (1, 3), (0, 1)]
    K = from_maximal_simplices(facets)
    assert from_maximal_simplices(f for f in facets) == K
    assert SimplicialComplex(s for s in K.simplices) == K


def assert_matches_brute_closure(K, facets):
    ref = brute_closure(facets)
    assert K.simplices == ref["simplices"]
    assert K.facet_ids == ref["facet_ids"]
    assert K.cofacet_ids == ref["cofacet_ids"]
    assert tuple(K.offset(d) for d in range(K.dim + 2)) == ref["offsets"]


@st.composite
def facet_lists(draw):
    """Facets in any vertex order, with duplicates and nested facets mixed in."""
    vertex_sets = st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)
    facets = draw(st.lists(vertex_sets, min_size=1, max_size=8))
    picks = st.tuples(st.integers(0, len(facets) - 1), st.integers(0, 31))
    for i, mask in draw(st.lists(picks, max_size=4)):
        # a subset of an earlier facet, or the facet again when it is empty
        facets.append([v for k, v in enumerate(facets[i]) if mask >> k & 1] or facets[i])
    return draw(st.permutations(facets))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(facet_lists())
def test_construction_matches_brute_closure(facets):
    K = from_maximal_simplices(facets)
    assert_matches_brute_closure(K, facets)
    assert SimplicialComplex(reversed(K.simplices)).facet_ids == K.facet_ids
    text = "".join(" ".join(map(str, f)) + "\n" for f in facets)
    assert parse_complex(text).cofacet_ids == K.cofacet_ids


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_random_complexes_match_brute_closure(seed, dim):
    K = random_complex(seed, dim=dim, n_vertices=dim + 5, n_facets=6, connected=seed % 2 == 0)
    assert_matches_brute_closure(K, K.facets())


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_one_live_cofacet_means_one_live_proper_coface(seed, dim):
    """The free-face rule the collapse routines count by.

    Random elementary collapses, with a random maximal simplex taken out
    whenever no free face is left, keep the live set downward closed; at
    every step the simplices with one live cofacet are exactly those with
    one live proper coface, found here by subset tests.
    """
    K = random_complex(seed, dim=dim, n_vertices=dim + 5, n_facets=3 * dim)
    rng = random.Random(seed)
    live = set(K.simplices)
    while live:
        cofacets = {s: [t for t in incident(K, K.cofacet_ids, s) if t in live] for s in live}
        cofaces = {s: [t for t in live if set(s) < set(t)] for s in live}
        free = sorted(s for s in live if len(cofacets[s]) == 1)
        assert free == sorted(s for s in live if len(cofaces[s]) == 1)
        if free:
            s = rng.choice(free)
            live -= {s, cofacets[s][0]}
        else:
            live.remove(rng.choice(sorted(s for s in live if not cofaces[s])))
        assert all(f in live for s in live for f in facets_of(s))


def assert_same_construction(K, R):
    """Every field of the builder equals the reference's."""
    assert K.simplices == R.simplices
    assert K._offsets == R._offsets
    assert K.facet_ids == R.facet_ids
    assert K.cofacet_ids == R.cofacet_ids
    assert (K.dim, K.n) == (R.dim, R.n)


@st.composite
def maximal_simplex_lists(draw):
    """Maximal simplices of a random complex in dims 1-4, a wedge or a simplex boundary."""
    kind = draw(st.sampled_from(["random", "wedge", "boundary"]))
    if kind == "random":
        dim = draw(st.integers(1, 4))
        K = random_complex(
            draw(st.integers(0, 2**32 - 1)), dim=dim,
            n_vertices=dim + 1 + draw(st.integers(0, 8)),
            n_facets=draw(st.integers(1, 40)), connected=draw(st.booleans()),
        )
        return list(K.facets())
    if kind == "wedge":
        base = draw(st.sampled_from([dunce_hat, rp2]))()
        return list(wedge(base, min(base.vertices), draw(st.integers(1, 4))).facets())
    n = draw(st.integers(1, 7))
    return list(combinations(range(1, n + 2), n))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(maximal_simplex_lists(), st.randoms(use_true_random=False))
def test_construction_matches_the_reference_builder(facets, rng):
    K = from_maximal_simplices(facets)
    assert_same_construction(K, reference_close([simplex(f) for f in facets]))
    everything = list(K.simplices)
    rng.shuffle(everything)
    assert_same_construction(SimplicialComplex(everything), reference_complex(everything))


@st.composite
def relabelled_tops(draw):
    """Maximal simplices of a random complex in dims 1-4 on sparse labels.

    The labels are drawn up to 2**70, all of them shifted past 2**64 or
    none, so a packed key must hold ranks, not labels.  Three spare labels
    become isolated vertices, and duplicate and nested tops (a subset of
    a top, or the top again) are mixed in, some as lists.
    """
    dim = draw(st.integers(1, 4))
    K = random_complex(
        draw(st.integers(0, 2**32 - 1)), dim=dim,
        n_vertices=dim + 1 + draw(st.integers(0, 8)),
        n_facets=draw(st.integers(1, 20)), connected=draw(st.booleans()),
    )
    shift = draw(st.sampled_from([0, 2**64]))
    count = len(K.vertices) + 3
    labels = draw(st.lists(st.integers(0, 2**70), min_size=count, max_size=count, unique=True))
    relabel = dict(zip(K.vertices, (shift + x for x in labels)))
    tops = [tuple(relabel[v] for v in f) for f in K.facets()]
    isolated = [(shift + x,) for x in labels[-3:]]
    picks = st.tuples(st.integers(0, len(tops) - 1), st.integers(0, 31))
    nested = [[v for k, v in enumerate(tops[i]) if mask >> k & 1] or tops[i]
              for i, mask in draw(st.lists(picks, max_size=4))]
    return draw(st.permutations(tops + isolated + nested))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(relabelled_tops(), st.randoms(use_true_random=False))
def test_packed_build_matches_the_reference_on_sparse_and_huge_labels(tops, rng):
    K = from_maximal_simplices(tops)
    R = reference_close([simplex(f) for f in tops])
    maximal = K.facets()  # decoded alone, before the simplices are
    assert_same_construction(K, R)
    assert maximal == K.facets() == tuple(s for s, cs in zip(R.simplices, R.cofacet_ids) if not cs)
    assert K.vertices == tuple(s for (s,) in R.simplices[: R._offsets[1]])
    everything = list(R.simplices)
    rng.shuffle(everything)
    J = SimplicialComplex(everything)
    assert_same_construction(J, reference_complex(everything))
    assert SimplicialComplex(K.simplices) == K == J
    assert pickle.loads(pickle.dumps(J)) == J


@pytest.mark.parametrize("K", [rp2(), wedge(dunce_hat(), 1, 40)], ids=["rp2", "dunce_wedge"])
def test_incidence_holds_the_index_ints_in_finished_tuples(K):
    # one int object per id, shared by the facet and cofacet tuples: an id
    # meets its facets' cofacet tuples before its cofacets' facet tuples
    ids = {}
    for fs, cs in zip(K.facet_ids, K.cofacet_ids):
        assert type(fs) is tuple and type(cs) is tuple
        assert all(ids.setdefault(j, j) is j for j in fs + cs)
    assert len(ids) == K.n


@st.composite
def lookup_complexes(draw):
    """A random complex in dims 1-4 or one of the named complexes."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(named_complexes().items())))[1]
    dim = draw(st.integers(1, 4))
    return random_complex(
        draw(st.integers(0, 2**32 - 1)), dim=dim,
        n_vertices=dim + 1 + draw(st.integers(0, 6)),
        n_facets=draw(st.integers(1, 12)), connected=draw(st.booleans()),
    )


PROBE_ENTRIES = st.one_of(st.integers(-1, 12), st.floats(), st.text(max_size=2))
PROBES = st.one_of(
    st.lists(st.integers(-1, 12), max_size=7).map(tuple),
    st.lists(PROBE_ENTRIES, max_size=7).map(tuple),
    PROBE_ENTRIES,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(lookup_complexes(), st.lists(PROBES, max_size=20))
def test_ids_membership_and_offsets_come_from_the_one_order(K, probes):
    # ids and membership are bisected within one level of K.simplices,
    # which must agree with a search of the whole order and with a set,
    # and never raise, whatever the probe: unsorted, repeated, empty or
    # over-long tuples, negative, float or string entries, or no tuple
    S = K.simplices
    members = set(S)
    for s in S:
        assert K._id(s) == S.index(s)
        probes += [s[::-1], s + s[-1:], s + (s[-1] + 1,), tuple(map(float, s)), tuple(map(str, s))]
    probes += [(), (-1,), ("a",), (0.5,), tuple(range(K.dim + 2)), 0, "0"]
    for p in probes:
        assert (p in K) == (p in members), p
    # offset(d) counts the simplices below dimension d: 0 below dimension
    # 0 and n past the top
    assert [K.offset(d) for d in range(-2, K.dim + 3)] == [
        sum(len(s) <= d for s in S) for d in range(-2, K.dim + 3)
    ]
    assert not hasattr(K, "by_dim") and not hasattr(K, "index")


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(relabelled_tops(), st.lists(PROBES, max_size=10))
def test_ids_agree_with_the_order_before_and_after_it_is_decoded(tops, probes):
    # fresh keeps its packed keys throughout; K is decoded by reading S
    fresh, K = from_maximal_simplices(tops), from_maximal_simplices(tops)
    S = K.simplices
    gap = next(v + 1 for v in K.vertices if v + 1 not in K.vertices)
    for s in S:
        probes += [s, s[::-1], s[:-1] + (gap,), (gap,) + s[1:], s + (gap,), s[1:], list(s), str(s)]
    probes += [(K.vertices[-1] + 1,), (-1,), (), tuple(K.vertices[: K.dim + 2]), 0, None]
    for p in probes:
        expected = S.index(p) if p in S else -1
        assert fresh._id(p) == K._id(p) == expected, p
    assert fresh._simplices is None and fresh._keys is not None
    assert K._keys is None


MEMORY_INPUTS = {
    "random-3d": dict(seed=0, dim=3, n_vertices=300, n_facets=3000),
    "sparse-2d": dict(seed=7, dim=2, n_vertices=4000, n_facets=8000),
}


@pytest.fixture(scope="module")
def memory_files(tmp_path_factory):
    """Fixed random complexes, written by write_complex: 15 226 and 23 811 simplices."""
    root = tmp_path_factory.mktemp("memory")
    paths = {}
    for name, args in MEMORY_INPUTS.items():
        paths[name] = str(root / f"{name}.txt")
        write_complex(random_complex(**args, connected=True), paths[name])
    return paths


def traced_peak_per_simplex(build) -> float:
    """The tracemalloc peak of build() over its simplex count.

    An untraced call first fills CPython's free lists, as earlier tests
    may have, so the reading does not depend on what ran before.
    """
    build()
    tracemalloc.start()
    try:
        K = build()
        return tracemalloc.get_traced_memory()[1] / K.n
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, bound", [("random-3d", 280), ("sparse-2d", 272)])
def test_read_complex_peak_per_simplex(memory_files, name, bound):
    # Python 3.10-3.12, in B a simplex: random-3d 237-254, sparse-2d 255-263.
    # A whole-complex index with a level's cofacet lists and tuples alive
    # together read 310-314 and 341-355; the index alone, without the lists
    # becoming tuples one at a time, read 257-261 and 280-300.
    assert traced_peak_per_simplex(lambda: read_complex(memory_files[name])) < bound


def test_the_validating_constructor_drops_its_member_set_before_the_build(memory_files):
    # Python 3.10-3.12: 239-248 B a simplex, where keeping the set of every
    # simplex through the build read 274-282 (and 339-350 with the index).
    simplices = list(read_complex(memory_files["random-3d"]).simplices)
    assert traced_peak_per_simplex(lambda: SimplicialComplex(simplices)) < 260


def membership_after_a_bench_row(K):
    # a bench row: the shared facts, then every algorithm's matching and report
    facts = cli._complex_facts(K)
    for algo in cli.ALGOS:
        mm, extras = cli._run_algo(K, algo, 50)
        cli._match_report(K, algo, mm, extras, facts)
    return lambda: (0,) in K


def canonicalization(K):
    mm = coreduction_matching(K)
    return lambda: canonicalize_single_critical_vertex(K, mm, K.vertices[0])


def certification_of_pairs(K):
    pairs = coreduction_matching(K).pairs
    return lambda: certify(K, pairs)


@pytest.mark.parametrize("setup, bound", [
    (membership_after_a_bench_row, 40),
    (canonicalization, 50),
    (certification_of_pairs, 70),
])
def test_lookups_build_no_map_of_the_complex(memory_files, setup, bound):
    """The tracemalloc peak of one lookup call, in B a simplex.

    setup(K) runs untraced and returns the call; it runs once first, also
    untraced, on another complex read from the same file, so the reading
    does not depend on what ran before.
    """
    # Python 3.11: membership 0, canonicalization 16-17, certification
    # 43-44; a simplex-to-id map built on first use read 80-81, 86-88
    # and 94-102.
    path = memory_files["random-3d"]
    setup(read_complex(path))()
    K = read_complex(path)
    call = setup(K)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1] / K.n
    finally:
        tracemalloc.stop()
    assert peak < bound
