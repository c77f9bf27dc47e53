"""Core complex construction, incidence queries, and mod-2 homology."""

import copy
import pickle
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from morsematch import (
    ParseError,
    SimplicialComplex,
    betti_gf2,
    canonical_key,
    dunce_hat,
    euler_characteristic,
    from_maximal_simplices,
    is_connected,
    parse_complex,
    random_complex,
    rp2,
    simplex,
    wedge,
)
from morsematch.complexes import _coreduction
from morsematch.hasse import max_matching_mates
from helpers import (
    betti_numpy,
    boundary_matrix_gf2,
    brute_closure,
    cofacets_of,
    euler,
    facets_of,
    named_complexes,
    reference_betti_gf2,
    reference_close,
    reference_complex,
    reference_gf2_rank,
    reference_max_matching_mates,
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
    return [K.simplices[j] for j in ids_of[K.index[s]]]


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
        assert K.index[s] == i
        assert [S[j] for j in K.facet_ids[i]] == facets_of(s)
        assert tuple(S[j] for j in K.cofacet_ids[i]) == cofacets_of(K, s)
        assert list(K.facet_ids[i]) == sorted(K.facet_ids[i])
        assert list(K.cofacet_ids[i]) == sorted(K.cofacet_ids[i])
    assert sorted(S, key=canonical_key) == list(S)
    assert len(K.index) == K.n


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

    Coreduction leaves two critical simplices beyond the homology on each
    dunce hat, so on the wedges the Morse complex has boundaries to rank.
    """
    seeds, dims = st.integers(0, 2**32 - 1), st.integers(1, 4)
    sparse = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=d + 6, n_facets=10, connected=s % 2 == 0),
        seeds, dims,
    )
    denser = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=d + 7, n_facets=40, connected=True),
        seeds, dims,
    )
    wedges = st.builds(
        lambda base, copies: wedge(base(), 1, copies),
        st.sampled_from([dunce_hat, rp2]), st.integers(1, 12),
    )
    return st.one_of(sparse, denser, wedges)


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
        assert dict(twin.index) == dict(K.index)
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
    assert K.by_dim == ref["by_dim"]
    assert tuple(K.offset(d) for d in range(K.dim + 2)) == ref["offsets"]
    assert dict(K.index) == {s: i for i, s in enumerate(ref["simplices"])}


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
    assert K.by_dim == R.by_dim
    assert dict(K.index) == dict(R.index)
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


@pytest.mark.parametrize("K", [rp2(), wedge(dunce_hat(), 1, 40)], ids=["rp2", "dunce_wedge"])
def test_incidence_holds_the_index_ints_in_finished_tuples(K):
    # one int object per id, shared by the index and both incidence tuples
    ids = {i: i for i in K.index.values()}
    for fs, cs in zip(K.facet_ids, K.cofacet_ids):
        assert type(fs) is tuple and type(cs) is tuple
        assert all(ids[j] is j for j in fs + cs)
