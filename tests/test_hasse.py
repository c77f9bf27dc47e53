"""Covering graph construction, interfaces, matchings, and orientation."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from morsematch import (
    InvalidMatching,
    OrientedHasse,
    coreduction_matching,
    dunce_hat,
    from_maximal_simplices,
    hasse,
    max_cardinality_matching,
    orient,
    random_complex,
    rp2,
    wedge,
)
from morsematch.hasse import max_matching_mates
from helpers import (
    brute_max_matching_size,
    is_maximum_matching,
    max_matching_pairs,
    named_complexes,
    reference_max_matching_mates,
    sparse_complexes,
)

TRIANGLE = from_maximal_simplices([(0, 1, 2)])
CIRCLE = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
SPHERE = from_maximal_simplices([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def test_hasse_nodes_and_edges_on_triangle():
    edges = hasse(TRIANGLE)
    assert len(TRIANGLE.simplices) == 7
    assert len(edges) == 9
    # edges run coface to face
    assert ((0, 1), (0,)) in set(edges)
    assert ((0, 1, 2), (0, 1)) in set(edges)


def test_hasse_single_vertex():
    assert len(hasse(from_maximal_simplices([(3,)]))) == 0


def test_hasse_circle_is_hexagon():
    edges = hasse(CIRCLE)
    assert len(edges) == 6
    degree: dict = {}
    for tau, sigma in edges:
        degree[sigma] = degree.get(sigma, 0) + 1
        degree[tau] = degree.get(tau, 0) + 1
    assert len(degree) == 6 and all(d == 2 for d in degree.values())


def interface_counts(K, d):
    """Nodes and Hasse edges of the d-interface: dimensions d-1 and d."""
    nodes = K.offset(d + 1) - K.offset(d - 1)
    edges = sum(1 for tau, _ in hasse(K) if len(tau) == d + 1)
    return nodes, edges


def test_d_interface_counts():
    assert interface_counts(TRIANGLE, 2) == (4, 3)
    assert interface_counts(TRIANGLE, 1) == (6, 6)
    assert interface_counts(SPHERE, 1) == (10, 12)


def test_max_matching_sizes():
    assert max_cardinality_matching(TRIANGLE) == 3
    assert max_cardinality_matching(CIRCLE) == 3
    assert max_cardinality_matching(from_maximal_simplices([(9,)])) == 0


def test_max_matching_is_deterministic():
    a = max_matching_pairs(CIRCLE)
    b = max_matching_pairs(CIRCLE)
    assert a == b
    assert sorted(a) == [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]


def test_max_matching_equals_brute_force_on_small_corpus():
    for name, K in named_complexes().items():
        if K.n > 16:
            continue
        got = max_cardinality_matching(K)
        want = brute_max_matching_size(K.simplices)
        assert got == want, name


def test_maximality_check_refuses_a_short_matching():
    K = from_maximal_simplices([(0, 1), (1, 2)])
    one_pair = [-1] * K.n
    a, b = K.simplices.index((0,)), K.simplices.index((0, 1))
    one_pair[a], one_pair[b] = b, a
    assert not is_maximum_matching(K.simplices, one_pair)
    one_sided = list(one_pair)
    one_sided[b] = -1
    assert not is_maximum_matching(K.simplices, one_sided)
    assert is_maximum_matching(K.simplices, max_matching_mates(K))


def complexes_to_match():
    """Sparse and dense random complexes in dims 1-4, dunce and RP2 wedges.

    The sparse ones draw a few facets on spare vertices, so most have
    several components.  The dense ones have hundreds of free simplices
    whose search for an augmenting path fails; on the wedges the searches
    that succeed run through the wedge vertex.
    """
    seeds, dims = st.integers(0, 2**32 - 1), st.integers(1, 4)
    dense = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=20, n_facets=200, connected=True),
        seeds, dims,
    )
    wedges = st.builds(
        lambda base, copies: wedge(base(), 1, copies),
        st.sampled_from([dunce_hat, rp2]), st.integers(1, 28),
    )
    return st.one_of(sparse_complexes(), dense, wedges)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(complexes_to_match())
def test_max_matching_mates_equal_the_reference(K):
    mates = max_matching_mates(K)
    assert mates == reference_max_matching_mates(K)
    assert is_maximum_matching(K.simplices, mates)


def test_max_matching_pairs_are_coverings():
    for name, K in named_complexes().items():
        M = max_matching_pairs(K)
        assert max_cardinality_matching(K) == len(M), name
        assert frozenset(orient(K, M).up_pairs()) == M, name
        ends = [s for p in M for s in p]
        assert len(ends) == len(set(ends)), name


def test_orient_empty_matching_points_all_down():
    oh = orient(TRIANGLE, frozenset())
    assert oh.up == [-1] * TRIANGLE.n
    assert oh.up_pairs() == []


def test_orient_single_pair():
    M = frozenset({((0, 1), (0, 1, 2))})
    oh = orient(TRIANGLE, M)
    index = TRIANGLE.simplices.index
    ups = [(a, b) for a, b in enumerate(oh.up) if b >= 0]
    assert ups == [(index((0, 1)), index((0, 1, 2)))]
    assert len(hasse(TRIANGLE)) - len(ups) == 8


def test_orient_perfect_matching_reproduces_pairs():
    M = frozenset({((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))})
    oh = orient(CIRCLE, M)
    assert frozenset(oh.up_pairs()) == M


def test_oriented_edge_direction():
    M = frozenset({((0,), (0, 1))})
    oh = orient(CIRCLE, M)
    index = CIRCLE.simplices.index
    assert oh.up[index((0,))] == index((0, 1))
    assert oh.up[index((1,))] == -1


def test_partner_and_unmatch():
    # The up array names each face's partner; writing -1 unmatches it.
    M = frozenset({((0,), (0, 1))})
    oh = orient(CIRCLE, M)
    index, S = CIRCLE.simplices.index, CIRCLE.simplices
    a = index((0,))
    assert S[oh.up[a]] == (0, 1)
    assert oh.up[index((0, 1))] == -1
    assert oh.up[index((2,))] == -1
    oh.up[a] = -1
    assert oh.up == [-1] * CIRCLE.n
    assert oh.up_pairs() == []


def test_reversed_matched_edge_is_not_up():
    # The pair read coface first is the same covering edge pointing down:
    # the coface has no up entry, and the validator refuses the pair.
    M = frozenset({((0,), (0, 1))})
    oh = orient(CIRCLE, M)
    assert oh.up[CIRCLE.simplices.index((0, 1))] == -1
    with pytest.raises(InvalidMatching, match="not a covering pair"):
        orient(CIRCLE, {((0, 1), (0,))})
    assert frozenset(oh.up_pairs()) == M


def test_orient_rejects_bad_pairs():
    with pytest.raises(ValueError, match=r"unknown simplex \(9,\)"):
        orient(CIRCLE, {((9,), (0, 1))})
    with pytest.raises(ValueError, match="not a covering pair"):
        orient(CIRCLE, {((0,), (1, 2))})
    with pytest.raises(ValueError, match="matched twice"):
        orient(CIRCLE, {((0,), (0, 1)), ((0,), (0, 2))})


def test_orient_lists_every_problem_in_pair_order():
    pairs = [((9,), (0, 1)), ((0,), (1, 2)), ((0,), (0, 1)), ((0,), (0, 2))]
    with pytest.raises(InvalidMatching) as exc:
        orient(CIRCLE, pairs)
    assert exc.value.describe(repr) == [
        "pair 1: unknown simplex (9,)",
        "pair 2: not a covering pair",
        "pair 3: simplex (0,) matched twice",
        "pair 3: simplex (0, 1) matched twice",
        "pair 4: simplex (0,) matched twice",
    ]


def test_orient_rejects_a_malformed_up_array():
    # a wrong length, or an entry outside -1 .. n-1, is no matching at all
    n = TRIANGLE.n
    cases = {
        "face id 0 has up entry 12": [n + 5] + [-1] * (n - 1),
        "up array has 8 entries for 7 simplices": [-1] * n + [3],
        "face id 0 has up entry -2": [-2] + [-1] * (n - 1),
        "up array has 6 entries for 7 simplices": [-1] * (n - 1),
    }
    for message, up in cases.items():
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            orient(TRIANGLE, OrientedHasse(TRIANGLE, up))
        assert not isinstance(exc.value, InvalidMatching)


def test_hasse_edge_count_identity():
    # every d-simplex contributes exactly d+1 covering edges downward
    for name, K in named_complexes().items():
        want = sum(len(s) for s in K.simplices if len(s) > 1)
        assert len(hasse(K)) == want, name


def test_orient_keeps_the_complex():
    oh = orient(CIRCLE, frozenset())
    assert isinstance(oh, OrientedHasse)
    assert oh.complex is CIRCLE


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 4))
def test_id_entry_agrees_with_the_pair_listing(seed, dim, corrupt):
    # orient's one-pass check of an up array must accept exactly what the
    # listing of its pairs accepts, and reject with the same problems
    K = random_complex(seed, dim=dim, n_vertices=dim + 4, n_facets=6)
    rng = random.Random(seed)
    up = list(coreduction_matching(K)._ids[1])
    for _ in range(corrupt):
        up[rng.randrange(K.n)] = rng.randrange(-1, K.n)
    S = K.simplices
    try:
        expected = orient(K, [(S[a], S[b]) for a, b in enumerate(up) if b >= 0]).up
    except InvalidMatching as exc:
        with pytest.raises(InvalidMatching) as got:
            orient(K, OrientedHasse(K, up))
        assert got.value.problems == exc.problems and str(got.value) == str(exc)
    else:
        assert orient(K, OrientedHasse(K, up)).up == expected
