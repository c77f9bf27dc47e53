"""Covering graph construction, interfaces, matchings, and orientation."""

import pytest

from morsematch import (
    HasseDiagram,
    InvalidMatching,
    OrientedHasse,
    from_maximal_simplices,
    hasse,
    max_cardinality_matching,
    orient,
    validate_matching,
)
from helpers import brute_max_matching_size, named_complexes

TRIANGLE = from_maximal_simplices([(0, 1, 2)])
CIRCLE = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
SPHERE = from_maximal_simplices([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def test_hasse_nodes_and_edges_on_triangle():
    H = hasse(TRIANGLE)
    assert len(H.nodes) == 7
    assert len(H.edges) == 9
    # edges run coface to face
    assert ((0, 1), (0,)) in set(H.edges)
    assert ((0, 1, 2), (0, 1)) in set(H.edges)


def test_hasse_single_vertex():
    H = hasse(from_maximal_simplices([(3,)]))
    assert len(H.edges) == 0


def test_hasse_circle_is_hexagon():
    H = hasse(CIRCLE)
    assert len(H.edges) == 6
    degree: dict = {}
    for tau, sigma in H.edges:
        degree[sigma] = degree.get(sigma, 0) + 1
        degree[tau] = degree.get(tau, 0) + 1
    assert len(degree) == 6 and all(d == 2 for d in degree.values())


def interface_counts(K, d):
    """Nodes and Hasse edges of the d-interface: dimensions d-1 and d."""
    nodes = len(K.by_dim[d - 1]) + len(K.by_dim[d])
    edges = sum(1 for tau, _ in hasse(K).edges if len(tau) == d + 1)
    return nodes, edges


def test_d_interface_counts():
    assert interface_counts(TRIANGLE, 2) == (4, 3)
    assert interface_counts(TRIANGLE, 1) == (6, 6)
    assert interface_counts(SPHERE, 1) == (10, 12)


def test_max_matching_sizes():
    assert len(max_cardinality_matching(hasse(TRIANGLE))) == 3
    assert len(max_cardinality_matching(hasse(CIRCLE))) == 3
    assert len(max_cardinality_matching(hasse(from_maximal_simplices([(9,)])))) == 0


def test_max_matching_is_deterministic():
    a = max_cardinality_matching(hasse(CIRCLE))
    b = max_cardinality_matching(hasse(CIRCLE))
    assert a == b
    assert sorted(a) == [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]


def test_max_matching_equals_brute_force_on_small_corpus():
    for name, K in named_complexes().items():
        if K.n > 16:
            continue
        got = len(max_cardinality_matching(hasse(K)))
        want = brute_max_matching_size(K.simplices)
        assert got == want, name


def test_max_matching_pairs_are_coverings():
    for name, K in named_complexes().items():
        M = max_cardinality_matching(hasse(K))
        validate_matching(K, M)
        ends = [s for p in M for s in p]
        assert len(ends) == len(set(ends)), name


def test_orient_empty_matching_points_all_down():
    oh = orient(hasse(TRIANGLE), frozenset())
    for tau, sigma in oh.hasse.edges:
        assert not oh.is_up(sigma, tau)
    assert oh.up_pairs() == []


def test_orient_single_pair():
    M = frozenset({((0, 1), (0, 1, 2))})
    oh = orient(hasse(TRIANGLE), M)
    ups = [
        (sigma, tau)
        for tau, sigma in oh.hasse.edges
        if oh.is_up(sigma, tau)
    ]
    assert ups == [((0, 1), (0, 1, 2))]
    assert len(oh.hasse.edges) - len(ups) == 8


def test_orient_perfect_matching_reproduces_pairs():
    M = frozenset({((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))})
    oh = orient(hasse(CIRCLE), M)
    assert frozenset(oh.up_pairs()) == M
    assert oh.pairs == M


def test_oriented_edge_direction():
    M = frozenset({((0,), (0, 1))})
    oh = orient(hasse(CIRCLE), M)
    assert oh.is_up((0,), (0, 1))
    assert not oh.is_up((1,), (0, 1))


def test_partner_and_unmatch():
    M = frozenset({((0,), (0, 1))})
    oh = orient(hasse(CIRCLE), M)
    assert oh.is_up((0,), (0, 1))
    assert not oh.is_up((1,), (0, 1))
    assert oh.up_partner((0,)) == (0, 1)
    assert oh.up_partner((0, 1)) is None
    assert oh.up_partner((2,)) is None
    oh.unmatch((0,), (0, 1))
    assert not oh.is_up((0,), (0, 1))
    assert oh.up_partner((0,)) is None
    assert len(oh.pairs) == 0
    with pytest.raises(ValueError, match="not an up-edge"):
        oh.unmatch((1,), (1, 2))


def test_validate_matching_rejects_bad_pairs():
    with pytest.raises(ValueError, match=r"unknown simplex \(9,\)"):
        validate_matching(CIRCLE, {((9,), (0, 1))})
    with pytest.raises(ValueError, match="not a covering pair"):
        validate_matching(CIRCLE, {((0,), (1, 2))})
    with pytest.raises(ValueError, match="matched twice"):
        validate_matching(CIRCLE, {((0,), (0, 1)), ((0,), (0, 2))})


def test_validate_matching_lists_every_problem_in_pair_order():
    pairs = [((9,), (0, 1)), ((0,), (1, 2)), ((0,), (0, 1)), ((0,), (0, 2))]
    with pytest.raises(InvalidMatching) as exc:
        validate_matching(CIRCLE, pairs)
    assert exc.value.describe(repr) == [
        "pair 1: unknown simplex (9,)",
        "pair 2: not a covering pair",
        "pair 3: simplex (0,) matched twice",
        "pair 3: simplex (0, 1) matched twice",
        "pair 4: simplex (0,) matched twice",
    ]


def test_hasse_edge_count_identity():
    # every d-simplex contributes exactly d+1 covering edges downward
    for name, K in named_complexes().items():
        want = sum(len(s) for s in K.simplices if len(s) > 1)
        assert len(hasse(K).edges) == want, name


def test_hasse_type_is_reusable():
    H = hasse(CIRCLE)
    assert isinstance(H, HasseDiagram)
    oh = orient(H, frozenset())
    assert isinstance(oh, OrientedHasse)
    assert oh.hasse is H
