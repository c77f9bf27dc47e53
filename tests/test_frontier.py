"""Frontier-edges approximation: classification and the ratio bound."""

from hypothesis import given, settings, strategies as st

from morsematch import (
    OrientedHasse,
    certify,
    critical_profile,
    dunce_hat,
    from_maximal_simplices,
    frontier_edges_matching,
    hasse,
    max_cardinality_matching,
    orient,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
)
from morsematch.frontier import _leading, bfs_component
from morsematch.hasse import max_matching_mates
from helpers import facets_of, max_matching_pairs, reference_bfs_component

CIRCLE = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
TRIANGLE = from_maximal_simplices([(0, 1, 2)])
RANDOM_3D = random_complex(2, dim=3, n_vertices=30, n_facets=60, connected=True)
HEXAGON = frozenset({((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))})


def hexagon_orientation():
    return orient(CIRCLE, HEXAGON)


def component_edges(comp):
    """(coface, facet) Hasse edges of every coface the component classified."""
    return {
        (b, a) for _, b in comp.forward + comp.backward for a in facets_of(b)
    }


def bound_holds(d, forward, backward, frontier=0):
    """(d*d+d+1) * forward >= (d+1) * (forward + backward + frontier), in integers."""
    return (d * d + d + 1) * forward >= (d + 1) * (forward + backward + frontier)


def assert_component_bound(result):
    for comp in result.components:
        assert bound_holds(comp.dim, len(comp.forward), len(comp.backward)), comp.forward[0]


def leading(oh, chi):
    """Leading up-edges of the up-edge chi, read through face ids."""
    K = oh.complex
    index, S = K.simplices.index, K.simplices
    faces = _leading(K.facet_ids, oh.up, bytearray(K.n), index(chi[0]), index(chi[1]))
    return [(S[a], S[oh.up[a]]) for a in faces]


def component(oh, face, absorbed=None):
    """bfs_component from the given seed face, checking that kept is cleared."""
    K = oh.complex
    if absorbed is None:
        absorbed = bytearray(K.n)
    kept = [-1] * K.n
    comp = bfs_component(oh, K.simplices.index(face), absorbed, kept)
    assert kept == [-1] * K.n
    return comp


def test_leading_up_edges_on_hexagon():
    assert leading(hexagon_orientation(), ((0,), (0, 1))) == [((1,), (1, 2))]


def test_leading_up_edges_without_matched_siblings():
    oh = orient(CIRCLE, frozenset({((0,), (0, 1))}))
    assert leading(oh, ((0,), (0, 1))) == []


def test_leading_up_edges_on_partial_matching():
    oh = orient(TRIANGLE, frozenset({((0,), (0, 1)), ((1,), (1, 2))}))
    assert leading(oh, ((0,), (0, 1))) == [((1,), (1, 2))]


def test_leading_up_edges_rejects_down_edges():
    # Once the pair of (1,) is reversed, its edge points down.
    oh = hexagon_orientation()
    oh.up[CIRCLE.simplices.index((1,))] = -1
    assert leading(oh, ((0,), (0, 1))) == []


def test_bfs_component_on_hexagon():
    absorbed = bytearray(CIRCLE.n)
    oh = hexagon_orientation()
    comp = component(oh, (0,), absorbed)
    assert comp.dim == 1
    assert comp.forward == (((0,), (0, 1)), ((1,), (1, 2)))
    assert comp.backward == (((2,), (0, 2)),)
    assert len(component_edges(comp)) == 6
    # the reference counts (forward, backward, frontier) after each queue step
    ref = reference_bfs_component(
        hexagon_orientation(), CIRCLE.simplices.index((0,)), bytearray(CIRCLE.n), [-1] * CIRCLE.n
    )
    assert ref == (comp, ((2, 0, 1), (2, 1, 0)))
    # the reversed pair is unmatched, and every classified coface absorbed
    assert oh.up[CIRCLE.simplices.index((2,))] == -1
    assert [s for s, flag in zip(CIRCLE.simplices, absorbed) if flag] == [
        (0, 1), (0, 2), (1, 2)
    ]


def test_bfs_component_isolated_up_edge():
    oh = orient(CIRCLE, frozenset({((0,), (0, 1))}))
    comp = component(oh, (0,))
    assert comp.forward == (((0,), (0, 1)),)
    assert comp.backward == ()
    assert component_edges(comp) == {((0, 1), (0,)), ((0, 1), (1,))}
    assert oh.up[CIRCLE.simplices.index((0,))] == CIRCLE.simplices.index((0, 1))


def test_bfs_component_stops_at_absorbed_cofaces():
    absorbed = bytearray(CIRCLE.n)
    absorbed[CIRCLE.simplices.index((1, 2))] = 1
    comp = component(hexagon_orientation(), (0,), absorbed)
    assert comp.forward == (((0,), (0, 1)),)
    assert comp.backward == ()


def test_bfs_component_stays_in_one_interface():
    for K in [simplex_boundary(3)[0], rp2(), RANDOM_3D]:
        for comp in frontier_edges_matching(K).components:
            d = comp.dim
            assert len(comp.forward[0][1]) == d + 1
            for b, a in component_edges(comp):
                assert (len(a), len(b)) == (d, d + 1)


def frontier_complexes():
    """Sparse and dense random complexes in dims 1-4, and dunce-hat and RP2 wedges."""
    sparse = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=d + 8, n_facets=4 + 4 * d),
        st.integers(0, 2**32 - 1), st.integers(1, 4),
    )
    dense = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=d + 5, n_facets=40, connected=True),
        st.integers(0, 2**32 - 1), st.integers(1, 4),
    )
    wedges = st.builds(
        lambda base, copies: wedge(base(), 1, copies),
        st.sampled_from([dunce_hat, rp2]), st.integers(1, 8),
    )
    return st.one_of(sparse, dense, wedges)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(frontier_complexes())
def test_bfs_component_equals_the_reference(K):
    # Both searches run from the seeds frontier_edges_matching takes, each
    # on its own orientation, absorbed flags and kept array; after every
    # component the state they leave must agree as well as the component.
    # The reference still counts kept, reversed and frontier edges after
    # each queue step: every count keeps the ratio bound, the kept count
    # never falls, and the last count has an empty frontier and the
    # component's totals.
    mates = max_matching_mates(K)
    runs = [
        (OrientedHasse(K, [m if m > i else -1 for i, m in enumerate(mates)]),
         bytearray(K.n), [-1] * K.n)
        for _ in range(2)
    ]
    (oh, absorbed, kept), (ref_oh, ref_absorbed, ref_kept) = runs
    components = 0
    for b, a in enumerate(mates):
        if 0 <= a < b and not absorbed[b]:
            got = bfs_component(oh, a, absorbed, kept)
            want, trace = reference_bfs_component(ref_oh, a, ref_absorbed, ref_kept)
            for field in ("dim", "forward", "backward"):
                assert getattr(got, field) == getattr(want, field), (field, a)
            assert all(bound_holds(want.dim, *step) for step in trace), (a, trace)
            assert all(s[0] <= t[0] for s, t in zip(trace, trace[1:])), (a, trace)
            assert trace[-1] == (len(want.forward), len(want.backward), 0), (a, trace)
            assert oh.up == ref_oh.up and absorbed == ref_absorbed, a
            assert kept == ref_kept == [-1] * K.n, a
            components += 1
    assert components == len(frontier_edges_matching(K).components)


def test_frontier_on_circle():
    result = frontier_edges_matching(CIRCLE)
    assert len(result.morse.pairs) == 2
    assert critical_profile(CIRCLE, result.morse.pairs).counts == (1, 1)
    assert result.morse.acyclic
    assert result.source_matching_size == 3


def test_frontier_on_single_vertex():
    K = from_maximal_simplices([(5,)])
    result = frontier_edges_matching(K)
    assert len(result.morse.pairs) == 0
    assert critical_profile(K, result.morse.pairs).counts == (1,)
    assert result.components == ()


def test_frontier_on_full_triangle_attains_optimum():
    result = frontier_edges_matching(TRIANGLE)
    assert len(result.morse.pairs) == 3
    assert critical_profile(TRIANGLE, result.morse.pairs).counts == (1, 0, 0)


def test_frontier_up_edges_come_from_source_matching():
    for K in [CIRCLE, TRIANGLE, rp2(), dunce_hat(), simplex_boundary(3)[0]]:
        M = max_matching_pairs(K)
        result = frontier_edges_matching(K)
        assert result.morse.pairs <= M
        assert result.source_matching_size == len(M) == max_cardinality_matching(K)


def test_frontier_edge_partition_covers_every_hasse_edge():
    # No coface is classified twice, so component edges are disjoint Hasse
    # edges; the facet edges of the cofaces no component reached make up
    # the rest of the diagram.
    for K in [CIRCLE, TRIANGLE, rp2(), dunce_hat(), random_complex(3), RANDOM_3D]:
        result = frontier_edges_matching(K)
        hasse_edges = set(hasse(K))
        seen: set = set()
        absorbed: set = set()
        for comp in result.components:
            cofaces = [b for _, b in comp.forward + comp.backward]
            assert len(set(cofaces)) == len(cofaces)
            assert not absorbed & set(cofaces)
            absorbed |= set(cofaces)
            edges = component_edges(comp)
            assert edges <= hasse_edges
            assert not edges & seen
            seen |= edges
        rest = {
            (b, a)
            for b in K.simplices if b not in absorbed
            for a in facets_of(b)
        }
        assert not rest & seen
        assert seen | rest == hasse_edges


def test_frontier_components_have_disjoint_up_edges():
    for seed in range(8):
        K = random_complex(seed)
        result = frontier_edges_matching(K)
        seen: set = set()
        for comp in result.components:
            ups = set(comp.forward)
            assert not ups & seen
            seen |= ups


def test_frontier_is_acyclic_and_bounded_on_3d_and_4d_random_complexes():
    # In dimension 3 and up a candidate can close a cycle through kept
    # pairs still waiting in the queue, so a kept pair has to join the
    # cycle test as soon as it is classified.
    for dim in (3, 4):
        for seed in range(30):
            K = random_complex(
                seed, dim=dim, n_vertices=30, n_facets=60, connected=True
            )
            D = K.dim
            result = frontier_edges_matching(K)
            assert result.morse.acyclic, (dim, seed)
            kept = len(result.morse.pairs)
            source = result.source_matching_size
            assert (D * D + D + 1) * kept >= (D + 1) * source, (dim, seed)
            assert_component_bound(result)


def test_ratio_guarantee_exact_arithmetic():
    # (D*D + D + 1) * kept >= (D + 1) * source, checked in integers
    for seed in range(25):
        K = random_complex(seed, dim=3, n_vertices=8, n_facets=6)
        D = K.dim
        result = frontier_edges_matching(K)
        kept = len(result.morse.pairs)
        source = result.source_matching_size
        assert (D * D + D + 1) * kept >= (D + 1) * source, seed
        assert result.morse.acyclic


def test_components_respect_ratio_bound():
    complexes = [rp2(), dunce_hat()] + [random_complex(s) for s in range(10)]
    for K in complexes:
        assert_component_bound(frontier_edges_matching(K))


def test_component_subgraphs_are_acyclic():
    from helpers import has_directed_cycle

    for K in [CIRCLE, rp2(), dunce_hat(), RANDOM_3D]:
        result = frontier_edges_matching(K)
        for comp in result.components:
            adj: dict = {}
            for b, a in component_edges(comp):
                if (a, b) in result.morse.pairs:
                    adj.setdefault(a, []).append(b)
                else:
                    adj.setdefault(b, []).append(a)
            assert not has_directed_cycle(adj)


def test_frontier_profile_on_sphere():
    K, _ = simplex_boundary(3)
    result = frontier_edges_matching(K)
    prof = critical_profile(K, result.morse.pairs)
    assert result.morse.acyclic
    assert prof.total == K.n - 2 * len(result.morse.pairs)
    assert certify(K, result.morse.pairs).acyclic
