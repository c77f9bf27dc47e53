"""Coreduction and reduction heuristics, and the lazy pairs of certified matchings."""

import pytest
from hypothesis import given, settings, strategies as st

from morsematch import (
    MorseMatching,
    betti_gf2,
    certify,
    check_morse_inequalities,
    coreduction_matching,
    critical_profile,
    dunce_hat,
    euler_characteristic,
    from_maximal_simplices,
    frontier_edges_matching,
    optimal_morse_matching,
    random_complex,
    reduction_matching,
    rp2,
    simplex_boundary,
    wedge,
)
from morsematch.hasse import OrientedHasse
from helpers import (
    alternating_sum,
    max_matching_pairs,
    named_complexes,
    reference_coreduction_matching,
    reference_reduction_matching,
)

TRIANGLE = from_maximal_simplices([(0, 1, 2)])


def test_coreduction_on_full_triangle():
    result = coreduction_matching(TRIANGLE)
    assert result.acyclic
    assert critical_profile(TRIANGLE, result.pairs).counts == (1, 0, 0)
    # the smallest vertex unblocks the cascade and stays critical
    assert result.pairs == frozenset(
        {((1,), (0, 1)), ((2,), (0, 2)), ((1, 2), (0, 1, 2))}
    )


def test_coreduction_on_single_vertex():
    K = from_maximal_simplices([(4,)])
    result = coreduction_matching(K)
    assert result.pairs == frozenset()
    assert critical_profile(K, result.pairs).counts == (1,)


def test_coreduction_on_sphere_is_optimal():
    K, _ = simplex_boundary(3)
    result = coreduction_matching(K)
    assert critical_profile(K, result.pairs).counts == (1, 0, 1)


def test_reduction_on_full_triangle():
    result = reduction_matching(TRIANGLE)
    assert result.acyclic
    prof = critical_profile(TRIANGLE, result.pairs)
    assert alternating_sum(prof.counts) == 1
    assert prof.counts == (1, 0, 0)


def test_reduction_on_single_edge():
    K = from_maximal_simplices([(0, 1)])
    result = reduction_matching(K)
    assert critical_profile(K, result.pairs).counts == (1, 0)
    assert len(result.pairs) == 1


def test_reduction_on_dunce_hat_starts_with_a_critical_triangle():
    # no free edge exists, so one triangle must fall critical first
    K = dunce_hat()
    result = reduction_matching(K)
    prof = critical_profile(K, result.pairs)
    assert prof.counts[2] >= 1
    assert prof.counts == (1, 1, 1)


def test_coreduction_on_dunce_hat():
    K = dunce_hat()
    prof = critical_profile(K, coreduction_matching(K).pairs)
    assert prof.counts == (1, 1, 1)


def test_both_heuristics_reach_projective_plane_optimum():
    K = rp2()
    for algo in (coreduction_matching, reduction_matching):
        prof = critical_profile(K, algo(K).pairs)
        assert prof.counts == (1, 1, 1)


def test_outputs_certified_and_euler_consistent():
    corpus = list(named_complexes().values())
    corpus += [random_complex(seed) for seed in range(10)]
    for K in corpus:
        for algo in (coreduction_matching, reduction_matching):
            result = algo(K)
            assert result.acyclic
            prof = critical_profile(K, result.pairs)
            assert alternating_sum(prof.counts) == euler_characteristic(K)
            assert check_morse_inequalities(prof.counts, betti_gf2(K)).ok


def test_every_simplex_paired_or_critical_exactly_once():
    for seed in range(10):
        K = random_complex(seed, dim=3, n_vertices=9, n_facets=7)
        for algo in (coreduction_matching, reduction_matching):
            pairs = algo(K).pairs
            ends = [s for p in pairs for s in p]
            assert len(ends) == len(set(ends))
            prof = critical_profile(K, pairs)
            assert prof.total + len(ends) == K.n


def test_heuristics_are_deterministic():
    K = rp2()
    assert coreduction_matching(K).pairs == coreduction_matching(K).pairs
    assert reduction_matching(K).pairs == reduction_matching(K).pairs


def assert_kernel_matches_reference(K):
    for algo, ref in (
        (coreduction_matching, reference_coreduction_matching),
        (reduction_matching, reference_reduction_matching),
    ):
        assert algo(K)._ids[1] == ref(K)._ids[1], (algo.__name__, K)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
def test_kernel_matches_the_reference_loops_on_random_complexes(seed, dim, dense):
    size = {"n_vertices": 20, "n_facets": 200} if dense else {"n_vertices": dim + 5, "n_facets": 3 * dim}
    assert_kernel_matches_reference(random_complex(seed, dim=dim, **size))


def test_kernel_matches_the_reference_loops_on_wedges_and_spheres():
    for base in (dunce_hat(), rp2()):
        for copies in (1, 2, 7):
            assert_kernel_matches_reference(wedge(base, min(base.vertices), copies))
    for n in range(1, 7):
        assert_kernel_matches_reference(simplex_boundary(n)[0])


CERTIFIED = {
    "frontier": lambda K: frontier_edges_matching(K).morse,
    "coreduction": coreduction_matching,
    "reduction": reduction_matching,
    "oracle": lambda K: optimal_morse_matching(K, budget=300).matching,
    # certify's simplex-pair entry, on matchings cyclic on all three complexes below
    "max_matching": lambda K: certify(K, max_matching_pairs(K)),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_pairs_are_built_from_the_up_array_on_first_access(name, monkeypatch):
    built = []
    up_pairs = OrientedHasse.up_pairs
    monkeypatch.setattr(OrientedHasse, "up_pairs", lambda oh: built.append(1) or up_pairs(oh))
    cyclic = 0
    for K in (rp2(), dunce_hat(), random_complex(3, dim=3, n_vertices=9, n_facets=12)):
        mm = CERTIFIED[name](K)
        up = mm._ids[1]
        size = len(up) - up.count(-1)
        built.clear()
        assert len(mm) == size and not built
        pairs = mm.pairs
        assert pairs == frozenset(up_pairs(OrientedHasse(K, list(up))))
        assert mm.pairs is pairs and len(built) == 1
        assert len(mm) == len(mm.pairs) == size
        bare = MorseMatching(pairs, mm.acyclic, mm.witness)
        fresh = CERTIFIED[name](K)
        for x in (mm, fresh):
            assert x == bare and hash(x) == hash(bare) and repr(x) == repr(bare)
        cyclic += not mm.acyclic
    assert cyclic == (3 if name == "max_matching" else 0)
