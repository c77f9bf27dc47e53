"""Built-in complex families and the random generator."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from morsematch import generators
from morsematch import (
    amplified,
    betti_gf2,
    certify,
    critical_profile,
    dunce_hat,
    euler_characteristic,
    from_maximal_simplices,
    full_simplex,
    is_connected,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
)
from helpers import (
    facets_of,
    level,
    reference_component_roots,
    reference_random_complex,
    reference_simplex_boundary,
)


def test_simplex_boundary_smallest_case():
    K, matching = simplex_boundary(2)
    assert K.n == 6
    assert matching.acyclic
    assert critical_profile(K, matching.pairs).counts == (1, 1)


def test_simplex_boundary_sphere():
    K, matching = simplex_boundary(3)
    assert K.n == 14
    assert critical_profile(K, matching.pairs).counts == (1, 0, 1)
    matched = {s for p in matching.pairs for s in p}
    assert (1,) not in matched
    assert (2, 3, 4) not in matched


@pytest.mark.parametrize("n", range(2, 9))
def test_simplex_boundary_matching_is_acyclic(n):
    K, matching = simplex_boundary(n)
    assert matching.acyclic
    assert critical_profile(K, matching.pairs).total == 2
    assert K.n == 2 ** (n + 1) - 2


@pytest.mark.parametrize("n", range(1, 12))
def test_simplex_boundary_builds_the_complex_of_all_proper_faces(n):
    K, matching = simplex_boundary(n)
    R = reference_simplex_boundary(n)
    assert (K.simplices, K._offsets) == (R.simplices, R._offsets)
    assert (K.facet_ids, K.cofacet_ids, K.dim, K.n) == (R.facet_ids, R.cofacet_ids, R.dim, R.n)
    assert matching.acyclic
    assert critical_profile(K, matching).total == 2
    assert matching.pairs == certify(R, matching.pairs).pairs


def test_simplex_boundary_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least 1"):
        simplex_boundary(0)
    with pytest.raises(ValueError, match="must be non-negative"):
        full_simplex(-1)


def test_simplex_generators_refuse_past_the_cap_before_building(monkeypatch):
    # 2**41 faces would need terabytes; any step toward building them fails
    def build(*args):
        raise AssertionError("built past the cap")

    for name in ("combinations", "SimplicialComplex", "from_maximal_simplices"):
        monkeypatch.setattr(generators, name, build)
    # 2**(10**9 + 1) alone would take 125 MB: the cap is decided on n
    for n in (16, 40, 10**9):
        tracemalloc.start()
        with pytest.raises(ValueError, match=f"boundary of the {n}-simplex would be over the cap of 65536 simplices"):
            simplex_boundary(n)
        with pytest.raises(ValueError, match=f"solid {n}-simplex would be over the cap of 65536 simplices"):
            full_simplex(n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20


def test_simplex_cap_admits_the_eleven_simplex_boundary():
    assert simplex_boundary(11)[0].n == 4094


def test_full_simplex_counts():
    assert full_simplex(0).n == 1
    assert full_simplex(2).n == 7
    assert full_simplex(3).n == 15
    assert euler_characteristic(full_simplex(4)) == 1


def test_rp2_triangulation():
    K = rp2()
    assert tuple(len(level(K, d)) for d in range(3)) == (6, 15, 10)
    assert euler_characteristic(K) == 1
    assert betti_gf2(K) == (1, 1, 1)
    assert is_connected(K)


def test_dunce_hat_triangulation():
    K = dunce_hat()
    assert tuple(len(level(K, d)) for d in range(3)) == (8, 24, 17)
    assert euler_characteristic(K) == 1
    assert betti_gf2(K) == (1, 0, 0)


def test_dunce_hat_has_no_free_edge():
    K = dunce_hat()
    for e in range(K.offset(1), K.offset(2)):
        assert len(K.cofacet_ids[e]) != 1


def test_wedge_size_and_homology():
    K = dunce_hat()
    W = wedge(K, 1, 3)
    assert W.n == (K.n - 1) * 3 + 1
    assert betti_gf2(W) == (1, 0, 0)
    assert is_connected(W)


def test_wedge_of_circles():
    circle = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
    W = wedge(circle, 0, 2)
    assert W.n == 11
    assert betti_gf2(W) == (1, 2)
    assert wedge(circle, 0, 6).n == 31


def test_wedge_single_copy_is_identity():
    K = rp2()
    assert wedge(K, 1, 1) == K


def test_wedge_refuses_past_the_cap_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("built past the cap")

    hat = dunce_hat()
    monkeypatch.setattr(generators, "from_maximal_simplices", build)
    # 48 * 1365 + 1 = 65 521 simplices fit; one copy more is 65 569.
    with pytest.raises(ValueError, match="wedge of 1366 copies would be over the cap of 65536 simplices"):
        wedge(hat, 1, 1366)
    with pytest.raises(AssertionError, match="built past the cap"):
        wedge(hat, 1, 1365)


def test_wedge_input_checks():
    K = rp2()
    with pytest.raises(ValueError, match="not a vertex"):
        wedge(K, 99, 2)
    with pytest.raises(ValueError, match="at least 1"):
        wedge(K, 1, 0)
    with pytest.raises(ValueError, match="c must be at least 1"):
        amplified(K, 1, 0)


def test_amplified_grows_geometrically():
    edge = from_maximal_simplices([(0, 1)])
    A = amplified(edge, 0, 2)
    assert A.n == 7
    assert len(A.facets()) == 3


def test_amplified_respects_cap(monkeypatch):
    def build(*args):
        raise AssertionError("built past the cap")

    hat = dunce_hat()
    monkeypatch.setattr(generators, "from_maximal_simplices", build)
    # The dunce hat has 49 simplices: 49**2 copies would be 115 249.
    with pytest.raises(ValueError, match="wedge of 2401 copies would be over the cap of 65536 simplices"):
        amplified(hat, 1, 3)


def test_amplified_decides_the_cap_before_the_power():
    # 31**2999 has over 4300 digits, more than an int may print; the cap
    # is decided without building it and the message names the cap.
    with pytest.raises(ValueError, match="over the cap of 65536 simplices"):
        amplified(rp2(), 1, 3000)
    # RP2 has 31 simplices: 31**3 copies would be 893 731, 31**2 fit.
    with pytest.raises(ValueError, match="wedge of 29791 copies would be over the cap of 65536 simplices"):
        amplified(rp2(), 1, 4)
    assert amplified(rp2(), 1, 3).n == 30 * 31**2 + 1 == 28831
    assert amplified(rp2(), 1, 2).n == 30 * 31 + 1
    assert amplified(from_maximal_simplices([(0,)]), 0, 3000).n == 1


def test_random_complex_is_deterministic():
    assert random_complex(7) == random_complex(7)
    assert random_complex(7) != random_complex(8)


def test_random_complex_shape_controls():
    K = random_complex(3, dim=3, n_vertices=9, n_facets=5)
    assert K.dim <= 3
    assert len(K.vertices) <= 9
    conn = random_complex(3, connected=True)
    assert is_connected(conn)


def test_random_complex_argument_validation():
    with pytest.raises(ValueError, match="dim must be"):
        random_complex(0, dim=5)
    with pytest.raises(ValueError, match="at least dim\\+1"):
        random_complex(0, dim=3, n_vertices=2)
    with pytest.raises(ValueError, match="at least one facet"):
        random_complex(0, n_facets=0)
    # more facets than the closure cap are refused before any is drawn
    with pytest.raises(ValueError, match="at most 1048576"):
        random_complex(0, n_facets=10**12)


def test_random_complexes_are_valid_complexes():
    for seed in range(20):
        K = random_complex(seed)
        for s in K:
            if len(s) > 1:
                for f in facets_of(s):
                    assert f in K


def test_random_complex_links_many_components_in_root_order():
    loose = random_complex(5, dim=2, n_vertices=400, n_facets=60)
    assert len(reference_component_roots(loose)) == 41
    assert not is_connected(loose)
    K = random_complex(5, dim=2, n_vertices=400, n_facets=60, connected=True)
    assert K.simplices == reference_random_complex(5, 2, 400, 60).simplices
    assert is_connected(K)
    assert betti_gf2(K)[0] == 1


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.one_of(
        st.tuples(st.integers(5, 12), st.integers(1, 30)),
        st.tuples(st.integers(100, 400), st.integers(10, 80)),
    ),
)
def test_random_complex_links_components_as_on_their_roots(seed, dim, shape):
    # Small dense inputs and sparse ones of many components; the union-find
    # must link exactly as the search over the closed complex did, and
    # is_connected must agree with the frozen component count.
    n_vertices, n_facets = shape
    K = random_complex(seed, dim, n_vertices, n_facets, connected=True)
    assert K.simplices == reference_random_complex(seed, dim, n_vertices, n_facets).simplices
    assert is_connected(K)
    loose = random_complex(seed, dim, n_vertices, n_facets)
    roots = reference_component_roots(loose)
    assert is_connected(loose) == (len(roots) == 1)
    assert betti_gf2(loose)[0] == len(roots)
