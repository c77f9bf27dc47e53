"""Exact search: optimal matchings, collapsibility, erasability."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import morsematch.oracle
from morsematch import (
    betti_gf2,
    certify,
    coreduction_matching,
    critical_profile,
    dunce_hat,
    erasability,
    from_maximal_simplices,
    frontier_edges_matching,
    full_simplex,
    is_collapsible,
    optimal_morse_matching,
    random_complex,
    reduction_matching,
    rp2,
    simplex_boundary,
    wedge,
)
from morsematch.oracle import _core_components, _top_core
from helpers import (
    brute_optimal_pairs,
    dunce_hat_with_tetrahedron,
    reference_core_components,
    reference_optimal_morse_matching,
    reference_top_core,
    replay_collapses,
)

TRIANGLE = from_maximal_simplices([(0, 1, 2)])


def test_optimum_on_sphere():
    K, _ = simplex_boundary(3)
    result = optimal_morse_matching(K)
    assert result.optimal
    assert critical_profile(K, result.matching.pairs).total == 2
    assert result.matching.acyclic


def test_optimum_on_projective_plane():
    K = rp2()
    result = optimal_morse_matching(K)
    assert result.optimal
    prof = critical_profile(K, result.matching.pairs)
    assert prof.counts == (1, 1, 1)
    assert prof.total == 3


def test_optimum_on_single_vertex():
    K = from_maximal_simplices([(0,)])
    result = optimal_morse_matching(K)
    assert result.optimal
    assert len(result.matching.pairs) == 0
    assert critical_profile(K, result.matching.pairs).counts == (1,)


def test_optimum_on_full_triangle():
    result = optimal_morse_matching(TRIANGLE)
    assert result.optimal
    assert len(result.matching.pairs) == 3
    assert result.pair_upper_bound == 3


def test_size_limit_without_budget():
    K = random_complex(0, dim=2, n_vertices=12, n_facets=14)
    assert K.n > 40
    with pytest.raises(ValueError, match="over the no-budget limit"):
        optimal_morse_matching(K)
    result = optimal_morse_matching(K, budget=2_000)
    assert result.matching.acyclic


@pytest.mark.parametrize("search", [optimal_morse_matching, is_collapsible, erasability])
def test_a_negative_budget_is_refused(search):
    # as the CLI refuses one; a zero budget is still a budget
    K = dunce_hat()
    with pytest.raises(ValueError, match="budget must be non-negative or None, got -1"):
        search(K, budget=-1)
    search(K, budget=0)


def test_budget_exhaustion_reports_honestly():
    K = dunce_hat_with_tetrahedron()
    result = optimal_morse_matching(K, budget=5_000)
    assert not result.optimal
    assert result.nodes > 5_000
    assert result.matching.acyclic
    # the incumbent still comes from the heuristic seed
    assert critical_profile(K, result.matching.pairs).total == 3


def _search_outcome(result):
    return result.nodes, result.optimal, result.pair_upper_bound, result.matching.pairs


def test_budgeted_search_deeper_than_the_recursion_limit():
    # one search level per simplex: 3921 levels, more than Python's
    # default recursion limit of 1000
    K = wedge(dunce_hat_with_tetrahedron(), 1, 70)
    assert K.n == 3921 > sys.getrecursionlimit()
    result = optimal_morse_matching(K, budget=3000)
    assert not result.optimal
    assert result.nodes == 3001
    assert result.matching.acyclic
    assert len(result.matching.pairs) <= result.pair_upper_bound
    want = reference_optimal_morse_matching(K, budget=3000)
    assert _search_outcome(result) == _search_outcome(want)


@pytest.mark.parametrize("hats", [1, 8, 120])
def test_dunce_hats_prove_optimal_at_the_root(hats):
    # The homology bound alone sits one pair per hat above the optimum;
    # one core component per hat with beta_2 = 0 closes it.  One copy is
    # dunce_hat() itself.
    K = wedge(dunce_hat(), 1, hats)
    seed = max((coreduction_matching(K), reduction_matching(K)), key=len)
    result = optimal_morse_matching(K, budget=0)
    assert result.optimal
    assert result.nodes == 0
    assert result.pair_upper_bound == (K.n - 1) // 2 - hats
    assert result.matching.pairs == seed.pairs
    assert critical_profile(K, result.matching.pairs).total == 1 + 2 * hats


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3), st.integers(1, 7))
def test_bound_is_never_below_the_brute_force_optimum(seed, dim, extra, n_facets):
    K = random_complex(seed, dim=dim, n_vertices=dim + 1 + extra, n_facets=n_facets)
    result = optimal_morse_matching(K, budget=0)
    assert result.pair_upper_bound >= brute_optimal_pairs(K.simplices)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 6), st.integers(1, 30))
def test_simplex_count_and_betti_sum_have_one_parity(seed, dim, extra, n_facets):
    # Over GF(2), sum(beta) = chi = n (mod 2), so the oracle's critical floor
    # sum(beta) + 2 * max(0, k - beta_D) leaves an even number to halve into pairs.
    K = random_complex(seed, dim=dim, n_vertices=dim + 1 + extra, n_facets=n_facets)
    assert (K.n - sum(betti_gf2(K))) % 2 == 0


@pytest.mark.parametrize("base", [dunce_hat, rp2])
@pytest.mark.parametrize("copies", [1, 2, 7])
def test_wedges_have_one_parity_of_simplex_count_and_betti_sum(base, copies):
    K = wedge(base(), 1, copies)
    assert (K.n - sum(betti_gf2(K))) % 2 == 0


HAT_EDGES = [f for t in dunce_hat().facets() for f in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.lists(
    st.tuples(st.sampled_from(["edge", "fan", "flap"]), st.integers(0, len(HAT_EDGES) - 1)),
    min_size=1, max_size=3,
))
def test_bound_holds_on_dunce_hats_with_pendants(pendants):
    # A pendant edge or triangle on a vertex, or a triangle on an edge,
    # keeps the hat contractible.  Then an optimal matching leaves one
    # critical simplex when the complex is collapsible and at least three
    # otherwise, which is_collapsible decides by a search of its own.
    facets = list(dunce_hat().facets())
    for j, (kind, e) in enumerate(pendants):
        a, b = HAT_EDGES[e]
        new = 20 + 2 * j
        facets.append({"edge": (a, new), "fan": (a, new, new + 1), "flap": (a, b, new)}[kind])
    K = from_maximal_simplices(facets)
    assert betti_gf2(K) == (1, 0, 0)
    optimum = (K.n - (1 if is_collapsible(K, budget=None).collapsible else 3)) // 2
    result = optimal_morse_matching(K, budget=0)
    assert result.pair_upper_bound >= optimum
    assert result.optimal and result.nodes == 0


def test_oracle_never_loses_to_other_algorithms():
    for seed in range(12):
        K = random_complex(seed, dim=2, n_vertices=7, n_facets=4)
        best = optimal_morse_matching(K, budget=200_000)
        if not best.optimal:
            continue
        top = len(best.matching.pairs)
        assert top >= len(frontier_edges_matching(K).morse.pairs)
        assert top >= len(coreduction_matching(K).pairs)
        assert top >= len(reduction_matching(K).pairs)
        assert top <= best.pair_upper_bound


def test_oracle_finds_the_brute_force_optimum(monkeypatch):
    inputs = [
        random_complex(seed, dim=dim, n_vertices=4 + dim, n_facets=1 + seed % 5)
        for dim in (1, 2, 3)
        for seed in range(14)
    ]
    want = [brute_optimal_pairs(K.simplices) for K in inputs]
    # The second pass starts the search from an empty incumbent, so the
    # branch and bound itself must reach the optimum: a bound that prunes
    # too much, or a cycle test that refuses a good pair, would show.
    for starved in (False, True):
        if starved:
            for name in ("coreduction_matching", "reduction_matching"):
                monkeypatch.setattr(morsematch.oracle, name, lambda K: certify(K, []))
        for K, top in zip(inputs, want):
            result = optimal_morse_matching(K)
            assert result.optimal, (starved, K.n)
            assert len(result.matching.pairs) == top, (starved, K.n)


ORACLE_INPUTS = st.one_of(
    st.builds(
        lambda seed, dim, extra, n_facets: random_complex(
            seed, dim=dim, n_vertices=dim + 2 + extra, n_facets=n_facets
        ),
        st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 4), st.integers(2, 10),
    ),
    st.sampled_from([dunce_hat, rp2]).map(lambda base: base()),
    st.integers(1, 3).map(lambda copies: wedge(dunce_hat_with_tetrahedron(), 1, copies)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(ORACLE_INPUTS)
def test_search_matches_the_frozen_frame_loop(K):
    # Same nodes, verdict, bound and matching as the loop on hand-encoded
    # frames, at every budget.  Random complexes are proven optimal at the
    # root from the greedy seed, so a second pass starts them from an
    # empty incumbent, where the search itself has to run.
    budgets = (0, 1, 50, 2000) + ((None,) if K.n <= morsematch.oracle.SIZE_LIMIT else ())
    for starved in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if starved:
                for module in (morsematch.oracle, helpers):
                    for name in ("coreduction_matching", "reduction_matching"):
                        mp.setattr(module, name, lambda K: certify(K, []))
            for budget in budgets:
                got = optimal_morse_matching(K, budget)
                want = reference_optimal_morse_matching(K, budget)
                assert _search_outcome(got) == _search_outcome(want), (K.n, budget, starved)


TOP_CORE_INPUTS = st.one_of(
    st.builds(
        lambda seed, dim, k: random_complex(seed, dim=dim, n_vertices=dim + 5, n_facets=k),
        st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 14),
    ),
    st.builds(
        lambda base, copies: wedge(base(), 1, copies),
        st.sampled_from([dunce_hat, rp2]), st.integers(1, 4),
    ),
    st.just(dunce_hat_with_tetrahedron()),
    st.integers(2, 6).map(lambda k: from_maximal_simplices([(v,) for v in range(k)])),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(TOP_CORE_INPUTS, st.data())
def test_top_core_equals_the_frozen_queue_loop(K, data):
    # dead is any set of top simplices, given as ascending ids as
    # erasability gives them; the oracle's floor counts the components
    # of the core with nothing dead.
    dead = tuple(sorted(data.draw(st.sets(st.sampled_from(range(K.offset(K.dim), K.n))))))
    assert _top_core(K, dead) == reference_top_core(K, dead)
    assert _top_core(K) == reference_top_core(K)
    assert _core_components(K) == reference_core_components(K)


def test_collapsible_full_simplices():
    for n in range(0, 5):
        result = is_collapsible(full_simplex(n))
        assert result.collapsible is True
        assert not result.indeterminate
        assert bool(result)
    # a single vertex is collapsed already, without a search
    point = is_collapsible(full_simplex(0))
    assert point.nodes == 0 and point.sequence == ()


def test_collapse_witness_replays():
    K = full_simplex(3)
    result = is_collapsible(K)
    remaining = replay_collapses(K.simplices, result.sequence)
    assert len(remaining) == 1
    (survivor,) = remaining
    assert len(survivor) == 1


def test_dunce_hat_is_not_collapsible():
    result = is_collapsible(dunce_hat())
    assert result.collapsible is False
    assert result.sequence is None
    # refuted before any search: no free face exists at all
    assert result.nodes == 0


def test_circle_and_sphere_are_not_collapsible():
    circle = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
    assert is_collapsible(circle).collapsible is False
    sphere, _ = simplex_boundary(3)
    assert is_collapsible(sphere).collapsible is False
    # RP2 with a pendant edge has an odd count and a free face, so only its
    # homology (1, 1, 1) refutes it, before any node is searched
    pendant = from_maximal_simplices(rp2().facets() + ((0, 6),))
    assert pendant.n == 33 and betti_gf2(pendant) == (1, 1, 1)
    result = is_collapsible(pendant)
    assert result.collapsible is False and result.nodes == 0


def test_even_simplex_count_refutes_collapsibility_immediately():
    # collapses remove two simplices per step, so the count must be odd
    K = from_maximal_simplices([(0, 1, 2), (2, 3, 4), (0, 3)])
    assert K.n == 14
    result = is_collapsible(K)
    assert result.collapsible is False
    assert result.nodes == 0


def test_collapse_sequence_longer_than_the_recursion_limit():
    for edges in (1500, 3000):
        path = from_maximal_simplices([(i, i + 1) for i in range(edges)])
        assert path.n == 2 * edges + 1
        result = is_collapsible(path)
        assert result.collapsible is True
        assert len(result.sequence) == edges
        assert len(replay_collapses(path.simplices, result.sequence)) == 1


def test_collapsibility_indeterminate_under_tiny_budget():
    K = full_simplex(3)
    starved = is_collapsible(K, budget=1)
    assert starved.indeterminate
    assert starved.collapsible is None
    with pytest.raises(ValueError, match="indeterminate"):
        bool(starved)


def test_erasability_of_full_triangle_is_zero():
    result = erasability(TRIANGLE)
    assert result.er == 0
    assert result.witness == ()
    assert not result.indeterminate


def test_erasability_of_sphere_is_one():
    K, _ = simplex_boundary(3)
    result = erasability(K)
    assert result.er == 1
    assert len(result.witness) == 1


def test_erasability_of_dunce_hat_is_one():
    result = erasability(dunce_hat())
    assert result.er == 1
    assert result.tested == 2
    assert result.lower == result.upper == 1


def test_erasability_requires_dimension_two():
    K = from_maximal_simplices([(0, 1)])
    with pytest.raises(ValueError, match="needs a 2-complex"):
        erasability(K)


def test_erasability_budget_gives_bracket():
    result = erasability(rp2(), budget=1)
    assert result.indeterminate
    assert result.er is None
    assert result.lower <= result.upper


def test_collapsible_iff_single_critical_cell():
    # on instances the oracle settles, one critical cell means collapsible
    for seed in range(10):
        K = random_complex(seed, dim=2, n_vertices=6, n_facets=3)
        best = optimal_morse_matching(K, budget=300_000)
        verdict = is_collapsible(K, budget=400_000)
        if not best.optimal or verdict.indeterminate:
            continue
        single = critical_profile(K, best.matching.pairs).total == 1
        assert single == verdict.collapsible, seed


def test_collapsibility_memo_cap_keeps_verdicts(monkeypatch):
    D = list(dunce_hat().facets())
    inputs = []
    for k in (1, 2):
        fan = [(1, 20 + i, 21 + i) for i in range(k)]
        inputs += [D + fan, D + fan + [(2, 41, 42)]]
    inputs += [[(0, 1 + i, 2 + i) for i in range(k)] + [(1, 50, 51)] for k in (2, 4, 8)]
    complexes = [from_maximal_simplices(facets) for facets in inputs]
    complexes += [random_complex(seed, dim=2, n_vertices=6, n_facets=3) for seed in range(10)]
    full = [is_collapsible(K) for K in complexes]
    # 200 bytes hold three dead ends of a dunce hat with its fan
    monkeypatch.setattr(morsematch.oracle, "COLLAPSE_MEMO_BYTES", 200)
    capped = [is_collapsible(K) for K in complexes]
    assert any(c.nodes > f.nodes for f, c in zip(full, capped))
    for K, f, c in zip(complexes, full, capped):
        assert not c.indeterminate
        assert c.collapsible is f.collapsible
        assert c.nodes >= f.nodes
        if c.collapsible:
            assert len(replay_collapses(K.simplices, c.sequence)) == 1
