"""Acyclicity certification, critical profiles, canonicalization, collapses."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from morsematch import (
    InvalidMatching,
    MorseMatching,
    SimplicialComplex,
    canonical_key,
    canonicalize_single_critical_vertex,
    certify,
    check_morse_inequalities,
    collapse_sequence,
    coreduction_matching,
    critical_profile,
    dunce_hat,
    euler_characteristic,
    from_maximal_simplices,
    frontier_edges_matching,
    full_simplex,
    optimal_morse_matching,
    random_complex,
    reduction_matching,
    rp2,
    simplex_boundary,
    wedge,
)
from morsematch.hasse import OrientedHasse, orient
from morsematch.morse import closes_cycle, is_acyclic
from helpers import (
    all_algorithms,
    alternating_sum,
    betti_numpy,
    covering_pairs,
    euler,
    facets_of,
    has_directed_cycle,
    max_matching_pairs,
    named_complexes,
    oriented_adjacency,
    profile_of,
    reference_canonicalize_single_critical_vertex,
    reference_collapse_sequence,
    reference_gamma_graph,
    reference_morse_inequalities,
    replay_collapses,
)

CIRCLE = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
TRIANGLE = from_maximal_simplices([(0, 1, 2)])
EDGE = from_maximal_simplices([(0, 1)])
HEXAGON_MATCHING = frozenset({((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))})


def test_empty_matching_is_acyclic():
    for K in named_complexes().values():
        assert certify(K, frozenset()).acyclic


def test_is_acyclic_on_oriented_hasse():
    from morsematch.hasse import orient

    ok, witness = is_acyclic(orient(CIRCLE, frozenset()))
    assert ok and witness is None
    ok, witness = is_acyclic(orient(CIRCLE, HEXAGON_MATCHING))
    assert not ok and len(witness) == 6


def test_is_acyclic_rejects_an_up_entry_past_the_last_simplex():
    up = [-1] * TRIANGLE.n
    up[0] = TRIANGLE.n + 5
    with pytest.raises(ValueError, match=re.escape("face id 0 has up entry 12")):
        is_acyclic(OrientedHasse(TRIANGLE, up))


def test_is_acyclic_rejects_a_negative_up_entry_other_than_minus_one():
    up = [-1] * TRIANGLE.n
    up[0] = -2
    with pytest.raises(ValueError, match=re.escape("face id 0 has up entry -2")):
        is_acyclic(OrientedHasse(TRIANGLE, up))


def test_certify_rejects_an_up_entry_that_is_no_int():
    # vertex 0 matched up to the edge is sound; the bad entry comes later or first
    K = full_simplex(1)
    cases = {
        "face id 0 has up entry 2.0": [2.0, -1, -1],
        "face id 2 has up entry None": [2, -1, None],
        "face id 0 has up entry '1'": ["1", -1, -1],
    }
    for message, up in cases.items():
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            certify(K, OrientedHasse(K, up))
        assert not isinstance(exc.value, InvalidMatching)


def test_certify_reports_a_simplex_that_is_no_tuple_as_unknown():
    # a list is unhashable and no simplex: unknown, in pair order, each time it appears
    K = full_simplex(1)
    with pytest.raises(InvalidMatching) as exc:
        certify(K, [([0], [0, 1])])
    assert exc.value.describe(repr) == [
        "pair 1: unknown simplex [0]",
        "pair 1: unknown simplex [0, 1]",
    ]
    with pytest.raises(InvalidMatching) as exc:
        certify(K, [((0,), (0, 1)), ([1], (0, 1)), ([1], (1,))])
    assert exc.value.describe(repr) == [
        "pair 2: unknown simplex [1]",
        "pair 2: simplex (0, 1) matched twice",
        "pair 3: unknown simplex [1]",
    ]


def test_is_acyclic_rejects_a_coface_matched_up_to_a_face():
    # the triangle's entry names vertex 0: a simplex id, but no matching
    up = [-1] * TRIANGLE.n
    up[TRIANGLE.n - 1] = 0
    with pytest.raises(InvalidMatching, match="not a covering pair"):
        is_acyclic(OrientedHasse(TRIANGLE, up))


def test_sphere_pairing_toward_one_vertex_is_acyclic():
    K, matching = simplex_boundary(3)
    assert matching.acyclic
    assert certify(K, matching.pairs).acyclic
    assert matching.witness is None


def test_perfect_circle_matching_is_cyclic_with_hexagon_witness():
    result = certify(CIRCLE, HEXAGON_MATCHING)
    assert not result.acyclic
    witness = result.witness
    assert len(witness) == 6
    # alternating dimensions, starting at the smallest vertex
    assert witness[0] == (0,)
    assert [len(s) for s in witness] == [1, 2, 1, 2, 1, 2]
    assert len(set(witness)) == 6
    # consecutive up then down steps stay inside the 1-interface
    for i in range(0, 6, 2):
        assert (witness[i], witness[i + 1]) in HEXAGON_MATCHING


def _random_matchings():
    """Seeded partial and maximum matchings on 1-D to 4-D random complexes."""
    for dim in (1, 2, 3, 4):
        for seed in range(25):
            K = random_complex(seed, dim=dim, n_vertices=5 + 2 * dim, n_facets=4 + 3 * dim)
            edges = covering_pairs(K.simplices)
            rnd = random.Random(seed)
            rnd.shuffle(edges)
            used: set = set()
            pairs = []
            for a, b in edges:
                if a not in used and b not in used and rnd.random() < 0.8:
                    used.update((a, b))
                    pairs.append((a, b))
            yield K, pairs
            yield K, max_matching_pairs(K)


def test_is_acyclic_matches_whole_graph_search():
    matchings = [
        (CIRCLE, frozenset()),
        (CIRCLE, HEXAGON_MATCHING),
        (TRIANGLE, frozenset({((0, 1), (0, 1, 2)), ((0,), (0, 2))})),
        *_random_matchings(),
    ]
    cyclic = 0
    for K, pairs in matchings:
        result = certify(K, pairs)
        assert result.acyclic == (not has_directed_cycle(oriented_adjacency(K.simplices, pairs)))
        if result.acyclic:
            assert result.witness is None
            continue
        cyclic += 1
        # An alternating cycle of the oriented diagram: up along a matched
        # pair, down along an unmatched covering edge, back to its start,
        # which is its smallest lower simplex.
        w = result.witness
        matched = set(pairs)
        assert len(w) >= 6 and len(w) % 2 == 0 and len(set(w)) == len(w)
        for i in range(0, len(w), 2):
            low, high, nxt = w[i], w[i + 1], w[(i + 2) % len(w)]
            assert (low, high) in matched
            assert nxt in facets_of(high) and (nxt, high) not in matched
        assert w[0] == min(w[::2], key=canonical_key)
    assert cyclic > len(matchings) // 2, (cyclic, len(matchings))


def test_id_entry_still_validates():
    # The package's own algorithms hand certify an up array of ids; it
    # must still reject a non-covering pair and a simplex used twice.
    i = {s: x for x, s in enumerate(CIRCLE.simplices)}
    bad = {
        "not a covering pair": {i[(0,)]: i[(1, 2)]},
        "simplex (0, 1) matched twice": {i[(0,)]: i[(0, 1)], i[(1,)]: i[(0, 1)]},
    }
    for message, up in bad.items():
        oh = OrientedHasse(CIRCLE, [up.get(x, -1) for x in range(CIRCLE.n)])
        with pytest.raises(InvalidMatching, match=re.escape(message)):
            certify(CIRCLE, oh)
    # a simplex matched both as a face and as a coface
    K = TRIANGLE
    up = [-1] * K.n
    up[K.simplices.index((0,))] = K.simplices.index((0, 1))
    up[K.simplices.index((0, 1))] = K.simplices.index((0, 1, 2))
    with pytest.raises(InvalidMatching, match="matched twice"):
        certify(K, OrientedHasse(K, up))
    with pytest.raises(ValueError, match="another complex"):
        certify(TRIANGLE, OrientedHasse(CIRCLE, [-1] * CIRCLE.n))


def test_closes_cycle_matches_whole_graph_search():
    # Grow random acyclic matchings one free covering pair at a time; the
    # walk must agree with a cycle search over the whole oriented diagram.
    checks = positives = 0
    for seed in range(30):
        for dim in (2, 3):
            K = random_complex(seed, dim=dim, n_vertices=7, n_facets=6)
            candidates = covering_pairs(K.simplices)
            random.Random(seed).shuffle(candidates)
            up = [-1] * K.n
            matched: set = set()
            pairs: list = []
            for a, b in candidates:
                if a in matched or b in matched:
                    continue
                naive = has_directed_cycle(
                    oriented_adjacency(K.simplices, pairs + [(a, b)])
                )
                i, j = K.simplices.index(a), K.simplices.index(b)
                assert closes_cycle(up, K.facet_ids, i, j) == naive, (seed, a, b)
                checks += 1
                positives += naive
                if not naive:
                    up[i] = j
                    matched.update((a, b))
                    pairs.append((a, b))
    assert checks > 600 and positives > 30, (checks, positives)


def test_critical_profile_counts_unmatched():
    K, matching = simplex_boundary(3)
    assert critical_profile(K, matching.pairs).counts == (1, 0, 1)
    assert critical_profile(K, frozenset()).counts == (4, 6, 4)
    assert critical_profile(EDGE, frozenset({((1,), (0, 1))})).counts == (1, 0)


def test_critical_profile_rejects_pairs_that_are_no_matching_on_K():
    # Counted pair by pair, these once gave (2, 1, 1): Euler sum 2 against
    # 1, and criticals + 2 * pairs = 8 against n = 7.
    with pytest.raises(InvalidMatching, match=re.escape("simplex (0,) matched twice")):
        critical_profile(TRIANGLE, [((0,), (0, 1)), ((0,), (0, 2))])
    with pytest.raises(InvalidMatching, match=re.escape("unknown simplex (2, 9)")):
        critical_profile(TRIANGLE, [((0,), (0, 1)), ((2,), (2, 9))])


def test_critical_simplices_of_sphere_pairing():
    K, matching = simplex_boundary(3)
    prof = critical_profile(K, matching.pairs)
    assert prof.total == 2
    matched = {s for p in matching.pairs for s in p}
    critical = [s for s in K if s not in matched]
    assert critical == [(1,), (2, 3, 4)]


def test_morse_inequalities_pass_and_fail():
    assert check_morse_inequalities((1, 0, 1), (1, 0, 1)).ok
    assert check_morse_inequalities((1, 1, 1), (1, 1, 1)).ok
    report = check_morse_inequalities((1, 0, 0), (1, 1, 0))
    assert not report.ok
    assert 1 in report.alternating_failures
    assert report.pointwise_failures == (1,)


# The gamma graph that canonicalization spans is built only in the test
# helpers; the package grows its spanning tree on ids without it.
def test_gamma_graph_with_empty_matching_is_full_skeleton():
    g = reference_gamma_graph(TRIANGLE, frozenset())
    assert g == {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def test_gamma_graph_drops_edges_matched_to_triangles():
    g = reference_gamma_graph(TRIANGLE, frozenset({((0, 1), (0, 1, 2))}))
    edges = {frozenset((a, b)) for a, nbrs in g.items() for b in nbrs}
    assert edges == {frozenset((0, 2)), frozenset((1, 2))}


def test_gamma_graph_requires_connected_complex():
    K = from_maximal_simplices([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected complex required"):
        reference_gamma_graph(K, frozenset())


def test_gamma_graph_stays_connected_under_acyclic_matchings():
    for seed in range(12):
        K = random_complex(seed, connected=True)
        matching = coreduction_matching(K)
        g = reference_gamma_graph(K, matching.pairs)
        seen = {K.vertices[0]}
        stack = [K.vertices[0]]
        while stack:
            for w in g[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == len(K.vertices), seed


def test_canonicalize_edge_complex():
    result = canonicalize_single_critical_vertex(EDGE, certify(EDGE, frozenset()), 0)
    assert result.pairs == frozenset({((1,), (0, 1))})
    assert critical_profile(EDGE, result.pairs).counts == (1, 0)


def test_canonicalize_already_canonical_is_unchanged():
    K, matching = simplex_boundary(3)
    result = canonicalize_single_critical_vertex(K, matching, 1)
    assert result.pairs == matching.pairs


def test_canonicalize_profile_contract_on_random_complexes():
    for seed in range(15):
        K = random_complex(seed, connected=True)
        matching = frontier_edges_matching(K).morse
        before = critical_profile(K, matching.pairs)
        after_m = canonicalize_single_critical_vertex(K, matching, K.vertices[0])
        after = critical_profile(K, after_m.pairs)
        assert after.counts[0] == 1
        assert after.total == before.total - 2 * (before.counts[0] - 1)
        assert after.counts[2:] == before.counts[2:]
        assert after_m.acyclic


def test_canonicalize_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown simplex"):
        canonicalize_single_critical_vertex(EDGE, certify(EDGE, frozenset()), 9)
    cyclic = certify(CIRCLE, HEXAGON_MATCHING)
    with pytest.raises(ValueError, match="matching is not acyclic"):
        canonicalize_single_critical_vertex(CIRCLE, cyclic, 0)
    # A bare matching that claims to be acyclic is certified on K first.
    claimed = MorseMatching(HEXAGON_MATCHING, True)
    with pytest.raises(ValueError, match="matching is not acyclic"):
        canonicalize_single_critical_vertex(CIRCLE, claimed, 0)


def test_canonicalize_refuses_a_disconnected_complex():
    # Two components: vertex 0 cannot reach 2 or 3 through unmatched edges.
    two = from_maximal_simplices([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected complex required"):
        canonicalize_single_critical_vertex(two, coreduction_matching(two), 0)


def test_len_of_an_uncertified_matching_counts_its_pairs():
    _, standard = simplex_boundary(3)
    claimed = MorseMatching(standard.pairs, True)
    assert len(claimed) == len(standard.pairs) == len(standard)


def test_surgery_rejects_invalid_pairs():
    # The two surgery functions accept a matching by one rule, so simplex
    # pairs that are no matching on K raise the validator's error in each.
    bad = frozenset({((0,), (1, 2))})
    for call in (
        lambda: canonicalize_single_critical_vertex(TRIANGLE, bad, 0),
        lambda: collapse_sequence(TRIANGLE, bad, []),
    ):
        with pytest.raises(InvalidMatching, match="not a covering pair"):
            call()


def surgery_complexes():
    """Connected random complexes in dims 1-4, and dunce and RP2 wedges."""
    sparse = st.builds(
        lambda s, d: random_complex(s, dim=d, n_vertices=d + 8, n_facets=4 + 4 * d, connected=True),
        st.integers(0, 2**32 - 1), st.integers(1, 4),
    )
    wedges = st.builds(
        lambda base, copies: wedge(base(), 1, copies),
        st.sampled_from([dunce_hat, rp2]), st.integers(1, 12),
    )
    return st.one_of(sparse, wedges)


SURGERY_MATCHINGS = {
    "coreduction": coreduction_matching,
    "reduction": reduction_matching,
    "frontier": lambda K: frontier_edges_matching(K).morse,
}


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    surgery_complexes(),
    st.sampled_from(sorted(SURGERY_MATCHINGS)),
    st.lists(st.integers(0, 2**16), min_size=3, max_size=3),
)
def test_surgery_on_the_up_array_equals_the_tuple_reference(K, name, picks):
    mm = SURGERY_MATCHINGS[name](K)
    twin = SimplicialComplex(K.simplices)
    for i in picks:
        p = K.vertices[i % len(K.vertices)]
        want = reference_canonicalize_single_critical_vertex(K, mm, p)
        got = canonicalize_single_critical_vertex(K, mm, p)
        assert got == want and got.acyclic and got._ids[0] is K, (name, p)
        # A matching certified on an equal complex is certified on K anew.
        assert canonicalize_single_critical_vertex(twin, mm, p) == want, (name, p)
        assert critical_profile(K, got).counts[0] == 1
        # plain pairs, and a matching certified on an equal complex, are
        # certified on K once and give the same result
        assert canonicalize_single_critical_vertex(K, mm.pairs, p) == want
        assert canonicalize_single_critical_vertex(twin, mm, p) == want


COLLAPSE_MATCHINGS = {
    **SURGERY_MATCHINGS,
    "oracle": lambda K: optimal_morse_matching(K, 50).matching,
}


def outcome(f, *args):
    """f's result, or the type and message of the ValueError or RuntimeError it raised."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(surgery_complexes(), st.sampled_from(sorted(COLLAPSE_MATCHINGS)), st.data())
def test_collapse_sequence_equals_the_frozen_heap_loop(K, name, data):
    # sub is the closure of drawn simplices: under faces alone, which
    # mostly leaves some simplex not matched away, and also under the
    # partners of its simplices with the critical ones added, which
    # collapses.  The matching goes in certified or as plain pairs.
    mm = COLLAPSE_MATCHINGS[name](K)
    matching = data.draw(st.sampled_from([mm, mm.pairs]))
    seeds = data.draw(st.lists(st.sampled_from(K.simplices), max_size=4))
    partner = {}
    for sigma, tau in mm.pairs:
        partner[sigma], partner[tau] = tau, sigma
    critical = [s for s in K if s not in partner]
    for grow in (False, True):
        sub, todo = set(), seeds + critical * grow
        while todo:
            s = todo.pop()
            if s not in sub:
                sub.add(s)
                todo += facets_of(s)
                if grow and s in partner:
                    todo.append(partner[s])
        got = outcome(collapse_sequence, K, matching, sub)
        assert got == outcome(reference_collapse_sequence, K, matching, sub), (name, grow)
        if grow:
            assert replay_collapses(K.simplices, got) == frozenset(sub)


def test_collapse_sequence_on_a_disk_equals_the_frozen_heap_loop():
    # Only the faces to collapse count their cofacets, so an edge matched
    # down to a vertex counts nothing and drops below 0 as its triangles
    # go, while it is still alive: the kernel must not read a negative
    # count as dead.  The fan of four triangles collapses onto the one
    # critical vertex of coreduction; with nothing kept, that vertex is
    # not matched away.
    K = from_maximal_simplices([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    mm = coreduction_matching(K)
    matched = {s for pair in mm.pairs for s in pair}
    critical = [s for s in K if s not in matched]
    assert critical == [(0,)]
    for sub in ([], critical):
        got = outcome(collapse_sequence, K, mm, sub)
        assert got == outcome(reference_collapse_sequence, K, mm, sub)
    assert len(got) == (K.n - 1) // 2
    assert replay_collapses(K.simplices, got) == frozenset(critical)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.integers(0, 9), max_size=7), st.lists(st.integers(0, 9), max_size=7))
def test_morse_inequalities_equal_the_frozen_double_sum(counts, betti):
    want = reference_morse_inequalities(counts, betti)
    assert check_morse_inequalities(counts, betti) == want
    assert check_morse_inequalities(iter(counts), iter(betti)) == want


def test_collapse_single_edge():
    matching = certify(EDGE, frozenset({((1,), (0, 1))}))
    sub = from_maximal_simplices([(0,)])
    assert collapse_sequence(EDGE, matching, sub) == (((1,), (0, 1)),)


def test_collapse_triangle_to_vertex():
    pairs = frozenset({((0,), (0, 2)), ((0, 1), (0, 1, 2)), ((1,), (1, 2))})
    matching = certify(TRIANGLE, pairs)
    seq = collapse_sequence(TRIANGLE, matching, from_maximal_simplices([(2,)]))
    assert len(seq) == 3
    remaining = replay_collapses(TRIANGLE.simplices, seq)
    assert remaining == frozenset({(2,)})


def test_collapse_rejects_unmatched_leftovers():
    K, matching = simplex_boundary(3)
    with pytest.raises(ValueError, match="not matched away"):
        collapse_sequence(K, matching, from_maximal_simplices([(1,)]))


def test_collapse_reports_sub_errors_in_canonical_order():
    K = full_simplex(2)
    matching = coreduction_matching(K)
    with pytest.raises(ValueError, match=re.escape("unknown simplex (99,)")):
        collapse_sequence(K, matching, [(0, 1, 2), (99,)])
    with pytest.raises(ValueError, match=re.escape("unknown simplex (7,)")):
        collapse_sequence(K, matching, [(8, 9), (7,), (0,)])
    # the first simplex in canonical order with a missing face names its first one
    with pytest.raises(ValueError, match=re.escape("missing (1,)")):
        collapse_sequence(K, matching, [(1, 2), (0, 1), (0,), (0, 2)])


def test_collapse_rejects_cyclic_matching():
    cyclic = certify(CIRCLE, HEXAGON_MATCHING)
    with pytest.raises(ValueError, match="not acyclic"):
        collapse_sequence(CIRCLE, cyclic, [])


def test_euler_identity_for_any_valid_profile():
    for K in named_complexes().values():
        prof = critical_profile(K, frozenset())
        total = sum((-1) ** i * c for i, c in enumerate(prof.counts))
        assert total == euler_characteristic(K) == euler(K.simplices)


def test_profile_matches_reference_recount():
    K, matching = simplex_boundary(4)
    assert critical_profile(K, matching.pairs).counts == profile_of(K, matching.pairs)
    for K, pairs in _random_matchings():
        mm = certify(K, pairs)
        # an equal complex that mm was not certified on takes the pair path,
        # and so does a larger one whose ids are shifted by an extra vertex
        twin = SimplicialComplex(K.simplices)
        bigger = SimplicialComplex(K.simplices + ((max(K.vertices) + 1,),))
        expected = profile_of(K, pairs)
        assert critical_profile(K, mm).counts == expected
        assert critical_profile(twin, mm).counts == expected
        assert critical_profile(bigger, mm).counts == profile_of(bigger, pairs)
        assert critical_profile(K, pairs).counts == expected
        assert certify(twin, pairs) == mm and "_ids" not in repr(mm)


def test_profile_does_not_follow_an_orientation_unmatched_after_certify():
    for K, pairs in _random_matchings():
        oh = orient(K, pairs)
        mm = certify(K, oh)
        expected = profile_of(K, mm.pairs)
        # the up array the profile reads is a frozen copy
        assert mm._ids[0] is K and isinstance(mm._ids[1], tuple)
        for a, b in enumerate(oh.up):
            if b >= 0:
                oh.up[a] = -1
        assert not oh.up_pairs()
        assert critical_profile(K, mm).counts == expected


def test_certify_keeps_pairs_frozen():
    K, matching = simplex_boundary(2)
    again = certify(K, set(matching.pairs))
    assert again.pairs == matching.pairs
    assert isinstance(again.pairs, frozenset)


def signed_sum(counts, k) -> int:
    """counts[k] - counts[k-1] + ... down to counts[0]."""
    return sum((-1) ** (k - i) * x for i, x in enumerate(counts[:k + 1]))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_heuristic_and_frontier_profiles_obey_the_morse_inequalities(seed, dim):
    # Counts recomputed from the pairs, Betti numbers from dense numpy ranks.
    K = random_complex(seed, dim=dim, n_vertices=dim + 6, n_facets=12, connected=seed % 2 == 0)
    b = betti_numpy(K.simplices)
    top = K.dim
    chi = euler(K.simplices)
    for name, produce in all_algorithms().items():
        pairs = produce(K)
        mm = certify(K, pairs)
        assert mm.acyclic, name
        c = profile_of(K, pairs)
        # every profile critical_profile returns obeys both identities
        for prof in (critical_profile(K, pairs), critical_profile(K, mm)):
            assert prof.counts == c, name
            assert alternating_sum(prof.counts) == chi, name
            assert prof.total + 2 * len(pairs) == K.n, name
        # Euler identity
        assert (-1) ** top * signed_sum(c, top) == chi == (-1) ** top * signed_sum(b, top), name
        # weak Morse inequalities
        assert all(ci >= bi for ci, bi in zip(c, b)), name
        # strong Morse inequalities
        for k in range(top + 1):
            assert signed_sum(c, k) >= signed_sum(b, k), (name, k)
