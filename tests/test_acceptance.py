"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Each criterion collects violations into a list and reports through
`conclude`, which prints a single summary line and fails the test when
anything is listed.  Time limits are generous desk-scale bounds checked
with a wall clock.
"""

import time

import pytest

from morsematch import (
    betti_gf2,
    canonicalize_single_critical_vertex,
    certify,
    collapse_sequence,
    coreduction_matching,
    critical_profile,
    dunce_hat,
    euler_characteristic,
    frontier_edges_matching,
    full_simplex,
    is_collapsible,
    max_cardinality_matching,
    optimal_morse_matching,
    random_complex,
    reduction_matching,
    rp2,
    simplex_boundary,
    wedge,
)
from helpers import (
    brute_max_matching_size,
    has_directed_cycle,
    max_matching_pairs,
    named_complexes,
    oriented_adjacency,
    replay_collapses,
)


def conclude(number: int, label: str, violations: list) -> None:
    verdict = "PASS" if not violations else "FAIL"
    print(f"criterion {number:02d} {verdict}  {label}")
    assert not violations, f"criterion {number}: " + "; ".join(
        str(v) for v in violations[:8]
    )


def random_corpus():
    """200 seeded complexes, dimensions 1 to 3, all at most 200 simplices."""
    out = []
    for seed in range(200):
        dim = 1 + seed % 3
        K = random_complex(
            seed,
            dim=dim,
            n_vertices=6 + (seed * 7) % 11,
            n_facets=3 + (seed * 5) % 14,
        )
        out.append((f"random[{seed}]", K))
    return out


@pytest.fixture(scope="module")
def corpus():
    return random_corpus()


@pytest.fixture(scope="module")
def produced(corpus):
    """Every matching the suite produces, labeled: (label, complex, pairs)."""
    algorithms = [
        ("frontier", lambda K: frontier_edges_matching(K).morse.pairs),
        ("coreduction", lambda K: coreduction_matching(K).pairs),
        ("reduction", lambda K: reduction_matching(K).pairs),
    ]
    out = []
    pool = list(named_complexes().items()) + corpus
    for cname, K in pool:
        for aname, algo in algorithms:
            out.append((f"{aname}/{cname}", K, algo(K)))
    for n in range(2, 7):
        K, matching = simplex_boundary(n)
        out.append((f"builtin/boundary[{n}]", K, matching.pairs))
    for cname, K in named_complexes().items():
        if K.n <= 40:
            result = optimal_morse_matching(K, budget=100_000)
            out.append((f"oracle/{cname}", K, result.matching.pairs))
    return out


def test_criterion_01_boundary_family_two_critical_cells():
    violations = []
    t0 = time.perf_counter()
    for n in range(2, 7):
        K, matching = simplex_boundary(n)
        if not matching.acyclic:
            violations.append(f"n={n}: not acyclic")
        matched = {s for p in matching.pairs for s in p}
        critical = [s for s in K if s not in matched]
        want = [(1,), tuple(range(2, n + 2))]
        if critical != want:
            violations.append(f"n={n}: critical {critical}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        violations.append(f"took {elapsed:.2f}s, limit 1s")
    conclude(1, "boundary of the n-simplex keeps exactly two critical cells", violations)


def test_criterion_02_frontier_ratio_guarantee(corpus):
    violations = []
    t0 = time.perf_counter()
    if len(corpus) < 200:
        violations.append(f"corpus has {len(corpus)} complexes, need 200")
    for label, K in corpus:
        if K.n > 200:
            violations.append(f"{label}: {K.n} simplices exceeds corpus bound")
            continue
        D = K.dim
        result = frontier_edges_matching(K)
        if not result.morse.acyclic:
            violations.append(f"{label}: output not acyclic")
        kept = len(result.morse.pairs)
        source = result.source_matching_size
        if (D * D + D + 1) * kept < (D + 1) * source:
            violations.append(f"{label}: kept {kept} of {source} at dim {D}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        violations.append(f"took {elapsed:.1f}s, limit 60s")
    conclude(2, "frontier keeps at least (D+1)/(D*D+D+1) of a maximum matching", violations)


def test_criterion_03_euler_identity_suite_wide(produced):
    violations = []
    for label, K, pairs in produced:
        prof = critical_profile(K, pairs)
        if prof.alternating_sum() != euler_characteristic(K):
            violations.append(f"{label}: {prof.counts}")
    conclude(3, "alternating critical counts equal the Euler characteristic", violations)


def test_criterion_04_morse_inequalities_suite_wide(produced):
    violations = []
    betti_cache: dict = {}
    for label, K, pairs in produced:
        if K not in betti_cache:
            betti_cache[K] = betti_gf2(K)
        beta = betti_cache[K]
        c = critical_profile(K, pairs).counts
        for d in range(len(c)):
            lhs = sum((-1) ** (d - i) * c[i] for i in range(d + 1))
            rhs = sum((-1) ** (d - i) * beta[i] for i in range(d + 1))
            if lhs < rhs:
                violations.append(f"{label}: alternating bound fails at {d}")
            if c[d] < beta[d]:
                violations.append(f"{label}: c[{d}] = {c[d]} < {beta[d]}")
    conclude(4, "every produced matching satisfies the Morse inequalities", violations)


def test_criterion_05_oracle_agreement_small_complexes(corpus):
    violations = []
    t0 = time.perf_counter()
    small = [(n, K) for n, K in list(named_complexes().items()) + corpus if K.n <= 16]
    checked = 0
    for label, K in small:
        M = max_matching_pairs(K)
        size = max_cardinality_matching(K)
        brute = brute_max_matching_size(K.simplices)
        if size != brute or len(M) != size:
            violations.append(f"{label}: matching {size} ({len(M)} pairs) vs brute {brute}")
        candidates = [
            frozenset(),
            M,
            frontier_edges_matching(K).morse.pairs,
            coreduction_matching(K).pairs,
        ]
        for pairs in candidates:
            library = certify(K, pairs).acyclic
            naive = not has_directed_cycle(oriented_adjacency(K.simplices, pairs))
            if library != naive:
                violations.append(f"{label}: certify {library} vs naive {naive}")
        checked += 1
    if checked < 10:
        violations.append(f"only {checked} small complexes in the suite")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        violations.append(f"took {elapsed:.1f}s, limit 30s")
    conclude(5, "matching size and acyclicity agree with brute force below 17 simplices", violations)


def test_criterion_06_projective_plane_optimum():
    violations = []
    t0 = time.perf_counter()
    K = rp2()
    beta = betti_gf2(K)
    if beta != (1, 1, 1):
        violations.append(f"betti {beta}")
    result = optimal_morse_matching(K)
    if not result.optimal:
        violations.append("oracle did not certify the optimum")
    prof = critical_profile(K, result.matching.pairs)
    if prof.total != 3:
        violations.append(f"total {prof.total}")
    if prof.total < sum(beta):
        violations.append("profile beats the Betti lower bound")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        violations.append(f"took {elapsed:.1f}s, limit 60s")
    conclude(6, "the oracle certifies 3 critical cells on the projective plane", violations)


def test_criterion_07_dunce_hat():
    violations = []
    t0 = time.perf_counter()
    K = dunce_hat()
    # free-face scan: no simplex has exactly one proper coface
    free = []
    for s in K:
        cofaces = [t for t in K if len(t) > len(s) and set(s) < set(t)]
        if len(cofaces) == 1:
            free.append(s)
    if free:
        violations.append(f"free faces exist: {free}")
    verdict = is_collapsible(K)
    if verdict.collapsible is not False or verdict.nodes != 0:
        violations.append(f"collapsibility {verdict.collapsible} after {verdict.nodes} nodes")
    best = min(
        critical_profile(K, coreduction_matching(K).pairs).total,
        critical_profile(K, reduction_matching(K).pairs).total,
        critical_profile(K, frontier_edges_matching(K).morse.pairs).total,
    )
    if best != 3:
        violations.append(f"best algorithm reaches {best}")
    oracle = optimal_morse_matching(K, budget=50_000)
    reached = critical_profile(K, oracle.matching.pairs).total
    if reached != 3:
        violations.append(f"oracle reaches {reached}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        violations.append(f"took {elapsed:.1f}s, limit 60s")
    conclude(7, "the dunce hat has no free face yet reaches 3 critical cells", violations)


def test_criterion_08_wedge_of_dunce_hats():
    violations = []
    k = 3
    base = dunce_hat()
    W = wedge(base, 1, k)
    if W.n != (base.n - 1) * k + 1:
        violations.append(f"size {W.n}")
    algorithms = [
        ("frontier", lambda K: frontier_edges_matching(K).morse),
        ("coreduction", coreduction_matching),
        ("reduction", reduction_matching),
    ]
    for name, algo in algorithms:
        canon = canonicalize_single_critical_vertex(W, algo(W), 1)
        total = critical_profile(W, canon.pairs).total
        if total < k + 1:
            violations.append(f"{name}: {total} critical")
    conclude(8, "wedges of dunce hats force at least k+1 critical cells", violations)


def test_criterion_09_canonicalization_contract():
    violations = []
    count = 0
    for seed in range(100):
        dim = 1 + seed % 3
        K = random_complex(
            seed,
            dim=dim,
            n_vertices=6 + seed % 8,
            n_facets=3 + seed % 9,
            connected=True,
        )
        if seed % 2:
            matching = coreduction_matching(K)
        else:
            matching = frontier_edges_matching(K).morse
        before = critical_profile(K, matching.pairs)
        root = min(K.vertices)
        after_m = canonicalize_single_critical_vertex(K, matching, root)
        after = critical_profile(K, after_m.pairs)
        count += 1
        if after.counts[0] != 1:
            violations.append(f"seed {seed}: c0 {after.counts[0]}")
        if after.total != before.total - 2 * (before.counts[0] - 1):
            violations.append(f"seed {seed}: total {before.total} -> {after.total}")
        if after.counts[2:] != before.counts[2:]:
            violations.append(f"seed {seed}: upper counts changed")
        if not after_m.acyclic:
            violations.append(f"seed {seed}: cyclic output")
    if count < 100:
        violations.append(f"only {count} complexes")
    conclude(9, "canonicalization leaves one critical vertex and exact totals", violations)


def test_criterion_10_collapse_replay_full_simplices():
    violations = []
    for n in range(1, 6):
        K = full_simplex(n)
        matching = coreduction_matching(K)
        matched = {s for p in matching.pairs for s in p}
        critical = [s for s in K if s not in matched]
        if len(critical) != 1 or len(critical[0]) != 1:
            violations.append(f"n={n}: criticals {critical}")
            continue
        seq = collapse_sequence(K, matching, critical)
        remaining = replay_collapses(K.simplices, seq)
        if remaining != frozenset(critical):
            violations.append(f"n={n}: left {sorted(remaining)}")
    conclude(10, "full simplices collapse to a vertex under the strict replayer", violations)


def test_criterion_11_two_complex_ratio_against_oracle():
    violations = []
    certified = 0
    for seed in range(60):
        if seed < 40:
            K = random_complex(seed, dim=2, n_vertices=7, n_facets=5)
        else:
            K = random_complex(seed + 100, dim=2, n_vertices=8, n_facets=8)
        best = optimal_morse_matching(K, budget=400_000)
        if not best.optimal:
            continue
        certified += 1
        kept = len(frontier_edges_matching(K).morse.pairs)
        if 11 * kept < 5 * len(best.matching.pairs):
            violations.append(
                f"seed {seed}: {kept} pairs vs optimal {len(best.matching.pairs)}"
            )
    if certified == 0:
        violations.append("oracle certified no instance")
    conclude(11, "frontier reaches 5/11 of the certified optimum on 2-complexes", violations)
