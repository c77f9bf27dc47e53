"""Golden output: `morse bench --json --no-timing` over fixed corpora.

One checksum pins every row and aggregate the three polynomial
algorithms report, a second one those of the budgeted oracle (its node
counts, optimal flags and pair upper bounds included), so a refactor
that claims unchanged behaviour can be checked mechanically.  The
`corpus` field is a temporary path and is left out.  The exit code is
not pinned: it reflects the acyclicity and optimal flags of the rows,
which the rows themselves already carry.

The oracle is pinned at budgets 0, 50 and 2000 over one corpus, and
in one deep search of 50 000 nodes on a two-copy wedge of the dunce hat
with a solid tetrahedron, so a change to its search order or pruning
moves some node count.  Every complex of the first corpus, the dunce
wedge included, is proven optimal at the root, so its three pins agree;
on the deep input the bound stays one pair per copy above the optimum
and the search runs to its budget.

A third checksum pins what certify reports on a fixed set of matchings,
most of them cyclic: the acyclic flag and the witness cycle, whose
choice depends on the order of the cycle search.

A fourth checksum pins what is_collapsible reports, node counts and
collapse sequences included, on contractible complexes its search must
back out of many times.

A fifth checksum pins frontier's components (interface dimension, kept
and reversed pairs, all in order) and the size of the maximum matching
it starts from, which the bench output does not show.

A sixth checksum pins the mate arrays of the maximum matching itself on
dense connected 3-D and 4-D complexes, where hundreds of searches for
an augmenting path fail, and on dunce and RP2 wedges, where successful
searches run through the wedge vertex.

A seventh checksum pins the routines built on elementary collapses:
collapse_sequence's pairs and error messages for the coreduction,
reduction and frontier matchings over subcomplexes both valid and not,
erasability records with and without a budget, is_connected, and the
complexes random_complex builds with connected=True in dimensions 1-4.
"""

import hashlib
import json
import random

from morsematch import (
    certify,
    collapse_sequence,
    coreduction_matching,
    dunce_hat,
    erasability,
    from_maximal_simplices,
    frontier_edges_matching,
    full_simplex,
    is_collapsible,
    is_connected,
    random_complex,
    reduction_matching,
    rp2,
    simplex_boundary,
    wedge,
    write_complex,
)
from morsematch.cli import main
from morsematch.hasse import max_matching_mates
from helpers import dunce_hat_with_tetrahedron, facets_of, max_matching_pairs

GOLDEN_SHA256 = "80b0d483c8e348a3faeafe36fcae59e11f0878a68365bfea6b7f3368ea32d515"
ORACLE_GOLDEN_SHA256 = {
    0: "7a96af9b02cfcbf0620c00c481933b59a038226345f29a35a9c694db766ad3e8",
    50: "7a96af9b02cfcbf0620c00c481933b59a038226345f29a35a9c694db766ad3e8",
    2000: "7a96af9b02cfcbf0620c00c481933b59a038226345f29a35a9c694db766ad3e8",
}
DEEP_ORACLE_GOLDEN_SHA256 = "f029a218b6bf36297ff5c5f69f4b28c4154fe0a6ef2bc93de8aed9fc799cc35a"
WITNESS_GOLDEN_SHA256 = "e209b1d6078eb5dddbd4cbb3364d843e41c96075d7173d299ac4283fabf09090"
COLLAPSE_GOLDEN_SHA256 = "d8e22e5ffda5f786fda2aedca029dcab72cf36118376b4ad6dbb5cb1ed6b10cf"
FRONTIER_GOLDEN_SHA256 = "80df25ebd7c71fc6d0f690fb364d8d185ba8462d335bbf53759c3d481ea9f2fc"
MATES_GOLDEN_SHA256 = "95b962dbdaa13784dbf4ed3f41dfadb7cad608a707e14f0a8b2aee10bae0ccd4"
COLLAPSE_TOOLS_GOLDEN_SHA256 = "0dfcc8025896acb726cb3d4d16be352f81db1e91caa044a78ae683c2f60c6651"


def golden_corpus():
    out = {
        "dunce_wedge3.txt": wedge(dunce_hat(), 1, 3),
        "rp2_wedge3.txt": wedge(rp2(), 1, 3),
        "sphere4.txt": simplex_boundary(4)[0],
        "random3d.txt": random_complex(
            2, dim=3, n_vertices=30, n_facets=60, connected=True
        ),
    }
    for s in range(4):
        out[f"random2d_{s}.txt"] = random_complex(s)
    return out


def oracle_corpus():
    out = {
        "dunce_wedge2.txt": wedge(dunce_hat(), 1, 2),
        "rp2_wedge2.txt": wedge(rp2(), 1, 2),
        "sphere3.txt": simplex_boundary(3)[0],
    }
    for s in range(4):
        out[f"random2d_{s}.txt"] = random_complex(s)
    return out


def bench_digest(tmp_path, capsys, corpus, args):
    for name, K in corpus.items():
        write_complex(K, tmp_path / name)
    main(["bench", str(tmp_path), *args, "--json", "--no-timing"])
    payload = json.loads(capsys.readouterr().out)
    body = json.dumps(
        {"rows": payload["rows"], "aggregates": payload["aggregates"]},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()


def test_bench_output_matches_golden_checksum(tmp_path, capsys):
    algos = ["--algos", "frontier,coreduction,reduction"]
    assert bench_digest(tmp_path, capsys, golden_corpus(), algos) == GOLDEN_SHA256


def test_oracle_bench_output_matches_golden_checksum(tmp_path, capsys):
    runs = [(budget, oracle_corpus(), sha) for budget, sha in ORACLE_GOLDEN_SHA256.items()]
    deep = {"hat_tetra_wedge2.txt": wedge(dunce_hat_with_tetrahedron(), 1, 2)}
    runs.append((50_000, deep, DEEP_ORACLE_GOLDEN_SHA256))
    for budget, corpus, sha in runs:
        out = tmp_path / str(budget)
        out.mkdir()
        args = ["--algos", "oracle", "--budget", str(budget)]
        assert bench_digest(out, capsys, corpus, args) == sha, budget


def witness_matchings():
    """Maximum and seeded random maximal matchings, 1-D to 4-D."""
    for dim in (1, 2, 3, 4):
        for seed in range(6):
            K = random_complex(seed, dim=dim, n_vertices=6 + 2 * dim, n_facets=5 * dim)
            yield K, max_matching_pairs(K)
            edges = [(f, t) for t in K.simplices for f in facets_of(t)]
            random.Random(seed).shuffle(edges)
            used, pairs = set(), []
            for a, b in edges:
                if a not in used and b not in used:
                    used.update((a, b))
                    pairs.append((a, b))
            yield K, pairs


def test_certify_witnesses_match_golden_checksum():
    results = [certify(K, pairs) for K, pairs in witness_matchings()]
    assert sum(not r.acyclic for r in results) == 33
    body = json.dumps([[r.acyclic, r.witness] for r in results])
    assert hashlib.sha256(body.encode()).hexdigest() == WITNESS_GOLDEN_SHA256


def collapse_corpus():
    """Dunce hats with fans of triangles, and collapsible fans and pieces."""
    D = list(dunce_hat().facets())
    for k in (1, 2, 3, 4):
        fan = [(1, 20 + i, 21 + i) for i in range(k)]
        yield from_maximal_simplices(D + fan)
        yield from_maximal_simplices(D + fan + [(2, 41, 42)])
    for k in (2, 4, 8):
        yield from_maximal_simplices([(0, 1 + i, 2 + i) for i in range(k)] + [(1, 50, 51)])
    for seed in range(10):
        yield random_complex(seed, dim=2, n_vertices=6, n_facets=3)


def test_collapsibility_matches_golden_checksum():
    results = [
        is_collapsible(K, budget=budget)
        for K in collapse_corpus()
        for budget in (None, 10)
    ]
    assert max(r.nodes for r in results) > 1000
    body = json.dumps([[r.collapsible, r.indeterminate, r.nodes, r.sequence] for r in results])
    assert hashlib.sha256(body.encode()).hexdigest() == COLLAPSE_GOLDEN_SHA256


def frontier_corpus():
    """Dunce and RP2 wedges, 2-D random complexes, connected 3-D and 4-D ones."""
    for copies in range(1, 11):
        yield wedge(dunce_hat(), 1, copies)
        yield wedge(rp2(), 1, copies)
    for seed in range(20):
        yield random_complex(seed)
    for dim in (3, 4):
        for seed in range(10):
            yield random_complex(seed, dim=dim, n_vertices=30, n_facets=60, connected=True)


def test_frontier_components_match_golden_checksum():
    results = [frontier_edges_matching(K) for K in frontier_corpus()]
    body = json.dumps([
        [
            r.source_matching_size,
            [[c.dim, c.forward, c.backward] for c in r.components],
        ]
        for r in results
    ])
    assert hashlib.sha256(body.encode()).hexdigest() == FRONTIER_GOLDEN_SHA256


def matching_corpus():
    """Dense connected 3-D and 4-D complexes, then dunce and RP2 wedges."""
    for dim in (3, 4):
        for seed in range(6):
            yield random_complex(seed, dim=dim, n_vertices=20, n_facets=200, connected=True)
    yield random_complex(0, dim=3, n_vertices=40, n_facets=1600, connected=True)
    for copies in (1, 2, 3, 5, 8, 13, 21):
        yield wedge(dunce_hat(), 1, copies)
        yield wedge(rp2(), 1, copies)


def test_max_matching_mates_match_golden_checksum():
    complexes = list(matching_corpus())
    mates = [max_matching_mates(K) for K in complexes]
    # A search from an even-dimension simplex that finds no augmenting
    # path leaves it free for good, so this counts the failed searches.
    failed = sum(
        m[u] < 0
        for K, m in zip(complexes, mates)
        for d in range(0, K.dim + 1, 2)
        for u in range(K.offset(d), K.offset(d + 1))
    )
    assert failed > 1000
    body = json.dumps(mates)
    assert hashlib.sha256(body.encode()).hexdigest() == MATES_GOLDEN_SHA256


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of the ValueError or RuntimeError it raised."""
    try:
        return f(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return [type(exc).__name__, str(exc)]


def matched_closure(K, pairs, seeds):
    """The least subcomplex holding seeds that no pair straddles."""
    partner = {}
    for sigma, tau in pairs:
        partner[sigma], partner[tau] = tau, sigma
    sub, todo = set(), list(seeds)
    while todo:
        s = todo.pop()
        if s in sub:
            continue
        sub.add(s)
        todo += facets_of(s)
        if s in partner:
            todo.append(partner[s])
    return sorted(sub, key=lambda s: (len(s), s))


def collapse_records():
    """collapse_sequence over matchings and subcomplexes of every kind."""
    complexes = [full_simplex(n) for n in range(1, 6)]
    complexes += [simplex_boundary(n)[0] for n in (2, 3)]
    complexes += [wedge(dunce_hat(), 1, 2), wedge(rp2(), 1, 2)]
    for dim in (1, 2, 3, 4):
        for seed in range(4):
            complexes.append(random_complex(
                seed, dim=dim, n_vertices=5 + 2 * dim, n_facets=4 * dim, connected=seed % 2 == 0
            ))
    for K in complexes:
        matchings = [
            coreduction_matching(K), reduction_matching(K), frontier_edges_matching(K).morse
        ]
        for m in matchings:
            matched = {s for p in m.pairs for s in p}
            critical = [s for s in K if s not in matched]
            closed = matched_closure(K, m.pairs, critical)
            seeds = [K.simplices[0], K.simplices[len(K) // 2], K.simplices[-1]]
            for sub in (
                critical,
                closed,
                from_maximal_simplices(closed),
                matched_closure(K, m.pairs, critical + seeds[:1]),
                matched_closure(K, m.pairs, critical + seeds),
                [tuple(reversed(s)) for s in closed],
                closed + [(99,)],
                K,
            ):
                yield outcome(collapse_sequence, K, m, sub)
        # A maximum matching given as plain pairs, certified inside, is
        # often cyclic.
        yield outcome(collapse_sequence, K, max_matching_pairs(K), [])


def erasability_records():
    complexes = [full_simplex(2), simplex_boundary(3)[0], dunce_hat(), rp2()]
    complexes += [wedge(dunce_hat(), 1, 2), wedge(rp2(), 1, 2)]
    complexes += [
        from_maximal_simplices(list(dunce_hat().facets()) + [(1, 20 + i, 21 + i) for i in range(3)])
    ]
    for seed in range(12):
        complexes.append(random_complex(seed, dim=2, n_vertices=7, n_facets=9 + seed))
    complexes.append(full_simplex(3))
    for K in complexes:
        for budget in (None, 0, 1, 5, 40):
            r = outcome(erasability, K, budget=budget)
            if isinstance(r, list):
                yield r
            else:
                yield [r.er, r.witness, r.lower, r.upper, r.indeterminate, r.tested]


def connectivity_records():
    for dim in (1, 2, 3, 4):
        for seed in range(8):
            for n_facets in (2, 5, 12):
                K = random_complex(seed, dim=dim, n_vertices=4 * dim + 4, n_facets=n_facets)
                yield is_connected(K)
                C = random_complex(
                    seed, dim=dim, n_vertices=4 * dim + 4, n_facets=n_facets, connected=True
                )
                yield [is_connected(C), C.simplices]
    yield [is_connected(from_maximal_simplices([(4,)])), is_connected(wedge(rp2(), 1, 3))]


def test_collapse_tools_match_golden_checksum():
    collapses = list(collapse_records())
    assert sum(isinstance(r, tuple) and len(r) > 0 for r in collapses) > 100
    assert sum(isinstance(r, list) for r in collapses) > 100
    body = json.dumps([collapses, list(erasability_records()), list(connectivity_records())])
    assert hashlib.sha256(body.encode()).hexdigest() == COLLAPSE_TOOLS_GOLDEN_SHA256
