"""Golden output: `morse bench --json --no-timing` over fixed corpora.

One checksum pins every row and aggregate the three polynomial
algorithms report, a second one those of the budgeted oracle (its node
counts, optimal flags and pair upper bounds included), so a refactor
that claims unchanged behaviour can be checked mechanically.  The
`corpus` field is a temporary path and is left out.  The exit code is
not pinned: it reflects the acyclicity and optimal flags of the rows,
which the rows themselves already carry.

A third checksum pins what certify reports on a fixed set of matchings,
most of them cyclic: the acyclic flag and the witness cycle, whose
choice depends on the order of the cycle search.
"""

import hashlib
import json
import random

from morsematch import (
    certify,
    dunce_hat,
    facets_of,
    max_cardinality_matching,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
    write_complex,
)
from morsematch.cli import main

GOLDEN_SHA256 = "dceea2b130c68a080d84993a8389d598aa3351b5f2f807a8b814bd5bf3ae3597"
ORACLE_GOLDEN_SHA256 = "b0aea383968ac56699ebec119a77cf03aedfcb520db33b0881e9909965701786"
WITNESS_GOLDEN_SHA256 = "7520845971ed6e38c97d051d94b3ea48c490ad33689973788cf19310c3472df8"


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
    args = ["--algos", "oracle", "--budget", "2000"]
    assert bench_digest(tmp_path, capsys, oracle_corpus(), args) == ORACLE_GOLDEN_SHA256


def witness_matchings():
    """Maximum and seeded random maximal matchings, 1-D to 4-D."""
    for dim in (1, 2, 3, 4):
        for seed in range(6):
            K = random_complex(seed, dim=dim, n_vertices=6 + 2 * dim, n_facets=5 * dim)
            yield K, max_cardinality_matching(K)
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
