"""Golden output: `morse bench --json --no-timing` over fixed corpora.

One checksum pins every row and aggregate the three polynomial
algorithms report, a second one those of the budgeted oracle (its node
counts, optimal flags and pair upper bounds included), so a refactor
that claims unchanged behaviour can be checked mechanically.  The
`corpus` field is a temporary path and is left out.  The exit code is
not pinned: it reflects the acyclicity and optimal flags of the rows,
which the rows themselves already carry.
"""

import hashlib
import json

from morsematch import (
    dunce_hat,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
    write_complex,
)
from morsematch.cli import main

GOLDEN_SHA256 = "dceea2b130c68a080d84993a8389d598aa3351b5f2f807a8b814bd5bf3ae3597"
ORACLE_GOLDEN_SHA256 = "b0aea383968ac56699ebec119a77cf03aedfcb520db33b0881e9909965701786"


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
