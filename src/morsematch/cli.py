"""Command line front end.

Subcommands: stats, match, validate, gen, bench.  Reports print as
aligned text or, with --json, as stable JSON (sorted keys; the elapsed_s
field is the only run-dependent value and --no-timing drops it), on
stdout, or on stderr when match writes its matching to stdout (--out -).

Exit codes: 0 success, 2 validation failure (including a cyclic result
from match or bench, whose report is still printed, and which takes
precedence over 4), 3 parse error (including input that is not UTF-8)
or a file that cannot be read or written, 4 oracle budget exhausted;
_exit_code is the one rule match and bench share.  The oracle budget
comes from --budget alone and must be a non-negative integer.
GENERATORS is the catalogue of gen.  run, the process entry of `morse`
and `python -m morsematch.cli`, calls gc.freeze before main, so no full
collection, at exit either, re-scans the start-up heap a one-shot process
keeps to its end; main(argv) called in-process leaves the collector alone.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time

from .complexes import (
    SimplicialComplex,
    betti_gf2,
    euler_characteristic,
    is_connected,
)
from .fileio import (
    ParseError,
    read_complex,
    read_matching,
    serialize_complex,
    serialize_matching,
)
from .frontier import frontier_edges_matching
from .generators import (
    dunce_hat,
    full_simplex,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
)
from .hasse import InvalidMatching, max_cardinality_matching
from .heuristics import coreduction_matching, reduction_matching
from .morse import (
    canonicalize_single_critical_vertex,
    certify,
    critical_profile,
)
from .oracle import optimal_morse_matching

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

HEURISTICS = {
    "frontier": lambda K: frontier_edges_matching(K).morse,
    "coreduction": coreduction_matching,
    "reduction": reduction_matching,
}
ALGOS = (*HEURISTICS, "oracle")


def _budget(text: str) -> int:
    """Parse an oracle node budget, which must be a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _run_algo(K: SimplicialComplex, algo: str, budget: int | None):
    """Returns (matching, oracle_extras or None)."""
    if algo == "oracle":
        res = optimal_morse_matching(K, budget=budget)
        extras = {
            "optimal": res.optimal,
            "nodes": res.nodes,
            "pair_upper_bound": res.pair_upper_bound,
        }
        return res.matching, extras
    return HEURISTICS[algo](K), None


def _ratio(num: int, den: int) -> float:
    return 1.0 if den == 0 else round(num / den, 6)


def _complex_facts(K: SimplicialComplex) -> tuple[int, list[int]]:
    """Maximum matching size and Betti numbers, the same for every algorithm."""
    return max_cardinality_matching(K), list(betti_gf2(K))


def _match_report(K: SimplicialComplex, algo: str, mm, extras, facts) -> dict:
    prof = critical_profile(K, mm)
    matched = len(mm)
    if prof.total + 2 * matched != K.n:
        raise RuntimeError("report inconsistent: criticals + matched != n")
    max_m, betti = facts
    rep = {
        "algorithm": algo,
        "n": K.n,
        "dim": K.dim,
        "matched_pairs": matched,
        "matched_simplices": 2 * matched,
        "critical_counts": list(prof.counts),
        "critical_total": prof.total,
        "euler": euler_characteristic(K),
        "betti": betti,
        "acyclic": mm.acyclic,
        "max_matching": max_m,
        "ratio_vs_max_matching": _ratio(matched, max_m),
    }
    if extras is not None:
        rep.update(extras)
    return rep


def _exit_code(rows) -> int:
    """2 if any row is cyclic, else 4 if any oracle row is not proven optimal, else 0."""
    if not all(r["acyclic"] for r in rows):
        return EXIT_INVALID
    if any(r.get("optimal") is False for r in rows):
        return EXIT_BUDGET
    return EXIT_OK


def _emit(payload: dict, args, file=None) -> None:
    """Print the report to file, stdout when None."""
    if not args.no_timing:
        payload["elapsed_s"] = round(time.perf_counter() - args._t0, 6)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=file)
        return
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            val = json.dumps(val, sort_keys=True)
        print(f"{key}: {val}", file=file)


def cmd_stats(args) -> int:
    K = read_complex(args.input)
    payload = {
        "input": args.input,
        "n": K.n,
        "dim": K.dim,
        "counts": [K.offset(d + 1) - K.offset(d) for d in range(K.dim + 1)],
        "maximal": K.cofacet_ids.count(()),
        "euler": euler_characteristic(K),
        "betti": list(betti_gf2(K)),
        "connected": is_connected(K),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_match(args) -> int:
    K = read_complex(args.input)
    if args.out and args.out != "-":  # an unwritable --out fails before the search
        open(args.out, "a").close()  # "a" truncates nothing, not even the input
    mm, extras = _run_algo(K, args.algo, args.budget)
    if args.canonicalize is not None:
        mm = canonicalize_single_critical_vertex(K, mm, args.canonicalize)
    payload = _match_report(K, args.algo, mm, extras, _complex_facts(K))
    payload["input"] = args.input
    payload["config"] = {
        "algo": args.algo,
        "canonicalize": args.canonicalize,
        "budget": args.budget,
    }
    if args.out == "-":
        sys.stdout.write(serialize_matching(mm.pairs))
    elif args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(serialize_matching(mm.pairs))
        payload["matching_file"] = args.out
    # stdout holds only the matching, so that parse_matching can read it
    _emit(payload, args, sys.stderr if args.out == "-" else None)
    return _exit_code([payload])


def cmd_validate(args) -> int:
    K = read_complex(args.input)
    pairs = read_matching(args.matching)
    payload = {
        "input": args.input,
        "matching": args.matching,
        "pairs": len(pairs),
        "problems": [],
    }
    try:
        mm = certify(K, pairs)
    except InvalidMatching as exc:
        problems = exc.describe(lambda x: " ".join(map(str, x)))
        payload.update({"problems": problems, "acyclic": None, "valid": False})
        _emit(payload, args)
        return EXIT_INVALID
    payload["acyclic"] = mm.acyclic
    payload["valid"] = mm.acyclic
    if not mm.acyclic:
        payload["witness_cycle"] = [list(s) for s in mm.witness]
    else:
        prof = critical_profile(K, mm)
        payload["critical_counts"] = list(prof.counts)
        payload["critical_total"] = prof.total
    _emit(payload, args)
    return EXIT_OK if mm.acyclic else EXIT_INVALID


def _wedge(args) -> SimplicialComplex:
    base = GENERATORS[args.base][0](args)
    return wedge(base, min(base.vertices), args.copies)


# name -> (builder of the parsed arguments, the options its header records)
GENERATORS = {
    "boundary": (lambda a: simplex_boundary(a.n)[0], ("n",)),
    "full": (lambda a: full_simplex(a.n), ("n",)),
    "rp2": (lambda a: rp2(), ()),
    "dunce": (lambda a: dunce_hat(), ()),
    "wedge": (_wedge, ("base", "copies")),
    "random": (
        lambda a: random_complex(a.seed, a.dim, a.vertices, a.facets, a.connected),
        ("seed", "dim", "vertices", "facets", "connected"),
    ),
}


def cmd_gen(args) -> int:
    build, options = GENERATORS[args.name]
    # a flag is written when set; every other option with its value
    opts = "".join(
        f" --{o}" if v is True else f" --{o} {v}"
        for o in options if (v := getattr(args, o)) is not False
    )
    if args.out and args.out != "-":  # an unwritable --out fails before the build
        open(args.out, "a").close()  # "a" truncates nothing
    text = f"# morse gen {args.name}{opts}\n" + serialize_complex(build(args))
    if args.out == "-" or not args.out:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _bench_file(corpus: str, name: str, algos, budget: int | None) -> list[dict]:
    """The bench rows of one corpus file, one per algorithm.

    The complex, its kept caches and every matching live only in this
    call, so bench holds one complex at a time and its peak memory
    follows the largest file of the corpus.
    """
    K = read_complex(os.path.join(corpus, name))
    facts = _complex_facts(K)
    rows = []
    for algo in algos:
        mm, extras = _run_algo(K, algo, budget)
        row = _match_report(K, algo, mm, extras, facts)
        row["complex"] = name
        rows.append(row)
    return rows


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ValueError(f"no algorithm in --algos {args.algos!r}")
    for a in algos:
        if a not in ALGOS:
            raise ValueError(f"unknown algorithm {a}")
        if algos.count(a) > 1:
            raise ValueError(f"algorithm {a} named more than once in --algos")
    names = sorted(
        f for f in os.listdir(args.corpus)
        if not f.startswith(".") and os.path.isfile(os.path.join(args.corpus, f))
    )
    if not names:
        raise ParseError(f"no complex files in {args.corpus}")
    rows = []
    for name in names:
        rows += _bench_file(args.corpus, name, algos, args.budget)
    agg = {}
    for algo in algos:
        rs = [r for r in rows if r["algorithm"] == algo]
        agg[algo] = {
            f"mean_{key}": round(sum(r[key] for r in rs) / len(rs), 6)
            for key in ("matched_pairs", "critical_total", "ratio_vs_max_matching")
        }
    payload = {"corpus": args.corpus, "rows": rows, "aggregates": agg}
    if args.json:
        _emit(payload, args)
    else:
        head = f"{'complex':<24} {'algorithm':<12} {'n':>5} {'|M|':>5} {'crit':>5}  profile"
        print(head)
        print("-" * len(head))
        for r in rows:
            prof = ",".join(str(c) for c in r["critical_counts"])
            print(
                f"{r['complex']:<24} {r['algorithm']:<12} {r['n']:>5} "
                f"{r['matched_pairs']:>5} {r['critical_total']:>5}  {prof}"
            )
        for algo, a in agg.items():
            print(
                f"mean[{algo}]: pairs={a['mean_matched_pairs']} "
                f"criticals={a['mean_critical_total']} "
                f"ratio={a['mean_ratio_vs_max_matching']}"
            )
    return _exit_code(rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    p = argparse.ArgumentParser(
        prog="morse",
        description="Discrete Morse matchings on simplicial complexes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument(
            "--no-timing", action="store_true",
            help="omit elapsed_s so identical runs are byte-identical",
        )

    sp = sub.add_parser("stats", help="counts, Euler characteristic, Betti numbers")
    sp.add_argument("input")
    common(sp)
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("match", help="compute a Morse matching")
    sp.add_argument("input")
    sp.add_argument(
        "--algo", default="frontier",
        choices=ALGOS,
    )
    sp.add_argument(
        "--canonicalize", type=int, default=None, metavar="P",
        help="rebuild vertex pairs so vertex P is the only critical vertex",
    )
    sp.add_argument("--budget", type=_budget, default=None, help="oracle node budget")
    sp.add_argument("--out", default=None, help="write the matching here ('-' = stdout)")
    common(sp)
    sp.set_defaults(fn=cmd_match)

    sp = sub.add_parser("validate", help="check a matching file against a complex")
    sp.add_argument("input")
    sp.add_argument("matching")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("gen", help="write a generated complex")
    sp.add_argument("name", choices=GENERATORS)
    sp.add_argument("--n", type=int, default=3, help="dimension for boundary/full")
    sp.add_argument("--base", default="dunce", choices=["dunce", "rp2"])
    sp.add_argument("--copies", type=int, default=2, help="copies in a wedge")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--vertices", type=int, default=10)
    sp.add_argument("--facets", type=int, default=8)
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_gen, json=False, no_timing=True)

    sp = sub.add_parser("bench", help="compare algorithms over a corpus directory")
    sp.add_argument("corpus")
    sp.add_argument("--algos", default="frontier,coreduction,reduction")
    sp.add_argument("--budget", type=_budget, default=None, help="oracle node budget")
    common(sp)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> int:
    """The process entry: freeze the start-up heap, then run main."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
