#!/usr/bin/env python3
"""Steadiness and compare mode for benchmarks/run.py.

Steadiness: run every workload once per seed, alternating the workload
order from one round to the next, and report each end-to-end metric's
median, quartiles and spread (interquartile range over median) against
its bound in BENCHMARK.json.  With --sets 2 the whole thing runs twice
and the two medians are compared as well.

    python3 benchmarks/steady.py --seeds 10 --sets 2

Compare: measure two source trees with this same benchmark code, in
pairs that alternate which side runs first, one seed per pair.

    python3 benchmarks/steady.py --compare PARENT/src CHANGE/src --seeds 10

A change counts as a gain on a metric when it wins at least 9 of 10
pairs (ties count for neither side) and the medians differ by more than
the parent's interquartile range.  No gain counts on a workload where the
change fails a larger share of its attempted tier runs and rows than the
parent.  It is a regression when its median is worse than the parent's
by more than the bound.  A metric whose parent spread is wider than its
bound is unresolved, unless every change run beats every parent run.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, load_spec, quartiles


def run_once(workload: str, seed: int, seconds: int, src: str | None = None) -> dict:
    """One run.py run: {"metrics": name -> value, "failed": int, "attempted": int}."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if src is not None:
        cmd += ["--src", src]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: correct=false, failed {result['failed']}"
              f"/{result['attempted']}", file=sys.stderr)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = quartiles(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(parent: float, change: float, better: str) -> float:
    """Share of the parent value by which change is worse (negative: better)."""
    gap = change - parent if better == "lower" else parent - change
    return gap / parent if parent else 0.0


def steadiness(spec: dict, seeds: int, seconds: int, sets: int) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    medians: dict[tuple[str, str], list[float]] = {}
    bad = 0
    for s in range(sets):
        values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
        for i in range(seeds):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                seed = s * seeds + i + 1
                for k, v in run_once(w, seed, seconds)["metrics"].items():
                    values[w].setdefault(k, []).append(v)
        print(f"set {s + 1}: {seeds} seeds, {seconds} s per run")
        for w in workloads:
            for m in metrics:
                med, q1, q3, sp = spread(values[w][m["name"]])
                medians.setdefault((w, m["name"]), []).append(med)
                status = "ok"
                if sp > m["bound"]:
                    status, bad = "UNRESOLVED", bad + 1
                elif sp > m["bound"] / 3:
                    status = "wide"
                print(f"  {w:16s} {m['name']:28s} median {med:12.6g}  q1 {q1:12.6g}  "
                      f"q3 {q3:12.6g}  spread {sp:6.3f}  bound {m['bound']:.3f}  {status}")
    if sets > 1:
        print("drift of the median between the first and the last set")
        for m in metrics:
            for w in workloads:
                first, last = medians[(w, m["name"])][0], medians[(w, m["name"])][-1]
                drift = worse_by(first, last, m["better"])
                status = "ok" if drift <= m["bound"] else "DRIFT"
                bad += status != "ok"
                print(f"  {w:16s} {m['name']:28s} {first:12.6g} -> {last:12.6g}  "
                      f"worse by {drift:+.3f}  bound {m['bound']:.3f}  {status}")
    return 1 if bad else 0


def compare(spec: dict, seeds: int, seconds: int, parent: str, change: str) -> int:
    regressions = 0
    for w in (wl["name"] for wl in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(seeds):
            sides = [("parent", parent), ("change", change)]
            for side, src in (sides if i % 2 == 0 else sides[::-1]):
                runs[side].append(run_once(w, 1000 + i, seconds, src))
        rate = {
            side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
            for side, rs in runs.items()
        }
        more_failures = rate["change"] > rate["parent"]
        print(f"{w}: {seeds} pairs, {seconds} s per run; failed share parent "
              f"{rate['parent']:.4f}, change {rate['change']:.4f}"
              + ("  (change fails more: no gain counts)" if more_failures else ""))
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            p = [r["metrics"][name] for r in runs["parent"]]
            c = [r["metrics"][name] for r in runs["change"]]
            pm, pq1, pq3, psp = spread(p)
            cm, cq1, cq3, _ = spread(c)
            wins = sum(worse_by(a, b, better) < 0 for a, b in zip(p, c))
            losses = sum(worse_by(a, b, better) > 0 for a, b in zip(p, c))
            if worse_by(pm, cm, better) > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif wins >= 0.9 * seeds and abs(cm - pm) > pq3 - pq1:
                verdict = "gain withheld" if more_failures else "gain"
            elif psp > m["bound"] and not all(worse_by(a, b, better) < 0 for a in p for b in c):
                verdict = "unresolved"
            else:
                verdict = "no change within bound"
            print(f"  {name:28s} parent {pm:12.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cm:12.6g} [{cq1:.6g}, {cq3:.6g}]  wins {wins} losses {losses}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("PARENT_SRC", "CHANGE_SRC"))
    args = p.parse_args(argv)
    if args.compare:
        parent, change = (os.path.abspath(s) for s in args.compare)
        return compare(spec, args.seeds, args.seconds, parent, change)
    return steadiness(spec, args.seeds, args.seconds, args.sets)


if __name__ == "__main__":
    sys.exit(main())
