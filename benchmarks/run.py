#!/usr/bin/env python3
"""Benchmark of the morsematch CLI over a seeded corpus.

    python3 benchmarks/run.py --workload frontier-wedge --seed 1 --seconds 34 --trace 0

Set-up writes the workload's corpus (one directory per size tier) from
the package's own generators and imports the CLI once in a child; it is
repeated SETUP_REPEATS times.  The facet counts of sized random
complexes are found once before that, untimed.  With --trace 0 the run
then times `python -m morsematch.cli bench <tier> ... --json --no-timing`,
one child per tier, one tier after another, pass after pass until
--seconds is used up, and reports the end-to-end metrics as medians
over passes.  With --trace 1 it alternates untraced and traced
in-process passes of `morsematch.cli.main` and reports the per-layer
metrics.  Every tier output of every pass goes through the checker.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from checker import check_tier
from workloads import WORKLOADS, Workload, corpus_request, resolve

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 11
# Every child is killed past this point, so a run ends well inside 180 s
# even when the program under test hangs.
HARD_LIMIT_S = 160.0
# Seconds calibrate() takes on a 2.1 GHz Xeon VM under Python 3.11 when
# its host is quiet.  The host's speed swings by up to 1.6x for seconds
# at a time, so every timed interval is scaled by this over the mean of
# the calibrations taken just before and just after it.
CALIBRATION_REF_S = 0.035


def calibrate() -> float:
    """Time a fixed dict, sort and set workload that shares no package code."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(100_000):
        key = (i * 7919 % 4001, i % 3)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items())
    sample = {k for k, _ in ordered[::3]}
    sum(1 for k in counts if k in sample)
    return time.perf_counter() - t0


def child_env(src: str) -> dict:
    """The fixed environment of every child; no oracle budget leaks in."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": src, "PYTHONHASHSEED": "0"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def scaling_exponent(tiers: list[dict], walls: list[float]) -> float:
    """Slope of log wall over log size between the two largest tiers."""
    n0, n1 = tiers[-2]["n"], tiers[-1]["n"]
    return math.log(walls[-1] / walls[-2]) / math.log(n1 / n0)


class ChildWatch(threading.Thread):
    """Samples a child's peak resident set every 10 ms; kills it at the deadline.

    The peak comes from VmHWM in /proc/<pid>/status, which covers only the
    child's own address space.  Its rusage would not do: at exec the kernel
    folds the spawning process's peak into the child's ru_maxrss.
    """

    def __init__(self, proc: subprocess.Popen, deadline: float):
        super().__init__(daemon=True)
        self.proc = proc
        self.deadline = deadline
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        path = f"/proc/{self.proc.pid}/status"
        while not self._done.wait(0.01):
            if time.perf_counter() > self.deadline:
                self.proc.kill()
            try:
                with open(path, encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
            except (OSError, ValueError):
                pass

    def stop(self) -> None:
        self._done.set()
        self.join()


class Run:
    """One benchmark run: corpus, passes, checks and the numbers they give."""

    def __init__(self, workload: Workload, seed: int, src: str, workdir: str):
        self.wl = workload
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.env = child_env(src)
        self.t_start = time.perf_counter()
        self.manifest: list[dict] = []
        self.corpus = ""
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checksums: dict[str, str] = {}
        self.package_file = ""
        self.calibrations: list[float] = []
        self.peak_rss_kb = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t_start)

    def timed(self, fn):
        """Run fn; return (wall, wall scaled to the reference speed, result)."""
        before = self.calibrations[-1] if self.calibrations else calibrate()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.calibrations.append(calibrate())
        return wall, wall * CALIBRATION_REF_S * 2 / (before + self.calibrations[-1]), result

    def setup(self) -> list[float]:
        """Build the corpus SETUP_REPEATS times; return each scaled set-up time.

        Each set-up is one child that writes the corpus and imports
        morsematch.cli.  Every repeat must write byte-identical files.
        """
        times = []
        for i in range(SETUP_REPEATS):
            root = os.path.join(self.workdir, f"setup{i}")
            _, scaled, proc = self.timed(lambda: subprocess.run(
                [sys.executable, os.path.join(HERE, "workloads.py"), str(self.seed), root],
                input=corpus_request(self.wl), env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            ))
            times.append(scaled)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
            out = json.loads(proc.stdout)
            self.package_file = out["package_file"]
            if i == 0:
                self.manifest, self.corpus = out["manifest"], root
            elif out["manifest"] != self.manifest:
                self.fail("corpus differs between two set-ups with the same seed")
        expected = os.path.join(self.src, "morsematch", "__init__.py")
        if os.path.realpath(self.package_file) != os.path.realpath(expected):
            raise RuntimeError(f"children import {self.package_file}, not {expected}")
        return times

    def record(self, tier: dict, stdout: str, code: int, key: str) -> list[dict]:
        """Check one tier output; count the run and its rows as attempted."""
        rows, problems, failures = check_tier(stdout, code, tier, self.wl.algos, self.wl.allowed_exits)
        self.attempted += 1 + len(rows)
        if problems:
            self.fail(f"{tier['tier']}: {'; '.join(problems)}")
        for f in failures:
            self.fail(f"{tier['tier']}: {f}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.checksums.setdefault(tier["tier"], digest)
        if digest != first and not problems:
            self.fail(f"{tier['tier']}: {key} output differs from the first pass")
        return rows

    def tier_subprocess(self, tier: dict) -> list[dict]:
        """One CLI child, watched by a ChildWatch while this thread waits."""
        with tempfile.TemporaryFile(dir=self.workdir) as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "morsematch.cli", *self.wl.argv(tier["tier"])],
                cwd=self.corpus, env=self.env, stdout=out, stderr=subprocess.DEVNULL,
            )
            watch = ChildWatch(proc, time.perf_counter() + max(1.0, self.remaining()))
            watch.start()
            try:
                code = proc.wait()
            finally:
                watch.stop()
            self.peak_rss_kb = max(self.peak_rss_kb, watch.peak_kb)
            out.seek(0)
            stdout = out.read().decode()
        return self.record(tier, stdout, code, "CLI")

    def tier_inprocess(self, tier: dict, cli) -> list[dict]:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.corpus)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.wl.argv(tier["tier"]))
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = -1
            err.write(repr(exc))
        finally:
            os.chdir(cwd)
        return self.record(tier, out.getvalue(), code, "in-process")

    def run_pass(self, one_tier) -> dict:
        """Every tier once, smallest first; walls raw and scaled."""
        walls, scaled, rows = [], [], []
        for tier in self.manifest:
            if self.remaining() <= 0:
                self.attempted += 1
                self.fail(f"{tier['tier']}: not run, time limit reached")
                continue
            wall, s, tier_rows = self.timed(lambda: one_tier(tier))
            walls.append(wall)
            scaled.append(s)
            rows += tier_rows
        return {"walls": walls, "scaled": scaled, "rows": rows}

    def repeat(self, seconds: float, one_pass) -> list:
        """Repeat one_pass while the next one is expected to fit in seconds."""
        results, lengths = [], []
        t0 = time.perf_counter()
        while not results or (
            time.perf_counter() - t0 + statistics.median(lengths) <= seconds
            and self.remaining() > 0
        ):
            t = time.perf_counter()
            results.append(one_pass())
            lengths.append(time.perf_counter() - t)
        return results

    def work_units(self) -> int:
        """Simplices times algorithm rows in one pass."""
        return sum(t["n"] for t in self.manifest) * len(self.wl.algos)


def end_to_end(run: Run, seconds: float, setup_times: list[float]) -> tuple[dict, dict]:
    run.tier_subprocess(run.manifest[0])  # untimed warm-up
    passes = run.repeat(seconds, lambda: run.run_pass(run.tier_subprocess))
    passes = [p for p in passes if len(p["walls"]) == len(run.manifest)] or passes
    units = run.work_units()
    throughput = [units / sum(p["scaled"]) for p in passes]
    largest = [p["scaled"][-1] for p in passes]
    tiers = range(len(run.manifest))
    tier_s = [statistics.median(p["scaled"][i] for p in passes) for i in tiers]
    nodes = statistics.median(sum(r.get("nodes", 0) for r in p["rows"]) for p in passes)
    metrics = {
        "throughput_simplices_per_s": statistics.median(throughput),
        "largest_tier_s": statistics.median(largest),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
        "critical_total": statistics.median(
            sum(r["critical_total"] for r in p["rows"]) for p in passes
        ),
    }
    detail = {
        "passes": len(passes),
        "setups": len(setup_times),
        "quartiles": {
            "throughput_simplices_per_s": quartiles(throughput),
            "largest_tier_s": quartiles(largest),
            "setup_s": quartiles(setup_times),
            "raw_largest_tier_s": quartiles([p["walls"][-1] for p in passes]),
            "calibration_s": quartiles(run.calibrations),
        },
        "tier_s": tier_s,
        "raw_tier_s": [statistics.median(p["walls"][i] for p in passes) for i in tiers],
        "scaling_exponent": scaling_exponent(run.manifest, tier_s),
        "oracle_nodes_per_s": nodes / statistics.median(sum(p["scaled"]) for p in passes),
    }
    return metrics, detail


def per_layer(run: Run, seconds: float, spans_path: str) -> tuple[dict, dict]:
    import morsematch.cli as cli
    from tracer import Tracer

    def one_pair():
        plain = run.run_pass(lambda tier: run.tier_inprocess(tier, cli))
        with Tracer() as tracer:
            traced = run.run_pass(lambda tier: run.tier_inprocess(tier, cli))
        return plain, traced, tracer

    run.tier_inprocess(run.manifest[0], cli)  # untimed warm-up
    pairs = run.repeat(seconds, one_pair)
    pairs[-1][2].dump(spans_path)
    per_pass = []
    for _, traced, tracer in pairs:
        m = tracer.metrics()
        _, own, _ = tracer.times()
        m["cli.report_rows"] = len(traced["rows"])
        wall = sum(traced["walls"])
        m["trace.coverage"] = sum(own.values()) / wall
        # cli.main is the root span, so coverage is its share of the pass;
        # this is the share its wrapped callees account for.
        below = sum(t for name, t in own.items() if not name.startswith("cli."))
        m["trace.wrapped_share"] = below / wall
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    plain_s = statistics.median(sum(p["scaled"]) for p, _, _ in pairs)
    metrics["trace.overhead_s"] = statistics.median(sum(t["scaled"]) for _, t, _ in pairs) - plain_s
    tier_s = [statistics.median(p["scaled"][i] for p, _, _ in pairs) for i in range(len(run.manifest))]
    metrics["scaling_exponent"] = scaling_exponent(run.manifest, tier_s)
    nodes = statistics.median(sum(r.get("nodes", 0) for r in p["rows"]) for p, _, _ in pairs)
    metrics["oracle_nodes_per_s"] = nodes / plain_s
    metrics["checks.error_rate"] = run.failed / max(run.attempted, 1)
    detail = {"pairs": len(pairs), "tier_s": tier_s, "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, detail


def measure(wl: Workload, seed: int, seconds: float, trace: int, src: str) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail).

    Raises RuntimeError when set-up cannot import the package from src.
    """
    if src not in sys.path:
        sys.path.insert(0, src)
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        run = Run(resolve(wl, seed), seed, src, workdir)
        setup_times = run.setup()
        if trace:
            spans_path = os.path.join(WORK, f"spans-{wl.name}-seed{seed}.json")
            metrics, detail = per_layer(run, seconds, spans_path)
        else:
            metrics, detail = end_to_end(run, seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    detail.update({
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "morsematch_file": os.path.relpath(run.package_file, ROOT),
        "tiers": run.manifest,
        "output_sha256": run.checksums,
        "error_rate": run.failed / max(run.attempted, 1),
        "problems": run.problems,
    })
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--src", default=os.path.join(ROOT, "src"),
        help="package source tree to measure (default: this checkout's src/)",
    )
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "morsematch", "cli.py")):
        print(f"error: no morsematch package under {src}", file=sys.stderr)
        return 2
    os.environ.pop("MORSE_ORACLE_BUDGET", None)
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, src)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
