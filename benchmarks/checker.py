"""Independent checks of one `morse bench --json --no-timing` tier output.

Nothing here imports morsematch: every identity is recomputed from the
report fields and the corpus manifest.
"""
from __future__ import annotations

import json


def row_problems(row: dict, expected: dict | None = None) -> list[str]:
    """Everything wrong with one report row; empty when it is sound.

    expected, from the corpus manifest, pins n and the Euler
    characteristic of the complex the row claims to describe.
    """
    out = []
    n = row["n"]
    crit = list(row["critical_counts"])
    betti = list(row["betti"])
    if row["acyclic"] is not True:
        out.append("matching is not acyclic")
    if row["critical_total"] != sum(crit):
        out.append("critical_total differs from the sum of critical_counts")
    if row["critical_total"] + 2 * row["matched_pairs"] != n:
        out.append("critical_total + 2 * matched_pairs != n")
    if sum((-1) ** i * c for i, c in enumerate(crit)) != row["euler"]:
        out.append("alternating sum of critical_counts != euler")
    if expected is not None:
        if n != expected["n"]:
            out.append(f"n is {n}, the corpus file has {expected['n']}")
        if row["euler"] != expected["euler"]:
            out.append(f"euler is {row['euler']}, the corpus file has {expected['euler']}")
    top = max(len(crit), len(betti))
    c = crit + [0] * (top - len(crit))
    b = betti + [0] * (top - len(betti))
    for i in range(top):
        if c[i] < b[i]:
            out.append(f"weak Morse inequality fails in dimension {i}")
        strong_c = sum((-1) ** (i - j) * c[j] for j in range(i + 1))
        strong_b = sum((-1) ** (i - j) * b[j] for j in range(i + 1))
        if strong_c < strong_b:
            out.append(f"strong Morse inequality fails in dimension {i}")
    return out


def check_tier(
    stdout: str, code: int, tier: dict, algos, allowed_exits
) -> tuple[list[dict], list[str], list[str]]:
    """Parse and check one tier run.

    Returns (rows, tier_problems, row_failures): tier_problems covers the
    run as a whole (exit code, parse, missing rows), row_failures holds
    one message per failed row.
    """
    if code not in allowed_exits:
        return [], [f"exit code {code} not in {sorted(allowed_exits)}"], []
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"unreadable report: {exc}"], []
    problems = []
    files = tier["files"]
    want = {(name, algo) for name in files for algo in algos}
    got = [(r.get("complex"), r.get("algorithm")) for r in rows]
    if sorted(got) != sorted(want):
        problems.append("rows do not cover each file and algorithm exactly once")
    exhausted = any(r.get("optimal") is False for r in rows)
    if code != (4 if exhausted else 0):
        problems.append(f"exit code {code} does not match the rows' optimal flags")
    failures = []
    for r in rows:
        try:
            msgs = row_problems(r, files.get(r.get("complex")))
        except (KeyError, TypeError) as exc:
            msgs = [f"malformed row: {exc!r}"]
        if msgs:
            failures.append(f"{r.get('complex')}/{r.get('algorithm')}: " + "; ".join(msgs))
    return rows, problems, failures
