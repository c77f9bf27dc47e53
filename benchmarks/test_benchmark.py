"""Fast checks of the benchmark itself: tiny workloads, tracer, checker, corpus."""
from __future__ import annotations

import dataclasses
import json
import os

import pytest

import checker
import run as bench
import steady
import tracer
from workloads import WORKLOADS, Item, build_corpus, derived_seed, resolve

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
SRC = os.path.join(bench.ROOT, "src")

# Same generators and algorithms as the real workloads, a few dozen
# simplices per complex.
TINY_TIERS = {
    "frontier-wedge": ((Item("wedge", base="dunce", copies=1), Item("wedge", base="rp2", copies=1)),
                       (Item("wedge", base="dunce", copies=2), Item("wedge", base="rp2", copies=2))),
    "greedy-large": ((Item("random", dim=2, vertices=10, facets=12), Item("boundary", n=3)),
                     (Item("random", dim=3, vertices=12, facets=20), Item("wedge", base="rp2", copies=2))),
    "oracle-budget": ((Item("wedge", base="dunce", copies=1),),
                      (Item("random", dim=2, vertices=6, facets=6),)),
}


def tiny(name: str):
    budget = 300 if WORKLOADS[name].budget else None
    return dataclasses.replace(WORKLOADS[name], tiers=TINY_TIERS[name], budget=budget)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY_TIERS))
def test_tiny_run_reports_every_metric(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = bench.measure(tiny(name), seed=1, seconds=0, trace=trace, src=SRC)
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            share = result["metrics"]["trace.wrapped_share"]["value"]
            assert 0 < share < result["metrics"]["trace.coverage"]["value"]
        else:
            assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_wrapped_functions_cover_most_of_a_real_frontier_pass():
    wl = WORKLOADS["frontier-wedge"]
    wl = dataclasses.replace(wl, tiers=wl.tiers[:2])
    result, _ = bench.measure(wl, seed=1, seconds=0, trace=1, src=SRC)
    assert result["metrics"]["trace.wrapped_share"]["value"] >= 0.9


def test_compare_withholds_a_gain_when_the_change_fails_more(monkeypatch, capsys):
    def fake_run(workload, seed, seconds, src):
        change = src == "change"
        metrics = {m["name"]: 2.0 if change and m["better"] == "higher" else 1.0
                   for m in SPEC["end_to_end"]}
        return {"metrics": metrics, "failed": int(change), "attempted": 10}

    monkeypatch.setattr(steady, "run_once", fake_run)
    assert steady.compare(SPEC, seeds=10, seconds=1, parent="parent", change="change") == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if "throughput_simplices_per_s" in line]
    assert verdicts and all(v.endswith("gain withheld") for v in verdicts)


def test_run_without_package_exits_2_without_a_result(tmp_path, capsys):
    assert bench.main(["--workload", "oracle-budget", "--seed", "1", "--seconds", "1",
                       "--src", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


def _bindings():
    import importlib

    out = {}
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"morsematch.{layer}")
        for key, val in vars(mod).items():
            out[(layer, key)] = val
            if isinstance(val, dict) and not key.startswith("__"):
                out.update({(layer, key, k): v for k, v in val.items()})
    hasse = importlib.import_module("morsematch.hasse")
    out["up_pairs"] = hasse.OrientedHasse.__dict__["up_pairs"]
    return out


def test_tracer_restores_originals_even_after_an_error():
    from morsematch import cli, generators

    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer() as t:
            assert cli.HEURISTICS["coreduction"] is not before[("cli", "HEURISTICS", "coreduction")]
            cli.coreduction_matching(generators.rp2())
            1 / 0
    assert _bindings() == before
    names = {span[0] for span in t.spans}
    assert {"heuristics.coreduction_matching", "morse.certify", "hasse.up_pairs"} <= names


def _row(**changes):
    # rp2: 31 simplices, Euler characteristic 1, mod-2 Betti numbers
    # (1, 1, 1), here with one critical simplex per dimension.
    row = {"complex": "a.txt", "algorithm": "frontier", "n": 31, "euler": 1,
           "critical_counts": [1, 1, 1], "critical_total": 3, "matched_pairs": 14,
           "betti": [1, 1, 1], "acyclic": True}
    row.update(changes)
    return row


def test_checker_accepts_a_sound_row_and_rejects_doctored_ones():
    assert checker.row_problems(_row(), {"n": 31, "euler": 1}) == []
    assert "matching is not acyclic" in checker.row_problems(_row(acyclic=False))
    wrong_euler = checker.row_problems(_row(critical_counts=[1, 3, 1], critical_total=5,
                                            matched_pairs=13))
    assert "alternating sum of critical_counts != euler" in wrong_euler
    assert checker.row_problems(_row(), {"n": 31, "euler": 0})
    assert any("weak Morse" in p for p in checker.row_problems(_row(betti=[1, 2, 1])))


def test_checker_rejects_a_doctored_report_and_a_bad_exit_code():
    tier = {"tier": "tier1", "files": {"a.txt": {"n": 31, "euler": 1}}}
    good = json.dumps({"rows": [_row()]})
    assert checker.check_tier(good, 0, tier, ("frontier",), {0})[1:] == ([], [])
    cyclic = json.dumps({"rows": [_row(acyclic=False)]})
    assert checker.check_tier(cyclic, 0, tier, ("frontier",), {0})[2]
    assert checker.check_tier(good, 4, tier, ("frontier",), {0})[1]
    assert checker.check_tier("not json", 0, tier, ("frontier",), {0})[1]


def test_seed_changes_random_corpora_but_not_wedges(tmp_path):
    wl = dataclasses.replace(WORKLOADS["greedy-large"], tiers=TINY_TIERS["greedy-large"])

    def digests(seed, sub):
        manifest = build_corpus(wl, seed, str(tmp_path / sub))
        return {(t["tier"], name): f["sha256"] for t in manifest for name, f in t["files"].items()}

    one, two = digests(1, "a"), digests(2, "b")
    assert digests(1, "c") == one
    assert {"random" in name for _, name in one} == {True, False}
    for key in one:
        assert (one[key] == two[key]) == ("random" not in key[1]), key


def test_resolve_picks_the_fewest_facets_that_reach_the_size():
    from morsematch.generators import random_complex

    sized = Item("random", dim=3, vertices=12, size=40)
    wl = dataclasses.replace(WORKLOADS["oracle-budget"], tiers=((sized,),))
    item = resolve(wl, 7).tiers[0][0]
    seed = derived_seed(wl.name, 7, 0)

    def n(facets):
        return random_complex(seed, item.dim, item.vertices, facets, connected=True).n

    assert n(item.facets) >= 40 > n(item.facets - 1)
