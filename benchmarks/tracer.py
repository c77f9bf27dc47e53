"""Spans around the package's public functions, recorded from outside.

The tracer replaces each function in TRACED by a wrapper at every
binding the package holds: the defining module, each module that
imported it by name, and dict values such as the CLI's algorithm table.
`OrientedHasse.up_pairs` is wrapped on the class.  Nothing under src/
changes, and leaving the `with` block always puts the originals back.

Spans stay in memory as [name, start, end, parent] with the parent's
index (-1 for a root), so a layer's self time is its span time minus
the time of the spans it directly caused.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("fileio", "complexes", "hasse", "frontier", "heuristics", "morse", "oracle", "cli")

# Per-simplex helpers (facets_of, canonical_key, facet_edges,
# leading_up_edges, OrientedHasse.is_up, ...) stay unwrapped: they run
# millions of times per pass and a wrapper would outweigh their work.
TRACED = (
    ("cli", "main"),
    ("fileio", "read_complex"),
    ("fileio", "parse_complex"),
    ("complexes", "from_maximal_simplices"),
    ("complexes", "betti_gf2"),
    ("complexes", "euler_characteristic"),
    ("hasse", "hasse"),
    ("hasse", "max_cardinality_matching"),
    ("hasse", "orient"),
    ("hasse", "OrientedHasse.up_pairs"),
    ("frontier", "frontier_edges_matching"),
    ("frontier", "bfs_component"),
    ("heuristics", "coreduction_matching"),
    ("heuristics", "reduction_matching"),
    ("morse", "certify"),
    ("morse", "is_acyclic"),
    ("morse", "critical_profile"),
    ("oracle", "optimal_morse_matching"),
)


class Tracer:
    """Context manager that wraps the package for the duration of a block."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.margin: float | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self) -> None:
        mods = {name: importlib.import_module(f"morsematch.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("morsematch"), *mods.values()]
        for layer, attr in TRACED:
            owner = mods[layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig, False))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{attr}", orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if key.startswith("__"):
                        continue
                    if val is orig:
                        self._undo.append((ns, key, orig, False))
                        setattr(ns, key, wrapper)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._undo.append((val, k2, orig, True))
                                val[k2] = wrapper

    def restore(self) -> None:
        while self._undo:
            obj, key, orig, is_item = self._undo.pop()
            if is_item:
                obj[key] = orig
            else:
                setattr(obj, key, orig)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counters from public result fields only."""
        c = self.counts
        if name == "frontier.frontier_edges_matching":
            c["frontier.components"] += len(result.components)
            c["frontier.kept_pairs"] += len(result.morse.pairs)
            c["frontier.source_pairs"] += result.source_matching_size
            for comp in result.components:
                c["frontier.reversed_edges"] += len(comp.backward)
                d = comp.dim
                kept = len(comp.forward) / (len(comp.forward) + len(comp.backward))
                margin = kept - (d + 1) / (d * d + d + 1)
                if self.margin is None or margin < self.margin:
                    self.margin = margin
        elif name == "oracle.optimal_morse_matching":
            c["oracle.calls"] += 1
            c["oracle.nodes"] += result.nodes
            c["oracle.optimal"] += bool(result.optimal)
            c["oracle.bound_gap"] += result.pair_upper_bound - len(result.matching.pairs)
        elif name in ("heuristics.coreduction_matching", "heuristics.reduction_matching"):
            c["heuristics.criticals"] += args[0].n - 2 * len(result.pairs)
        elif name == "fileio.read_complex":
            c["fileio.bytes_read"] += os.path.getsize(args[0])

    def times(self) -> tuple[dict, dict, Counter]:
        """Inclusive time, self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        A metric whose layer did not run reads 0.
        """
        incl, own, calls = self.times()
        c = self.counts
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, t in own.items():
            out[name.split(".")[0] + ".self_s"] += t
        complexes_read = calls["fileio.read_complex"]
        search_s = own["oracle.optimal_morse_matching"]
        out.update({
            "hasse.up_pairs_calls": calls["hasse.up_pairs"],
            "hasse.up_pairs_s": incl["hasse.up_pairs"],
            "frontier.seed_select_s": own["frontier.frontier_edges_matching"],
            "frontier.bfs_s": incl["frontier.bfs_component"],
            "hasse.max_matching_s": incl["hasse.max_cardinality_matching"],
            "hasse.max_matching_calls": calls["hasse.max_cardinality_matching"],
            "hasse.max_matching_per_complex": (
                calls["hasse.max_cardinality_matching"] / complexes_read if complexes_read else 0.0
            ),
            "morse.certify_s": incl["morse.certify"],
            "morse.certify_calls": calls["morse.certify"],
            "morse.is_acyclic_s": incl["morse.is_acyclic"],
            "hasse.orient_s": incl["hasse.orient"],
            "hasse.hasse_build_s": incl["hasse.hasse"],
            "hasse.hasse_build_calls": calls["hasse.hasse"],
            "morse.critical_profile_s": incl["morse.critical_profile"],
            "heuristics.coreduction_self_s": own["heuristics.coreduction_matching"],
            "heuristics.reduction_self_s": own["heuristics.reduction_matching"],
            "heuristics.criticals": c["heuristics.criticals"],
            "fileio.read_complex_s": incl["fileio.read_complex"],
            "fileio.bytes_read": c["fileio.bytes_read"],
            "complexes.closure_s": incl["complexes.from_maximal_simplices"],
            "complexes.closure_calls": calls["complexes.from_maximal_simplices"],
            "complexes.betti_s": incl["complexes.betti_gf2"],
            "complexes.betti_calls": calls["complexes.betti_gf2"],
            "oracle.search_s": search_s,
            "oracle.nodes": c["oracle.nodes"],
            "oracle.nodes_per_s": c["oracle.nodes"] / search_s if search_s else 0.0,
            "oracle.optimal_fraction": (
                c["oracle.optimal"] / c["oracle.calls"] if c["oracle.calls"] else 0.0
            ),
            "oracle.bound_gap": c["oracle.bound_gap"],
            "frontier.components": c["frontier.components"],
            "frontier.reversed_edges": c["frontier.reversed_edges"],
            "frontier.kept_ratio": (
                c["frontier.kept_pairs"] / c["frontier.source_pairs"]
                if c["frontier.source_pairs"] else 0.0
            ),
            "frontier.guarantee_margin": self.margin if self.margin is not None else 0.0,
            "trace.spans": len(self.spans),
        })
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": n, "start": s - t0, "end": e - t0, "parent": p}
                    for n, s, e, p in self.spans
                ],
                fh,
            )
