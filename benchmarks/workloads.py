"""Workload definitions and the deterministic corpus builder.

A workload is a list of size tiers; each tier is one corpus directory
that a single `morse bench` call processes.  Tier contents come only
from `morsematch.generators`.  Wedges and simplex boundaries are fixed;
every `random_complex` seed is derived from the workload seed, so the
same seed always writes byte-identical files.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace


@dataclass(frozen=True)
class Item:
    """One complex of a tier.

    kind is "wedge" (base "dunce" or "rp2", copies), "boundary" (n) or
    "random" (dim, vertices, and facets or a target size; always
    connected).  resolve() turns a target size into a facet count.
    """

    kind: str
    base: str = ""
    copies: int = 0
    n: int = 0
    dim: int = 0
    vertices: int = 0
    facets: int = 0
    size: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    algos: tuple[str, ...]
    tiers: tuple[tuple[Item, ...], ...]
    budget: int | None = None
    allowed_exits: frozenset[int] = field(default_factory=lambda: frozenset({0}))

    def argv(self, corpus: str) -> list[str]:
        """Arguments of `morse` for one tier; output is byte-stable."""
        out = ["bench", corpus, "--algos", ",".join(self.algos), "--json", "--no-timing"]
        if self.budget is not None:
            out += ["--budget", str(self.budget)]
        return out


def _wedges(dunce: int, rp2: int) -> tuple[Item, ...]:
    return (Item("wedge", base="dunce", copies=dunce), Item("wedge", base="rp2", copies=rp2))


def _random(dim: int, vertices: int, facets: int) -> tuple[Item, ...]:
    return (Item("random", dim=dim, vertices=vertices, facets=facets),)


def _sized(dim: int, vertices: int, size: int, count: int) -> tuple[Item, ...]:
    return (Item("random", dim=dim, vertices=vertices, size=size),) * count


# Tier sizes in the comments are simplex totals (random ones vary a few
# percent with the seed).  Every tier doubles the previous one, so the
# wall ratio of the two largest tiers gives the scaling exponent.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="frontier-wedge",
            algos=("frontier",),
            # 482, 962, 1922, 3842: hundreds of tiny 2-D components per
            # complex, so per-component seed selection dominates.
            tiers=(_wedges(5, 8), _wedges(10, 16), _wedges(20, 32), _wedges(40, 64)),
        ),
        Workload(
            name="greedy-large",
            algos=("coreduction", "reduction"),
            # ~7.8k, 14.9k, 30.2k: frontier never runs; parse, closure,
            # certify and the per-row report's max matching and Betti numbers
            # take the time.
            tiers=(
                _random(2, 200, 1600) + (Item("wedge", base="dunce", copies=80),),
                _random(3, 250, 1500) + (Item("boundary", n=11), Item("wedge", base="rp2", copies=100)),
                _random(3, 300, 3000) + _random(2, 300, 1200)
                + (Item("wedge", base="rp2", copies=200), Item("wedge", base="dunce", copies=120)),
            ),
        ),
        Workload(
            name="oracle-budget",
            algos=("oracle",),
            budget=50_000,
            # ~170, 326, 638.  Dunce-hat wedges never close their bound, so
            # each search runs to the node budget; RP2 wedges close it at
            # once from the greedy incumbent.  The random complex is small
            # so its seed-dependent critical count hardly moves the total.
            tiers=tuple(_wedges(k, k) + _sized(2, 6, 12, 1) for k in (2, 4, 8)),
            allowed_exits=frozenset({0, 4}),
        ),
    )
}


def derived_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_item(item: Item, seed: int):
    from morsematch import generators as g

    if item.kind == "wedge":
        base = {"dunce": g.dunce_hat, "rp2": g.rp2}[item.base]()
        return g.wedge(base, min(base.vertices), item.copies)
    if item.kind == "boundary":
        return g.simplex_boundary(item.n)[0]
    if item.kind == "random":
        if not item.facets:
            raise ValueError("a sized item needs resolve() before it is built")
        return g.random_complex(seed, item.dim, item.vertices, item.facets, connected=True)
    raise ValueError(f"unknown item kind {item.kind!r}")


def resolve(workload: Workload, seed: int) -> Workload:
    """workload with a facet count for every sized random item.

    A sized item takes the fewest facets that reach its target simplex
    count, so its size hardly moves with the seed and only its shape does.
    This search is the benchmark's own work, so it runs once, before the
    timed set-ups, which then build from the facet counts.
    """
    from morsematch.generators import random_complex

    tiers = []
    index = 0
    for items in workload.tiers:
        tier = []
        for item in items:
            if item.size:
                seed_i = derived_seed(workload.name, seed, index)

                def n(facets, item=item, seed_i=seed_i):
                    return random_complex(seed_i, item.dim, item.vertices, facets, connected=True).n

                # Facets are drawn one after another from the seed, so more
                # facets only add to the complex: double, then bisect.
                hi = 1
                while n(hi) < item.size:
                    hi *= 2
                lo = hi // 2 + 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if n(mid) >= item.size:
                        hi = mid
                    else:
                        lo = mid + 1
                item = replace(item, facets=hi)
            tier.append(item)
            index += 1
        tiers.append(tuple(tier))
    return replace(workload, tiers=tuple(tiers))


def build_corpus(workload: Workload, seed: int, root: str) -> list[dict]:
    """Write one directory per tier under root; return the tier manifest.

    Each manifest entry holds the tier directory name and, per file, the
    simplex count, Euler characteristic and sha256 of the written bytes.
    """
    from morsematch.complexes import euler_characteristic
    from morsematch.fileio import serialize_complex

    manifest = []
    index = 0
    for t, items in enumerate(workload.tiers, start=1):
        tier = f"tier{t}"
        os.makedirs(os.path.join(root, tier), exist_ok=True)
        files = {}
        for j, item in enumerate(items):
            K = build_item(item, derived_seed(workload.name, seed, index))
            index += 1
            data = serialize_complex(K).encode()
            name = f"{j:02d}-{item.kind}.txt"
            with open(os.path.join(root, tier, name), "wb") as fh:
                fh.write(data)
            files[name] = {
                "n": K.n,
                "euler": euler_characteristic(K),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        manifest.append({"tier": tier, "files": files, "n": sum(f["n"] for f in files.values())})
    return manifest


def main() -> None:
    """Set-up child: read {"name", "tiers"} on stdin, build the corpus.

    Usage: workloads.py SEED ROOT.  Prints {"manifest", "package_file"}.
    It runs in a fresh interpreter, so set-up includes the package import
    that every CLI call pays.
    """
    spec = json.load(sys.stdin)
    tiers = tuple(tuple(Item(**item) for item in tier) for tier in spec["tiers"])
    wl = Workload(name=spec["name"], algos=(), tiers=tiers)
    manifest = build_corpus(wl, int(sys.argv[1]), sys.argv[2])
    import morsematch
    import morsematch.cli  # noqa: F401  (the warm import)

    print(json.dumps({"manifest": manifest, "package_file": morsematch.__file__}))


def corpus_request(wl: Workload) -> str:
    """stdin for main(): what the set-up child needs to know of wl."""
    return json.dumps({
        "name": wl.name,
        "tiers": [[asdict(item) for item in tier] for tier in wl.tiers],
    })


if __name__ == "__main__":
    main()
