"""The three workloads: their inputs, their queries and the expected answers.

``setup(workload, seed, workdir)`` generates the inputs with
:mod:`inputs`, writes them, digests them and works out every expected
verdict without asking ``tbnet`` for an answer.  Why each workload exists
is written down in ``NOTES.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import checker
from inputs import (Net, Rng, random_network, sha256, temporal_network,
                    to_edgelist, to_enewick, tree_based_network)

# Sizes.  Every shape satisfies |V| = 2L + 2R - 1.  They are set so that a
# run of 30 s repeats every query about ten times (see NOTES.md).
LARGE = (3000, 2001)              # 10001 vertices
LARGE_DEVIATION = 3               # p of the temporal large input
MID = (3000, 2000)                # 9999 vertices
MID_DEVIATION = 12                # p of the completion input: 13 builds today
CLOSURE = (300, 200)              # 999 vertices for antichain --max
CORPUS_SIZE = 240
# ``generate``'s cost depends on its seed (its exact ranks grow with the
# random subdivision depth), so ``gen`` queries use a fixed seed and every
# run asks for the same work.
GEN_SEED = 1
ORACLE_VERTICES = 16              # every oracle used below accepts this size


@dataclass(frozen=True)
class Query:
    """One CLI call: ``python -m tbnet.cli <argv> --json``."""

    command: str                  # checker key; metric is <command>_ms
    argv: tuple[str, ...]
    network: str | None           # input name, None for ``gen``
    expect: dict


@dataclass
class Plan:
    queries: list[Query] = field(default_factory=list)
    inputs: dict[str, dict] = field(default_factory=dict)   # name -> path, fmt, sha256
    corpus_file: str | None = None
    corpus: list[dict] = field(default_factory=list)          # worker items
    corpus_expect: list[dict] = field(default_factory=list)

    def digests(self) -> dict[str, str]:
        return {name: spec["sha256"] for name, spec in self.inputs.items()}


def _write(plan: Plan, workdir: Path, name: str, net: Net, fmt: str) -> str:
    text = to_enewick(net) if fmt == "enewick" else to_edgelist(net)
    path = workdir / (name + (".nwk" if fmt == "enewick" else ".edges"))
    path.write_text(text)
    plan.inputs[name] = {"path": str(path), "fmt": fmt, "sha256": sha256(text)}
    return str(path)


def _leaf_set(net: Net, rng: Rng, k: int = 3) -> str:
    labels = sorted(net.labels.values())
    return ",".join(labels[i] for i in sorted(rng.distinct(len(labels), k)))


def _graph_of(net: Net) -> checker.Graph:
    return checker.Graph.build(net.num_vertices, net.arcs, net.labels)


def setup_large(seed: int, workdir: Path) -> Plan:
    """Three eNewick files of 10^4 vertices plus ``gen`` at the same size."""
    rng = Rng(seed)
    plan = Plan()
    rand = random_network(rng, *LARGE)
    tb = tree_based_network(rng, *LARGE)
    level = LARGE[1] - 3 * LARGE_DEVIATION
    temp = temporal_network(rng, LARGE[0], LARGE_DEVIATION, level)
    r = _write(plan, workdir, "random", rand, "enewick")
    t = _write(plan, workdir, "treebased", tb, "enewick")
    m = _write(plan, workdir, "temporal", temp, "enewick")
    g = _graph_of(rand)
    on_r = {"p": checker.w_fences(g), "temporal": checker.is_temporal(g)}
    on_t = {"p": 0, "temporal": None}
    on_m = {"p": LARGE_DEVIATION, "temporal": True, "property": False}
    rset = _leaf_set(rand, rng)
    plan.queries = [
        Query("check", ("check", r), "random", on_r),
        Query("indices", ("indices", r), "random", on_r),
        Query("paths", ("paths", r), "random", on_r),
        Query("spanning-tree", ("spanning-tree", r), "random", on_r),
        Query("temporal", ("temporal", r), "random", on_r),
        Query("antichain-set", ("antichain", "--set", rset, r), "random",
              {"set": rset.split(",")}),
        Query("check", ("check", t), "treebased", on_t),
        Query("temporal", ("temporal", m), "temporal", on_m),
        Query("complete", ("complete", m), "temporal", on_m),
        Query("antichain-property", ("antichain", "--check-property", m), "temporal", on_m),
        Query("gen", ("gen", "--leaves", str(LARGE[0]), "--retics", str(LARGE[1]),
                      "--seed", str(GEN_SEED)), None, {"gen": LARGE}),
    ]
    return plan


def setup_complete_antichain(seed: int, workdir: Path) -> Plan:
    """Edge lists: completion at 10^4 with p = MID_DEVIATION, the closure
    route of ``antichain --max`` at 10^3, and the linear commands on the
    completion input as the control at the same size."""
    rng = Rng(seed)
    plan = Plan()
    level = MID[1] - 3 * MID_DEVIATION
    comp = temporal_network(rng, MID[0], MID_DEVIATION, level)
    closure = random_network(rng, *CLOSURE)
    c = _write(plan, workdir, "completion", comp, "edgelist")
    a = _write(plan, workdir, "closure", closure, "edgelist")
    on_c = {"p": MID_DEVIATION, "temporal": True, "property": False}
    cset = _leaf_set(comp, rng)
    plan.queries = [
        Query("complete", ("complete", c), "completion", on_c),
        Query("check", ("check", c), "completion", on_c),
        Query("indices", ("indices", c), "completion", on_c),
        Query("paths", ("paths", c), "completion", on_c),
        Query("spanning-tree", ("spanning-tree", c), "completion", on_c),
        Query("temporal", ("temporal", c), "completion", on_c),
        Query("antichain-set", ("antichain", "--set", cset, c), "completion",
              {"set": cset.split(",")}),
        Query("antichain-property", ("antichain", "--check-property", c), "completion", on_c),
        Query("antichain-max", ("antichain", "--max", a), "closure", {}),
        Query("gen", ("gen", "--leaves", str(MID[0]), "--retics", str(MID[1]),
                      "--seed", str(GEN_SEED)), None, {"gen": MID}),
    ]
    return plan


def _corpus_network(rng: Rng, i: int) -> tuple[Net, bool]:
    """Network ``i`` of the corpus (3 to 51 vertices); the flag says whether
    it is temporal by construction.  The kind and shape depend on ``i``
    only, so every seed gives the same mix of sizes."""
    leaves = 2 + (i // 3) % 15
    if i % 3 == 0:
        return random_network(rng, leaves, (7 * i) % 11), False
    if i % 3 == 1:
        return tree_based_network(rng, leaves, (7 * i) % 11), False
    deviation = (i // 45) % min(3, max(1, leaves - 3))
    level = (5 * i) % (leaves - 1 - deviation)
    return temporal_network(rng, leaves, deviation, level), True


def _corpus_expect(net: Net, g: checker.Graph, temporal_built: bool) -> dict:
    """Expected answers: tbnet.oracles within their bounds, otherwise the
    construction or this benchmark's own W-fence count and temporal test.
    The property is expected only where one of those decides it."""
    from tbnet import oracles
    from tbnet.network import PhyloNetwork

    if g.n <= ORACLE_VERTICES:
        pn = PhyloNetwork(net.arcs, net.labels, net.num_vertices)
        return {"p": oracles.oracle_min_spanning_tree_extra_leaves(pn),
                "temporal": oracles.oracle_temporal(pn),
                "max_antichain": oracles.oracle_max_antichain(pn),
                "property": oracles.oracle_antichain_to_leaf_property(pn)}
    p = checker.w_fences(g)
    temporal = temporal_built or checker.is_temporal(g)
    # For temporal networks the property holds exactly when p = 0.
    return {"p": p, "temporal": temporal, "max_antichain": None,
            "property": p == 0 if temporal and g.n <= 18 else None}


def setup_corpus(seed: int, workdir: Path) -> Plan:
    """Small networks, half eNewick text and half edge lists, answered in
    one process through the library."""
    rng = Rng(seed)
    plan = Plan()
    items = plan.corpus
    for i in range(CORPUS_SIZE):
        net, temporal_built = _corpus_network(rng, i)
        fmt = "enewick" if i % 2 == 0 else "edgelist"
        text = to_enewick(net) if fmt == "enewick" else to_edgelist(net)
        g = checker.parse(text, fmt)
        expect = _corpus_expect(net, _graph_of(net), temporal_built)
        leaves = sorted(g.labels)
        pair = [leaves[j] for j in sorted(rng.distinct(len(leaves), 2))]
        expect.update(set=pair, gen=(net.leaves, net.reticulations))
        items.append({"fmt": fmt, "text": text, "pair": pair,
                      "gen": [net.leaves, net.reticulations, GEN_SEED + i],
                      "property": expect["property"] is not None})
        plan.corpus_expect.append(expect)
        plan.inputs[f"net{i}"] = {"fmt": fmt, "sha256": sha256(text)}
    path = workdir / "corpus.json"
    path.write_text(json.dumps(items))
    plan.corpus_file = str(path)
    return plan


SETUPS = {
    "large": setup_large,
    "corpus": setup_corpus,
    "complete-antichain": setup_complete_antichain,
}
