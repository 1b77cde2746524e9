"""Answer a corpus of small networks through the tbnet library.

This is how a simulation study that classifies every network of a shape
calls tbnet: one process, one network at a time, every query per network.
Run as ``python perfbench/corpus_worker.py CORPUS.json SECONDS`` with
``src`` on ``PYTHONPATH``; it prints one JSON object with the per-call
times at reference host speed (``speed.py``), the first pass's answers in
the CLI's payload shapes, and how many later answers differed from the
first.  The benchmark imports it to run the same loop under tracing.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from statistics import median

import speed
from tbnet.antichains import (antichain_to_leaf, has_antichain_to_leaf_property,
                              is_temporal, max_antichain)
from tbnet.edgelist import parse_edgelist
from tbnet.enewick import parse_enewick
from tbnet.generate import GenSpec, generate
from tbnet.treebased import (deviation_indices, is_tree_based, rooted_spanning_tree,
                             tree_based_completion, vertex_disjoint_paths)


def _graph(net) -> dict:
    return {"n": net.num_vertices, "edges": [list(e) for e in net.edges],
            "labels": {str(v): name for v, name in net.leaf_labels.items()}}


def _check_payload(result) -> dict:
    based, cert = result
    if based:
        certificate = {"kind": "base_tree", "edges": [list(e) for e in cert.tree.edges]}
    else:
        certificate = {"kind": "rr_path", "rr_path": list(cert.rr_path),
                       "u1": list(cert.u1), "u2": list(cert.u2)}
    return {"tree_based": based, "certificate": certificate}


def _tree_payload(net, tree) -> dict:
    outside = tree.unlabeled_leaves(net)
    return {"root": tree.root, "edges": [list(e) for e in tree.edges],
            "leaves": list(tree.leaves), "unlabeled_leaves": list(outside),
            "unlabeled_leaf_count": len(outside)}


def answer(item: dict, times: dict[str, float], errors: list[str]) -> dict | None:
    """Run every query on one network; put each call's ms in ``times`` and
    return the payloads (None when any query raised)."""
    out: dict = {}

    def timed(command: str, call):
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crash is a failed query, not a crashed run
            errors.append(f"{command}: {exc!r}")
            return None
        times[command] = (time.perf_counter() - start) * 1000.0
        return result

    parser = parse_enewick if item["fmt"] == "enewick" else parse_edgelist
    net = timed("parse", lambda: parser(item["text"]))
    if net is None:
        return None
    results = {
        "check": timed("check", lambda: is_tree_based(net)),
        "indices": timed("indices", lambda: deviation_indices(net)),
        "paths": timed("paths", lambda: vertex_disjoint_paths(net)),
        "spanning-tree": timed("spanning-tree", lambda: rooted_spanning_tree(net)),
        "complete": timed("complete", lambda: tree_based_completion(net)),
        "temporal": timed("temporal", lambda: is_temporal(net)),
        "antichain-max": timed("antichain-max", lambda: max_antichain(net)),
        "antichain-set": timed("antichain-set", lambda: antichain_to_leaf(net, item["pair"])),
        "gen": timed("gen", lambda: generate(GenSpec(*item["gen"]))),
    }
    if item["property"] and results["temporal"] is not None:
        mode = "temporal-shortcut" if results["temporal"][0] else "exhaustive"
        holds = timed("antichain-property",
                      lambda: has_antichain_to_leaf_property(net, mode=mode))
        results["antichain-property"] = None if holds is None else (mode, holds)
    if any(r is None for r in results.values()):
        return None

    out["check"] = _check_payload(results["check"])
    out["indices"] = results["indices"].as_dict()
    partition = results["paths"]
    out["paths"] = {"count": partition.size, "paths": [list(p) for p in partition.paths]}
    out["spanning-tree"] = _tree_payload(net, results["spanning-tree"])
    done = results["complete"]
    out["complete"] = {"attachments": len(done.attached_edges),
                       "attached_edges": [list(e) for e in done.attached_edges],
                       "new_labels": list(done.labels), "network": _graph(done.network)}
    temporal, tmap = results["temporal"]
    out["temporal"] = {"temporal": temporal, "ranks": list(tmap.ranks) if tmap else None}
    antichain, chains = results["antichain-max"]
    out["antichain-max"] = {"antichain": list(antichain), "size": len(antichain),
                            "chain_cover": [list(c) for c in chains]}
    routed, witness = results["antichain-set"]
    out["antichain-set"] = {"set": list(item["pair"]), "routes_to_leaves": routed,
                            "paths": [list(p) for p in witness.paths] if witness else None}
    if "antichain-property" in results:
        mode, holds = results["antichain-property"]
        out["antichain-property"] = {"strategy": mode, "holds": holds}
    generated = results["gen"]
    out["gen"] = {"num_vertices": generated.num_vertices, "network": _graph(generated)}
    return out


COMMANDS = ("parse", "check", "indices", "paths", "spanning-tree", "complete", "temporal",
            "antichain-max", "antichain-set", "antichain-property", "gen")
# The host's slowdown is measured between blocks of BLOCK networks (about
# 10 ms of calls) with a loop of SLOWDOWN_ROUNDS (about 1 ms); a block's
# times are scaled by the mean of the slowdowns before and after it.
BLOCK = 8
SLOWDOWN_ROUNDS = 4_000
# Every call's times are kept in arrays allocated up front, so that the
# worker's peak RSS does not grow with the number of passes; a run stops
# after MAX_PASSES (30 s gives about 60).
MAX_PASSES = 120


def run_corpus(items: list[dict], seconds: float) -> dict:
    """Answer the corpus in passes: one full pass, then more while time is
    left.  Returns each call's median time per network over the passes, at
    reference speed, the time of each pass (its timed calls only, leaving
    out this loop's bookkeeping), the slowdowns measured, the first pass's
    answers, and how many later answers differed from them."""
    empty = array("d", [math.nan]) * MAX_PASSES
    samples = {c: [array("d", empty) for _ in items] for c in COMMANDS}
    slowdowns = [speed.slowdown(SLOWDOWN_ROUNDS)]
    errors: list[str] = []
    first: list[dict | None] = []
    texts: list[str | None] = []
    pass_seconds: list[float] = []
    mismatches = calls = 0
    start = time.perf_counter()
    while True:
        spent = 0.0
        block: list[tuple[int, dict[str, float]]] = []
        for i, item in enumerate(items):
            times: dict[str, float] = {}
            payloads = answer(item, times, errors)
            calls += len(times)
            spent += sum(times.values())
            block.append((i, times))
            if len(block) == BLOCK or i == len(items) - 1:
                slowdowns.append(speed.slowdown(SLOWDOWN_ROUNDS))
                slowdown = (slowdowns[-2] + slowdowns[-1]) / 2
                for j, timed_calls in block:
                    for command, ms in timed_calls.items():
                        samples[command][j][len(pass_seconds)] = ms / slowdown
                block = []
            text = None if payloads is None else json.dumps(payloads, sort_keys=True)
            if not pass_seconds:
                first.append(payloads)
                texts.append(text)
            elif text != texts[i]:
                mismatches += 1
        pass_seconds.append(spent / 1000.0)
        if time.perf_counter() - start >= seconds or len(pass_seconds) == MAX_PASSES:
            break
    query_ms = {c: [median(t) if t else None
                    for t in ([x for x in ts if not math.isnan(x)] for ts in per_net)]
                for c, per_net in samples.items()}
    return {"query_ms": query_ms, "calls": calls, "pass_seconds": pass_seconds,
            "slowdowns": slowdowns, "answers": first, "errors": errors,
            "mismatches": mismatches}


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        items = json.load(fh)
    json.dump(run_corpus(items, float(argv[1])), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
