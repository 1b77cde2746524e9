"""Traced run: per-layer spans from wrapping tbnet's functions in process.

Every function named in ``WRAPPED`` is replaced, wherever a tbnet module
(or the corpus worker) holds a reference to it, by a wrapper that records a
span: name, start, end, parent span and query id.  Nested calls become
child spans, and no file under ``src/`` changes.  Spans stay in memory and
are written out when the run ends.  A layer's self time is its spans'
duration minus the part their child spans cover.

Allocation peaks come from a separate pass with ``tracemalloc`` switched on
only inside the outermost network construction and the outermost
memory-heavy antichain call.  The tracing overhead is the time of the
traced calls minus that of the same calls made untraced right next to them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path

WRAPPED = {
    "tbnet.cli": ("main",),
    "tbnet.enewick": ("parse_enewick", "serialize_enewick"),
    "tbnet.edgelist": ("parse_edgelist",),
    "tbnet.network": ("validate", "attach_leaf"),
    "tbnet.generate": ("generate",),
    "tbnet.matching": ("max_matching", "min_vertex_cover", "build_gn", "find_rr_path"),
    "tbnet.treebased": ("is_tree_based", "deviation_indices", "vertex_disjoint_paths",
                        "rooted_spanning_tree", "tree_based_completion", "_failure_witness"),
    "tbnet.antichains": ("is_temporal", "is_antichain", "antichain_to_leaf", "max_antichain",
                         "has_antichain_to_leaf_property", "temporal_violating_antichain"),
}
METHODS = {"__init__": "network.build", "topological_order": "network.topo_order"}

# Per-span counts: input bytes parsed, edges handed to the matcher.
COUNTERS = {
    "enewick.parse_enewick": lambda text, *a, **k: len(text.encode()),
    "matching.max_matching": lambda g, *a, **k: sum(map(len, g.adj)),
}

# The calls whose allocation peaks are watched: construction, and the
# antichain routes that build descendant bitmasks, flow networks or the
# transitive closure.
ALLOC_LAYERS = {"network.build": "network", "antichains.is_antichain": "antichains",
                "antichains.antichain_to_leaf": "antichains",
                "antichains.max_antichain": "antichains"}
ANTICHAIN_COMMANDS = ("temporal", "antichain-set", "antichain-max", "antichain-property")


def _span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


@contextlib.contextmanager
def patched(make_wrapper, extra_modules=()):
    """Swap every reference to a wrapped function in tbnet's modules (and
    ``extra_modules``) for ``make_wrapper(span_name, function)``."""
    from tbnet.network import PhyloNetwork

    replacement = {}
    for module, names in WRAPPED.items():
        mod = importlib.import_module(module)
        for name in names:
            fn = getattr(mod, name)
            replacement[id(fn)] = (fn, make_wrapper(_span_name(module, name), fn))
    targets = [m for n, m in sys.modules.items() if n == "tbnet" or n.startswith("tbnet.")]
    saved = []
    for mod in list(targets) + list(extra_modules):
        for attr, value in list(vars(mod).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    for attr, name in METHODS.items():
        original = PhyloNetwork.__dict__[attr]
        saved.append((PhyloNetwork, attr, original))
        setattr(PhyloNetwork, attr, make_wrapper(name, original))
    try:
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


class Tracer:
    """Spans as ``[name, start, end, parent, query, count]`` lists; the
    query id numbers the outermost calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.queries = 0

    def wrapper(self, name: str, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # an outermost call is one query
                self.queries += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.queries - 1,
                    counter(*args, **kwargs) if counter else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query, "count": count}) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost inclusive ms, self ms, calls, count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _, count) in enumerate(self.spans):
            t = out.setdefault(name, {"incl_ms": 0.0, "self_ms": 0.0, "calls": 0, "count": 0})
            t["self_ms"] += (end - start - child[i]) * 1000.0
            t["calls"] += 1
            t["count"] += count
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < 0:
                t["incl_ms"] += (end - start) * 1000.0
        return out


class AllocPeaks:
    """Peak traced bytes inside the outermost call of each watched layer."""

    def __init__(self):
        self.peak_mb = {layer: 0.0 for layer in set(ALLOC_LAYERS.values())}

    def wrapper(self, name: str, fn):
        layer = ALLOC_LAYERS.get(name)
        if layer is None:
            return fn

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[layer] = max(self.peak_mb[layer], peak)
        return watched


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``tbnet.cli.main(argv)`` with stdout captured: the CLI path without
    interpreter start."""
    import tbnet.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = tbnet.cli.main(argv)
    return rc, buffer.getvalue()


def layer_metrics(tracer: Tracer, queries: int, out_bytes: int, peaks: AllocPeaks,
                  untraced_s: float, traced_s: float) -> dict[str, float]:
    """The per-layer metrics of the traced calls.  Times are totals in ms;
    ``*_calls``, ``network.builds`` and ``network.topo_order_calls`` are
    per query."""
    t = tracer.totals()

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0.0)

    treebased_self = sum(v["self_ms"] for k, v in t.items()
                         if k.startswith("treebased.") and k != "treebased.tree_based_completion")
    return {
        "cli.self_ms": get("cli.main", "self_ms"),
        "cli.out_bytes": out_bytes,
        "enewick.parse_self_ms": get("enewick.parse_enewick", "self_ms"),
        "enewick.in_bytes": get("enewick.parse_enewick", "count"),
        "enewick.serialize_ms": get("enewick.serialize_enewick", "incl_ms"),
        "edgelist.parse_self_ms": get("edgelist.parse_edgelist", "self_ms"),
        "network.build_ms": get("network.build", "incl_ms"),
        "network.validate_ms": get("network.validate", "incl_ms"),
        "network.builds": get("network.build", "calls") / queries,
        "network.attach_leaf_ms": get("network.attach_leaf", "incl_ms"),
        "network.topo_order_calls": get("network.topo_order", "calls") / queries,
        "network.topo_order_ms": get("network.topo_order", "incl_ms"),
        "network.peak_alloc_mb": peaks.peak_mb["network"],
        "generate.generate_ms": get("generate.generate", "incl_ms"),
        "matching.max_matching_calls": get("matching.max_matching", "calls") / queries,
        "matching.max_matching_ms": get("matching.max_matching", "incl_ms"),
        "matching.graph_edges": get("matching.max_matching", "count"),
        "matching.find_rr_path_ms": get("matching.find_rr_path", "incl_ms"),
        "treebased.self_ms": treebased_self,
        "treebased.completion_self_ms": get("treebased.tree_based_completion", "self_ms"),
        "antichains.is_temporal_ms": get("antichains.is_temporal", "incl_ms"),
        "antichains.is_antichain_ms": get("antichains.is_antichain", "incl_ms"),
        "antichains.flow_ms": get("antichains.antichain_to_leaf", "self_ms"),
        "antichains.max_antichain_self_ms": get("antichains.max_antichain", "self_ms"),
        "antichains.property_ms": get("antichains.has_antichain_to_leaf_property", "incl_ms"),
        "antichains.peak_alloc_mb": peaks.peak_mb["antichains"],
        "trace.queries": queries,
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": untraced_s,
        "trace.overhead_ms": (traced_s - untraced_s) * 1000.0,
    }


def trace_cli(plan, workdir: Path):
    """In process: first the allocation pass, over the queries that reach
    the antichain layer plus one query per remaining input; then every
    query twice, untraced and traced, in alternating order.  Repeated
    in-process queries slow down as the heap ages, so only adjacent
    untraced and traced calls are compared.  The traced answers are
    checked; the others must equal them."""
    import checker
    import measure

    def call(q):
        start = time.perf_counter()
        try:
            rc, stdout = run_cli_in_process([*q.argv, "--json"])
        except Exception as exc:  # a crash is a failed query, not a crashed run
            rc, stdout = None, f"raised {exc!r}"
        return time.perf_counter() - start, (q, rc, stdout)

    watch = [q for q in plan.queries if q.command in ANTICHAIN_COMMANDS]
    covered = {q.network for q in watch}
    for q in plan.queries:
        if q.network is not None and q.network not in covered:
            watch.append(q)
            covered.add(q.network)
    peaks = AllocPeaks()
    with patched(peaks.wrapper):
        watched = [call(q)[1] for q in watch]

    tracer = Tracer()
    untraced, traced = [], []
    untraced_s = traced_s = 0.0
    for i, q in enumerate(plan.queries):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                with patched(tracer.wrapper):
                    seconds, out = call(q)
                traced_s += seconds
                traced.append(out)
            else:
                seconds, out = call(q)
                untraced_s += seconds
                untraced.append(out)

    graphs = measure.input_graphs(plan)
    failures = []
    reference = {}
    for q, rc, stdout in traced:
        reference[id(q)] = stdout
        try:
            if rc is None:
                raise checker.CheckError(stdout)
            measure.check_cli_answer(q, rc, stdout, graphs, plan)
        except checker.CheckError as exc:
            failures.append(f"{' '.join(q.argv)}: {exc}")
    for q, rc, stdout in watched + untraced:
        if rc is None or not measure.same_report(stdout, reference[id(q)]):
            failures.append(f"{' '.join(q.argv)}: answer differs from the traced pass")
    out_bytes = sum(len(stdout.encode()) for _, _, stdout in traced)
    metrics = layer_metrics(tracer, len(plan.queries), out_bytes, peaks, untraced_s, traced_s)
    tracer.write(workdir / "spans.jsonl")
    return metrics, 2 * len(plan.queries) + len(watch), failures


def trace_corpus(plan, workdir: Path):
    """The allocation pass over the whole corpus, then untraced and traced
    passes in the order U T T U.  Per-layer times and counts cover both
    traced passes; the untraced time and the overhead are per pass."""
    import corpus_worker
    import measure

    peaks = AllocPeaks()
    with patched(peaks.wrapper, [corpus_worker]):
        runs = [corpus_worker.run_corpus(plan.corpus, 0)]
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for with_spans in (False, True, True, False):
        if with_spans:
            with patched(tracer.wrapper, [corpus_worker]):
                runs.append(corpus_worker.run_corpus(plan.corpus, 0))
            traced_s += sum(runs[-1]["pass_seconds"]) / 2
        else:
            runs.append(corpus_worker.run_corpus(plan.corpus, 0))
            untraced_s += sum(runs[-1]["pass_seconds"]) / 2
    failures = [f for out in runs for f in measure.corpus_failures(plan, out)]
    calls = [out["calls"] + len(out["errors"]) for out in runs]
    metrics = layer_metrics(tracer, calls[2] + calls[3], 0, peaks, untraced_s, traced_s)
    tracer.write(workdir / "spans.jsonl")
    return metrics, sum(calls), failures
