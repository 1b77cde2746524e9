"""Untraced measurement: one tbnet CLI process per query, or one corpus
worker process, timed from spawn to exit, with peak RSS from ``wait4``.

Queries run one at a time (a closed loop with one client).  A run repeats
whole passes over the workload's queries; it starts another pass only when
the previous pass's duration still fits in ``--seconds``, so every query
has the same number of repeats.  Every time is scaled to reference host
speed by the slowdowns measured right before and right after it
(:func:`speed.process_slowdown`; one measurement sits between two queries).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import checker
import speed
from plans import Plan, Query

QUERY_TIMEOUT_S = 120.0

# Metric name of each checker command.
METRIC = {
    "check": "check_ms", "indices": "indices_ms", "paths": "paths_ms",
    "spanning-tree": "spanning_tree_ms", "temporal": "temporal_ms",
    "complete": "complete_ms", "antichain-max": "antichain_max_ms",
    "antichain-set": "antichain_set_ms", "antichain-property": "antichain_property_ms",
    "gen": "gen_ms",
}


def child_env(root: Path) -> dict[str, str]:
    """Environment for tbnet children: the checkout's ``src`` first."""
    paths = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@dataclass
class Spawned:
    rc: int
    seconds: float
    rss_mb: float
    timed_out: bool


def spawn(argv: list[str], root: Path, stdout_path: Path) -> Spawned:
    """Run ``argv`` to completion, stdout to a file; kill it at the timeout."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=child_env(root))
        timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                   timed_out=seconds >= QUERY_TIMEOUT_S)


@dataclass
class Result:
    """What one run measured, before it is turned into metrics.

    Each query is repeated across the run.  Its time is the median of its
    repeats, each scaled to reference speed by the slowdown measured next
    to it (``speed.py``).
    """

    query_ms: dict[str, list[float]]     # command -> median time of each query
    repeats: int                         # passes over the queries
    pass_s: float                        # every query once, at its median time
    slowdowns: list[float]               # host slowdowns measured
    repeat_ms: list[list[float]]         # CLI: each query's scaled repeats
    rss_mb: list[float]
    attempted: int
    failures: list[str]
    networks_per_pass: int               # networks whose every answer passed


def _stderr_tail(path: Path) -> str:
    text = path.with_suffix(".err").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def check_cli_answer(q: Query, rc: int, stdout: str, graphs: dict, plan: Plan) -> None:
    """Check the envelope and the payload of one CLI answer."""
    try:
        envelope = json.loads(stdout)
    except ValueError:
        raise checker.CheckError(f"exit {rc} without a JSON report") from None
    want_cmd = q.argv[0]
    if envelope.get("tool") != "tbnet" or envelope.get("command") != want_cmd:
        raise checker.CheckError(f"envelope is not a tbnet {want_cmd} report")
    if q.network is not None and envelope.get("input_sha256") != plan.inputs[q.network]["sha256"]:
        raise checker.CheckError("the CLI read other bytes than were generated")
    checker.check_answer(q.command, graphs.get(q.network), rc, envelope["payload"], q.expect)


def same_report(a: str, b: str) -> bool:
    """Equal CLI reports apart from the envelope's elapsed time."""
    def strip(text: str) -> list[str]:
        return [line for line in text.splitlines() if '"elapsed_ms":' not in line]
    return strip(a) == strip(b)


def input_graphs(plan: Plan) -> dict[str, checker.Graph]:
    graphs = {}
    for name, spec in plan.inputs.items():
        graphs[name] = checker.parse(Path(spec["path"]).read_text(), spec["fmt"])
    return graphs


def measure_cli(plan: Plan, root: Path, workdir: Path, seconds: float) -> Result:
    """Passes over the queries while the last pass still fits in
    ``seconds``.  The first pass's answers are checked; every later answer
    must equal the first."""
    graphs = input_graphs(plan)
    first: list[str | None] = [None] * len(plan.queries)
    times: list[list[float]] = [[] for _ in plan.queries]
    rss: list[float] = []
    walls: list[float] = []
    env = child_env(root)
    slowdowns = [speed.process_slowdown(root, env)]
    failures: list[str] = []
    broken: set[str | None] = set()
    while not walls or sum(walls) + walls[-1] <= seconds:
        done = []
        started = time.perf_counter()
        for i, q in enumerate(plan.queries):
            out = workdir / f"answer-{i}.json"
            argv = [sys.executable, "-m", "tbnet.cli", *q.argv, "--json"]
            done.append((i, q, spawn(argv, root, out), out))
            slowdowns.append(speed.process_slowdown(root, env))
        walls.append(time.perf_counter() - started)
        around = zip(slowdowns[-len(done) - 1:-1], slowdowns[-len(done):])
        for (i, q, s, out), (before, after) in zip(done, around):
            times[i].append(s.seconds * 1000.0 / ((before + after) / 2))
            rss.append(s.rss_mb)
            stdout = out.read_text()
            try:
                if s.timed_out:
                    raise checker.CheckError(f"timed out after {QUERY_TIMEOUT_S:.0f} s")
                if first[i] is None:
                    check_cli_answer(q, s.rc, stdout, graphs, plan)
                    first[i] = stdout
                elif not same_report(stdout, first[i]):
                    raise checker.CheckError("answer differs from the first pass")
            except checker.CheckError as exc:
                failures.append(f"{' '.join(q.argv)}: {exc} {_stderr_tail(out)}".strip())
                broken.add(q.network)
    per_query = [median(t) for t in times]
    query_ms: dict[str, list[float]] = {}
    for q, ms in zip(plan.queries, per_query):
        query_ms.setdefault(q.command, []).append(ms)
    networks = {q.network for q in plan.queries} - broken
    return Result(query_ms, len(walls), sum(per_query) / 1000.0, slowdowns, times, rss,
                  len(plan.queries) * len(walls), failures, len(networks))


def corpus_failures(plan: Plan, out: dict) -> list[str]:
    """Check the first pass's answers; later passes were compared to it."""
    failures = list(out["errors"])
    if out["mismatches"]:
        failures.append(f"answers changed between passes ({out['mismatches']} networks)")
    for i, (payloads, expect) in enumerate(zip(out["answers"], plan.corpus_expect)):
        if payloads is None:
            continue
        item = plan.corpus[i]
        g = checker.parse(item["text"], item["fmt"])
        for command, payload in payloads.items():
            try:
                checker.check_answer(command, g, None, payload, expect)
            except checker.CheckError as exc:
                failures.append(f"net{i} {command}: {exc}")
    return failures


def measure_corpus(plan: Plan, root: Path, workdir: Path, seconds: float) -> Result:
    out_path = workdir / "corpus-answers.json"
    argv = [sys.executable, str(Path(__file__).with_name("corpus_worker.py")),
            plan.corpus_file, str(seconds)]
    s = spawn(argv, root, out_path)
    if s.rc != 0 or s.timed_out:
        raise RuntimeError(f"corpus worker failed (exit {s.rc}): {_stderr_tail(out_path)}")
    out = json.loads(out_path.read_text())
    query_ms = {c: [t for t in per_net if t is not None] for c, per_net in out["query_ms"].items()}
    pass_s = sum(map(sum, query_ms.values())) / 1000.0
    failures = corpus_failures(plan, out)
    bad = {f.split()[0] for f in failures if f.startswith("net")}
    networks = sum(a is not None for a in out["answers"]) - len(bad)
    return Result({c: t for c, t in query_ms.items() if c in METRIC and t},
                  len(out["pass_seconds"]), pass_s, out["slowdowns"], [], [s.rss_mb],
                  out["calls"] + len(out["errors"]), failures, networks)


def summarize(result: Result, setup_seconds: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one run; ``setup_seconds`` are already at
    reference speed."""
    metrics = {
        "setup_s": median(setup_seconds),
        "wall_s": result.pass_s,
        "rss_mb.p50": median(result.rss_mb),
        "rss_mb.max": max(result.rss_mb),
        "networks_per_s": result.networks_per_pass / result.pass_s,
    }
    for command, values in sorted(result.query_ms.items()):
        metrics[METRIC[command]] = median(values)
    return metrics
