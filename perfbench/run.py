"""tbnet benchmark: seeded inputs, three workloads, every answer checked.

Run from the root of a tbnet checkout:

    python3 perfbench/run.py --workload large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: one ``python -m tbnet.cli``
process per query (``large``, ``complete-antichain``) or one library
process (``corpus``); every time is scaled to reference host speed
(``speed.py``).  ``--trace 1`` runs the same queries in process with
tbnet's functions wrapped and reports the per-layer metrics instead.  The
human-readable report goes first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the input digests and the environment stamp, is written to
``perfbench/.work/<workload>-<mode>.json``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Set-up is repeated, at least three times and for about two seconds, and its
# median reported, so that one slow repeat neither hides nor fakes work
# moved into set-up.  Each repeat is scaled to reference host speed.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
FAILURES_SHOWN = 10
MAX_RECORDED = 20    # per-query times kept in the result file, per command

# The end-to-end metrics every workload reports (BENCHMARK.json).  The
# report also prints antichain_max_ms, which only two workloads have.
END_TO_END = (
    "setup_s", "wall_s", "rss_mb.p50", "rss_mb.max", "networks_per_s",
    "check_ms", "indices_ms", "paths_ms", "spanning_tree_ms", "temporal_ms",
    "complete_ms", "antichain_set_ms", "antichain_property_ms", "gen_ms",
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("rss_mb") or name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _stamp() -> dict:
    """Where the numbers come from."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tbnet").glob("*")):
        if path.is_file():
            src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "tbnet_commit": commit,
        "tbnet_src_sha256": src.hexdigest(),
        "rss_method": "os.wait4 ru_maxrss of the process that answered",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("large", "corpus", "complete-antichain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tbnet" / "cli.py").is_file():
        print(f"error: no tbnet sources under {ROOT / 'src'}; "
              "run from the root of a tbnet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import speed
    import tracing
    from plans import SETUPS

    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_seconds: list[float] = []
    spent = 0.0
    before = speed.slowdown()
    while len(setup_seconds) < SETUP_REPEATS or spent < SETUP_SECONDS:
        start = time.perf_counter()
        plan = SETUPS[args.workload](args.seed, workdir)
        seconds = time.perf_counter() - start
        after = speed.slowdown()
        spent += seconds
        setup_seconds.append(seconds / ((before + after) / 2))
        before = after

    samples: dict[str, list[float]] = {}
    repeats = 0
    slowdowns: list[float] = []
    repeat_ms: list[list[float]] = []
    if args.trace:
        trace = tracing.trace_corpus if args.workload == "corpus" else tracing.trace_cli
        metrics, attempted, failures = trace(plan, workdir)
    else:
        run = measure.measure_corpus if args.workload == "corpus" else measure.measure_cli
        result = run(plan, ROOT, workdir, args.seconds)
        metrics = measure.summarize(result, setup_seconds)
        attempted, failures = result.attempted, result.failures
        samples, repeats, slowdowns = result.query_ms, result.repeats, result.slowdowns
        repeat_ms = result.repeat_ms
    mode = "trace" if args.trace else "run"
    stamp = _stamp()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "mode": mode, "stamp": stamp, "setup_seconds": setup_seconds,
              "inputs": plan.digests(), "metrics": metrics,
              "repeats": repeats, "slowdowns": slowdowns, "repeat_ms": repeat_ms,
              "query_ms": {c: v for c, v in samples.items() if len(v) <= MAX_RECORDED},
              "attempted": attempted, "failures": failures}
    (HERE / ".work" / f"{args.workload}-{mode}.json").write_text(json.dumps(record, indent=1))

    print(f"tbnet benchmark: workload {args.workload}, seed {args.seed}, {mode}")
    print("stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    digests = plan.digests()
    if len(digests) > 4:
        joined = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
        print(f"input sha256: {len(digests)} networks, digest of digests {joined}")
    else:
        for name, digest in digests.items():
            print(f"input sha256: {name} {digest}")
    for name, value in metrics.items():
        command = next((c for c, m in measure.METRIC.items() if m == name), None)
        count = ""
        if command in samples:
            count = f"  (median of {len(samples[command])} queries x median of {repeats} repeats)"
        print(f"{name:32s} {value:14.4f} {_unit(name)}{count}")
    if slowdowns:
        print(f"{'host slowdown':32s} {statistics.median(slowdowns):14.4f} x      "
              f"(median of {len(slowdowns)}; times above are scaled by them)")
    if not args.trace:
        print(f"{'fail_ratio':32s} {len(failures) / attempted:14.4f} ratio  "
              f"({len(failures)} of {attempted})")
    for failure in failures[:FAILURES_SHOWN]:
        print(f"FAILED: {failure}")

    shown = metrics if args.trace else {k: v for k, v in metrics.items() if k in END_TO_END}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
