"""How fast the host runs right now, measured by a fixed pure-Python loop.

The 2-vCPU host this benchmark was built on changes speed by up to half,
for stretches of a second to over a minute, and a query's CPU time swings
with it as much as its wall time does (NOTES.md).  A fixed loop timed right
before and right after a query slows down with it, so the benchmark reports
every time at reference speed::

    reported = measured / mean(slowdown before, slowdown after)

A slowdown is the loop's time now over its time on the build host: 1.0 at
that speed, 1.3 when the host runs 30 % slower.  The loop touches nothing
from tbnet, so a change to tbnet cannot move it, and parent and change are
compared on the same host with the same loop.

``python perfbench/speed.py`` runs a shorter loop in a fresh interpreter.
CLI queries are calibrated that way (:func:`process_slowdown`), because
interpreter start-up is a large share of their time; in-process work with
:func:`slowdown`.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 40_000                 # in process: about 12 ms on the build host
PROCESS_ROUNDS = 10_000         # in a fresh interpreter, after start-up
REFERENCE_MS = 12.0             # ROUNDS in process on the build host
REFERENCE_PROCESS_MS = 65.0     # ``python speed.py``, spawn to exit, there


def _loop(rounds: int) -> int:
    """Interpreter work of the kinds tbnet does: integer arithmetic, dict
    reads and writes, small objects.  Linear in ``rounds``."""
    table: dict[int, int] = {}
    total = 0
    for i in range(rounds):
        key = i & 1023
        table[key] = table.get(key, 0) + i % 7
        total += len(str(i))
    return total + len(table)


def slowdown(rounds: int = ROUNDS) -> float:
    """The slowdown of this process now, from ``rounds`` of the loop.

    The garbage collector is off during the loop: a collection would walk
    every object tbnet keeps alive in this process, and a change to tbnet
    could then move the loop it is measured against."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop(rounds)
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return seconds * 1000.0 / (REFERENCE_MS * rounds / ROUNDS)


def process_slowdown(cwd: Path, env: dict[str, str]) -> float:
    """The slowdown of a fresh interpreter now: this file run as a child
    with the environment tbnet's CLI gets, timed from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1000.0 / REFERENCE_PROCESS_MS


if __name__ == "__main__":
    _loop(PROCESS_ROUNDS)
