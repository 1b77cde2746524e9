import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tbnet
from tbnet import GenSpec, GenerationError, PhyloNetwork, generate, parse_edgelist

FIXTURES = Path(__file__).parent / "fixtures"


def run_python(*args: str, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the tbnet under test."""
    src = str(Path(tbnet.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})


def peak_ratio(build) -> float:
    """The ``tracemalloc`` peak of ``build()`` over the memory its result
    holds, so a bound on it holds across Python versions.  One warm-up
    call first, so lazy imports and caches count for neither."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()  # alive while its memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / (held - base)


def load_fixture(name: str):
    return parse_edgelist((FIXTURES / f"{name}.edges").read_text())


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="session")
def diamond():
    return load_fixture("diamond")


@pytest.fixture(scope="session")
def deviation_one():
    return load_fixture("deviation_one")


@pytest.fixture(scope="session")
def killer():
    return load_fixture("killer")


@pytest.fixture(scope="session")
def temporal_nontb():
    return load_fixture("temporal_nontb")


def ladder(k: int) -> tuple[PhyloNetwork, tuple[int, ...]]:
    """A temporal network on 4k + 11 vertices, and the k + 1 tails t0..tk
    of its one W-fence, whose heads are h1..hk.  Head h_i has the parents
    t(i-1) and t_i and one leaf child.  The end
    tails t0 and tk are reticulations, each below two tree vertices that
    also carry a leaf; a caterpillar spine gives t1..t(k-1) and those four
    tree vertices one parent each."""
    ids = iter(range(4 * k + 11))
    tails = [next(ids) for _ in range(k + 1)]
    arcs, labels = [], {}

    def hang_leaf(parent):
        v = next(ids)
        arcs.append((parent, v))
        labels[v] = f"x{v}"

    for t, u in zip(tails, tails[1:]):
        h = next(ids)
        arcs += [(t, h), (u, h)]
        hang_leaf(h)
    hung = tails[1:-1]
    for t in (tails[0], tails[0], tails[-1], tails[-1]):
        p = next(ids)
        arcs.append((p, t))
        hang_leaf(p)
        hung.append(p)
    spine = [next(ids) for _ in hung[1:]]
    arcs += zip(spine, hung)
    arcs += zip(spine, spine[1:] + hung[-1:])
    return PhyloNetwork(arcs, labels), tuple(tails)


def reaches_a_leaf(net: PhyloNetwork, starts, avoid) -> bool:
    """Is there a path from ``starts`` to a vertex without children that
    meets no vertex of ``avoid``?  The check of a separator that shares no
    code with ``tbnet.separates``."""
    seen, stack = set(avoid), [v for v in starts if v not in avoid]
    while stack:
        v = stack.pop()
        if not net.children[v]:
            return True
        if v not in seen:
            seen.add(v)
            stack.extend(c for c in net.children[v] if c not in seen)
    return False


def corpus(count: int, max_leaves: int = 6, max_retics: int = 4,
           seed_base: int = 0, temporal_only: bool = False,
           max_vertices: int | None = None):
    """Deterministic stream of generated networks for property suites.

    Cycles through (leaves, reticulations) shapes within the given bounds,
    skipping the impossible (1, 1) shape and, for temporal_only, any shape
    the rejection budget gives up on.
    """
    shapes = [
        (L, r)
        for L in range(1, max_leaves + 1)
        for r in range(0, max_retics + 1)
        if (L, r) != (1, 1)
        and (max_vertices is None or 2 * L + 2 * r - 1 <= max_vertices)
    ]
    out = []
    seed = seed_base
    while len(out) < count:
        L, r = shapes[(seed - seed_base) % len(shapes)]
        try:
            out.append(generate(GenSpec(L, r, seed=seed, temporal_only=temporal_only)))
        except GenerationError:
            pass
        seed += 1
        if seed - seed_base > 50 * count:
            raise RuntimeError("corpus generation is rejecting too much")
    return out
