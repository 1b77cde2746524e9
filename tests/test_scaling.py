"""Scaling guards: each subcommand's default route, on 10x the vertices,
takes well under 30x the time and 15x the peak memory, so a route that
turns quadratic in either fails here.

The routes timed elsewhere are left out: ``indices`` and ``bench``
(``deviation_indices``, criterion 8), ``antichain --set`` (routing every
leaf) and the violating antichain of ``temporal`` (ladders), all in
``test_acceptance.py`` and ``test_antichains.py``.  ``antichain
--check-property`` has a linear route on temporal networks only, and
generated networks of these sizes are not temporal.
"""

import gc
import time
import tracemalloc

import pytest

from tbnet import (GenSpec, PhyloNetwork, generate, is_temporal, is_tree_based, max_antichain,
                   rooted_spanning_tree, tree_based_completion, vertex_disjoint_paths)

# Each subcommand's library entry, called on a network of the size timed.
ROUTES = {
    "check": is_tree_based,
    "paths": vertex_disjoint_paths,
    "spanning-tree": rooted_spanning_tree,
    "complete": tree_based_completion,
    "antichain --max": max_antichain,
    "temporal": is_temporal,
    "gen": lambda net: generate(GenSpec(len(net.leaves), len(net.reticulations), 1)),
}
SMALL, BIG = GenSpec(1500, 1001, 1), GenSpec(15000, 10001, 1)  # 5001 and 50001 vertices


@pytest.fixture(scope="module")
def networks():
    return {spec: generate(spec) for spec in (SMALL, BIG)}


@pytest.mark.parametrize("route", ROUTES)
def test_the_default_route_scales_linearly(route, networks, capsys):
    def seconds(spec: GenSpec) -> float:
        # a network keeps its walk and its temporal pair, so each run gets
        # a fresh copy, built before the timer starts
        net = networks[spec]
        fresh = PhyloNetwork.from_lists(list(net.children), list(net.parents),
                                        dict(net.leaf_labels))
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            ROUTES[route](fresh)
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    # the sizes alternate, so a slow stretch of the host, which can last
    # seconds, slows both sides of a pair alike
    pairs = [(seconds(SMALL), seconds(BIG)) for _ in range(4)]
    small, big = min(p[0] for p in pairs), min(p[1] for p in pairs)
    ratio = min(b / s for s, b in pairs)
    assert ratio < 30.0
    with capsys.disabled():
        print(f"\n[{route}] 5001 vertices: {small * 1e3:.1f} ms, "
              f"50001: {big * 1e3:.1f} ms, ratio {ratio:.1f}x")


@pytest.mark.parametrize("route", ROUTES)
def test_the_default_route_memory_scales_linearly(route, networks, capsys):
    def peak_bytes(spec: GenSpec) -> int:
        # The allocation peak above what is live when the route starts, on
        # a fresh copy with the collector off, as in a query.  A full
        # collection first empties the free lists, so every object the
        # route makes is traced, and the peak is the same on every run.
        net = networks[spec]
        fresh = PhyloNetwork.from_lists(list(net.children), list(net.parents),
                                        dict(net.leaf_labels))
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            ROUTES[route](fresh)
            return tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()

    small, big = peak_bytes(SMALL), peak_bytes(BIG)
    ratio = big / small
    assert ratio < 15.0
    with capsys.disabled():
        print(f"\n[{route}] peak above baseline, 5001 vertices: {small / 1e6:.2f} MB, "
              f"50001: {big / 1e6:.2f} MB, ratio {ratio:.2f}x")
