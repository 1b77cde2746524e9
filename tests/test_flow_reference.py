"""The unit flows of ``antichains`` against the arc-list flow network they
replaced, kept here as the reference.

The reference builds the split DAG as four parallel arc lists (node 2v is
v's in-copy, 2v + 1 its out-copy) and augments along breadth-first paths.
Each vertex's out-arcs are added in descending child id, so they are
scanned in ascending id.  ``route_to_leaves`` must give the same answer.
It seeds each leaf member's one-vertex path and routes the rest in Dinic
phases, so it may end at another maximum flow: where its paths differ from
the reference's, they must still be disjoint paths along arcs from each
member to a leaf, and a "no" must come with a separator that a search
sharing no code with ``separates`` confirms.  ``max_antichain`` runs Dinic
phases too: the antichain (t's reach in the final residual) is the same for
every minimum flow, the chain cover need only be a valid one.
"""

import random
from collections import deque

import pytest

from tbnet import (GenerationError, GenSpec, antichain_to_leaf, generate, is_antichain,
                   max_antichain, maximal_antichains, route_to_leaves, separates)
from tbnet.oracles import _reach_sets
from tbnet.treebased import zigzag_trails

from conftest import corpus, reaches_a_leaf


class _ArcListFlow:
    """Arc ``a`` is even and its reverse ``a ^ 1`` has the flow on it
    (above any lower bound) as capacity; arcs are scanned last-added first."""

    def __init__(self, n_nodes: int):
        self.head = [-1] * n_nodes
        self.to, self.cap, self.nxt = [], [], []

    def add(self, u: int, v: int, cap: int, flow: int = 0) -> None:
        idx = len(self.to)
        self.to += [v, u]
        self.cap += [cap - flow, flow]
        self.nxt += [self.head[u], self.head[v]]
        self.head[u], self.head[v] = idx, idx + 1

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        total = 0
        while True:
            parent_arc = [-1] * len(self.head)
            parent_arc[s] = -2
            queue = deque([s])
            while queue and parent_arc[t] == -1:
                u = queue.popleft()
                a = self.head[u]
                while a != -1:
                    if self.cap[a] > 0 and parent_arc[self.to[a]] == -1:
                        parent_arc[self.to[a]] = a
                        queue.append(self.to[a])
                    a = self.nxt[a]
            if parent_arc[t] == -1:
                return total, parent_arc
            v = t
            while v != s:
                a = parent_arc[v]
                self.cap[a] -= 1
                self.cap[a ^ 1] += 1
                v = self.to[a ^ 1]
            total += 1

    def follow(self, node: int, stop: int) -> list[int]:
        path = []
        while True:
            arc = self.head[node]
            while arc != -1 and (arc & 1 or not self.cap[arc ^ 1]):
                arc = self.nxt[arc]
            self.head[node] = arc
            self.cap[arc ^ 1] -= 1
            if self.to[arc] == stop:
                return path
            path.append(self.to[arc] // 2)
            node = self.to[arc] + 1


def reference_antichain_to_leaf(net, members):
    n = net.num_vertices
    source, sink = 2 * n, 2 * n + 1
    flow = _ArcListFlow(2 * n + 2)
    for v in range(n):
        flow.add(2 * v, 2 * v + 1, 1)
    for u in range(n):
        for v in reversed(net.children[u]):
            flow.add(2 * u + 1, 2 * v, 1)
    for v in members:
        flow.add(source, 2 * v, 1)
    for x in net.leaves:
        flow.add(2 * x + 1, sink, 1)
    if flow.max_flow(source, sink)[0] != len(members):
        return False, None
    return True, tuple((a, *flow.follow(2 * a + 1, sink)) for a in members)


def reference_max_antichain(net):
    n = net.num_vertices
    succ, pred, _ = zigzag_trails(net)
    source, sink, free = 2 * n, 2 * n + 1, n + 1
    flow = _ArcListFlow(2 * n + 2)
    for v in range(n):
        flow.add(2 * v, 2 * v + 1, free)
    for u, v in net.edges:
        flow.add(2 * u + 1, 2 * v, free, 1 if succ[u] == v else 0)
    for v in range(n):
        if pred[v] == -1:
            flow.add(source, 2 * v, free, 1)
        if succ[v] == -1:
            flow.add(2 * v + 1, sink, free, 1)
    pushed, reached = flow.max_flow(sink, source)
    antichain = tuple(v for v in range(n) if reached[2 * v] == -1 and reached[2 * v + 1] != -1)
    return antichain, pred.count(-1) - pushed


@pytest.fixture(scope="module")
def networks():
    return corpus(3000, max_leaves=7, max_retics=5, seed_base=91_000)


def assert_routes(net, members, paths):
    """Disjoint paths along arcs, the i-th from the i-th member to a leaf."""
    arcs = set(net.edges)
    assert [p[0] for p in paths] == list(members)
    assert all(not net.children[p[-1]] for p in paths)
    assert all(arc in arcs for p in paths for arc in zip(p, p[1:]))
    on_paths = [v for p in paths for v in p]
    assert len(set(on_paths)) == len(on_paths)


def assert_refused(net, members, separator):
    """The separator holds, an independent search agrees, and no mutant
    passes: S grown to |A| vertices, an empty S, S less one vertex."""
    assert separates(net, members, separator)
    assert len(separator) < len(members) and not reaches_a_leaf(net, members, separator)
    others = [v for v in range(net.num_vertices) if v not in separator]
    grown = separator + tuple(others[:len(members) - len(separator)])
    assert not separates(net, members, grown)
    assert not separates(net, members, ())
    for i in range(len(separator)):
        smaller = separator[:i] + separator[i + 1:]
        # |S| is the flow's value, so by Menger no smaller set separates
        assert reaches_a_leaf(net, members, smaller)
        assert not separates(net, members, smaller)


def test_routing_matches_the_arc_list_flow(networks):
    rng = random.Random(5)
    checked = refused = longer = changed = 0
    for net in networks:
        if net.num_vertices <= 18:
            sets = list(maximal_antichains(net))
        else:  # random leaf sets, and antichains grown from a random order
            sets = [sorted(rng.sample(net.leaves, rng.randint(1, len(net.leaves))))]
            for _ in range(3):
                grown = []
                for v in rng.sample(range(net.num_vertices), net.num_vertices):
                    if is_antichain(net, grown + [v]):
                        grown.append(v)
                sets.append(sorted(grown))
        for members in sets:
            paths, separator = route_to_leaves(net, members)
            want_routed, want_paths = reference_antichain_to_leaf(net, tuple(members))
            assert (paths is not None) == want_routed
            routed, witness = antichain_to_leaf(net, members)
            assert routed == want_routed and (witness.paths if witness else None) == paths
            # the order given only orders the answer
            backwards = route_to_leaves(net, members[::-1])
            assert backwards == ((paths[::-1], None) if routed else (None, separator))
            if routed:
                assert separator is None
                if paths != want_paths:
                    changed += 1
                    assert_routes(net, members, paths)
            else:
                assert_refused(net, members, separator)
            checked += 1
            refused += not routed
            longer += routed and any(len(p) > 1 for p in paths)
    # the phases keep the reference's paths on all but a few hundred sets
    assert checked > 20_000 and refused > 1000 and longer > 1000 and changed * 100 < checked


def reticulate(count: int):
    """Networks of up to 42 leaves with up to 36 reticulations: the corpus
    has too few for a minimum flow that must take a unit back off a vertex's
    excess over its lower bound."""
    out = []
    for seed in range(count):
        try:
            out.append(generate(GenSpec(3 + seed % 40, seed % 37, seed=seed)))
        except GenerationError:
            pass
    return out


def test_max_antichain_matches_the_arc_list_flow(networks):
    for net in networks + reticulate(1000):
        antichain, chains = max_antichain(net)
        want, width = reference_max_antichain(net)
        assert antichain == want and len(chains) == width
        assert sorted(v for c in chains for v in c) == list(range(net.num_vertices))
        reach = _reach_sets(net)
        assert all(b in reach[a] for c in chains for a, b in zip(c, c[1:]))
