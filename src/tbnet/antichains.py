"""Antichains and disjoint paths to leaves.

An antichain is a set of vertices that are pairwise unreachable from one
another.  The antichain-to-leaf property asks that every antichain A admit
|A| vertex-disjoint directed paths from its members to labeled leaves.
Its decision, the certificate checks and the temporal route, which needs
no flow, are in :mod:`tbnet.temporal`; every public name defined there is
also importable from here.

Both antichain queries are unit flows on the split DAG, searched in place:
vertex v's in-copy 2v and out-copy 2v + 1 read their residual arcs off the
network's child and parent lists, and no flow network is built.  Routing
to the leaves is a maximum flow: each leaf member starts on its own
one-vertex path, the other members go together in blocking-flow phases,
and when the flow stops short its cut is the separator, checked by
:func:`separates`.  A maximum antichain is a minimum flow.  Only
:func:`maximal_antichains`, behind the size-bounded exhaustive check,
holds descendant bitmasks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .network import PhyloNetwork, zigzag_trails
from .temporal import (DEFAULT_EXHAUSTIVE_BOUND, TemporalMap, _unreachable, _vertices,  # noqa: F401
                       has_antichain_to_leaf_property, is_antichain, is_temporal, separates,
                       temporal_map, temporal_violating_antichain, temporal_violation,
                       verify_temporal_map)


class DisjointPathWitness(NamedTuple):
    """Vertex-disjoint paths, one per antichain member, each ending at a leaf."""

    paths: tuple[tuple[int, ...], ...]


def max_antichain(net: PhyloNetwork) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A maximum antichain plus a witnessing minimum chain partition.

    Dilworth by Fulkerson's minimum flow on the split DAG: v_in -> v_out
    with lower bound 1, s -> v_in, v_out -> t and u_out -> v_in per arc
    (u, v), all uncapped.  The trail walk's |X| + p paths seed it, with s
    and t arcs at their ends only; the leaves are an antichain of |X|, so
    at most p units go back from t to s.  Dinic phases move them, each a
    level search from t and depth-first searches with a current arc per
    node: O(phases (n + m)) time, linear memory.  The v whose v_out but not
    v_in t then reaches form an antichain as large as the flow (checked),
    the same for every minimum flow.  The chains are the flow's units from
    s, each vertex kept by the first unit through it, sorted by first vertex.
    """
    n = net.num_vertices
    children, parents = net.children, net.parents
    succ, pred, _ = zigzag_trails(net)
    source, sink = 2 * n, 2 * n + 1
    # The flow: arc[2u + i] on u's arc to its i-th child, above[v] units over
    # v's lower bound, src[v] and snk[v] on v's arcs from s and to t.
    arc = [0] * (2 * n)
    for u in range(n):
        if succ[u] != -1:
            arc[2 * u + (children[u][0] != succ[u])] = 1
    above, src, snk = [0] * n, [int(p == -1) for p in pred], [int(w == -1) for w in succ]
    ends = [2 * v + 1 for v in range(n - 1, -1, -1) if snk[v]]
    # Residual arcs, taking flow back from t: v_out's 0-1 to its children's
    # in-copies, 2 to v_in over v's units above its bound; v_in's 0 to s over
    # its unit from s, 1-2 to its parents' out-copies over the arc's units, 3 to v_out.
    while True:
        level = [-1] * (2 * n + 1) + [0]  # breadth first from t, up to s
        frontier = [x for x in ends if snk[x >> 1]]
        for x in frontier:
            level[x] = 1
        while frontier and level[source] < 0:
            reached = []
            for x in frontier:
                v, up = x >> 1, level[x] + 1
                if x & 1:
                    for w in children[v]:
                        if level[2 * w] < 0:
                            level[2 * w] = up
                            reached.append(2 * w)
                    if above[v] and level[x - 1] < 0:
                        level[x - 1] = up
                        reached.append(x - 1)
                else:
                    if src[v]:
                        level[source] = up
                    for u in parents[v]:
                        if level[2 * u + 1] < 0 and arc[2 * u + (children[u][0] != v)]:
                            level[2 * u + 1] = up
                            reached.append(2 * u + 1)
                    if level[x + 1] < 0:
                        level[x + 1] = up
                        reached.append(x + 1)
            frontier = reached
        if level[source] < 0:
            break
        cur = bytearray(2 * n + 2)  # each node's current arc
        for start in ends:
            stack = [start] if level[start] == 1 else []
            while stack and snk[start >> 1]:
                x = stack[-1]
                if x == source:  # take one unit back along the stack
                    snk[start >> 1] -= 1
                    for x, y in zip(stack, stack[1:]):
                        v = x >> 1
                        if x & 1 and y == x - 1:
                            above[v] -= 1
                        elif x & 1:
                            arc[2 * v + cur[x]] += 1
                        elif y == x + 1:
                            above[v] += 1
                        elif y == source:
                            src[v] -= 1
                        else:
                            arc[y - 1 + (children[y >> 1][0] != v)] -= 1
                    del stack[1:]
                    continue
                v, i, up = x >> 1, cur[x], level[x] + 1
                while i < 4:  # t, at level 0, stands for a missing arc
                    if x & 1:
                        kids = children[v]
                        y = 2 * kids[i] if i < len(kids) else x - 1 if i == 2 and above[v] else sink
                    elif i == 0 or i == 3:
                        y = x + 1 if i else source if src[v] else sink
                    else:
                        u = parents[v][i - 1] if i <= len(parents[v]) else -1
                        y = 2 * u + 1 if u >= 0 and arc[2 * u + (children[u][0] != v)] else sink
                    if level[y] == up:
                        break
                    i += 1
                cur[x] = i
                if i < 4:
                    stack.append(y)
                else:  # a dead end for the rest of the phase
                    level[x] = -1
                    stack.pop()
                    if stack:
                        cur[stack[-1]] += 1

    antichain = tuple(v for v in range(n) if level[2 * v] < 0 and level[2 * v + 1] >= 0)
    taken = bytearray(n)
    chains = []
    for v in [v for v in range(n - 1, -1, -1) if src[v]]:  # a chain per unit from s
        chain = []
        while True:
            if not taken[v]:
                taken[v] = 1
                chain.append(v)
            if snk[v]:
                break
            i = 1 if arc[2 * v + 1] else 0
            if not arc[2 * v + i]:
                raise RuntimeError("flow decoding lost its way")
            arc[2 * v + i] -= 1
            v = children[v][i]
        snk[v] -= 1
        chains.append(tuple(chain))
    chains.sort()

    if len(antichain) != len(chains) or not _unreachable(net, antichain):
        raise RuntimeError("Dilworth witnesses disagree")
    return antichain, tuple(chains)


def route_to_leaves(net: PhyloNetwork, members: Iterable[int]):
    """Vertex-disjoint paths from the members to the leaves, ``(paths,
    None)``, or ``(None, separator)``: fewer vertices than the members, met
    by every path from them to a leaf (a member may be one), so by Menger's
    theorem no such paths exist.  ``paths[i]`` starts at the i-th distinct
    member given.

    One unit flow on the split DAG.  Each leaf member starts on its own
    one-vertex path; the others are routed in blocking-flow phases, each a
    level search from the members not yet routed, stopped at the first
    free leaf's level, and a depth-first search per member in ascending id
    that tries children in ascending id.  That is O(sqrt(n)) phases (Even
    and Tarjan) of O(n + m), O(n) when every member is a leaf, and the
    paths depend on the member set and the network alone.  The separator
    is the flow's cut, which :func:`separates` checks (RuntimeError if not).

    Raises ValueError if the members are not an antichain or one is out of
    range, and TypeError for an id that is not an integer.
    """
    members = _vertices(net, members)
    if not _unreachable(net, members):
        raise ValueError("input vertex set is not an antichain")
    children = net.children
    todo = [a for a in members if children[a]]
    if not todo:
        return tuple([(a,) for a in members]), None
    todo.sort()
    n = net.num_vertices
    sink = 2 * n
    # The flow: v's unit comes from prv[v] and goes to nxt[v], where n
    # stands for s and t, and -1 for no unit.  Residual arcs: v_in's to
    # v_out while v is free, else to its predecessor's out-copy unless
    # that is s; v_out's to its children's in-copies but its successor's,
    # to v_in over v's unit, and to t if v is a free leaf.
    prv, nxt = [-1] * n, [-1] * n
    for a in members:
        if not children[a]:
            prv[a] = nxt[a] = n
    while todo:
        level = [-1] * (2 * n + 1)
        frontier = [2 * a for a in todo]
        for x in frontier:
            level[x] = 0
        depth = 0
        while frontier and level[sink] < 0:
            depth += 1
            reached = []
            for x in frontier:
                v = x >> 1
                if x & 1:
                    kids, w = children[v], nxt[v]
                    if not kids:
                        level[sink] = depth
                        break
                    for c in kids:
                        if c != w and level[2 * c] < 0:
                            level[2 * c] = depth
                            reached.append(2 * c)
                    if w >= 0 and level[x - 1] < 0:
                        level[x - 1] = depth
                        reached.append(x - 1)
                else:
                    u = prv[v]
                    y = x + 1 if u < 0 else 2 * u + 1
                    if u != n and level[y] < 0:
                        level[y] = depth
                        reached.append(y)
            frontier = reached
        if level[sink] < 0:  # the cut: routed members not reached, vertices not crossed
            separator = tuple(v for v in range(n) if (
                level[2 * v + 1] < 0 if level[2 * v] >= 0 else prv[v] == n))
            if not separates(net, members, separator):
                raise RuntimeError("the flow's cut does not separate the antichain from the leaves")
            return None, separator
        for y in frontier:  # t's level, where only t counts
            level[y] = -1
        for a in todo:
            # A path from a_in, and each node's current arc.  An in-copy has
            # one residual arc, so it is entered with its successor.
            stack, at = [2 * a, 2 * a + 1], [1, 0]
            level[2 * a] = level[2 * a + 1] = -1  # entered nodes are spent for the phase
            while stack:
                x, i = stack[-1], at[-1]
                up, v, y = len(stack), x >> 1, -1
                kids, w = children[v], nxt[v]
                while i < len(kids):
                    c = kids[i]
                    i += 1
                    if c != w and level[2 * c] == up:
                        y = 2 * c
                        break
                if y < 0 and i == len(kids):  # after the children, t or v_in
                    i += 1
                    if not kids:
                        y = sink
                    elif w >= 0 and level[x - 1] == up:
                        y = x - 1
                at[-1] = i
                if y == sink:
                    break
                if y < 0:
                    del stack[-2:], at[-2:]
                    continue
                level[y], u = -1, prv[y >> 1]
                if u != n:
                    z = y + 1 if u < 0 else 2 * u + 1
                    if level[z] == up + 1:
                        level[z] = -1
                        stack += y, z
                        at += 1, 0
            if stack:  # a_in to a free leaf's out-copy: route a along it
                prv[a] = nxt[stack[-1] >> 1] = n
                for x, y in zip(stack, stack[1:]):
                    if x & 1:  # each vertex's unit is entered and left once
                        v = x >> 1
                        if y == x - 1:
                            prv[v] = nxt[v] = -1
                        else:
                            nxt[v], prv[y >> 1] = y >> 1, v
        todo = [a for a in todo if prv[a] != n]
    paths = []
    for a in members:  # one unit, hence one path, through each member
        path, v = [a], nxt[a]
        while v != n:
            if v < 0:
                raise RuntimeError("flow decoding lost its way")
            path.append(v)
            v = nxt[v]
        paths.append(tuple(path))
    return tuple(paths), None


def antichain_to_leaf(net: PhyloNetwork, antichain: Iterable[int]):
    """Can every member of the antichain reach a leaf along vertex-disjoint paths?

    ``(True, DisjointPathWitness)`` with the paths in ascending order of
    their first vertex, or ``(False, None)``: :func:`route_to_leaves` on
    the sorted members, without its separator.

    Raises ValueError if the input is not an antichain.
    """
    paths = route_to_leaves(net, sorted(set(antichain)))[0]
    return (False, None) if paths is None else (True, DisjointPathWitness(paths))


def maximal_antichains(net: PhyloNetwork):
    """Yield every maximal antichain (as a sorted tuple), Bron-Kerbosch style.

    Antichains are independent sets of the comparability relation, i.e.
    cliques of incomparability; pivoting keeps the enumeration tame at the
    sizes the exhaustive checker permits.
    """
    n = net.num_vertices
    desc = [0] * n  # strict-descendant bitmasks
    for v in reversed(net.topological_order()):
        for c in net.children[v]:
            desc[v] |= (1 << c) | desc[c]
    anc = [0] * n
    for v in range(n):
        for a in _bits(desc[v]):
            anc[a] |= 1 << v
    full = (1 << n) - 1
    inc = [full & ~(desc[v] | anc[v] | (1 << v)) for v in range(n)]

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot = -max((bin(p & inc[v]).count("1"), -v) for v in _bits(p | x))[1]
        for v in _bits(p & ~inc[pivot]):
            bit = 1 << v
            yield from expand(r | bit, p & inc[v], x & inc[v])
            p &= ~bit
            x |= bit

    for mask in expand(0, full, 0):
        yield tuple(_bits(mask))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
