"""Temporal networks, where tree-based means antichain-to-leaf.

A temporal map gives each vertex a time: strictly increasing along tree
edges, constant along reticulation edges.  On a network that admits one,
the antichain-to-leaf property (every antichain A admits |A|
vertex-disjoint directed paths from its members to leaves) holds iff the
network is tree-based.  There the walk's first W-fence yields a failing
antichain and, for the same price, a vertex separator smaller than it
that every path from it to a leaf meets (Menger):
:func:`separates` checks that certificate in linear time without any flow.

Nothing here needs the unit flows of :mod:`tbnet.antichains` or the
certificates of :mod:`tbnet.treebased`: the W-fences come from the walk
the network keeps, and only the exhaustive route of
:func:`has_antichain_to_leaf_property` loads the flows.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import Iterable, Sequence

from .network import PhyloNetwork, zigzag_trails

DEFAULT_EXHAUSTIVE_BOUND = 18


def _reachable(net: PhyloNetwork, sources: Iterable[int], blocked: Iterable[int] = ()) -> bytearray:
    """1 for each vertex reachable from ``sources`` around ``blocked``, 2 for each blocked one."""
    seen = bytearray(net.num_vertices)
    for v in blocked:
        seen[v] = 2
    stack = list(sources)
    while stack:
        v = stack.pop()
        if not seen[v]:
            seen[v] = 1
            stack.extend(net.children[v])
    return seen


def _vertices(net: PhyloNetwork, ids: Iterable[int]) -> tuple[int, ...]:
    """The distinct ``ids``, first seen first, as plain ints; TypeError for
    an id that is not an integer, ValueError for one outside 0..n-1."""
    vertices, n = tuple(dict.fromkeys(map(index, ids))), net.num_vertices
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    return vertices


def _unreachable(net: PhyloNetwork, members: tuple[int, ...]) -> bool:
    """:func:`is_antichain` on ids that :func:`_vertices` returned."""
    below = _reachable(net, (c for v in members for c in net.children[v]))
    return not any(below[v] for v in members)


def is_antichain(net: PhyloNetwork, vertices: Iterable[int]) -> bool:
    """True iff the given vertices are pairwise unreachable from each other;
    TypeError for an id that is not an integer, ValueError for one out of range."""
    return _unreachable(net, _vertices(net, vertices))


def separates(net: PhyloNetwork, members: Iterable[int], separator: Iterable[int]) -> bool:
    """Does ``separator`` prove that ``members`` cannot reach the leaves
    along vertex-disjoint paths?

    True iff the separator has fewer vertices than the members and meets
    every path from a member to a vertex without children (a member may
    lie in it), checked by one search around it in O(n + m): by Menger's
    theorem no family of |members| vertex-disjoint such paths then exists.

    Raises ValueError for a vertex out of range, TypeError for a non-integer.
    """
    starts, cut = _vertices(net, members), _vertices(net, separator)
    reached = _reachable(net, starts, cut)
    return len(cut) < len(starts) and not any(reached[v] == 1 for v in net.leaves)


class TemporalMap(namedtuple("TemporalMap", "ranks")):
    """A time assignment: equal across reticulation edges, increasing along
    tree edges.  ``ranks: tuple[int, ...]``, where ``ranks[v]`` is the time
    of vertex v."""

    __slots__ = ()


def verify_temporal_map(net: PhyloNetwork, tm: TemporalMap) -> None:
    ranks, in_degree = tm.ranks, net.in_degree
    if len(ranks) != net.num_vertices:
        raise ValueError(f"{len(ranks)} ranks for {net.num_vertices} vertices")
    for v, us in enumerate(net.parents):
        for u in us:
            if in_degree[v] == 2:
                if ranks[u] != ranks[v]:
                    raise ValueError(f"reticulation edge ({u},{v}) not level")
            elif ranks[u] >= ranks[v]:
                raise ValueError(f"tree edge ({u},{v}) not increasing")


def is_temporal(net: PhyloNetwork) -> tuple[bool, TemporalMap | None]:
    """Does the network admit a temporal map?  Returns one if so.

    Reticulation edges force equal times, so contract them: vertices joined
    by reticulation edges share a group, one search per component of
    reticulation edges.  A temporal map exists iff no tree edge joins a
    group to itself and the tree-edge relation between groups is acyclic
    (Kahn's algorithm); the map assigned is the longest-path level of each
    group, checked by :func:`verify_temporal_map`.  Every step is O(n + m).
    The first call decides and keeps the pair on ``net``; later calls
    return it.
    """
    if net._temporal is None:
        net._temporal = _temporal_test(net)
    return net._temporal


def _temporal_test(net: PhyloNetwork) -> tuple[bool, TemporalMap | None]:
    """:func:`is_temporal`, decided afresh."""
    tm = temporal_map(net.children, net.parents, net.in_degree, net.reticulations, net.root)
    if tm is not None:
        verify_temporal_map(net, tm)
    return tm is not None, tm


def temporal_map(children: Sequence[Sequence[int]], parents: Sequence[Sequence[int]],
                 in_degree: Sequence[int], reticulations: Iterable[int], root: int) -> TemporalMap | None:
    """The map :func:`is_temporal` assigns, unchecked, or None if there is none,
    to the network with these child and parent lists (each in any order),
    in-degrees, reticulations in ascending id, and root."""
    n = len(children)
    # A component of reticulation arcs is named by its smallest
    # reticulation, from which one search labels it; any other vertex names
    # its own group.  The search walks reticulations, and labels each tree
    # parent with that parent's reticulation children.
    group = list(range(n))
    for r in reticulations:
        if group[r] != r:
            continue
        todo = [r]
        for x in todo:
            for p in parents[x]:
                if group[p] != r:
                    group[p] = r
                    if in_degree[p] == 2:
                        todo.append(p)
                    else:
                        for c in children[p]:
                            if group[c] != r and in_degree[c] == 2:
                                group[c] = r
                                todo.append(c)
            c = children[x][0]
            if group[c] != r and in_degree[c] == 2:
                group[c] = r
                todo.append(c)
    # The tree edges between groups, indexed by group name, with repeats.
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for v in range(n):
        if in_degree[v] == 1:
            g, h = group[parents[v][0]], group[v]
            if g == h:
                return None
            succ[g].append(h)
            indeg[h] += 1

    # Kahn's algorithm: a group is popped after its predecessors.  Every
    # vertex but the root has a parent, and every component one that is a
    # tree vertex, unless it holds the root: the root's group is the only
    # one that can start with no tree edge in.
    level = [0] * n
    root = group[root]
    stack = [] if indeg[root] else [root]
    while stack:
        g = stack.pop()
        up = level[g] + 1
        for h in succ[g]:
            if level[h] < up:
                level[h] = up
            indeg[h] -= 1
            if not indeg[h]:
                stack.append(h)
    if any(indeg):  # a group on or below a cycle was never popped
        return None
    return TemporalMap(tuple([level[g] for g in group]))


def has_antichain_to_leaf_property(net: PhyloNetwork, mode: str = "exhaustive") -> bool:
    """Decide whether every antichain reaches leaves disjointly.

    ``exhaustive`` checks every *maximal* antichain, which suffices: if
    A is contained in a maximal antichain B and B has |B| disjoint paths,
    restricting that family to the paths starting in A witnesses A.  The
    trail walk's minimum path partition routes most of them without a
    flow: no path holds two members of an antichain, so when every member
    lies on a path that ends at a leaf, the tails of those paths are |A|
    disjoint routes, and only :func:`_unreachable` runs, to check that the
    enumeration gave an antichain.  :func:`~tbnet.antichains.route_to_leaves`
    decides the rest.  The mode refuses networks larger than
    ``DEFAULT_EXHAUSTIVE_BOUND`` vertices (no polynomial algorithm is
    claimed for the general property).

    ``temporal-shortcut`` requires a temporal network and uses the
    equivalence with tree-basedness there: the property holds iff the
    trail walk found no W-fence.
    """
    if mode == "temporal-shortcut":
        if not is_temporal(net)[0]:
            raise ValueError("temporal-shortcut mode requires a temporal network")
        return not zigzag_trails(net)[2]
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    if net.num_vertices > DEFAULT_EXHAUSTIVE_BOUND:
        raise ValueError(f"exhaustive antichain check limited to {DEFAULT_EXHAUSTIVE_BOUND} vertices "
                         f"(got {net.num_vertices})")
    from .antichains import maximal_antichains, route_to_leaves

    # The vertices on a path of the walk's partition that ends at a leaf,
    # marked back from each leaf along ``pred``.
    pred = zigzag_trails(net)[1]
    leaf_ended = bytearray(net.num_vertices)
    for v in net.leaves:
        while v >= 0:
            leaf_ended[v] = 1
            v = pred[v]
    # map(), not all() over a generator: a local the generator read would
    # be a cell, made on every call, the shortcut's included
    try:
        for antichain in maximal_antichains(net):
            members = _vertices(net, antichain)
            if all(map(leaf_ended.__getitem__, members)):
                # no path holds two members of an antichain, so the tails
                # of their paths are disjoint routes to leaves: no flow
                if not _unreachable(net, members):
                    raise ValueError("input vertex set is not an antichain")
            elif route_to_leaves(net, members)[0] is None:
                return False
    except ValueError as exc:  # each is an antichain of ids in range, by construction
        raise RuntimeError(f"the exhaustive route refused its own antichain: {exc}") from exc
    return True


def temporal_violation(net: PhyloNetwork) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a temporal, non-tree-based network: an antichain A with no
    disjoint routing to the leaves, and a separator S that proves it.

    Both come from the walk's first W-fence t0, h1, t1, ..., hk, tk, to
    which a temporal map gives one time.  A tail can reach another
    tail only along reticulation edges, through a head, and only the end
    tails t0 and tk are reticulations: A is the tails minus the end tails
    some head reaches.  S is the heads minus those dropped tails and the
    reticulations above them along reticulation edges.  A path from a
    head to a dropped tail runs through reticulations alone, each with one
    child, on into a head, so every path from A to a leaf meets S, and
    |S| < |A|.  The code trusts neither this argument nor the fence:
    :func:`is_antichain` and :func:`separates` check the pair, each in
    O(n + m), and a failure raises RuntimeError.
    """
    if not is_temporal(net)[0]:
        raise ValueError("network is not temporal")
    fences = zigzag_trails(net)[2]
    if not fences:
        raise ValueError("network is tree-based; no violating antichain exists")
    tails, heads = fences[0][0::2], fences[0][1::2]
    below = _reachable(net, heads)
    stack = [v for v in (tails[0], tails[-1]) if below[v]]
    antichain = tuple(sorted(set(tails).difference(stack)))
    parents, in_degree = net.parents, net.in_degree
    marked = set()
    while stack:
        v = stack.pop()
        if v not in marked:
            marked.add(v)
            stack += [u for u in parents[v] if in_degree[u] == 2]
    separator = tuple(sorted(h for h in heads if h not in marked))
    if not _unreachable(net, antichain):
        raise RuntimeError("comparable pair with no reticulation route")
    if not separates(net, antichain, separator):
        raise RuntimeError("the heads left do not cut the antichain off the leaves")
    return antichain, separator


def temporal_violating_antichain(net: PhyloNetwork) -> tuple[int, ...]:
    """For a temporal, non-tree-based network: an antichain with no disjoint
    routing to the leaves, the first half of :func:`temporal_violation`,
    which builds and checks it with its separator in O(n + m)."""
    return temporal_violation(net)[0]
