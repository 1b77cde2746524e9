"""Antichains, disjoint paths to leaves, and temporal structure.

An antichain is a set of vertices that are pairwise unreachable from one
another.  The antichain-to-leaf property asks that every antichain A admit
|A| vertex-disjoint directed paths from its members to labeled leaves.  For
temporal networks (those admitting a time map: strictly increasing along
tree edges, constant along reticulation edges) that property is equivalent
to being tree-based.  There the failure witness's W-fence yields a failing
antichain and, for the same price, a vertex separator smaller than it that
every path from it to a leaf meets (Menger): :func:`separates` checks that
certificate in linear time without any flow.

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

from operator import index
from typing import Iterable, NamedTuple, Sequence

from .network import PhyloNetwork
from .treebased import is_tree_based, zigzag_trails

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


def has_antichain_to_leaf_property(net: PhyloNetwork, mode: str = "exhaustive") -> bool:
    """Decide whether every antichain reaches leaves disjointly.

    ``exhaustive`` checks every *maximal* antichain, which suffices: if
    A is contained in a maximal antichain B and B has |B| disjoint paths,
    restricting that family to the paths starting in A witnesses A.  The
    mode refuses networks larger than ``DEFAULT_EXHAUSTIVE_BOUND`` vertices
    (no polynomial algorithm is claimed for the general property).

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
    try:
        return all(route_to_leaves(net, antichain)[0] is not None for antichain in maximal_antichains(net))
    except ValueError as exc:  # each is an antichain of ids in range, by construction
        raise RuntimeError(f"the exhaustive route refused its own antichain: {exc}") from exc


class TemporalMap(NamedTuple):
    """A time assignment: equal across reticulation edges, increasing along
    tree edges.  ``ranks[v]`` is the time of vertex v."""

    ranks: tuple[int, ...]


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


def temporal_violation(net: PhyloNetwork) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a temporal, non-tree-based network: an antichain A with no
    disjoint routing to the leaves, and a separator S that proves it.

    Both come from the failure witness's W-fence t0, h1, t1, ..., hk, tk,
    to which a temporal map gives one time.  A tail can reach another
    tail only along reticulation edges, through a head, and only the end
    tails t0 and tk are reticulations: A is the tails minus the end tails
    some head reaches.  S is the heads minus those dropped tails and the
    reticulations above them along reticulation edges.  A path from a
    head to a dropped tail runs through reticulations alone, each with one
    child, on into a head, so every path from A to a leaf meets S, and
    |S| < |A|.  The code trusts no argument: :func:`is_antichain` and
    :func:`separates` check the pair, each in O(n + m), and a failure
    raises RuntimeError.
    """
    if not is_temporal(net)[0]:
        raise ValueError("network is not temporal")
    based, witness = is_tree_based(net)
    if based:
        raise ValueError("network is tree-based; no violating antichain exists")
    tails, heads = witness.u1, witness.u2
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
