"""Antichains, disjoint paths to leaves, and temporal structure.

An antichain is a set of vertices that are pairwise unreachable from one
another.  The antichain-to-leaf property asks that every antichain A admit
|A| vertex-disjoint directed paths from its members to labeled leaves.  For
temporal networks (those admitting a time map: strictly increasing along
tree edges, constant along reticulation edges) that property is equivalent
to being tree-based, and a failing antichain can be constructed from any
reticulation-to-reticulation path of the saturation graph.

Both antichain queries are unit flows on the split DAG, where vertex v is
an arc from its in-copy to its out-copy: routing to the leaves is a maximum
flow, a maximum antichain a minimum flow.  Only :func:`maximal_antichains`,
behind the size-bounded exhaustive check, holds descendant bitmasks.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .network import PhyloNetwork
from .treebased import _failure_witness, deviation_indices, zigzag_trails

DEFAULT_EXHAUSTIVE_BOUND = 18


def _reachable(net: PhyloNetwork, sources: Iterable[int]) -> bytearray:
    """Flags of every vertex reachable from ``sources``, sources included."""
    seen = bytearray(net.num_vertices)
    stack = list(sources)
    while stack:
        v = stack.pop()
        if not seen[v]:
            seen[v] = 1
            stack.extend(net.children[v])
    return seen


def is_antichain(net: PhyloNetwork, vertices: Iterable[int]) -> bool:
    """True iff the given vertices are pairwise unreachable from each other."""
    members = set(vertices)
    for v in members:
        if not 0 <= v < net.num_vertices:
            raise ValueError(f"vertex {v} out of range")
    below = _reachable(net, (c for v in members for c in net.children[v]))
    return not any(below[v] for v in members)


class DisjointPathWitness(NamedTuple):
    """Vertex-disjoint paths, one per antichain member, each ending at a leaf."""

    paths: tuple[tuple[int, ...], ...]


class _UnitFlow:
    """Tiny arc-list max-flow network with BFS augmentation.  Arc ``a`` is
    even and its reverse ``a ^ 1`` has the flow on it (above any lower bound)
    as capacity.  Nodes 2v and 2v + 1 are vertex v's in- and out-copy."""

    def __init__(self, n_nodes: int):
        self.head = [-1] * n_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.nxt: list[int] = []

    def add(self, u: int, v: int, cap: int, flow: int = 0) -> None:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap - flow)
        self.nxt.append(self.head[u])
        self.head[u] = idx
        self.to.append(u)
        self.cap.append(flow)
        self.nxt.append(self.head[v])
        self.head[v] = idx + 1

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        """Augment along shortest paths until t is cut off from s.  Returns
        the flow value and the labels of the last, failing search: -1 marks
        every node that s no longer reaches."""
        total = 0
        n = len(self.head)
        while True:
            parent_arc = [-1] * n
            parent_arc[s] = -2
            queue = deque([s])
            while queue and parent_arc[t] == -1:
                u = queue.popleft()
                a = self.head[u]
                while a != -1:
                    v = self.to[a]
                    if self.cap[a] > 0 and parent_arc[v] == -1:
                        parent_arc[v] = a
                        queue.append(v)
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
        """The vertices one unit of flow enters from ``node`` to ``stop``,
        leaving each out-copy over its first arc in scan order with flow left.
        The unit is consumed and the empty arcs passed over are unlinked."""
        path = []
        while True:
            arc = self.head[node]
            while arc != -1 and (arc & 1 or not self.cap[arc ^ 1]):
                arc = self.nxt[arc]
            self.head[node] = arc
            if arc == -1:
                raise RuntimeError("flow decoding lost its way")
            self.cap[arc ^ 1] -= 1
            step = self.to[arc]
            if step == stop:
                return path
            path.append(step // 2)
            node = step + 1


def max_antichain(net: PhyloNetwork) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A maximum antichain plus a witnessing minimum chain partition.

    Dilworth by Fulkerson's minimum flow on the split DAG: v_in -> v_out
    with lower bound 1, s -> v_in, v_out -> t and u_out -> v_in per arc
    (u, v), all uncapped.  The trail walk's |X| + p paths seed the flow, and
    the leaves are an antichain of |X|, so pushing flow back from t to s
    takes at most p augmentations: O(p (n + m)) time, linear memory.  The
    v whose v_out but not v_in t then reaches form an antichain as large as
    the flow (checked).  The chains are the flow's units from s, each vertex
    kept by the first unit through it, sorted by their first vertex.
    """
    n = net.num_vertices
    succ, pred, _ = zigzag_trails(net)
    source, sink = 2 * n, 2 * n + 1
    free = n + 1  # more than any number of augmentations: uncapped
    flow = _UnitFlow(2 * n + 2)
    for v in range(n):
        flow.add(2 * v, 2 * v + 1, free)
    for u, v in net.edges:
        flow.add(2 * u + 1, 2 * v, free, 1 if succ[u] == v else 0)
    # Only seed path starts and ends get s and t arcs: flow pushed from t to
    # s never leaves s or enters t, so the other arcs would stay empty.
    for v in range(n):
        if pred[v] == -1:
            flow.add(source, 2 * v, free, 1)
        if succ[v] == -1:
            flow.add(2 * v + 1, sink, free, 1)
    seeded = pred.count(-1)
    pushed, reached = flow.max_flow(sink, source)

    antichain = tuple(v for v in range(n) if reached[2 * v] == -1 and reached[2 * v + 1] != -1)
    taken = bytearray(n)
    chains = []
    for _ in range(seeded - pushed):
        chain = [v for v in flow.follow(source, sink) if not taken[v]]
        for v in chain:
            taken[v] = 1
        chains.append(tuple(chain))
    chains.sort()

    if len(antichain) != len(chains) or not is_antichain(net, antichain):
        raise RuntimeError("Dilworth witnesses disagree")
    return antichain, tuple(chains)


def antichain_to_leaf(net: PhyloNetwork, antichain: Iterable[int]):
    """Can every member of the antichain reach a leaf along vertex-disjoint paths?

    Unit vertex capacities (vertex splitting) reduce this to a max-flow
    instance; the answer is True iff the flow value equals the antichain
    size, in which case the witness paths are decoded from the flow.

    Raises ValueError if the input is not an antichain.
    """
    members = tuple(sorted(set(antichain)))
    if not is_antichain(net, members):
        raise ValueError("input vertex set is not an antichain")
    n = net.num_vertices
    source, sink = 2 * n, 2 * n + 1
    flow = _UnitFlow(2 * n + 2)
    for v in range(n):
        flow.add(2 * v, 2 * v + 1, 1)
    for u, v in net.edges:
        flow.add(2 * u + 1, 2 * v, 1)
    for v in members:
        flow.add(source, 2 * v, 1)
    for x in net.leaves:
        flow.add(2 * x + 1, sink, 1)
    if flow.max_flow(source, sink)[0] != len(members):
        return False, None
    # unit capacities leave one unit, hence one path, through each member
    paths = tuple((a, *flow.follow(2 * a + 1, sink)) for a in members)
    return True, DisjointPathWitness(paths)


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
        d = desc[v]
        while d:
            low = d & -d
            anc[low.bit_length() - 1] |= 1 << v
            d ^= low
    full = (1 << n) - 1
    inc = [full & ~(desc[v] | anc[v] | (1 << v)) for v in range(n)]

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot_pool = p | x
        pivot = max(
            (bin(p & inc[v]).count("1"), -v) for v in _bits(pivot_pool)
        )[1] * -1
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


def has_antichain_to_leaf_property(
    net: PhyloNetwork,
    mode: str = "exhaustive",
    max_vertices: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> bool:
    """Decide whether every antichain reaches leaves disjointly.

    ``exhaustive`` checks every *maximal* antichain, which suffices: if
    A is contained in a maximal antichain B and B has |B| disjoint paths,
    restricting that family to the paths starting in A witnesses A.  The
    mode refuses networks larger than ``max_vertices`` (no polynomial
    algorithm is claimed for the general property).

    ``temporal-shortcut`` requires a temporal network and uses the
    equivalence with tree-basedness there.
    """
    if mode == "temporal-shortcut":
        ok, _ = is_temporal(net)
        if not ok:
            raise ValueError("temporal-shortcut mode requires a temporal network")
        return deviation_indices(net).p == 0
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    if net.num_vertices > max_vertices:
        raise ValueError(
            f"exhaustive antichain check limited to {max_vertices} vertices "
            f"(got {net.num_vertices})"
        )
    for antichain in maximal_antichains(net):
        ok, _ = antichain_to_leaf(net, antichain)
        if not ok:
            return False
    return True


class TemporalMap(NamedTuple):
    """A time assignment: equal across reticulation edges, increasing along
    tree edges.  ``ranks[v]`` is the time of vertex v."""

    ranks: tuple[int, ...]


def verify_temporal_map(net: PhyloNetwork, tm: TemporalMap) -> None:
    retic = set(net.reticulations)
    for u, v in net.edges:
        if v in retic:
            if tm.ranks[u] != tm.ranks[v]:
                raise ValueError(f"reticulation edge ({u},{v}) not level")
        elif tm.ranks[u] >= tm.ranks[v]:
            raise ValueError(f"tree edge ({u},{v}) not increasing")


def is_temporal(net: PhyloNetwork) -> tuple[bool, TemporalMap | None]:
    """Does the network admit a temporal map?  Returns one if so.

    Reticulation edges force equal times, so contract them: vertices joined
    by reticulation edges share a group.  A temporal map exists iff no tree
    edge joins a group to itself and the tree-edge relation between groups
    is acyclic; the map assigned is the longest-path level of each group.
    """
    n = net.num_vertices
    group = list(range(n))

    def find(v: int) -> int:
        while group[v] != v:
            group[v] = group[group[v]]
            v = group[v]
        return v

    retic = set(net.reticulations)
    tree_edges = []
    for u, v in net.edges:
        if v in retic:
            ru, rv = find(u), find(v)
            if ru != rv:
                group[ru] = rv
        else:
            tree_edges.append((u, v))

    succ: dict[int, set[int]] = {}
    indeg: dict[int, int] = {find(v): 0 for v in range(n)}
    for u, v in tree_edges:
        gu, gv = find(u), find(v)
        if gu == gv:
            return False, None
        bucket = succ.setdefault(gu, set())
        if gv not in bucket:
            bucket.add(gv)
            indeg[gv] += 1

    level = {g: 0 for g in indeg}
    queue = deque(sorted(g for g, d in indeg.items() if d == 0))
    done = 0
    while queue:
        g = queue.popleft()
        done += 1
        for h in succ.get(g, ()):
            if level[g] + 1 > level[h]:
                level[h] = level[g] + 1
            indeg[h] -= 1
            if indeg[h] == 0:
                queue.append(h)
    if done != len(indeg):
        return False, None

    tm = TemporalMap(tuple(level[find(v)] for v in range(n)))
    verify_temporal_map(net, tm)
    return True, tm


def temporal_violating_antichain(net: PhyloNetwork) -> tuple[int, ...]:
    """For a temporal, non-tree-based network: an antichain with no disjoint
    routing to the leaves.

    Start from the failure witness's parent set U = {q, t_1..t_{k-1}, q'}.
    A temporal map is constant on U, so any comparability inside U travels
    reticulation edges only and must end at a reticulation of U, i.e. at q
    or q'.  Such a route leaves U through a witness reticulation r (every
    child of U lies in the witness set), so q is a comparability target
    exactly when some r is q itself (then q sits on the reticulation path
    and is a child of one of the t_i) or has q among its descendants.
    Dropping the reachable targets leaves an antichain of size k-1, k, or
    k+1 that provably cannot reach the leaves disjointly (checked before
    returning).
    """
    ok, _ = is_temporal(net)
    if not ok:
        raise ValueError("network is not temporal")
    fences = zigzag_trails(net)[2]
    if not fences:
        raise ValueError("network is tree-based; no violating antichain exists")
    return _violating_antichain(net, fences[0])


def _violating_antichain(net: PhyloNetwork, fence: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`temporal_violating_antichain` from a W-fence of a temporal network."""
    witness = _failure_witness(net, fence)
    u_set = witness.u1
    below = _reachable(net, witness.u2)
    drop = {v for v in (u_set[0], u_set[-1]) if below[v]}
    result = tuple(sorted(v for v in u_set if v not in drop))
    if not is_antichain(net, result):
        raise RuntimeError("comparable pair with no reticulation route")
    routed, _ = antichain_to_leaf(net, result)
    if routed:
        raise RuntimeError("constructed antichain unexpectedly reaches leaves disjointly")
    return result
