"""General bipartite matching: the reference route.

The path graph G_N (``build_gn``) has an edge (u-left, v-right) for every
arc (u, v); its maximum matchings give minimum path partitions.  The
saturation graph Z_N (``build_zn``) pairs reticulation parents with
reticulations.  No query runs this module: the tree-based queries use the
zig-zag trail walk (:func:`tbnet.network.zigzag_trails`) and the
antichain queries a unit flow.  Hopcroft-Karp (:func:`max_matching`),
König's cover, ``build_gn``, ``build_zn`` and ``reticulation_saturating``
are the independent route the tests compare those engines against, and
:func:`find_rr_path` reads the walk's witness in Z_N terms.  The matcher
breaks ties deterministically (ascending left vertices, sorted adjacency)
and is iterative throughout.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .network import PhyloNetwork, zigzag_trails

_INF = float("inf")


class BipartiteGraph(namedtuple("BipartiteGraph", "left_ids right_ids adj")):
    """Bipartite graph with back-references into the originating network.

    ``left_ids[i]`` / ``right_ids[j]`` give the network vertex behind left
    index ``i`` / right index ``j``.  ``adj[i]`` lists right indices adjacent
    to left index ``i``, ascending.  ``left_ids`` and ``right_ids`` are
    ``tuple[int, ...]``, ``adj`` a ``tuple[tuple[int, ...], ...]``.
    """

    __slots__ = ()

    @property
    def n_left(self) -> int:
        return len(self.left_ids)

    @property
    def n_right(self) -> int:
        return len(self.right_ids)


class Matching(namedtuple("Matching", "pairs left_match right_match unmatched_left unmatched_right")):
    """A matching plus the unmatched remainder on both sides (indices).

    ``pairs: tuple[tuple[int, int], ...]``; every other field is a
    ``tuple[int, ...]``.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.pairs)


def max_matching(g: BipartiteGraph) -> Matching:
    """Maximum matching via Hopcroft-Karp; deterministic for a fixed graph."""
    n_left, n_right = g.n_left, g.n_right
    adj = g.adj
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        shortest = _INF
        while queue:
            u = queue.popleft()
            if dist[u] >= shortest:
                continue
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    if shortest == _INF:
                        shortest = dist[u] + 1
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return shortest != _INF

    def dfs(root: int) -> bool:
        # Iterative layered DFS.  Each frame: (left vertex, adjacency cursor,
        # right vertex used to enter the frame).
        stack = [[root, 0, -1]]
        while stack:
            frame = stack[-1]
            u, pos = frame[0], frame[1]
            advanced = False
            while pos < len(adj[u]):
                v = adj[u][pos]
                pos += 1
                w = match_r[v]
                if w == -1:
                    # Augment along the whole stack.
                    frame[1] = pos
                    match_l[u] = v
                    match_r[v] = u
                    for k in range(len(stack) - 1, 0, -1):
                        uu = stack[k - 1][0]
                        vv = stack[k][2]
                        match_l[uu] = vv
                        match_r[vv] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    frame[1] = pos
                    stack.append([w, 0, v])
                    advanced = True
                    break
            if not advanced:
                dist[u] = _INF
                stack.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)

    return Matching(
        pairs=tuple((u, v) for u, v in enumerate(match_l) if v != -1),
        left_match=tuple(match_l),
        right_match=tuple(match_r),
        unmatched_left=tuple(u for u, v in enumerate(match_l) if v == -1),
        unmatched_right=tuple(v for v, u in enumerate(match_r) if u == -1),
    )


def _require(ok: bool, message: str) -> None:
    # Not an assert: the reference checks must hold under python -O too.
    if not ok:
        raise AssertionError(message)


def verify_matching(g: BipartiteGraph, m: Matching) -> None:
    """Raise AssertionError unless ``m`` is a consistent matching of ``g``."""
    seen_l: set[int] = set()
    seen_r: set[int] = set()
    for u, v in m.pairs:
        _require(v in g.adj[u], f"matched pair ({u}, {v}) is not an edge")
        _require(u not in seen_l and v not in seen_r, "vertex matched twice")
        seen_l.add(u)
        seen_r.add(v)
        _require(m.left_match[u] == v and m.right_match[v] == u,
                 f"pair ({u}, {v}) disagrees with the match arrays")
    for u in m.unmatched_left:
        _require(m.left_match[u] == -1, f"left {u} is listed unmatched but matched")
    for v in m.unmatched_right:
        _require(m.right_match[v] == -1, f"right {v} is listed unmatched but matched")
    _require(len(m.unmatched_left) + len(m.pairs) == g.n_left, "left side miscounted")
    _require(len(m.unmatched_right) + len(m.pairs) == g.n_right, "right side miscounted")


def assert_maximum(g: BipartiteGraph, m: Matching) -> None:
    """Raise AssertionError unless ``m`` is a maximum matching of ``g``: by
    König's theorem, exactly when :func:`min_vertex_cover` has |m| vertices."""
    verify_matching(g, m)
    left, right = min_vertex_cover(g, m)
    _require(len(left) + len(right) == m.size, "matching admits an augmenting path")


def min_vertex_cover(g: BipartiteGraph, m: Matching) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum vertex cover from a maximum matching (Koenig's construction).

    Returns (left indices, right indices): the left vertices that no
    alternating path from an unmatched left vertex reaches, and the right
    vertices that one does.  Every edge touches the cover, and each matched
    pair puts one vertex in it, so |cover| is |matching| plus the unmatched
    right vertices reached: exactly |matching| when the matching is
    maximum, one more per such vertex (an augmenting path's end) when not.
    """
    visited_l = [False] * g.n_left
    visited_r = [False] * g.n_right
    queue = deque()
    for u in m.unmatched_left:
        visited_l[u] = True
        queue.append(u)
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not visited_r[v]:
                visited_r[v] = True
                w = m.right_match[v]
                if w != -1 and not visited_l[w]:
                    visited_l[w] = True
                    queue.append(w)
    left = tuple(u for u in range(g.n_left) if not visited_l[u])
    right = tuple(v for v in range(g.n_right) if visited_r[v])
    return left, right


def build_gn(net: PhyloNetwork) -> BipartiteGraph:
    """Bipartite path graph: both sides are copies of V, edges follow arcs.

    Left index i and right index j are network vertices i and j directly;
    labeled leaves are isolated on the left, the root on the right.
    """
    ids = tuple(range(net.num_vertices))
    return BipartiteGraph(left_ids=ids, right_ids=ids, adj=net.children)


def build_zn(net: PhyloNetwork) -> BipartiteGraph:
    """Bipartite saturation graph: tree vertices (the root included) that
    parent a reticulation vs reticulations."""
    rights = tuple(net.reticulations)
    rindex = {r: j for j, r in enumerate(rights)}
    lefts = tuple(v for v in range(net.num_vertices)
                  if net.out_degree[v] == 2 and any(c in rindex for c in net.children[v]))
    adj = tuple(
        tuple(rindex[c] for c in net.children[t] if c in rindex)
        for t in lefts
    )
    return BipartiteGraph(left_ids=lefts, right_ids=rights, adj=adj)


def reticulation_saturating(net: PhyloNetwork) -> tuple[bool, Matching]:
    """Does some matching of the saturation graph cover every reticulation?"""
    zn = build_zn(net)
    m = max_matching(zn)
    return m.size == zn.n_right, m


def find_rr_path(net: PhyloNetwork) -> tuple[int, ...] | None:
    """The first W-fence without its end tails, or None if there is none:
    a maximal path of the saturation graph ``build_zn`` with reticulations
    at both ends.  The walk uses no :func:`max_matching`, so agreement with
    :func:`reticulation_saturating` is a real two-route check."""
    fences = zigzag_trails(net)[2]
    return fences[0][1:-1] if fences else None
