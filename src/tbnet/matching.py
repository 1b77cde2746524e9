"""The zig-zag trail walk, and general bipartite matching.

The path graph G_N (``build_gn``) has an edge (u-left, v-right) for every
arc (u, v); its maximum matchings give minimum path partitions.  In a
binary network G_N has maximum degree 2, so it splits into maximal zig-zag
trails t0 -> h1 <- t1 -> h2 <- ...: crowns (cycles) and fences (paths).
:func:`zigzag_trails` walks them in one linear pass and is the engine of
every tree-based query.  Its W-fences, with out-degree-1 tails at both
ends, number exactly p, and each one is a failure witness.

Hopcroft-Karp (:func:`max_matching`) and König's cover serve the antichain
closure.  With ``build_gn``, ``build_zn`` (reticulation parents against
reticulations) and ``reticulation_saturating`` they are also the
independent reference route the walk is tested against.  The matcher
breaks ties deterministically (ascending left vertices, sorted adjacency)
and, like the walk, is iterative throughout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .network import PhyloNetwork, tree_vertices_with_reticulation_child

_INF = float("inf")


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with back-references into the originating network.

    ``left_ids[i]`` / ``right_ids[j]`` give the network vertex behind left
    index ``i`` / right index ``j``.  ``adj[i]`` lists right indices adjacent
    to left index ``i``, ascending.
    """

    left_ids: tuple[int, ...]
    right_ids: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def n_left(self) -> int:
        return len(self.left_ids)

    @property
    def n_right(self) -> int:
        return len(self.right_ids)


@dataclass(frozen=True)
class Matching:
    """A matching plus the unmatched remainder on both sides (indices)."""

    pairs: tuple[tuple[int, int], ...]
    left_match: tuple[int, ...]
    right_match: tuple[int, ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]

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

    return _matching(match_l, match_r)


def _matching(match_l: list[int], match_r: list[int]) -> Matching:
    return Matching(
        pairs=tuple((u, v) for u, v in enumerate(match_l) if v != -1),
        left_match=tuple(match_l),
        right_match=tuple(match_r),
        unmatched_left=tuple(u for u, v in enumerate(match_l) if v == -1),
        unmatched_right=tuple(v for v, u in enumerate(match_r) if u == -1),
    )


def verify_matching(g: BipartiteGraph, m: Matching) -> None:
    """Raise AssertionError unless ``m`` is a consistent matching of ``g``."""
    seen_l: set[int] = set()
    seen_r: set[int] = set()
    for u, v in m.pairs:
        assert v in g.adj[u], f"matched pair ({u}, {v}) is not an edge"
        assert u not in seen_l and v not in seen_r, "vertex matched twice"
        seen_l.add(u)
        seen_r.add(v)
        assert m.left_match[u] == v and m.right_match[v] == u
    for u in m.unmatched_left:
        assert m.left_match[u] == -1
    for v in m.unmatched_right:
        assert m.right_match[v] == -1
    assert len(m.unmatched_left) + len(m.pairs) == g.n_left
    assert len(m.unmatched_right) + len(m.pairs) == g.n_right


def has_augmenting_path(g: BipartiteGraph, m: Matching) -> bool:
    """One alternating BFS pass: does any unmatched left reach an unmatched right?"""
    right_match = m.right_match
    visited = [False] * g.n_left
    queue = deque()
    for u in m.unmatched_left:
        visited[u] = True
        queue.append(u)
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            w = right_match[v]
            if w == -1:
                return True
            if not visited[w]:
                visited[w] = True
                queue.append(w)
    return False


def assert_maximum(g: BipartiteGraph, m: Matching) -> None:
    verify_matching(g, m)
    assert not has_augmenting_path(g, m), "matching admits an augmenting path"


def min_vertex_cover(g: BipartiteGraph, m: Matching) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum vertex cover from a maximum matching (Koenig's construction).

    Returns (left indices, right indices): every edge touches the cover
    and |cover| = |matching|.
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
    """Bipartite saturation graph: reticulation parents vs reticulations."""
    lefts = tree_vertices_with_reticulation_child(net)
    rights = tuple(net.reticulations)
    rindex = {r: j for j, r in enumerate(rights)}
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


def zigzag_trails(net: PhyloNetwork) -> tuple[Matching, tuple[tuple[int, ...], ...]]:
    """Walk the maximal zig-zag trails of the path graph once.

    Fences are walked from an end, smallest-id end first, then crowns.
    Every other arc of a trail, from its first, joins the matching: no
    matching meets a path or even cycle of e arcs in more than ceil(e/2)
    arcs, so this is a maximum matching of ``build_gn(net)``.

    Also returns the W-fences as sequences t0, h1, t1, ..., hk, tk, each
    starting at its smaller end reticulation (h1 or hk; at the smaller end
    tail when k = 1) and sorted by it: the first is the failure witness.
    """
    n = net.num_vertices
    nbrs = (net.children, net.parents)  # side 0: tails (left), 1: heads (right)
    match = ([-1] * n, [-1] * n)
    seen = (bytearray(n), bytearray(n))

    def walk(v: int, side: int) -> list[int]:
        trail, prev, take = [], -1, True
        while True:
            trail.append(v)
            seen[side][v] = 1
            ws = nbrs[side][v]
            w = ws[-1] if ws[0] == prev else ws[0]
            if w == prev or seen[1 - side][w]:
                return trail  # the far end of a fence, or a crown closed
            if take:
                match[side][v] = w
                match[1 - side][w] = v
            take = not take
            prev, v, side = v, w, 1 - side

    out_degree, in_degree = net.out_degree, net.in_degree
    fences = []
    for v in range(n):
        if out_degree[v] == 1 and not seen[0][v]:
            trail = walk(v, 0)
            if len(trail) % 2:  # ends at a tail too: a W-fence
                if (trail[1], trail[0]) > (trail[-2], trail[-1]):
                    trail.reverse()
                fences.append(tuple(trail))
        if in_degree[v] == 1 and not seen[1][v]:
            walk(v, 1)
    for v in range(n):
        if out_degree[v] == 2 and not seen[0][v]:
            walk(v, 0)
    fences.sort(key=lambda f: f[1])
    return _matching(*match), tuple(fences)


def find_rr_path(net: PhyloNetwork) -> tuple[int, ...] | None:
    """The first W-fence without its end tails, or None if there is none:
    a maximal path of the saturation graph ``build_zn`` with reticulations
    at both ends.  The walk uses no :func:`max_matching`, so agreement with
    :func:`reticulation_saturating` is a real two-route check."""
    fences = zigzag_trails(net)[1]
    return fences[0][1:-1] if fences else None
