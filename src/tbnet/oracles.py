"""Brute-force reference implementations.

Everything here mirrors a definition as directly as possible and is meant
to cross-check the fast algorithms on small inputs; nothing is shared with
the production code paths beyond the network type itself.  Each oracle
guards its input size with a fixed bound and raises ValueError beyond it.
"""

from __future__ import annotations

import itertools

from .network import PhyloNetwork, attach_leaf


def _guard(net: PhyloNetwork, bound: int, what: str) -> None:
    if net.num_vertices > bound:
        raise ValueError(f"{what} oracle limited to {bound} vertices, got {net.num_vertices}")


def iter_spanning_trees(net: PhyloNetwork):
    """Yield every rooted spanning tree as a tuple of edges.

    In an acyclic single-rooted graph a spanning tree is exactly a choice of
    one in-edge per non-root vertex, so the enumeration is the product of
    the reticulations' parent choices (2^r trees).
    """
    fixed = []
    retic_edges = []
    for v in range(net.num_vertices):
        parents = net.parents[v]
        if len(parents) == 1:
            fixed.append((parents[0], v))
        elif len(parents) == 2:
            retic_edges.append(((parents[0], v), (parents[1], v)))
    for choice in itertools.product(*retic_edges):
        yield tuple(fixed) + tuple(choice)


def _tree_leaves(net: PhyloNetwork, tree_edges) -> list[int]:
    has_out = [False] * net.num_vertices
    for u, _ in tree_edges:
        has_out[u] = True
    return [v for v in range(net.num_vertices) if not has_out[v]]


def _has_base_tree(net: PhyloNetwork) -> bool:
    """Some spanning tree has all its leaves labeled: tree-based by definition."""
    labeled = set(net.leaves)
    return any(
        all(v in labeled for v in _tree_leaves(net, t)) for t in iter_spanning_trees(net)
    )


def oracle_tree_based(net: PhyloNetwork) -> bool:
    """Some spanning tree has all its leaves labeled."""
    _guard(net, 20, "tree-based")
    return _has_base_tree(net)


def oracle_min_spanning_tree_extra_leaves(net: PhyloNetwork) -> int:
    """Minimum number of unlabeled leaves over all rooted spanning trees."""
    _guard(net, 20, "spanning-tree-leaves")
    labeled = set(net.leaves)
    return min(
        sum(1 for v in _tree_leaves(net, t) if v not in labeled)
        for t in iter_spanning_trees(net)
    )


def oracle_min_path_partition(net: PhyloNetwork) -> int:
    """Minimum number of vertex-disjoint directed paths partitioning V.

    Exact search: scan vertices in topological order; each either starts a
    new path or extends a path whose current end is one of its parents.
    Memoized on (position, set of current path ends).
    """
    _guard(net, 16, "path-partition")
    order = net.topological_order()
    parents = net.parents
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, ends: int) -> int:
        if i == len(order):
            return 0
        key = (i, ends)
        got = memo.get(key)
        if got is not None:
            return got
        v = order[i]
        bit = 1 << v
        result = 1 + best(i + 1, ends | bit)  # v starts a new path
        for p in parents[v]:
            pbit = 1 << p
            if ends & pbit:
                cand = best(i + 1, (ends & ~pbit) | bit)
                if cand < result:
                    result = cand
        memo[key] = result
        return result

    return best(0, 0)


def _attach_run(net: PhyloNetwork, targets) -> PhyloNetwork:
    """Attach one leaf per target; repeated targets subdivide the lower piece."""
    current = net
    active = {}
    for num, edge in enumerate(targets):
        live = active.get(edge, edge)
        before = current.num_vertices
        current = attach_leaf(current, live, f"_oa{num + 1}")
        active[edge] = (before, live[1])
    return current


def oracle_min_attachments(net: PhyloNetwork) -> int:
    """Minimum leaf attachments (over reticulation-edge subsets) giving a
    tree-based network.

    Attaching to every reticulation edge is always enough, so the search
    over subsets of those positions by increasing size terminates.  The
    restriction to reticulation edges is the one the completion argument
    justifies; ``oracle_min_attachments_unrestricted`` exists to probe it.
    """
    _guard(net, 20, "attachments")
    if len(net.reticulations) > 3:
        raise ValueError("attachments oracle limited to 3 reticulations")
    retic = set(net.reticulations)
    positions = [e for e in net.edges if e[1] in retic]
    for k in range(len(positions) + 1):
        for subset in itertools.combinations(positions, k):
            if _has_base_tree(_attach_run(net, subset)):
                return k
    raise AssertionError("attaching to every reticulation edge must succeed")


def oracle_min_attachments_unrestricted(net: PhyloNetwork, upper: int) -> int | None:
    """Minimum attachments over *all* edge multisets of size <= upper."""
    _guard(net, 12, "unrestricted-attachments")
    for k in range(upper + 1):
        for multiset in itertools.combinations_with_replacement(net.edges, k):
            if _has_base_tree(_attach_run(net, multiset)):
                return k
    return None


def _reach_sets(net: PhyloNetwork) -> list[set[int]]:
    """Strict descendants via plain per-vertex DFS (no sharing with the
    production closure)."""
    out = []
    for v in range(net.num_vertices):
        seen: set[int] = set()
        stack = list(net.children[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(net.children[w])
        out.append(seen)
    return out


def _comparable_masks(net: PhyloNetwork) -> list[int]:
    reach = _reach_sets(net)
    comp = [0] * net.num_vertices
    for u in range(net.num_vertices):
        for v in reach[u]:
            comp[u] |= 1 << v
            comp[v] |= 1 << u
    return comp


def _iter_antichains(net: PhyloNetwork):
    """Every antichain (possibly empty), as a tuple of ascending ids."""
    comp = _comparable_masks(net)
    n = net.num_vertices

    def rec(start: int, chosen: tuple[int, ...], mask: int):
        yield chosen
        for v in range(start, n):
            if comp[v] & mask == 0:
                yield from rec(v + 1, chosen + (v,), mask | (1 << v))

    yield from rec(0, (), 0)


def oracle_max_antichain(net: PhyloNetwork) -> int:
    """Size of a maximum antichain by exhaustive enumeration."""
    _guard(net, 18, "max-antichain")
    return max(len(a) for a in _iter_antichains(net))


def _route_disjoint(net: PhyloNetwork, members: tuple[int, ...]) -> bool:
    """Brute-force search for vertex-disjoint member-to-leaf paths."""

    def place(idx: int, used: set[int]) -> bool:
        if idx == len(members):
            return True
        start = members[idx]
        if start in used:
            return False

        def walk(v: int, taken: set[int]) -> bool:
            if net.out_degree[v] == 0:
                return place(idx + 1, used | taken)
            for c in net.children[v]:
                if c not in used and c not in taken:
                    if walk(c, taken | {c}):
                        return True
            return False

        return walk(start, {start})

    return place(0, set())


def oracle_antichain_to_leaf_property(net: PhyloNetwork) -> bool:
    """Check the definition verbatim: every antichain routes disjointly."""
    _guard(net, 16, "antichain-to-leaf")
    return all(
        _route_disjoint(net, a) for a in _iter_antichains(net) if len(a) > 1
    )


def oracle_covering_paths(net: PhyloNetwork, subset) -> bool:
    """Can some family of vertex-disjoint paths, each ending at a labeled
    leaf, contain every vertex of ``subset``?

    Any witness family can be trimmed so that each path starts at a subset
    element (dropping a path's prefix before its first subset vertex keeps
    it a path, keeps the ends, and only frees vertices), so the search only
    considers such systems: repeatedly route the topologically earliest
    uncovered element downward to a leaf.
    """
    _guard(net, 16, "covering-paths")
    want = set(subset)
    pos = {v: i for i, v in enumerate(net.topological_order())}

    def cover(missing: frozenset, used: set[int]) -> bool:
        if not missing:
            return True
        u = min(missing, key=pos.__getitem__)
        if u in used:
            return False

        def walk(v: int, taken: set[int]) -> bool:
            if net.out_degree[v] == 0:
                return v in set(net.leaves) and cover(missing - taken, used | taken)
            for c in net.children[v]:
                if c not in used and c not in taken:
                    if walk(c, taken | {c}):
                        return True
            return False

        return walk(u, {u})

    return cover(frozenset(want), set())


def oracle_temporal(net: PhyloNetwork) -> bool:
    """Does any integer time map exist?  Bellman-Ford on its difference
    constraints: a tree arc (u, v) asks t[v] >= t[u] + 1, a reticulation
    arc t[v] >= t[u] and t[u] >= t[v].  Relaxed from t = 0 everywhere,
    they settle within n passes iff some map meets them all; otherwise a
    cycle among them raises t without end.
    """
    _guard(net, 16, "temporal")
    retic = set(net.reticulations)
    rules = []
    for u, v in net.edges:
        rules += [(u, v, 0), (v, u, 0)] if v in retic else [(u, v, 1)]
    t = [0] * net.num_vertices
    for _ in range(net.num_vertices + 1):
        changed = False
        for u, v, w in rules:
            if t[v] < t[u] + w:
                t[v] = t[u] + w
                changed = True
        if not changed:
            return True
    return False


def oracle_max_matching_size(adj: list, n_right: int) -> int:
    """Exhaustive maximum matching size for a bipartite adjacency list."""
    if len(adj) > 12:
        raise ValueError("matching oracle limited to 12 left vertices")

    def best(i: int, used: int) -> int:
        if i == len(adj):
            return 0
        top = best(i + 1, used)
        for v in adj[i]:
            if not used >> v & 1:
                top = max(top, 1 + best(i + 1, used | (1 << v)))
        return top

    return best(0, 0)


def isomorphic(a: PhyloNetwork, b: PhyloNetwork) -> bool:
    """Label-preserving digraph isomorphism.

    Color refinement seeded by leaf labels (distinct by validity) usually
    separates every vertex; a backtracking extension settles rare ties.
    Intended for test-scale networks.
    """
    if (a.num_vertices != b.num_vertices or len(a.edges) != len(b.edges)
            or a.labels != b.labels or len(a.reticulations) != len(b.reticulations)):
        return False

    def initial(net: PhyloNetwork):
        return [
            (0, net.leaf_labels[v]) if net.out_degree[v] == 0 else (1, "")
            for v in range(net.num_vertices)
        ]

    def signatures(net: PhyloNetwork, ids):
        return [
            (
                ids[v],
                tuple(sorted(ids[c] for c in net.children[v])),
                tuple(sorted(ids[p] for p in net.parents[v])),
            )
            for v in range(net.num_vertices)
        ]

    # Refine both graphs against one shared table so class ids line up.
    table: dict = {}
    ca = [table.setdefault(c, len(table)) for c in initial(a)]
    cb = [table.setdefault(c, len(table)) for c in initial(b)]
    for _ in range(a.num_vertices + 1):
        table = {}
        na = [table.setdefault(s, len(table)) for s in signatures(a, ca)]
        nb = [table.setdefault(s, len(table)) for s in signatures(b, cb)]
        if len(set(na) | set(nb)) == len(set(ca) | set(cb)):
            ca, cb = na, nb
            break
        ca, cb = na, nb
    if sorted(ca) != sorted(cb):
        return False

    candidates = {v: [w for w in range(b.num_vertices) if cb[w] == ca[v]]
                  for v in range(a.num_vertices)}
    mapping: dict[int, int] = {}
    used: set[int] = set()
    order = a.topological_order()
    edge_set_b = set(b.edges)

    def admissible(v: int, w: int) -> bool:
        if w in used:
            return False
        for p in a.parents[v]:
            if p in mapping and (mapping[p], w) not in edge_set_b:
                return False
        if a.out_degree[v] == 0 and a.leaf_labels[v] != b.leaf_labels.get(w):
            return False
        return True

    # Explicit-stack backtracking: choice[i] is the candidate index tried
    # next for order[i].  Recursion here would cap the network depth.
    choice = [0] * (len(order) + 1)
    i = 0
    while i < len(order):
        v = order[i]
        opts = candidates[v]
        k = choice[i]
        while k < len(opts) and not admissible(v, opts[k]):
            k += 1
        if k == len(opts):
            choice[i] = 0
            i -= 1
            if i < 0:
                return False
            undo = order[i]
            used.remove(mapping.pop(undo))
            continue
        mapping[v] = opts[k]
        used.add(opts[k])
        choice[i] = k + 1
        i += 1
        choice[i] = 0

    mapped = {(mapping[u], mapping[v]) for u, v in a.edges}
    return mapped == edge_set_b
