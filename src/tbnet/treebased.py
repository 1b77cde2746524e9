"""Tree-based decision, deviation indices, and certifying constructions.

A network is tree-based when it has a rooted spanning tree (a "base tree")
whose leaves are all labeled leaves of the network.  Three equivalent
measures quantify how far a network is from that property:

* ``l``: the minimum, over rooted spanning trees, of the number of tree
  leaves that are unlabeled vertices;
* ``p``: the minimum number of vertex-disjoint directed paths that
  partition the vertex set, minus the number of labeled leaves;
* ``t``: the minimum number of new leaves that must be attached (by edge
  subdivision) to make the network tree-based.

All three equal the number of W-fences of the path graph, which one zig-zag
trail walk (:func:`~tbnet.network.zigzag_trails`), kept on the network for
every later query, counts.  It enters each fence at its end of smallest id and each
crown at its smallest tail, and matches the arcs of each trail that point
the way its first arc points: a maximum matching.  That matching chains a
minimum path partition and, with each path start hung below a parent, a
spanning tree realizing ``l``; the unmatched vertices with out-edges, that
tree's unlabeled leaves, give a completion realizing ``t``; and the first
W-fence is the failure witness.  The completion attaches all its leaves
with one :func:`~tbnet.network.attach_leaves`, which builds once.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple, Union

from .network import Edge, PhyloNetwork, attach_leaves, zigzag_trails


class PathPartition(NamedTuple):
    """Vertex-disjoint directed paths covering every vertex exactly once."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.paths)


class SpanningTree(NamedTuple):
    """A rooted spanning tree, as an edge subset of the network."""

    edges: tuple[Edge, ...]
    root: int
    leaves: tuple[int, ...]

    def unlabeled_leaves(self, net: PhyloNetwork) -> tuple[int, ...]:
        labeled = set(net.leaves)
        return tuple(v for v in self.leaves if v not in labeled)


class DeviationReport(NamedTuple):
    """The deviation indices.  Field names follow the CLI JSON contract.

    l / p / t are the three measures described in the module docstring
    (provably equal); u_gn is the unmatched-left count of the path graph,
    x_size the number of labeled leaves, and d = p + x_size the size of a
    minimum path partition.
    """

    l: int
    p: int
    t: int
    u_gn: int
    x_size: int
    d: int

    def as_dict(self) -> dict:
        return self._asdict()


class BaseTreeCertificate(NamedTuple):
    """Positive certificate: a spanning tree all of whose leaves are labeled."""

    tree: SpanningTree


class FailureWitness(NamedTuple):
    """Negative certificate read off a W-fence t0, h1, t1, ..., hk, tk.

    ``rr_path`` is the fence without its end tails.  ``u1`` (the tails) is
    the set of all parents of ``u2`` (the heads, all reticulations); |u1| =
    |u2| + 1 while u1's children are exactly u2, which no family of
    vertex-disjoint leaf-bound paths can satisfy.
    """

    rr_path: tuple[int, ...]
    u1: tuple[int, ...]
    u2: tuple[int, ...]


TreeBasedCertificate = Union[BaseTreeCertificate, FailureWitness]


def vertex_disjoint_paths(net: PhyloNetwork) -> PathPartition:
    """A minimum partition of the vertices into vertex-disjoint directed paths.

    Chained from the trail walk's maximum matching of the path graph:
    vertices without a predecessor start paths, successors extend them.
    The number of paths is always ``u_gn`` = p + |X|.
    """
    succ, pred, _ = zigzag_trails(net)
    paths = []
    for start in range(net.num_vertices):
        if pred[start] == -1:
            path = [start]
            v = succ[start]
            while v != -1:
                path.append(v)
                v = succ[v]
            paths.append(tuple(path))
    if sum(map(len, paths)) != net.num_vertices:
        raise RuntimeError("the path partition does not hold every vertex")
    return PathPartition(tuple(paths))


def deviation_indices(net: PhyloNetwork) -> DeviationReport:
    """Compute l, p, t (the W-fence count) plus the raw quantities."""
    p, x = len(zigzag_trails(net)[2]), len(net.leaves)
    return DeviationReport(l=p, p=p, t=p, u_gn=p + x, x_size=x, d=p + x)


def rooted_spanning_tree(net: PhyloNetwork) -> SpanningTree:
    """A rooted spanning tree with the fewest possible unlabeled leaves:
    the path ends outside X of a minimum path partition.

    The tree is read off the walk's matching: every matched arc (u,
    succ[u]), which chains the minimum path partition, and every path start
    but the root spliced below its smallest-id parent.  No path end (a
    vertex without a successor) is such a parent: the matching is maximum,
    so an arc from an unmatched-left path end to an unmatched-right path
    start would augment it.  The tree's leaves are therefore exactly the
    path ends."""
    succ, pred, _ = zigzag_trails(net)
    parents, root = net.parents, net.root
    edges = [(u, v) for u, v in enumerate(succ) if v != -1]
    edges += [(parents[v][0], v) for v, u in enumerate(pred) if u == -1 and v != root]
    edges.sort()
    leaves = tuple(v for v, w in enumerate(succ) if w == -1)
    return SpanningTree(edges=tuple(edges), root=root, leaves=leaves)


def is_tree_based(net: PhyloNetwork) -> tuple[bool, TreeBasedCertificate]:
    """Decide tree-basedness with one trail walk and build the certificate.

    Positive answers carry a base tree; negative answers carry the first
    W-fence as the witness, with its unsatisfiable (u1, u2) pair.
    """
    fences = zigzag_trails(net)[2]
    if fences:
        return False, _failure_witness(net, fences[0])
    tree = rooted_spanning_tree(net)
    if tree.unlabeled_leaves(net):
        raise RuntimeError("no W-fence, yet the base tree has an unlabeled leaf")
    return True, BaseTreeCertificate(tree)


def _failure_witness(net: PhyloNetwork, fence: tuple[int, ...]) -> FailureWitness:
    """The witness read off a W-fence t0, h1, t1, ..., hk, tk."""
    u1, u2 = fence[0::2], fence[1::2]
    # Soundness of the witness, cheap enough to keep on.
    if not (len(set(u1)) == len(u2) + 1
            and net.in_degree[u1[0]] == net.in_degree[u1[-1]] == 2
            and {p for r in u2 for p in net.parents[r]} == set(u1)
            and {c for t in u1 for c in net.children[t]} == set(u2)):
        raise RuntimeError(f"{fence} is not a W-fence of the network")
    return FailureWitness(rr_path=fence[1:-1], u1=u1, u2=u2)


def check_path_partition_characterisation(net: PhyloNetwork) -> bool:
    """True iff a minimum path partition has exactly |X| paths, all ending in X."""
    partition = vertex_disjoint_paths(net)
    labeled = set(net.leaves)
    return partition.size == len(labeled) and all(p[-1] in labeled for p in partition.paths)


class CompletionResult(NamedTuple):
    """Outcome of making a network tree-based by attaching new leaves.

    ``attached_edges`` are edges of the *input* network that received a new
    pendant leaf (input vertex ids stay valid in the completed network);
    ``labels`` are the new leaf labels, in attachment order.
    """

    network: PhyloNetwork
    attached_edges: tuple[Edge, ...]
    labels: tuple[str, ...]


def tree_based_completion(net: PhyloNetwork) -> CompletionResult:
    """Attach the minimum number of leaves needed to make ``net`` tree-based.

    Every unlabeled leaf of the spanning tree :func:`rooted_spanning_tree`
    builds gets a new pendant leaf on its smallest-headed out-edge.  Those
    leaves are read straight off the trail walk: they are the vertices
    with out-edges and no successor, the tree's path ends outside X.  That
    adds exactly ``t`` leaves, labeled ``attached_1``, ``attached_2``, ...
    in ascending order of the subdivided edge's tail, skipping every label
    the input already uses.
    The i-th edge (u, v) becomes u -> s -> v with the new leaf s + 1, where
    s = n + 2i: :func:`~tbnet.network.attach_leaves` splices all of them
    and builds once.  With nothing to attach, ``net`` is returned.
    """
    succ = zigzag_trails(net)[0]
    out_degree = net.out_degree
    stuck = [v for v in range(net.num_vertices) if succ[v] == -1 and out_degree[v]]
    if not stuck:
        return CompletionResult(network=net, attached_edges=(), labels=())
    used = set(net.leaf_labels.values())
    fresh = (name for name in (f"attached_{i}" for i in count(1)) if name not in used)
    attached = tuple((v, net.children[v][0]) for v in stuck)
    labels = tuple(next(fresh) for _ in stuck)
    return CompletionResult(network=attach_leaves(net, attached, labels),
                            attached_edges=attached, labels=labels)
