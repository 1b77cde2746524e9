"""Core data model for rooted binary phylogenetic networks.

A network is a directed acyclic graph with a single in-degree-0 root of
out-degree 2, labeled leaves of in-degree 1 and out-degree 0, internal tree
vertices of in-degree 1 and out-degree 2, and reticulations of in-degree 2
and out-degree 1.  A single labeled vertex (no edges) is allowed as the
one-leaf degenerate case.

Vertices are dense non-negative integers ``0..n-1``.  Construction is one
validating pass that also builds the adjacency and the topological order.
All structures are immutable after construction; editing operations return
new objects, each rebuilt, so bulk edits write the edge list once instead.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]

# The label lexicon both serializers can write back; validation enforces it
# so a valid network never silently breaks a round trip.
LABEL_RE = re.compile(r"[A-Za-z0-9_.+|-]+")


class VertexKind(Enum):
    ROOT = "root"
    LEAF = "leaf"
    TREE = "tree"
    RETICULATION = "reticulation"


class EdgeKind(Enum):
    TREE_EDGE = "tree"
    RETICULATION_EDGE = "reticulation"


@dataclass(frozen=True)
class Violation:
    """One broken validation rule: rule id, offending ids, readable message."""

    rule: str
    subjects: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(v.message for v in self.violations)


class InvalidNetworkError(ValueError):
    """Raised when a graph fails network validation.  Carries the report."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class Digraph:
    """A raw candidate graph: what parsers and edit operations produce.

    Not necessarily a valid network; run :func:`validate` or hand it to
    :meth:`PhyloNetwork.from_digraph`.
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    leaf_labels: Mapping[int, str] = field(default_factory=dict)


def validate(graph: Digraph) -> ValidationReport:
    """Check the rooted-binary-network rules and report every violation.

    Rules: dense ids, no self-loops or parallel edges, acyclic, exactly one
    in-degree-0 vertex, degree signature of every vertex one of (0,2) root,
    (1,0) leaf, (1,2) tree, (2,1) reticulation (single labeled vertex allowed
    when there are no edges), and leaf labels a bijection onto the
    out-degree-0 vertices, drawn from the lexicon every serializer accepts.
    """
    bad = _build(graph.num_vertices, graph.edges, graph.leaf_labels)[0]
    return ValidationReport(not bad, tuple(bad))


def _build(n: int, edges: Sequence[Edge], leaf_labels: Mapping[int, str]):
    """Violations (as :func:`validate` reports them), child and parent
    lists, topological order and label-to-vertex map, in one pass.  Kahn's
    algorithm with an ascending-id heap is both the acyclicity check and the
    stored order."""
    bad: list[Violation] = []
    if n <= 0:
        return [Violation("empty", (), "network has no vertices")], [], [], [], {}

    kids: list[list[int]] = [[] for _ in range(n)]
    pars: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            bad.append(Violation("vertex-range", (u, v), f"edge ({u}, {v}) references a vertex outside 0..{n - 1}"))
        elif u == v:
            bad.append(Violation("self-loop", (u,), f"self-loop at vertex {u}"))
        else:
            kids[u].append(v)
            pars[v].append(u)
    if bad:
        return bad, kids, pars, [], {}

    if len(set(edges)) != len(edges):
        seen: set[Edge] = set()
        for e in edges:
            if e in seen:
                bad.append(Violation("parallel-edge", e, f"parallel edge ({e[0]}, {e[1]})"))
            seen.add(e)

    indeg = [len(p) for p in pars]
    roots = [v for v in range(n) if indeg[v] == 0]
    heap = roots[:]  # ascending, so already a heap
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in kids[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != n:
        bad.append(Violation("cycle", (), "graph contains a directed cycle"))

    if len(roots) != 1:
        bad.append(Violation("root-count", tuple(roots), f"expected exactly one in-degree-0 vertex, found {len(roots)}"))

    single = n == 1 and not edges
    for v in range(n):
        kids[v].sort()  # the order construction keeps
        pars[v].sort()
        sig = (len(pars[v]), len(kids[v]))
        if single and sig == (0, 0):
            continue
        if sig not in ((0, 2), (1, 0), (1, 2), (2, 1)):
            bad.append(Violation("degree", (v,), f"vertex {v} has degree signature in={sig[0]}, out={sig[1]}"))

    sinks = {v for v in range(n) if not kids[v]}
    labeled = set(leaf_labels)
    for v in sorted(labeled - sinks):
        bad.append(Violation("label-not-leaf", (v,), f"label on vertex {v}, which has out-edges"))
    for v in sorted(sinks - labeled):
        bad.append(Violation("unlabeled-leaf", (v,), f"leaf {v} has no label"))
    by_label: dict[str, int] = {}
    for v in sorted(labeled):
        name = leaf_labels[v]
        if not isinstance(name, str) or not LABEL_RE.fullmatch(name):
            bad.append(Violation("bad-label", (v,), f"leaf {v} has an unusable label {name!r}"))
            continue
        if name in by_label:
            bad.append(Violation("duplicate-label", (by_label[name], v), f"label {name!r} used by vertices {by_label[name]} and {v}"))
        by_label[name] = v

    return bad, kids, pars, order, by_label


class PhyloNetwork:
    """A validated rooted binary phylogenetic network.

    Construction validates; invalid input raises :class:`InvalidNetworkError`.
    Instances are immutable: adjacency tuples and the topological order are
    computed in the validating pass and the label map is exposed read-only.
    """

    __slots__ = (
        "num_vertices", "edges", "leaf_labels", "root",
        "children", "parents", "in_degree", "out_degree",
        "leaves", "reticulations", "_labels_sorted", "_order", "_by_label",
    )

    def __init__(self, edges: Iterable[Edge], leaf_labels: Mapping[int, str], num_vertices: int | None = None):
        edge_tuple = tuple((int(u), int(v)) for u, v in edges)
        labels = dict(leaf_labels)
        if num_vertices is None:
            top = -1
            for u, v in edge_tuple:
                if u > top:
                    top = u
                if v > top:
                    top = v
            for v in labels:
                if v > top:
                    top = v
            num_vertices = top + 1
        bad, kids, pars, order, by_label = _build(num_vertices, edge_tuple, labels)
        if bad:
            raise InvalidNetworkError(ValidationReport(False, tuple(bad)))

        self.num_vertices = num_vertices
        self.edges = edge_tuple
        self.leaf_labels = MappingProxyType(labels)
        self.children = tuple(map(tuple, kids))
        self.parents = tuple(map(tuple, pars))
        self.in_degree = tuple(map(len, pars))
        self.out_degree = tuple(map(len, kids))
        self.root = order[0]  # the one in-degree-0 vertex is the first Kahn pops
        self.leaves = tuple(v for v in range(num_vertices) if not kids[v])
        self.reticulations = tuple(v for v in range(num_vertices) if len(pars[v]) == 2)
        self._labels_sorted = tuple(sorted(by_label))
        self._order = tuple(order)
        self._by_label = by_label

    @classmethod
    def from_digraph(cls, graph: Digraph) -> "PhyloNetwork":
        return cls(graph.edges, graph.leaf_labels, graph.num_vertices)

    @property
    def labels(self) -> tuple[str, ...]:
        """All leaf labels, sorted."""
        return self._labels_sorted

    def vertex_by_label(self, label: str) -> int:
        return self._by_label[label]

    def topological_order(self) -> tuple[int, ...]:
        """Vertices in a topological order; ties broken by ascending id."""
        return self._order

    def __repr__(self) -> str:
        return (f"PhyloNetwork(n={self.num_vertices}, leaves={len(self.leaves)}, "
                f"reticulations={len(self.reticulations)})")


def classify(net: PhyloNetwork, v: int) -> VertexKind:
    """Kind of vertex ``v`` by its degree signature.

    The singleton network's vertex is classified as a leaf (the labeled set
    is always exactly the out-degree-0 vertices); in every multi-vertex
    network the root has out-degree 2 so the rules never overlap.
    """
    if not 0 <= v < net.num_vertices:
        raise ValueError(f"vertex {v} out of range")
    if net.out_degree[v] == 0:
        return VertexKind.LEAF
    if net.in_degree[v] == 0:
        return VertexKind.ROOT
    if net.in_degree[v] == 2:
        return VertexKind.RETICULATION
    return VertexKind.TREE


def edge_kind(net: PhyloNetwork, edge: Edge) -> EdgeKind:
    """Reticulation edge iff its head is a reticulation."""
    u, v = edge
    if (u, v) not in set(net.edges):
        raise ValueError(f"({u}, {v}) is not an edge of the network")
    if net.in_degree[v] == 2:
        return EdgeKind.RETICULATION_EDGE
    return EdgeKind.TREE_EDGE


def tree_vertices_with_reticulation_child(net: PhyloNetwork) -> tuple[int, ...]:
    """Tree vertices (including the root) that parent at least one reticulation."""
    retic = set(net.reticulations)
    out = []
    for v in range(net.num_vertices):
        if net.in_degree[v] <= 1 and net.out_degree[v] == 2:
            if any(c in retic for c in net.children[v]):
                out.append(v)
    return tuple(out)


def subdivide_edge(net: PhyloNetwork, edge: Edge) -> tuple[Digraph, int]:
    """Replace edge (u, v) by u -> s -> v with a fresh vertex s.

    Returns the raw graph and the new vertex id.  The result is not a valid
    network (s has degree (1,1)); it exists to be consumed by
    :func:`attach_leaf`.
    """
    u, v = edge
    try:
        i = net.edges.index((u, v))
    except ValueError:
        raise ValueError(f"({u}, {v}) is not an edge of the network") from None
    s = net.num_vertices
    new_edges = net.edges[:i] + ((u, s), (s, v)) + net.edges[i + 1:]
    return Digraph(s + 1, new_edges, dict(net.leaf_labels)), s


def attach_leaf(net: PhyloNetwork, edge: Edge, label: str) -> PhyloNetwork:
    """Subdivide ``edge`` and hang a new leaf with ``label`` off the new vertex."""
    raw, s = subdivide_edge(net, edge)
    leaf = raw.num_vertices
    labels = dict(raw.leaf_labels)
    labels[leaf] = label
    return PhyloNetwork(raw.edges + ((s, leaf),), labels, leaf + 1)
