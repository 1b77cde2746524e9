"""Core data model for rooted binary phylogenetic networks.

A network is a directed acyclic graph with a single in-degree-0 root of
out-degree 2, labeled leaves of in-degree 1 and out-degree 0, internal tree
vertices of in-degree 1 and out-degree 2, and reticulations of in-degree 2
and out-degree 1.  A single labeled vertex (no edges) is allowed as the
one-leaf degenerate case.

Vertices are dense non-negative integers ``0..n-1``.  Construction builds
the adjacency once and accepts a valid graph with a few whole-graph tests;
only a rejected graph runs the full pass of :func:`validate`, which names
every broken rule.  The topological order is computed on first use.  All
structures are immutable after construction; editing operations return
new objects, each rebuilt, so bulk edits write the edge list once instead.
The records are ``NamedTuple``s, so they compare equal to plain tuples.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

Edge = tuple[int, int]

# The label lexicon both serializers can write back; validation enforces it
# so a valid network never silently breaks a round trip.
LABEL_RE = re.compile(r"[A-Za-z0-9_.+|-]+")
# Labels joined by newlines, which the lexicon excludes: one match checks
# them all.
_LABELS_RE = re.compile(rf"{LABEL_RE.pattern}(?:\n{LABEL_RE.pattern})*")
# Degree signatures (in, out) of the root, a leaf, a tree vertex and a
# reticulation.
_SIGNATURES = frozenset(((0, 2), (1, 0), (1, 2), (2, 1)))


class Violation(NamedTuple):
    """One broken validation rule: rule id, offending ids, readable message."""

    rule: str
    subjects: tuple[int, ...]
    message: str


class ValidationReport(NamedTuple):
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


class Digraph(NamedTuple):
    """A raw candidate graph, not necessarily a valid network: what
    :func:`validate` checks."""

    num_vertices: int
    edges: tuple[Edge, ...]
    leaf_labels: Mapping[int, str] = MappingProxyType({})


def validate(graph: Digraph) -> ValidationReport:
    """Check the rooted-binary-network rules and report every violation.

    Rules: dense ids, no self-loops or parallel edges, acyclic, exactly one
    in-degree-0 vertex, degree signature of every vertex one of (0,2) root,
    (1,0) leaf, (1,2) tree, (2,1) reticulation (single labeled vertex allowed
    when there are no edges), and leaf labels a bijection onto the
    out-degree-0 vertices, drawn from the lexicon every serializer accepts.
    """
    n, edges, leaf_labels = graph
    if n <= 0:
        return ValidationReport(False, (Violation("empty", (), "network has no vertices"),))

    bad: list[Violation] = []
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
        return ValidationReport(False, tuple(bad))

    if len(set(edges)) != len(edges):
        seen: set[Edge] = set()
        for e in edges:
            if e in seen:
                bad.append(Violation("parallel-edge", e, f"parallel edge ({e[0]}, {e[1]})"))
            seen.add(e)

    indeg = [len(ws) for ws in pars]
    roots = [v for v in range(n) if not indeg[v]]
    if _kahn_count(kids, indeg, roots) != n:
        bad.append(Violation("cycle", (), "graph contains a directed cycle"))

    if len(roots) != 1:
        bad.append(Violation("root-count", tuple(roots), f"expected exactly one in-degree-0 vertex, found {len(roots)}"))

    single = n == 1 and not edges
    for v in range(n):
        sig = (len(pars[v]), len(kids[v]))
        if single and sig == (0, 0):
            continue
        if sig not in _SIGNATURES:
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

    return ValidationReport(not bad, tuple(bad))


def _kahn_count(kids: Sequence[Sequence[int]], indeg: list[int], roots: Iterable[int]) -> int:
    """How many vertices Kahn's algorithm pops from ``roots``, the
    vertices of in-degree 0: all of them exactly when the graph is acyclic.
    Consumes ``indeg``."""
    stack = list(roots)
    popped = 0
    while stack:
        popped += 1
        for w in kids[stack.pop()]:
            indeg[w] -= 1
            if not indeg[w]:
                stack.append(w)
    return popped


def _accept(n: int, edges: Sequence[Edge], labels: Mapping[int, str]):
    """Sorted child and parent lists, the root and the leaves when ``(n,
    edges, labels)`` is a valid network, else None.  Accepts exactly what
    :func:`validate` accepts, with whole-graph tests in place of its
    per-vertex reports: with every signature allowed, a repeated child is
    a parallel edge and a self-loop is a cycle."""
    if n <= 0 or min(chain.from_iterable(edges), default=0) < 0:
        return None
    kids: list[list[int]] = [[] for _ in range(n)]
    pars: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:
            kids[u].append(v)
            pars[v].append(u)
    except IndexError:
        return None
    ins, outs = list(map(len, pars)), list(map(len, kids))
    if not set(zip(ins, outs)) <= _SIGNATURES and not (n == 1 and not edges):
        return None
    if ins.count(0) != 1:
        return None
    for ws in kids:
        if len(ws) == 2 and ws[0] >= ws[1]:
            if ws[0] == ws[1]:
                return None
            ws.reverse()
    for ws in pars:
        if len(ws) == 2 and ws[0] > ws[1]:
            ws.reverse()
    root = ins.index(0)
    if _kahn_count(kids, ins, (root,)) != n:
        return None
    sinks = [v for v in range(n) if not outs[v]]
    names = list(labels.values())
    try:
        if not _LABELS_RE.fullmatch("\n".join(names)):
            return None
    except TypeError:  # a label that is not a string
        return None
    if len(set(names)) != len(names) or labels.keys() != set(sinks):
        return None
    return kids, pars, root, sinks


class PhyloNetwork:
    """A validated rooted binary phylogenetic network.

    Construction validates; invalid input raises :class:`InvalidNetworkError`.
    A valid graph passes a short accept test; only a rejected one is
    explained by the full pass of :func:`validate`, whose report the error
    carries.  Instances are immutable: adjacency tuples are computed at
    construction, the topological order on first use, and the label map is
    exposed read-only.
    """

    __slots__ = (
        "num_vertices", "edges", "leaf_labels", "root",
        "children", "parents", "in_degree", "out_degree",
        "leaves", "reticulations", "_labels_sorted", "_order", "_by_label",
    )

    def __init__(self, edges: Iterable[Edge], leaf_labels: Mapping[int, str], num_vertices: int | None = None):
        edge_tuple = tuple(edges)
        # The readers and the generator pass pairs of ints, which need no
        # copy; three C-level type tests confirm it.  operator.index copies
        # other ids, and refuses a float or a string instead of truncating it.
        if not (set(map(type, edge_tuple)) <= {tuple} and set(map(len, edge_tuple)) <= {2}
                and set(map(type, chain.from_iterable(edge_tuple))) <= {int}):
            edge_tuple = tuple((index(u), index(v)) for u, v in edge_tuple)
        labels = dict(leaf_labels)
        if num_vertices is None:
            num_vertices = max(max(chain.from_iterable(edge_tuple), default=-1),
                               max(labels, default=-1)) + 1
        accepted = _accept(num_vertices, edge_tuple, labels)
        if accepted is None:
            raise InvalidNetworkError(validate(Digraph(num_vertices, edge_tuple, labels)))
        kids, pars, self.root, leaves = accepted

        self.num_vertices = num_vertices
        self.edges = edge_tuple
        self.leaf_labels = MappingProxyType(labels)
        self.children = tuple(map(tuple, kids))
        self.parents = tuple(map(tuple, pars))
        self.in_degree = tuple(map(len, pars))
        self.out_degree = tuple(map(len, kids))
        self.leaves = tuple(leaves)
        self.reticulations = tuple(v for v in range(num_vertices) if len(pars[v]) == 2)
        self._labels_sorted = tuple(sorted(labels.values()))
        self._by_label = {name: v for v, name in labels.items()}
        self._order: tuple[int, ...] | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        """All leaf labels, sorted."""
        return self._labels_sorted

    def vertex_by_label(self, label: str) -> int:
        return self._by_label[label]

    def topological_order(self) -> tuple[int, ...]:
        """Vertices in a topological order; ties broken by ascending id.
        Kahn's algorithm with an ascending-id heap, run on the first call."""
        if self._order is None:
            import heapq  # no query's default route asks for this order

            indeg = list(self.in_degree)
            heap = [self.root]
            order = []
            while heap:
                u = heapq.heappop(heap)
                order.append(u)
                for v in self.children[u]:
                    indeg[v] -= 1
                    if not indeg[v]:
                        heapq.heappush(heap, v)
            self._order = tuple(order)
        return self._order

    def __repr__(self) -> str:
        return (f"PhyloNetwork(n={self.num_vertices}, leaves={len(self.leaves)}, "
                f"reticulations={len(self.reticulations)})")


def attach_leaf(net: PhyloNetwork, edge: Edge, label: str) -> PhyloNetwork:
    """Replace ``edge`` (u, v) by u -> s -> v in place, with a fresh vertex
    s = n, and hang a new leaf n + 1 with ``label`` off s."""
    u, v = edge
    try:
        i = net.edges.index((u, v))
    except ValueError:
        raise ValueError(f"({u}, {v}) is not an edge of the network") from None
    s = net.num_vertices
    labels = dict(net.leaf_labels)
    labels[s + 1] = label
    edges = net.edges[:i] + ((u, s), (s, v)) + net.edges[i + 1:] + ((s, s + 1),)
    return PhyloNetwork(edges, labels, s + 2)
