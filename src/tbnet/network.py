"""Core data model for rooted binary phylogenetic networks.

A network is a directed acyclic graph with a single in-degree-0 root of
out-degree 2, labeled leaves of in-degree 1 and out-degree 0, internal tree
vertices of in-degree 1 and out-degree 2, and reticulations of in-degree 2
and out-degree 1.  A single labeled vertex (no edges) is allowed as the
one-leaf degenerate case.

Vertices are dense non-negative integers ``0..n-1``.  Construction takes
the child and parent lists, which one builder makes from any arc list.
Each rule is checked in one place: a scan of the arcs refuses ids out of
range and self-loops, and one check on the lists runs a whole-graph test
per remaining rule, listing violations only for a rule whose test fails.
:func:`validate` runs the same two.
The network keeps no arc list: ``edges`` is read off the child lists, in
ascending order, so no answer depends on the order the input listed its
arcs in.  The sorted labels and the topological order are computed on
each access.  The label index, the zig-zag trail walk
(:func:`zigzag_trails`, which every answer reads) and the temporal test
are each computed on first use and kept, so every later query on the
same object reads them.  All structures are immutable after
construction; :func:`attach_leaves` returns a new network, built once.
The records are ``NamedTuple``s, so they compare equal to plain tuples.
"""

from __future__ import annotations

import re
from itertools import chain, compress
from operator import index, not_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

Edge = tuple[int, int]

# The label lexicon both serializers can write back; validation enforces it
# so a valid network never silently breaks a round trip.
LABEL_RE = re.compile(r"[A-Za-z0-9_.+|-]+")
# Labels joined by newlines, which the lexicon excludes: one match checks
# them all, once the newlines are counted, so a label with one inside it
# cannot pass for two.
_LABELS_RE = re.compile(rf"{LABEL_RE.pattern}(?:\n{LABEL_RE.pattern})*")
# Degree signatures (in, out) of the root, a leaf, a tree vertex and a
# reticulation.
_SIGNATURES = frozenset(((0, 2), (1, 0), (1, 2), (2, 1)))
# An error text names this many violations and counts the rest.
_NAMED_VIOLATIONS = 20


class Violation(NamedTuple):
    """One broken validation rule: rule id, offending ids, readable message."""

    rule: str
    subjects: tuple[int, ...]
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...] = ()

    def summary(self) -> str:
        """The first violations and the count of the rest, so an error
        line stays short on any input; the report keeps them all."""
        if self.ok:
            return "valid"
        named = "; ".join(v.message for v in self.violations[:_NAMED_VIOLATIONS])
        rest = len(self.violations) - _NAMED_VIOLATIONS
        return f"{named}; and {rest} more" if rest > 0 else named


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
    edges = sorted(edges)  # the report does not depend on arc order
    bad = _arc_violations(n, edges)
    return ValidationReport(False, bad) if bad else _check(*_adjacency(n, edges), leaf_labels)[1]


def _adjacency(n: int, edges: Iterable[Edge]) -> tuple[list[list[int]], list[list[int]]]:
    """The child and parent lists of the arcs ``edges`` on ``n`` vertices,
    in arc order: the one list builder.  It checks no id, so a caller runs
    :func:`_arc_violations` first unless its ids are dense by construction."""
    kids, pars = [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in edges:
        kids[u].append(v)
        pars[v].append(u)
    return kids, pars


def _arc_violations(n: int, edges: Iterable[Edge]) -> tuple[Violation, ...]:
    """The arc rules' violations among ``edges`` on ``n`` vertices, in arc
    order: an id outside 0..n-1 or a self-loop."""
    bad = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            bad.append(Violation("vertex-range", (u, v), f"edge ({u}, {v}) references a vertex outside 0..{n - 1}"))
        elif u == v:
            bad.append(Violation("self-loop", (u,), f"self-loop at vertex {u}"))
    return tuple(bad)


def _check(kids: list, pars: list, labels: Mapping[int, str]):
    """The graph rules on the child lists ``kids`` and parent lists ``pars``
    with ``labels``: ``(root, in_degree, out_degree, sinks)``, or None,
    and the report, which names a self-loop as a cycle.  Each rule runs one
    whole-graph test, and only a rule whose test fails lists its
    violations.  Sorts every two-entry list in place.  With every signature
    allowed no list is longer than 2, so a repeated child in a two-entry
    list is the only parallel edge there can be."""
    n = len(kids)
    ins, outs = list(map(len, pars)), tuple(map(len, kids))
    signatures_ok = set(zip(ins, outs)) <= _SIGNATURES or n == 1 and not kids[0]
    repeated = False
    for ws in chain(kids, pars):  # a repeated parent is a repeated child too
        if len(ws) == 2 and ws[0] >= ws[1]:
            if ws[0] == ws[1]:
                repeated = True
            else:
                ws.reverse()
    bad: list[Violation] = []
    if repeated or not signatures_ok:
        for u, ws in enumerate(kids):
            ws = sorted(ws)
            bad += [Violation("parallel-edge", (u, v), f"parallel edge ({u}, {v})")
                    for v, w in zip(ws[1:], ws) if v == w]
    roots = (ins.index(0),) if ins.count(0) == 1 else tuple(compress(range(n), map(not_, ins)))
    in_degree = tuple(ins)
    stack, popped = list(roots), 0  # Kahn's algorithm: it pops every vertex exactly when acyclic
    while stack:
        popped += 1
        for w in kids[stack.pop()]:
            ins[w] -= 1
            if not ins[w]:
                stack.append(w)
    if popped != n:
        bad.append(Violation("cycle", (), "graph contains a directed cycle"))
    if len(roots) != 1:
        bad.append(Violation("root-count", roots, f"expected exactly one in-degree-0 vertex, found {len(roots)}"))
    if not signatures_ok:
        bad += [Violation("degree", (v,), f"vertex {v} has degree signature in={i}, out={o}")
                for v, (i, o) in enumerate(zip(in_degree, outs)) if (i, o) not in _SIGNATURES]
    sinks = tuple(compress(range(n), map(not_, outs)))
    names = list(labels.values())
    try:
        text = "\n".join(names)
    except TypeError:  # a label that is not a string
        text = ""
    if not (_LABELS_RE.fullmatch(text) and text.count("\n") == len(names) - 1
            and len(set(names)) == len(names) and labels.keys() == set(sinks)):
        leaves, labeled = set(sinks), set(labels)
        bad += [Violation("label-not-leaf", (v,), f"label on vertex {v}, which has out-edges")
                for v in sorted(labeled - leaves)]
        bad += [Violation("unlabeled-leaf", (v,), f"leaf {v} has no label") for v in sorted(leaves - labeled)]
        by_label: dict[str, int] = {}
        for v in sorted(labeled):
            name = labels[v]
            if not isinstance(name, str) or not LABEL_RE.fullmatch(name):
                bad.append(Violation("bad-label", (v,), f"leaf {v} has an unusable label {name!r}"))
                continue
            if name in by_label:
                bad.append(Violation("duplicate-label", (by_label[name], v),
                                     f"label {name!r} used by vertices {by_label[name]} and {v}"))
            by_label[name] = v
    return (None if bad else (roots[0], in_degree, outs, sinks)), ValidationReport(not bad, tuple(bad))


class PhyloNetwork:
    """A validated rooted binary phylogenetic network.

    Construction validates; invalid input raises :class:`InvalidNetworkError`
    carrying the report of :func:`validate`.  One core, :meth:`from_lists`,
    takes the child and parent lists, runs the one check of the graph rules
    and fills the fields.  ``PhyloNetwork(edges, leaf_labels)`` is its
    front end for an arc list: it refuses ids out of range and self-loops,
    then builds the lists as the readers and the generator do, whose ids
    are dense ints by construction; :func:`attach_leaves` splices the lists
    it is given.  Instances are
    immutable: adjacency tuples are computed at construction and the label
    map is exposed read-only.  ``_by_label``, ``_trails`` and ``_temporal``
    keep the label index, the walk and the temporal test, which
    :meth:`vertex_by_label`, :func:`zigzag_trails` and :mod:`tbnet.temporal`
    fill on first use.
    """

    __slots__ = (
        "num_vertices", "leaf_labels", "root",
        "children", "parents", "in_degree", "out_degree",
        "leaves", "reticulations", "_by_label", "_trails", "_temporal",
    )

    def __init__(self, edges: Iterable[Edge], leaf_labels: Mapping[int, str], num_vertices: int | None = None):
        # operator.index makes every id and label key a plain int, and
        # refuses a float or a string instead of truncating it.
        edge_tuple = tuple((index(u), index(v)) for u, v in edges)
        labels = {index(v): name for v, name in dict(leaf_labels).items()}
        if num_vertices is None:
            num_vertices = max(max(chain.from_iterable(edge_tuple), default=-1),
                               max(labels, default=-1)) + 1
        if _arc_violations(num_vertices, edge_tuple):  # validate lists these in ascending arc order
            raise InvalidNetworkError(validate(Digraph(num_vertices, edge_tuple, labels)))
        self._build(*_adjacency(num_vertices, edge_tuple), labels)

    @classmethod
    def from_lists(cls, children: list, parents: list, leaf_labels: dict[int, str]) -> PhyloNetwork:
        """The network whose vertex v has the children ``children[v]`` and
        the parents ``parents[v]``, with the label map ``leaf_labels``.

        For producers that hold the lists: nothing checks that the two
        agree or that their ids lie in ``0..n-1``, so a caller must build
        them so.  The network takes the lists and the label map over.  An
        entry may be a list or a tuple; a two-entry list is sorted in
        place, so a two-entry tuple must already be ascending."""
        net = cls.__new__(cls)
        net._build(children, parents, leaf_labels)
        return net

    def _build(self, kids: list, pars: list, labels: dict[int, str]) -> None:
        """The construction core: accept the lists or raise, then fill the
        fields."""
        accepted = _check(kids, pars, labels)[0]
        if accepted is None:  # from the arcs, validate names a self-loop in the lists as one
            arcs = tuple((u, v) for u, vs in enumerate(kids) for v in vs)
            raise InvalidNetworkError(validate(Digraph(len(kids), arcs, labels)))
        self.root, self.in_degree, self.out_degree, self.leaves = accepted
        n = self.num_vertices = len(kids)
        self.leaf_labels = MappingProxyType(labels)
        self.children = tuple(map(tuple, kids))
        self.parents = tuple(map(tuple, pars))
        self.reticulations = tuple(compress(range(n), map((2).__eq__, self.in_degree)))
        self._by_label = self._trails = self._temporal = None

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every arc (u, v), in ascending order, read off the child lists
        on each access."""
        return tuple((u, v) for u, vs in enumerate(self.children) for v in vs)

    @property
    def labels(self) -> tuple[str, ...]:
        """All leaf labels, sorted on each access."""
        return tuple(sorted(self.leaf_labels.values()))

    def vertex_by_label(self, label: str) -> int:
        """The leaf labeled ``label``; the first call builds the index."""
        if self._by_label is None:
            self._by_label = {name: v for v, name in self.leaf_labels.items()}
        return self._by_label[label]

    def topological_order(self) -> tuple[int, ...]:
        """Vertices in a topological order; ties broken by ascending id.
        Kahn's algorithm with an ascending-id heap, run on every call."""
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
        return tuple(order)

    def __repr__(self) -> str:
        return (f"PhyloNetwork(n={self.num_vertices}, leaves={len(self.leaves)}, "
                f"reticulations={len(self.reticulations)})")


def zigzag_trails(net: PhyloNetwork) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Walk the maximal zig-zag trails of the path graph once.

    The path graph, an edge (u-left, v-right) per arc (u, v), has maximum
    degree 2 in a binary network, so it splits into zig-zag trails t0 -> h1
    <- t1 -> h2 <- ...: crowns (cycles) and fences (paths).  Fences are
    walked from their end of smallest id (a tail before a head of one id),
    then crowns from their smallest tail.  Every other arc from the first
    is taken, one direction per trail: tail -> head in a trail entered at a
    tail, head -> tail in one entered at a head.  No matching meets a path
    or even cycle of e arcs in more than ceil(e/2) arcs, so these are a
    maximum matching, returned as ``succ`` and ``pred`` (``succ[u] == v``,
    ``pred[v] == u``, else -1) with the W-fences t0, h1, t1, ..., hk, tk,
    each from its smaller end reticulation (end tail when k = 1), sorted by
    it: the first is the failure witness.  The first call walks and keeps
    the triple on ``net``; later calls return it.
    """
    if net._trails is None:
        net._trails = _walk(net)  # apart, so that returning a kept walk makes no closure cells
    return net._trails


def _walk(net: PhyloNetwork) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    n = net.num_vertices
    children, parents = net.children, net.parents
    succ, pred = [-1] * n, [-1] * n
    seen_t, seen_h = bytearray(n), bytearray(n)  # seen_h holds only the heads that end a fence

    def tail_walk(v: int) -> list[int]:
        ts = parents[children[v][0]]
        t = ts[0] if ts[0] == v else ts[-1]  # the adjacency's own v, not a new int
        trail, h = [], -1
        while True:
            trail.append(t)
            seen_t[t] = 1
            hs = children[t]
            nh = hs[-1] if hs[0] == h else hs[0]
            if nh == h:
                return trail  # a tail ends the fence
            succ[t], pred[nh] = nh, t
            trail.append(nh)
            ts = parents[nh]
            h, t = nh, ts[-1] if ts[0] == t else ts[0]
            if seen_t[t]:  # t again: a head ends the fence; else the crown closed
                seen_h[h] = 1
                return trail

    out_degree, in_degree, fences = net.out_degree, net.in_degree, []
    for v in range(n):
        if out_degree[v] == 1 and not seen_t[v]:
            trail = tail_walk(v)
            if len(trail) % 2:  # ends at a tail too: a W-fence
                if (trail[1], trail[0]) > (trail[-2], trail[-1]):
                    trail.reverse()
                fences.append(tuple(trail))
        if in_degree[v] == 1 and not seen_h[v]:  # entered at a head: never a W-fence
            t = parents[v][0]
            hs = children[t]
            h = hs[0] if hs[0] == v else hs[-1]  # the adjacency's own v, as in tail_walk
            while True:
                succ[t], pred[h], seen_t[t] = h, t, 1
                nh = hs[-1] if hs[0] == h else hs[0]
                if nh == h:
                    break  # a tail ends the fence
                ts = parents[nh]
                nt = ts[-1] if ts[0] == t else ts[0]
                if nt == t:
                    seen_h[nh] = 1
                    break  # a head ends the fence
                h, t, hs = nh, nt, children[nt]
    for v in range(n):
        if out_degree[v] == 2 and not seen_t[v]:
            tail_walk(v)
    fences.sort(key=lambda f: f[1])
    return tuple(succ), tuple(pred), tuple(fences)


def attach_leaves(net: PhyloNetwork, edges: Sequence[Edge], labels: Sequence[str]) -> PhyloNetwork:
    """Replace the i-th of ``edges``, an arc (u, v) of ``net``, by u -> s ->
    v, with a fresh vertex s = n + 2i, and hang a new leaf s + 1 with the
    i-th of ``labels`` off s; the result is built once.  TypeError for an
    id that is not an integer, ValueError for a pair that is no arc of ``net``."""
    kids, pars = list(net.children), list(net.parents)
    leaf_labels = dict(net.leaf_labels)
    for (u, v), label in zip(edges, labels, strict=True):
        # s exceeds every id before it: each spliced tuple stays ascending
        u, v, s = index(u), index(v), len(kids)
        if not (0 <= u < net.num_vertices and v in kids[u]):
            raise ValueError(f"({u}, {v}) is not an edge of the network")
        kids[u] = tuple(w for w in kids[u] if w != v) + (s,)
        pars[v] = tuple(p for p in pars[v] if p != u) + (s,)
        kids += ((v, s + 1), ())
        pars += ((u,), (s,))
        leaf_labels[s + 1] = label
    return PhyloNetwork.from_lists(kids, pars, leaf_labels)


def attach_leaf(net: PhyloNetwork, edge: Edge, label: str) -> PhyloNetwork:
    """Replace ``edge`` (u, v) by u -> s -> v, with a fresh vertex s = n,
    and hang a new leaf n + 1 with ``label`` off s."""
    return attach_leaves(net, (edge,), (label,))
