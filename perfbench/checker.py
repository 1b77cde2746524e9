"""Certificate checker for every answer the benchmark receives.

It never calls the solver and never imports ``tbnet``.  Inputs are read
back with this module's own parsers, which number vertices the way the CLI
documents them in its output (edge lists: by first appearance; eNewick: a
vertex when its subtree closes, a reticulation at its first ``#H`` tag), so
certificates can be checked in the ids the CLI reports.  Every check raises
:class:`CheckError`; none relies on ``assert``, which ``python -O`` strips.

Expected verdicts come from the caller (construction or oracles), or from
:func:`w_fences`: the number of W-fences, the maximal zig-zag trails whose
two ends are tails of out-degree 1, which equals the deviation ``p``
(Hayamizu, SIAM J. Discrete Math. 2021).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass


class CheckError(Exception):
    """An answer that its certificate does not support."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Graph:
    """A network in the CLI's vertex numbering."""

    n: int
    arcs: frozenset[tuple[int, int]]
    children: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, ...], ...]
    labels: dict[int, str]

    @classmethod
    def build(cls, n: int, arcs, labels: dict[int, str]) -> "Graph":
        kids: list[list[int]] = [[] for _ in range(n)]
        pars: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            kids[u].append(v)
            pars[v].append(u)
        return cls(n, frozenset(arcs), tuple(map(tuple, kids)),
                   tuple(map(tuple, pars)), dict(labels))

    @property
    def root(self) -> int:
        return next(v for v in range(self.n) if not self.parents[v])

    def is_reticulation(self, v: int) -> bool:
        return len(self.parents[v]) == 2


_TOKEN = re.compile(r"\s*(?:([(),;])|#H(\d+)|([A-Za-z0-9_.+|-]+))")


def parse_enewick(text: str) -> Graph:
    """The eNewick dialect the CLI reads, without branch lengths or names
    on internal vertices."""
    arcs: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    tags: dict[str, int] = {}
    count = 0
    stack: list[list[int]] = []
    pending = None  # ("leaf", label) | ("group", kids) | ("done", id)

    def new_vertex() -> int:
        nonlocal count
        count += 1
        return count - 1

    def finalize() -> int:
        kind, value = pending
        if kind == "done":
            return value
        v = new_vertex()
        if kind == "leaf":
            labels[v] = value
        else:
            arcs.extend((v, c) for c in value)
        return v

    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        _require(m is not None, f"eNewick: cannot read at offset {pos}")
        pos = m.end()
        punct, tag, label = m.groups()
        if label is not None:
            pending = ("leaf", label)
        elif tag is not None:
            if tag not in tags:
                tags[tag] = new_vertex()
            if pending is not None and pending[0] == "group":
                arcs.extend((tags[tag], c) for c in pending[1])
            pending = ("done", tags[tag])
        elif punct == "(":
            stack.append([])
        elif punct == ",":
            stack[-1].append(finalize())
            pending = None
        elif punct == ")":
            kids = stack.pop()
            kids.append(finalize())
            pending = ("group", kids)
        else:
            finalize()
    return Graph.build(count, arcs, labels)


def parse_edgelist(text: str) -> Graph:
    """``parent child`` lines; ids by first appearance; tokens that are
    never a parent are leaves and their own labels."""
    ids: dict[str, int] = {}
    arcs = []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        for token in parts:
            ids.setdefault(token, len(ids))
        if len(parts) == 2:
            arcs.append((ids[parts[0]], ids[parts[1]]))
    tails = {u for u, _ in arcs}
    labels = {v: t for t, v in ids.items() if v not in tails}
    return Graph.build(len(ids), arcs, labels)


def parse(text: str, fmt: str) -> Graph:
    return parse_enewick(text) if fmt == "enewick" else parse_edgelist(text)


def topological_order(g: Graph) -> list[int]:
    indeg = [len(p) for p in g.parents]
    queue = deque(v for v in range(g.n) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in g.children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order


def check_shape(g: Graph) -> None:
    """A rooted binary phylogenetic network with leaves exactly labeled."""
    _require(g.n >= 1, "empty network")
    _require(len(topological_order(g)) == g.n, "not acyclic")
    roots = [v for v in range(g.n) if not g.parents[v]]
    _require(len(roots) == 1, f"{len(roots)} roots")
    allowed = {(0, 2), (1, 0), (1, 2), (2, 1)} if g.n > 1 else {(0, 0)}
    for v in range(g.n):
        sig = (len(g.parents[v]), len(g.children[v]))
        _require(sig in allowed, f"vertex {v} has degrees {sig}")
    sinks = {v for v in range(g.n) if not g.children[v]}
    _require(set(g.labels) == sinks, "labels are not exactly the leaves")
    _require(len(set(g.labels.values())) == len(g.labels), "duplicate labels")


def w_fences(g: Graph) -> int:
    """Number of W-fences, which is the deviation p.

    Node ``u`` stands for the tail copy of vertex u and ``n + v`` for the
    head copy of v; each arc joins its two copies.  In a binary network the
    components are the maximal zig-zag trails, and a trail is a W-fence
    exactly when both its ends are out-degree-1 tails.
    """
    boss = list(range(2 * g.n))

    def find(x: int) -> int:
        while boss[x] != x:
            boss[x] = boss[boss[x]]
            x = boss[x]
        return x

    for u, v in g.arcs:
        boss[find(u)] = find(g.n + v)
    ends: dict[int, int] = {}
    for v in range(g.n):
        if len(g.children[v]) == 1:
            c = find(v)
            ends[c] = ends.get(c, 0) + 1
    return sum(1 for k in ends.values() if k == 2)


def is_temporal(g: Graph) -> bool:
    """Some time map is level on reticulation arcs and increasing on tree
    arcs: contract reticulation arcs, then the tree arcs between the
    groups must form a DAG without loops."""
    boss = list(range(g.n))

    def find(x: int) -> int:
        while boss[x] != x:
            boss[x] = boss[boss[x]]
            x = boss[x]
        return x

    tree_arcs = []
    for u, v in g.arcs:
        if g.is_reticulation(v):
            boss[find(u)] = find(v)
        else:
            tree_arcs.append((u, v))
    succ: dict[int, list[int]] = {}
    indeg = {find(v): 0 for v in range(g.n)}
    for u, v in tree_arcs:
        a, b = find(u), find(v)
        if a == b:
            return False
        succ.setdefault(a, []).append(b)
        indeg[b] += 1
    queue = [a for a, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        a = queue.pop()
        seen += 1
        for b in succ.get(a, ()):
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    return seen == len(indeg)


def _network(value) -> Graph:
    """A network in an answer: eNewick text from the CLI, or the arcs and
    labels of a library result."""
    if isinstance(value, str):
        return parse_enewick(value)
    labels = {int(v): name for v, name in value["labels"].items()}
    return Graph.build(value["n"], [tuple(e) for e in value["edges"]], labels)


def _vertex_ids(g: Graph, items) -> list[int]:
    out = list(items)
    _require(all(isinstance(v, int) and 0 <= v < g.n for v in out),
             "vertex id out of range")
    return out


def _arborescence_leaves(g: Graph, edges) -> set[int]:
    """Check a spanning arborescence over network arcs; return its leaves."""
    pairs = [tuple(e) for e in edges]
    _require(len(pairs) == g.n - 1, f"{len(pairs)} tree arcs for {g.n} vertices")
    _require(all(e in g.arcs for e in pairs), "tree arc is not a network arc")
    heads = [v for _, v in pairs]
    _require(len(set(heads)) == g.n - 1 and g.root not in heads,
             "not one in-arc per non-root vertex")
    tails = {u for u, _ in pairs}
    return {v for v in range(g.n) if v not in tails}


def _comparable_inside(g: Graph, members: list[int]) -> bool:
    """Is some member a strict descendant of another?  One search from
    every member's children reaches a member exactly when one is."""
    wanted = set(members)
    seen = [False] * g.n
    stack = [c for v in wanted for c in g.children[v]]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        if v in wanted:
            return True
        seen[v] = True
        stack.extend(g.children[v])
    return False


def _check_antichain(g: Graph, members) -> list[int]:
    members = _vertex_ids(g, members)
    _require(len(set(members)) == len(members), "antichain repeats a vertex")
    _require(not _comparable_inside(g, members), "antichain has a comparable pair")
    return members


def _check_routes(g: Graph, paths, members: list[int]) -> None:
    _require(len(paths) == len(members), "one path per member expected")
    used: set[int] = set()
    for path in paths:
        path = _vertex_ids(g, path)
        _require(bool(path) and path[-1] in g.labels, "path does not end at a leaf")
        _require(all(e in g.arcs for e in zip(path, path[1:])), "path leaves the arcs")
        _require(used.isdisjoint(path) and len(set(path)) == len(path),
                 "paths are not vertex-disjoint")
        used.update(path)
    _require(sorted(p[0] for p in paths) == sorted(members), "paths start elsewhere")


def _verdict(rc, want_zero: bool) -> None:
    if rc is not None:
        _require(rc == (0 if want_zero else 1), f"exit code {rc}, expected {0 if want_zero else 1}")


def check_check(g, rc, payload, expect):
    based = expect["p"] == 0
    _verdict(rc, based)
    _require(payload["tree_based"] is based, "wrong tree-based verdict")
    cert = payload["certificate"]
    if based:
        _require(cert["kind"] == "base_tree", "yes without a base tree")
        leaves = _arborescence_leaves(g, cert["edges"])
        _require(leaves <= set(g.labels), "base tree has an unlabeled leaf")
        return
    _require(cert["kind"] == "rr_path", "no without a reticulation-path witness")
    u1, u2 = _vertex_ids(g, cert["u1"]), _vertex_ids(g, cert["u2"])
    _require(all(g.is_reticulation(r) for r in u2), "u2 holds a non-reticulation")
    _require(len(set(u2)) == len(u2) and len(set(u1)) == len(u1) == len(u2) + 1,
             "|u1| != |u2| + 1")
    _require({p for r in u2 for p in g.parents[r]} == set(u1), "u1 is not the parents of u2")
    _require({c for t in u1 for c in g.children[t]} == set(u2), "children of u1 are not u2")


def check_indices(g, rc, payload, expect):
    _verdict(rc, True)
    p, x = expect["p"], len(g.labels)
    want = {"l": p, "p": p, "t": p, "x_size": x, "d": p + x, "u_gn": p + x}
    _require({k: payload.get(k) for k in want} == want, f"indices {payload} != {want}")


def check_paths(g, rc, payload, expect):
    _verdict(rc, True)
    paths = [_vertex_ids(g, p) for p in payload["paths"]]
    _require(payload["count"] == len(paths) == len(g.labels) + expect["p"],
             "path count is not |X| + p")
    flat = [v for p in paths for v in p]
    _require(len(flat) == g.n and set(flat) == set(range(g.n)), "paths do not partition V")
    _require(all(e in g.arcs for p in paths for e in zip(p, p[1:])), "path leaves the arcs")


def check_spanning_tree(g, rc, payload, expect):
    _verdict(rc, True)
    leaves = _arborescence_leaves(g, payload["edges"])
    unlabeled = sorted(v for v in leaves if v not in g.labels)
    _require(payload["root"] == g.root, "wrong root")
    _require(sorted(payload["leaves"]) == sorted(leaves), "wrong leaf list")
    _require(sorted(payload["unlabeled_leaves"]) == unlabeled
             and payload["unlabeled_leaf_count"] == len(unlabeled) == expect["p"],
             "unlabeled leaves are not p")


def check_temporal(g, rc, payload, expect):
    temporal = expect["temporal"]
    _verdict(rc, temporal)
    _require(payload["temporal"] is temporal, "wrong temporal verdict")
    if not temporal:
        _require(payload["ranks"] is None, "ranks for a non-temporal network")
        return
    ranks = payload["ranks"]
    _require(len(ranks) == g.n, "one rank per vertex expected")
    for u, v in g.arcs:
        if g.is_reticulation(v):
            _require(ranks[u] == ranks[v], f"reticulation arc ({u}, {v}) not level")
        else:
            _require(ranks[u] < ranks[v], f"tree arc ({u}, {v}) not increasing")
    if rc is None and "violating_antichain" not in payload:
        return  # the library's is_temporal does not look for one
    violating = payload["violating_antichain"]
    if expect["p"] == 0:
        _require(violating is None, "violating antichain on a tree-based network")
    else:
        _require(bool(violating), "no violating antichain")
        _check_antichain(g, violating)


def check_complete(g, rc, payload, expect):
    _verdict(rc, True)
    p = expect["p"]
    attached = [tuple(e) for e in payload["attached_edges"]]
    new = payload["new_labels"]
    _require(payload["attachments"] == len(attached) == len(new) == p, "attachments != p")
    _require(all(e in g.arcs for e in attached), "attached to a non-arc")
    result = _network(payload["network"])
    check_shape(result)
    names = set(result.labels.values())
    _require(result.n == g.n + 2 * p and len(names) == len(g.labels) + p
             and names == set(g.labels.values()) | set(new), "completion changed the leaves")
    _require(w_fences(result) == 0, "completion is not tree-based")


def check_antichain_max(g, rc, payload, expect):
    _verdict(rc, True)
    antichain = _check_antichain(g, payload["antichain"])
    chains = [_vertex_ids(g, c) for c in payload["chain_cover"]]
    _require(payload["size"] == len(antichain) == len(chains),
             "antichain and chain cover differ in size")
    flat = [v for c in chains for v in c]
    _require(len(flat) == g.n and set(flat) == set(range(g.n)), "chains do not partition V")
    desc = [0] * g.n
    for v in reversed(topological_order(g)):
        for c in g.children[v]:
            desc[v] |= desc[c] | 1 << c
    _require(all(desc[a] >> b & 1 for c in chains for a, b in zip(c, c[1:])),
             "chain has an incomparable step")
    if expect.get("max_antichain") is not None:
        _require(len(antichain) == expect["max_antichain"], "antichain is not maximum")


def check_antichain_set(g, rc, payload, expect):
    by_label = {name: v for v, name in g.labels.items()}
    members = [by_label.get(v, v) for v in expect["set"]]
    _verdict(rc, True)
    _require(payload["routes_to_leaves"] is True and sorted(payload["set"]) == sorted(members),
             "antichain of leaves not routed")
    _check_routes(g, payload["paths"], members)


def check_antichain_property(g, rc, payload, expect):
    holds = expect["property"]
    _verdict(rc, holds)
    strategy = "temporal-shortcut" if expect["temporal"] else "exhaustive"
    _require(payload["holds"] is holds and payload["strategy"] == strategy,
             f"property {payload} expected holds={holds} via {strategy}")


def check_gen(_g, rc, payload, expect):
    _verdict(rc, True)
    leaves, retics = expect["gen"]
    out = _network(payload["network"])
    check_shape(out)
    _require(out.n == 2 * leaves + 2 * retics - 1 == payload["num_vertices"],
             "gen vertex count is not 2L + 2R - 1")
    _require(len(out.labels) == leaves, "gen leaf count")
    _require(sum(1 for v in range(out.n) if out.is_reticulation(v)) == retics,
             "gen reticulation count")


CHECKS = {
    "check": check_check,
    "indices": check_indices,
    "paths": check_paths,
    "spanning-tree": check_spanning_tree,
    "temporal": check_temporal,
    "complete": check_complete,
    "antichain-max": check_antichain_max,
    "antichain-set": check_antichain_set,
    "antichain-property": check_antichain_property,
    "gen": check_gen,
}


def check_answer(command: str, g: Graph | None, rc: int | None, payload: dict,
                 expect: dict) -> None:
    """Raise CheckError unless ``payload`` (the ``--json`` payload, or the
    same fields from a library call with ``rc`` None) is a correct answer."""
    try:
        CHECKS[command](g, rc, payload, expect)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed {command} answer: {exc!r}") from None
