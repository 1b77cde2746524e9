"""Plain edge-list reading and writing.

One edge per line as ``parent child``; ``#`` starts a comment; blank lines
are skipped.  Vertex ids are assigned by first appearance.  Tokens that
never occur as a parent name leaves and double as their labels.  A line
with a single token declares an isolated vertex, which is only useful for
the one-vertex network.
"""

from __future__ import annotations

from .enewick import ParseError
from .network import PhyloNetwork


def parse_edgelist(text: str) -> PhyloNetwork:
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0].strip()
        if line:
            parts = line.split()
            if len(parts) == 1:
                ids.setdefault(parts[0], len(ids))
            elif len(parts) == 2:
                u = ids.setdefault(parts[0], len(ids))
                v = ids.setdefault(parts[1], len(ids))
                edges.append((u, v))
            else:
                raise ParseError("expected 'parent child'", text, offset)
        offset += len(raw)
    if not ids:
        raise ParseError("empty input", text, 0)

    is_parent = {u for u, _ in edges}
    labels = {vid: tok for tok, vid in ids.items() if vid not in is_parent}
    return PhyloNetwork(edges, labels, len(ids))


def vertex_names(net: PhyloNetwork) -> list[str]:
    """Stable per-vertex names: leaf labels where they exist, ``i<id>``
    otherwise, disambiguated against label collisions."""
    taken = set(net.labels)
    names = []
    for v in range(net.num_vertices):
        if net.out_degree[v] == 0:
            names.append(net.leaf_labels[v])
            continue
        name = f"i{v}"
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return names


def serialize_edgelist(net: PhyloNetwork) -> str:
    names = vertex_names(net)
    if net.num_vertices == 1:
        return names[0] + "\n"
    lines = [f"{names[u]} {names[v]}" for u, v in sorted(net.edges)]
    return "\n".join(lines) + "\n"
