"""Plain edge-list reading and writing.

One edge per line as ``parent child``; ``#`` starts a comment; blank lines
are skipped.  Vertex ids are assigned by first appearance.  Tokens that
never occur as a parent name leaves and double as their labels.  A line
with a single token declares an isolated vertex, which is only useful for
the one-vertex network.
"""

from __future__ import annotations

from .enewick import ParseError
from .network import PhyloNetwork, _adjacency


def parse_edgelist(text: str) -> PhyloNetwork:
    """Parse one network; raises ParseError on a malformed line and
    InvalidNetworkError when the digraph is not a valid network.  The line
    loop collects the arcs; one loop over them then fills the child and
    parent lists the network is built from, which is faster than filling
    them inside the line loop."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    ids: dict[str, int] = {}
    setdefault = ids.setdefault
    edges: list[tuple[int, int]] = []
    for k, parts in enumerate(map(str.split, lines)):
        if len(parts) == 2:
            u = setdefault(parts[0], len(ids))
            edges.append((u, setdefault(parts[1], len(ids))))
        elif len(parts) == 1:
            setdefault(parts[0], len(ids))
        elif parts:
            offset = sum(map(len, text.splitlines(keepends=True)[:k]))
            raise ParseError("expected 'parent child'", text, offset)
    if not ids:
        raise ParseError("empty input", text, 0)
    # Drop the scratch once read, so the network is built beside none of it.
    del lines
    kids, pars = _adjacency(len(ids), edges)
    del edges
    labels = {vid: tok for tok, vid in ids.items() if not kids[vid]}
    return PhyloNetwork.from_lists(kids, pars, labels)


def vertex_names(net: PhyloNetwork) -> list[str]:
    """Stable per-vertex names: leaf labels where they exist, ``i<id>``
    otherwise, disambiguated against label collisions."""
    taken = set(net.leaf_labels.values())
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
    lines = [f"{names[u]} {names[v]}" for u, v in net.edges]
    return "\n".join(lines) + "\n"
