"""Graphviz DOT export with optional overlays."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .network import PhyloNetwork

if TYPE_CHECKING:
    from .treebased import PathPartition, SpanningTree

LEAF_STYLE = 'shape=ellipse, style=filled, fillcolor="#eaf2f8"'
RETIC_STYLE = 'shape=box, style=filled, fillcolor="#fdebd0"'
INNER_STYLE = 'shape=circle, width=0.25, fontsize=9'
BASE_EDGE = 'color="#95a5a6"'
TREE_EDGE = 'color="#17202a", penwidth=2.2'
PATH_COLORS = (
    "#1b6ca8", "#c0392b", "#1e8449", "#8e44ad",
    "#b7950b", "#2874a6", "#a04000", "#117864",
)


def export_dot(net: PhyloNetwork,
               tree: SpanningTree | None = None,
               paths: PathPartition | None = None,
               attached: tuple[int, ...] = ()) -> str:
    """Render the network; a spanning tree is drawn bold, partition paths
    colored, edges into ``attached`` leaves dashed.  Overlay references
    outside the network raise ValueError."""
    edge_set = set(net.edges)
    bold = set()
    if tree is not None:
        bold = set(tree.edges)
        if not bold <= edge_set:
            raise ValueError("spanning tree uses edges not in the network")
    color: dict[tuple[int, int], str] = {}
    if paths is not None:
        for i, path in enumerate(paths.paths):
            for u, v in zip(path, path[1:]):
                if (u, v) not in edge_set:
                    raise ValueError(f"path step ({u}, {v}) is not an edge")
                color[(u, v)] = PATH_COLORS[i % len(PATH_COLORS)]
    dashed = set()
    for leaf in attached:
        if not 0 <= leaf < net.num_vertices or net.out_degree[leaf] != 0:
            raise ValueError(f"attached overlay {leaf} is not a leaf")
        dashed.update((p, leaf) for p in net.parents[leaf])

    retic = set(net.reticulations)
    lines = ["digraph network {", "  rankdir=TB;"]
    for v in range(net.num_vertices):
        if net.out_degree[v] == 0:
            lines.append(f'  {v} [label="{net.leaf_labels[v]}", {LEAF_STYLE}];')
        elif v in retic:
            lines.append(f'  {v} [label="{v}", {RETIC_STYLE}];')
        else:
            lines.append(f'  {v} [label="{v}", {INNER_STYLE}];')
    for u, v in net.edges:
        attrs = [TREE_EDGE if (u, v) in bold else BASE_EDGE]
        c = color.get((u, v))
        if c:
            attrs = [f'color="{c}", penwidth=2.2']
        if (u, v) in dashed:
            attrs.append("style=dashed")
        lines.append(f"  {u} -> {v} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
