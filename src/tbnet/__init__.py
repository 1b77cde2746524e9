"""Tree-based analysis of rooted binary phylogenetic networks.

The package decides whether a network is tree-based, quantifies how far a
network is from being tree-based by three equivalent counts, and builds
the certifying objects: base trees, vertex-disjoint path partitions,
rooted spanning trees, leaf completions, antichains and temporal maps.
"""

from .antichains import (
    DisjointPathWitness,
    TemporalMap,
    antichain_to_leaf,
    antichain_to_leaf_edge_disjoint,
    has_antichain_to_leaf_property,
    is_antichain,
    is_temporal,
    max_antichain,
    maximal_antichains,
    temporal_violating_antichain,
    verify_temporal_map,
)
from .edgelist import parse_edgelist, serialize_edgelist, vertex_names
from .enewick import ParseError, parse_enewick, serialize_enewick
from .dot import export_dot
from .generate import GenerationError, GenSpec, SplitMix64, generate
from .matching import (
    BipartiteGraph,
    Matching,
    build_gn,
    build_zn,
    find_rr_path,
    max_matching,
    min_vertex_cover,
    reticulation_saturating,
)
from .network import (
    Digraph,
    EdgeKind,
    InvalidNetworkError,
    PhyloNetwork,
    ValidationReport,
    VertexKind,
    Violation,
    attach_leaf,
    classify,
    edge_kind,
    subdivide_edge,
    validate,
)
from .treebased import (
    BaseTreeCertificate,
    CompletionResult,
    DeviationReport,
    FailureWitness,
    PathPartition,
    SpanningTree,
    check_path_partition_characterisation,
    deviation_indices,
    is_tree_based,
    rooted_spanning_tree,
    tree_based_completion,
    vertex_disjoint_paths,
)

__version__ = "0.1.0"

__all__ = [
    "BaseTreeCertificate",
    "BipartiteGraph",
    "CompletionResult",
    "DeviationReport",
    "Digraph",
    "DisjointPathWitness",
    "EdgeKind",
    "FailureWitness",
    "GenSpec",
    "GenerationError",
    "InvalidNetworkError",
    "Matching",
    "ParseError",
    "PathPartition",
    "PhyloNetwork",
    "SpanningTree",
    "SplitMix64",
    "TemporalMap",
    "ValidationReport",
    "VertexKind",
    "Violation",
    "antichain_to_leaf",
    "antichain_to_leaf_edge_disjoint",
    "attach_leaf",
    "build_gn",
    "build_zn",
    "check_path_partition_characterisation",
    "classify",
    "deviation_indices",
    "edge_kind",
    "export_dot",
    "find_rr_path",
    "generate",
    "has_antichain_to_leaf_property",
    "is_antichain",
    "is_temporal",
    "is_tree_based",
    "max_antichain",
    "max_matching",
    "maximal_antichains",
    "min_vertex_cover",
    "parse_edgelist",
    "parse_enewick",
    "reticulation_saturating",
    "rooted_spanning_tree",
    "serialize_edgelist",
    "serialize_enewick",
    "subdivide_edge",
    "temporal_violating_antichain",
    "tree_based_completion",
    "validate",
    "verify_temporal_map",
    "vertex_disjoint_paths",
    "vertex_names",
]
