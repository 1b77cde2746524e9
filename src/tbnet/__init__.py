"""Tree-based analysis of rooted binary phylogenetic networks.

The package decides whether a network is tree-based, quantifies how far a
network is from being tree-based by three equivalent counts, and builds
the certifying objects: base trees, vertex-disjoint path partitions,
rooted spanning trees, leaf completions, antichains and temporal maps.

Importing the package loads no submodule.  Each name in ``__all__`` is
resolved on first use from the submodule that defines it (PEP 562), so a
program pays only for the layers it calls.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "antichains": (
        "DisjointPathWitness", "antichain_to_leaf", "max_antichain", "maximal_antichains",
        "route_to_leaves",
    ),
    "dot": ("export_dot",),
    "edgelist": ("parse_edgelist", "serialize_edgelist", "vertex_names"),
    "enewick": ("ParseError", "parse_enewick", "serialize_enewick"),
    "generate": ("GenSpec", "GenerationError", "SplitMix64", "generate"),
    "matching": (
        "BipartiteGraph", "Matching", "build_gn", "build_zn", "find_rr_path",
        "max_matching", "min_vertex_cover", "reticulation_saturating",
    ),
    "network": (
        "Digraph", "InvalidNetworkError", "PhyloNetwork", "ValidationReport",
        "Violation", "attach_leaf", "attach_leaves", "validate",
    ),
    "temporal": (
        "TemporalMap", "has_antichain_to_leaf_property", "is_antichain", "is_temporal",
        "separates", "temporal_violating_antichain", "temporal_violation", "verify_temporal_map",
    ),
    "treebased": (
        "BaseTreeCertificate", "CompletionResult", "DeviationReport",
        "FailureWitness", "PathPartition", "SpanningTree",
        "check_path_partition_characterisation", "deviation_indices",
        "is_tree_based", "rooted_spanning_tree", "tree_based_completion",
        "vertex_disjoint_paths",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module.  Loading a submodule binds it on the package
    under its own name; ``tbnet.generate`` must stay the function, so an
    exported name is never bound to a module."""

    def __setattr__(self, name, value):
        if name not in _SUBMODULE or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
