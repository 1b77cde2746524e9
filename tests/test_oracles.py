"""The brute-force checkers get their own sanity tests: the rest of the
suite trusts them as referees, so their behavior on hand-checked examples
has to be pinned down independently."""

import pytest

from tbnet import GenSpec, PhyloNetwork, generate, has_antichain_to_leaf_property, parse_enewick
from tbnet.oracles import (
    isomorphic,
    iter_spanning_trees,
    oracle_antichain_to_leaf_property,
    oracle_covering_paths,
    oracle_max_antichain,
    oracle_max_matching_size,
    oracle_min_attachments,
    oracle_min_attachments_unrestricted,
    oracle_min_path_partition,
    oracle_min_spanning_tree_extra_leaves,
    oracle_temporal,
    oracle_tree_based,
)


def test_spanning_tree_enumeration_counts(diamond, deviation_one, killer):
    # one in-edge choice per reticulation: 2^r trees
    assert len(list(iter_spanning_trees(diamond))) == 2 ** 1
    assert len(list(iter_spanning_trees(deviation_one))) == 2 ** 3
    assert len(list(iter_spanning_trees(killer))) == 2 ** 4


def test_hand_checked_values(diamond, deviation_one, killer, temporal_nontb):
    assert oracle_tree_based(diamond)
    assert not oracle_tree_based(deviation_one)
    assert not oracle_tree_based(killer)
    assert not oracle_tree_based(temporal_nontb)

    assert oracle_min_spanning_tree_extra_leaves(diamond) == 0
    assert oracle_min_spanning_tree_extra_leaves(deviation_one) == 1
    assert oracle_min_spanning_tree_extra_leaves(killer) == 1

    assert oracle_min_path_partition(diamond) == 3
    assert oracle_min_path_partition(deviation_one) == 2
    assert oracle_min_path_partition(killer) == 4

    assert oracle_min_attachments(deviation_one) == 1
    assert oracle_min_attachments_unrestricted(deviation_one, upper=1) == 1

    assert oracle_max_antichain(deviation_one) == 2
    assert oracle_max_antichain(killer) == 3

    assert oracle_antichain_to_leaf_property(diamond)
    assert not oracle_antichain_to_leaf_property(deviation_one)
    assert oracle_antichain_to_leaf_property(killer)
    assert not oracle_antichain_to_leaf_property(temporal_nontb)

    assert oracle_temporal(diamond)
    assert not oracle_temporal(killer)
    assert oracle_temporal(temporal_nontb)


def test_attachment_oracles_agree():
    for seed in range(8):
        net = generate(GenSpec(3, 3, seed=seed))
        if net.num_vertices > 12:
            continue
        restricted = oracle_min_attachments(net)
        unrestricted = oracle_min_attachments_unrestricted(net, upper=restricted)
        assert unrestricted == restricted


def test_singleton_edge_cases():
    single = PhyloNetwork((), {0: "u"}, 1)
    assert oracle_tree_based(single)
    assert oracle_min_path_partition(single) == 1
    assert oracle_max_antichain(single) == 1
    assert oracle_temporal(single)


def _net(vertices: int, retics: int = 2) -> PhyloNetwork:
    """A generated temporal network of ``vertices`` vertices, ``retics`` of them
    reticulations: on it the temporal oracle finds a map without a long search."""
    return generate(GenSpec((vertices + 1) // 2 - retics, retics, seed=1, temporal_only=True))


# Each guard: the oracle, the smallest input above its bound, the largest
# input at or below it, and the bound its refusal names.  A binary network
# has 2L + 2R - 1 vertices, an odd count, so an even bound b admits b - 1.
GUARDS = {
    "oracle_tree_based": (oracle_tree_based, _net(21), _net(19), "20 vertices"),
    "oracle_min_spanning_tree_extra_leaves": (
        oracle_min_spanning_tree_extra_leaves, _net(21), _net(19), "20 vertices"),
    "oracle_min_path_partition": (oracle_min_path_partition, _net(17), _net(15), "16 vertices"),
    "oracle_min_attachments": (oracle_min_attachments, _net(21), _net(19), "20 vertices"),
    "oracle_min_attachments-reticulations": (
        oracle_min_attachments, _net(19, 4), _net(19, 3), "3 reticulations"),
    "oracle_min_attachments_unrestricted": (
        lambda net: oracle_min_attachments_unrestricted(net, upper=0), _net(13), _net(11), "12 vertices"),
    "oracle_max_antichain": (oracle_max_antichain, _net(19), _net(17), "18 vertices"),
    "oracle_antichain_to_leaf_property": (
        oracle_antichain_to_leaf_property, _net(17), _net(15), "16 vertices"),
    "oracle_covering_paths": (
        lambda net: oracle_covering_paths(net, net.leaves), _net(17), _net(15), "16 vertices"),
    "oracle_temporal": (oracle_temporal, _net(17), _net(15), "16 vertices"),
    "oracle_max_matching_size": (
        lambda adj: oracle_max_matching_size(adj, 0), [()] * 13, [()] * 12, "12 left vertices"),
    "exhaustive-property": (
        lambda net: has_antichain_to_leaf_property(net, "exhaustive"), _net(19), _net(17), "18 vertices"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guards_reject_oversize(name):
    oracle, over, within, bound = GUARDS[name]
    with pytest.raises(ValueError, match=f"limited to {bound}"):
        oracle(over)
    oracle(within)  # passes the guard and answers


def test_isomorphic_respects_labels():
    a = parse_enewick("((a,(b)#H1),(#H1,c));")
    b = parse_enewick("((b,(a)#H1),(#H1,c));")  # a and b trade places
    assert isomorphic(a, a)
    # in a, leaf b hangs under the reticulation; in b it does not
    assert not isomorphic(a, b)


def test_isomorphic_relabeled_vertices():
    a = parse_enewick("((a,(b)#H1),(#H1,c));")
    b = parse_enewick("((#H2,c),(a,(b)#H2));")  # children listed the other way
    assert isomorphic(a, b)


def test_isomorphic_negative_shapes():
    a = parse_enewick("((a,b),c);")
    b = parse_enewick("(a,(b,c));")
    assert not isomorphic(a, b)


def test_isomorphic_needs_equal_counts():
    a = parse_enewick("((a,b),c);")
    b = parse_enewick("(a,b);")
    assert not isomorphic(a, b)
