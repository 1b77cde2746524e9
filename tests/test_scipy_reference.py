"""The deviation p against an independent route: scipy's matching.

By the paper's matching characterisation, a minimum path partition has
|V| - nu(G_N) paths, nu(G_N) being the maximum matching of the path graph
G_N, whose biadjacency matrix is the arc matrix, and every leaf ends one
of them: p = |V| - nu(G_N) - |X|.  scipy computes nu by its own
Hopcroft-Karp, sharing no code with tbnet's trail walk, at sizes the
brute-force oracles cannot reach.  l = p = t ties in the spanning tree's
unlabelled leaves and the completion's attachments.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from tbnet import (GenSpec, deviation_indices, generate, parse_edgelist, parse_enewick,
                   rooted_spanning_tree, tree_based_completion)

from conftest import FIXTURES


def scipy_p(net) -> int:
    """|V| - nu(G_N) - |X|, with nu from scipy on the arc matrix."""
    n = net.num_vertices
    tails, heads = np.array(net.edges, dtype=np.int32).reshape(-1, 2).T
    arcs = csr_matrix((np.ones(len(tails), dtype=np.int8), (tails, heads)), shape=(n, n))
    matched = int(np.count_nonzero(maximum_bipartite_matching(arcs, perm_type="column") >= 0))
    return n - matched - len(net.leaves)


def assert_p_agrees(net, p):
    assert deviation_indices(net).p == scipy_p(net) == p
    assert len(rooted_spanning_tree(net).unlabeled_leaves(net)) == p
    assert len(tree_based_completion(net).attached_edges) == p


# (leaves, reticulations) for 101, 1001 and 10001 vertices, seed 1
@pytest.mark.parametrize("leaves, retics, p", [(30, 21, 1), (300, 201, 6), (3000, 2001, 69)])
def test_p_matches_scipy_on_generated_networks(leaves, retics, p):
    net = generate(GenSpec(leaves, retics, seed=1))
    assert net.num_vertices == 2 * leaves + 2 * retics - 1
    assert_p_agrees(net, p)


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.iterdir()))
def test_p_matches_scipy_on_the_fixtures(name):
    text = (FIXTURES / name).read_text()
    net = (parse_enewick if name.endswith(".nwk") else parse_edgelist)(text)
    assert_p_agrees(net, scipy_p(net))


def test_p_matches_scipy_on_every_small_shape():
    ps = set()
    for leaves in range(2, 12):
        for retics in range(12):
            for seed in range(3):
                net = generate(GenSpec(leaves, retics, seed=seed))
                p = scipy_p(net)
                assert deviation_indices(net).p == p, net.edges
                ps.add(p)
    assert len(ps) >= 4  # tree-based networks and several deviations
