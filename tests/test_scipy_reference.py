"""The deviation p and the two antichain answers against independent
routes built on scipy, at sizes the brute-force oracles cannot reach.

By the paper's matching characterisation, a minimum path partition has
|V| - nu(G_N) paths, nu(G_N) being the maximum matching of the path graph
G_N, whose biadjacency matrix is the arc matrix, and every leaf ends one
of them: p = |V| - nu(G_N) - |X|.  scipy computes nu by its own
Hopcroft-Karp, sharing no code with tbnet's trail walk.  l = p = t ties in
the spanning tree's unlabelled leaves and the completion's attachments.

The width of ``antichain --max`` is |V| minus the maximum matching of the
transitive closure (Dilworth, by Fulkerson's reduction), and the verdict
of ``antichain --set`` is whether a unit-capacity maximum flow on the
split graph, from a source into each member to a sink out of each leaf,
routes every member: ``scipy.sparse.csgraph.maximum_flow`` decides it.
"""

import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow

from tbnet import (GenSpec, deviation_indices, generate, max_antichain, parse_edgelist,
                   parse_enewick, rooted_spanning_tree, route_to_leaves, tree_based_completion)

from conftest import FIXTURES


def _fixture(name):
    text = (FIXTURES / name).read_text()
    return (parse_enewick if name.endswith(".nwk") else parse_edgelist)(text)


def _matched(tails, heads, n) -> int:
    """The size of a maximum matching of the bipartite graph with an edge
    (u-left, v-right) per pair, from scipy."""
    pairs = csr_matrix((np.ones(len(tails), dtype=np.int8), (tails, heads)), shape=(n, n))
    return int(np.count_nonzero(maximum_bipartite_matching(pairs, perm_type="column") >= 0))


def scipy_p(net) -> int:
    """|V| - nu(G_N) - |X|, with nu from scipy on the arc matrix."""
    n = net.num_vertices
    tails, heads = np.array(net.edges, dtype=np.int32).reshape(-1, 2).T
    return n - _matched(tails, heads, n) - len(net.leaves)


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
    net = _fixture(name)
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


def scipy_width(net) -> int:
    """|V| - nu(closure), the closure from one plain search per vertex."""
    n, children = net.num_vertices, net.children
    tails, heads = [], []
    for v in range(n):
        seen, stack = set(), list(children[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(children[w])
        tails += [v] * len(seen)
        heads += seen
    return n - _matched(np.array(tails, dtype=np.int32), np.array(heads, dtype=np.int32), n)


def scipy_routes(net, members) -> bool:
    """Does a maximum flow route every member to a leaf, vertex-disjointly?
    The split graph: v_in = 2v, v_out = 2v + 1, an arc v_in -> v_out per
    vertex and u_out -> v_in per arc, a source into each member's v_in and
    each leaf's v_out into a sink, every capacity 1."""
    n = net.num_vertices
    source, sink = 2 * n, 2 * n + 1
    arcs = [(2 * v, 2 * v + 1) for v in range(n)]
    arcs += [(2 * u + 1, 2 * v) for u, v in net.edges]
    arcs += [(source, 2 * m) for m in members]
    arcs += [(2 * leaf + 1, sink) for leaf in net.leaves]
    tails, heads = np.array(arcs, dtype=np.int32).T
    capacity = csr_matrix((np.ones(len(arcs), dtype=np.int32), (tails, heads)),
                          shape=(2 * n + 2, 2 * n + 2))
    return maximum_flow(capacity, source, sink).flow_value == len(members)


# (leaves, reticulations) for 101 and 1001 vertices, seed 2
@pytest.mark.parametrize("leaves, retics, width", [(30, 21, 30), (300, 201, 310)])
def test_the_width_matches_scipy_on_generated_networks(leaves, retics, width):
    net = generate(GenSpec(leaves, retics, seed=2))
    assert len(max_antichain(net)[0]) == scipy_width(net) == width


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.iterdir()))
def test_the_width_matches_scipy_on_the_fixtures(name):
    net = _fixture(name)
    assert len(max_antichain(net)[0]) == scipy_width(net)


# The whole maximum antichain of the 101-vertex network routes, so every
# subset of it does; the 1001-vertex network gives both verdicts.
@pytest.mark.parametrize("leaves, retics, draws, mixed", [(30, 21, 100, False), (300, 201, 200, True)])
def test_the_set_verdict_matches_scipy_on_generated_networks(leaves, retics, draws, mixed):
    # seeded subsets of the maximum antichain, each an antichain
    net = generate(GenSpec(leaves, retics, seed=2))
    antichain = max_antichain(net)[0]
    rng, verdicts = random.Random(leaves), []
    for _ in range(draws):
        members = rng.sample(antichain, rng.randint(1, len(antichain)))
        routed = route_to_leaves(net, members)[0] is not None
        assert routed == scipy_routes(net, members), members
        verdicts.append(routed)
    assert (0 < verdicts.count(False) < draws) == mixed
    assert all(verdicts) != mixed


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.iterdir()))
def test_the_set_verdict_matches_scipy_on_the_fixtures(name):
    net = _fixture(name)
    antichain = max_antichain(net)[0]
    for k in range(1, len(antichain) + 1):
        for members in (antichain[:k], antichain[-k:]):
            assert (route_to_leaves(net, members)[0] is not None) == scipy_routes(net, members)
