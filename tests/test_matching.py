import pytest
from hypothesis import given, settings, strategies as st

from tbnet import (
    BipartiteGraph,
    Matching,
    build_gn,
    build_zn,
    find_rr_path,
    max_matching,
    min_vertex_cover,
    reticulation_saturating,
)
from tbnet.matching import assert_maximum, verify_matching
from tbnet.oracles import oracle_max_matching_size
from tbnet.treebased import zigzag_trails

from conftest import corpus, run_python


def random_bipartite(draw, max_left=6, max_right=6):
    n_left = draw(st.integers(0, max_left))
    n_right = draw(st.integers(0, max_right))
    adj = []
    for _ in range(n_left):
        nbrs = draw(st.lists(st.integers(0, max(0, n_right - 1)),
                             max_size=n_right, unique=True)) if n_right else []
        adj.append(tuple(sorted(nbrs)))
    return BipartiteGraph(tuple(range(n_left)), tuple(range(n_right)), tuple(adj))


@st.composite
def bipartite_graphs(draw):
    return random_bipartite(draw)


@given(bipartite_graphs())
@settings(max_examples=120, deadline=None)
def test_hopcroft_karp_matches_oracle(graph):
    matching = max_matching(graph)
    verify_matching(graph, matching)
    assert_maximum(graph, matching)
    assert matching.size == oracle_max_matching_size(
        [list(a) for a in graph.adj], graph.n_right)


@given(bipartite_graphs())
@settings(max_examples=80, deadline=None)
def test_konig_cover(graph):
    matching = max_matching(graph)
    left_cover, right_cover = min_vertex_cover(graph, matching)
    assert len(left_cover) + len(right_cover) == matching.size
    for u in range(graph.n_left):
        for v in graph.adj[u]:
            assert u in left_cover or v in right_cover


def test_reference_checks_hold_under_optimisation():
    # python -O strips assert statements; the reference checks must not rely on them
    script = (
        "import sys\n"
        "from tbnet import BipartiteGraph, Matching\n"
        "from tbnet.matching import assert_maximum, verify_matching\n"
        "g = BipartiteGraph((0, 1), (0, 1), ((0,), (0, 1)))\n"
        "bogus = Matching(((0, 1),), (1, -1), (-1, 0), (1,), (0,))\n"
        "empty = Matching((), (-1, -1), (-1, -1), (0, 1), (0, 1))\n"
        "rejected = 0\n"
        "for check, m in ((verify_matching, bogus), (assert_maximum, empty)):\n"
        "    try:\n"
        "        check(g, m)\n"
        "    except AssertionError:\n"
        "        rejected += 1\n"
        "sys.exit(10 + rejected)\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 12, proc.stderr


def test_matching_deterministic():
    g = BipartiteGraph((0, 1, 2), (0, 1, 2),
                       ((0, 1), (0, 1, 2), (1, 2)))
    pairs = max_matching(g).pairs
    for _ in range(5):
        assert max_matching(g).pairs == pairs


def test_zn_contents_diamond(diamond):
    zn = build_zn(diamond)
    # both children of the root are tree vertices feeding the reticulation
    assert zn.n_right == 1
    assert all(len(adj) <= 1 for adj in zn.adj)
    saturating, matching = reticulation_saturating(diamond)
    assert saturating and matching.size == 1


def test_zn_includes_root_when_root_feeds_reticulation():
    # root -> a, root -> r1, a -> b, a -> q, b -> q, b -> y, q -> r1, r1 -> x
    # r1's tree parent is only the root; dropping the root from the left side
    # would wrongly make r1 unsaturable.
    from tbnet import PhyloNetwork, is_tree_based
    net = PhyloNetwork(
        ((0, 1), (0, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 2), (2, 6)),
        {5: "y", 6: "x"},
        7,
    )
    zn = build_zn(net)
    assert net.root in zn.left_ids
    ok, _ = reticulation_saturating(net)
    assert ok
    assert is_tree_based(net)[0]


def test_gn_shape(deviation_one):
    gn = build_gn(deviation_one)
    assert gn.n_left == gn.n_right == deviation_one.num_vertices
    assert sum(len(a) for a in gn.adj) == len(deviation_one.edges)


def test_find_rr_path_deviation_one(deviation_one):
    path = find_rr_path(deviation_one)
    assert path is not None
    retic = set(deviation_one.reticulations)
    assert path[0] in retic and path[-1] in retic
    assert len(path) % 2 == 1
    # alternation: even positions reticulations, odd positions tree vertices
    for i, v in enumerate(path):
        assert (v in retic) == (i % 2 == 0)


def test_witness_fence_has_the_smallest_end_reticulation():
    # two W-fences: 10 -> 6 <- 9 -> 10 <- 8 (end reticulations 6 and 10)
    # and one through reticulation 8 alone; the witness starts at 6
    from tbnet import PhyloNetwork, deviation_indices
    net = PhyloNetwork(
        ((0, 3), (0, 11), (3, 7), (4, 8), (3, 4), (5, 1), (6, 2), (5, 9), (7, 5),
         (8, 10), (7, 12), (9, 6), (10, 6), (9, 10), (11, 4), (12, 8), (11, 12)),
        {1: "x1", 2: "x2"},
        13,
    )
    assert deviation_indices(net).p == 2
    assert find_rr_path(net) == (6, 9, 10)


def test_two_routes_agree_on_corpus():
    for net in corpus(150, seed_base=1000):
        if net.num_vertices == 1:
            continue
        saturating, _ = reticulation_saturating(net)
        assert saturating == (find_rr_path(net) is None)
        # the trail walk against Hopcroft-Karp on the path graph
        gn = build_gn(net)
        succ, pred, fences = zigzag_trails(net)
        walked = Matching(
            pairs=tuple((u, v) for u, v in enumerate(succ) if v != -1),
            left_match=tuple(succ),
            right_match=tuple(pred),
            unmatched_left=tuple(u for u, v in enumerate(succ) if v == -1),
            unmatched_right=tuple(v for v, u in enumerate(pred) if u == -1),
        )
        assert_maximum(gn, walked)
        assert len(fences) == len(max_matching(gn).unmatched_left) - len(net.leaves)


def test_rr_path_is_maximal_in_zn():
    for net in corpus(60, seed_base=7000):
        if net.num_vertices == 1:
            continue
        path = find_rr_path(net)
        if path is None:
            continue
        lefts = set(build_zn(net).left_ids)
        # maximality: an endpoint reticulation has no tree-vertex parent
        # outside the path, else the path would extend through it
        for endpoint in (path[0], path[-1]):
            tree_parents = [p for p in net.parents[endpoint] if p in lefts]
            assert set(tree_parents) <= set(path)
