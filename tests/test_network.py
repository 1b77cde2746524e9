import heapq

import pytest

from tbnet import (
    Digraph,
    GenSpec,
    InvalidNetworkError,
    PhyloNetwork,
    VertexKind,
    attach_leaf,
    classify,
    edge_kind,
    EdgeKind,
    generate,
    subdivide_edge,
    validate,
)

from conftest import corpus

TWO_LEAF = (((0, 1), (0, 2)), {1: "a", 2: "b"}, 3)


def test_two_leaf_tree_valid():
    report = validate(Digraph(3, ((0, 1), (0, 2)), {1: "a", 2: "b"}))
    assert report.ok and not report.violations


def test_singleton_valid():
    net = PhyloNetwork((), {0: "only"}, 1)
    assert net.root == 0
    assert net.leaves == (0,)
    assert classify(net, 0) is VertexKind.LEAF


def test_singleton_unlabeled_rejected():
    assert not validate(Digraph(1, (), {})).ok


@pytest.mark.parametrize("edges,labels,n,rule", [
    (((0, 1), (0, 1)), {1: "a"}, 2, "parallel"),            # parallel edges
    (((0, 1), (1, 0)), {}, 2, "cycle"),                      # 2-cycle
    (((0, 1), (0, 2), (1, 2)), {2: "a"}, 3, "degree"),       # leaf in-degree 2
    (((0, 1),), {1: "a"}, 2, "degree"),                      # root out-degree 1
    (((0, 2), (1, 2), (2, 3)), {3: "a"}, 4, "root"),         # two roots
    (((0, 1), (0, 2)), {1: "a"}, 3, "label"),                # unlabeled leaf
    (((0, 1), (0, 2)), {1: "a", 2: "a"}, 3, "label"),        # duplicate label
    (((0, 1), (0, 2)), {1: "a", 2: "b c"}, 3, "label"),      # bad characters
    (((0, 1), (0, 2)), {0: "r", 1: "a", 2: "b"}, 3, "label"),  # label on non-leaf
])
def test_validate_rejects(edges, labels, n, rule):
    report = validate(Digraph(n, edges, labels))
    assert not report.ok
    assert any(rule in v.rule for v in report.violations), report.summary()


def test_invalid_network_error_carries_report():
    with pytest.raises(InvalidNetworkError) as err:
        PhyloNetwork(((0, 1), (0, 1)), {1: "a"}, 2)
    assert err.value.report.violations


def test_classify_and_edge_kind(diamond):
    kinds = {classify(diamond, v) for v in range(diamond.num_vertices)}
    assert kinds == {VertexKind.ROOT, VertexKind.LEAF,
                     VertexKind.TREE, VertexKind.RETICULATION}
    retic = diamond.reticulations[0]
    for parent in diamond.parents[retic]:
        assert edge_kind(diamond, (parent, retic)) is EdgeKind.RETICULATION_EDGE
    root_edges = [(diamond.root, c) for c in diamond.children[diamond.root]]
    assert all(edge_kind(diamond, e) is EdgeKind.TREE_EDGE for e in root_edges)


def test_classify_unknown_vertex(diamond):
    with pytest.raises(ValueError):
        classify(diamond, diamond.num_vertices)


def test_subdivide_edge_shape():
    net = PhyloNetwork(*TWO_LEAF)
    raw, s = subdivide_edge(net, (0, 1))
    assert raw.num_vertices == net.num_vertices + 1
    assert len(raw.edges) == len(net.edges) + 1
    ins = sum(1 for _, v in raw.edges if v == s)
    outs = sum(1 for u, _ in raw.edges if u == s)
    assert (ins, outs) == (1, 1)


def test_subdivide_unknown_edge():
    net = PhyloNetwork(*TWO_LEAF)
    with pytest.raises(ValueError):
        subdivide_edge(net, (1, 2))


def test_attach_leaf_counts():
    net = PhyloNetwork(*TWO_LEAF)
    out = attach_leaf(net, (0, 1), "c")
    assert out.num_vertices == net.num_vertices + 2
    assert len(out.edges) == len(net.edges) + 2
    assert set(out.labels) == {"a", "b", "c"}


def test_attach_leaf_duplicate_label():
    net = PhyloNetwork(*TWO_LEAF)
    with pytest.raises(InvalidNetworkError):
        attach_leaf(net, (0, 1), "a")


def test_topological_order(killer):
    order = killer.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == list(range(killer.num_vertices))
    assert all(pos[u] < pos[v] for u, v in killer.edges)


def test_generated_identities():
    for seed in range(25):
        L, r = 1 + seed % 5, seed % 4
        if (L, r) == (1, 1):
            r = 2
        net = generate(GenSpec(L, r, seed=seed))
        assert net.num_vertices == 2 * L + 2 * r - 1
        if net.num_vertices > 1:
            assert len(net.edges) == 2 * L + 3 * r - 2
        assert len(net.reticulations) == r
        assert len(net.leaves) == L


def test_attach_leaf_every_reticulation_edge_gives_tree_based():
    from tbnet import is_tree_based
    from tbnet.oracles import _attach_run
    for seed in (3, 8, 21):
        net = generate(GenSpec(4, 3, seed=seed))
        retic = set(net.reticulations)
        targets = [e for e in net.edges if e[1] in retic]
        assert is_tree_based(_attach_run(net, targets))[0]


def test_topological_order_is_the_ascending_id_heap_kahn():
    def reference(net):
        indeg = [0] * net.num_vertices
        for _, v in net.edges:
            indeg[v] += 1
        heap = [v for v in range(net.num_vertices) if indeg[v] == 0]
        order = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for w in sorted(v for x, v in net.edges if x == u):
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        return tuple(order)

    for net in corpus(200, max_leaves=8, max_retics=6, seed_base=21_000):
        assert net.topological_order() == reference(net)
        assert net.root == net.topological_order()[0]


def test_vertex_by_label(killer):
    for v, name in killer.leaf_labels.items():
        assert killer.vertex_by_label(name) == v
    with pytest.raises(KeyError):
        killer.vertex_by_label("no-such-leaf")
