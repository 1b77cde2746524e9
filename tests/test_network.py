import heapq
import random

import pytest

from tbnet import (
    Digraph,
    GenSpec,
    InvalidNetworkError,
    PhyloNetwork,
    attach_leaf,
    generate,
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


@pytest.mark.parametrize("edges", [
    [[0, 1], [0, 2]],                      # lists
    ((0, True), (0, 2)),                   # an int subclass
    ((u, v) for u, v in ((0, 1), (0, 2))),  # a one-shot iterator
], ids=["lists", "bool", "iterator"])
def test_ids_that_are_not_int_pairs_go_through_int(edges):
    # pairs of ints are kept as given; other integer ids become plain ints
    net = PhyloNetwork(edges, {1: "a", 2: "b"})
    assert net.edges == ((0, 1), (0, 2))
    assert {type(x) for e in net.edges for x in e} == {int}
    assert {type(e) for e in net.edges} == {tuple}


@pytest.mark.parametrize("edges", [
    (("0", "1"), (0, "2")),                # strings of digits
    ((0, 1.9), (0, 2)),                    # a float that int() would truncate
    ((0, 1), (0, 2.0)),                    # a float with an integral value
], ids=["strings", "float", "integral-float"])
def test_ids_that_are_not_ints_are_refused(edges):
    with pytest.raises(TypeError):
        PhyloNetwork(edges, {1: "a", 2: "b"})


def test_an_edge_that_is_not_a_pair_is_refused():
    with pytest.raises(ValueError, match="too many values to unpack"):
        PhyloNetwork(((0, 1, 2), (0, 2)), {1: "a", 2: "b"}, 3)


def test_invalid_network_error_carries_report():
    with pytest.raises(InvalidNetworkError) as err:
        PhyloNetwork(((0, 1), (0, 1)), {1: "a"}, 2)
    assert err.value.report.violations


def test_subdivide_edge_shape():
    net = PhyloNetwork(*TWO_LEAF)
    out = attach_leaf(net, (0, 1), "c")
    s = net.num_vertices
    assert out.edges == ((0, s), (s, 1), (0, 2), (s, s + 1))
    assert (out.parents[s], out.children[s]) == ((0,), (1, s + 1))
    assert out.leaf_labels[s + 1] == "c"


def test_subdivide_unknown_edge():
    net = PhyloNetwork(*TWO_LEAF)
    with pytest.raises(ValueError, match="not an edge"):
        attach_leaf(net, (1, 2), "c")


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


def _configuration_graph(rng):
    """A random graph whose degree signatures are all allowed: one root, k
    tree vertices, r reticulations and k - r + 2 sinks, their arc ends
    paired at random, so parallel arcs, self-loops and cycles are common."""
    k = rng.randrange(6)
    r = rng.randrange(k + 2)
    sigs = [(0, 2)] + [(1, 2)] * k + [(2, 1)] * r + [(1, 0)] * (k - r + 2)
    rng.shuffle(sigs)
    tails = [v for v, (_, out) in enumerate(sigs) for _ in range(out)]
    heads = [v for v, (into, _) in enumerate(sigs) for _ in range(into)]
    rng.shuffle(heads)
    sinks = [v for v, (_, out) in enumerate(sigs) if not out]
    return len(sigs), list(zip(tails, heads)), {v: f"x{v}" for v in sinks}


def _mutants(net, rng):
    """``net`` and copies with one arc replaced, duplicated, dropped or
    reversed, two arcs' heads swapped, vertex n - 1 written as -1, or one
    label dropped, moved to the leaf's parent, made a number or duplicated."""
    n, edges, labels = net.num_vertices, list(net.edges), dict(net.leaf_labels)
    yield n, edges, labels
    if not edges:
        return
    i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
    (a, b), (c, d) = edges[i], edges[j]
    yield n, edges[:i] + [(a, rng.randrange(n))] + edges[i + 1:], labels
    yield n, edges + [edges[i]], labels
    yield n, edges[:i] + edges[i + 1:], labels
    yield n, edges[:i] + [(b, a)] + edges[i + 1:], labels
    swapped = edges[:]
    swapped[i], swapped[j] = (a, d), (c, b)
    yield n, swapped, labels
    last = n - 1
    yield n, [(-1 if u == last else u, -1 if v == last else v) for u, v in edges], labels
    leaves = sorted(labels)
    moved = {v: name for v, name in labels.items() if v != leaves[0]}
    yield n, edges, moved
    yield n, edges, {**moved, net.parents[leaves[0]][0]: labels[leaves[0]]}
    yield n, edges, {**moved, leaves[0]: 7}
    if len(leaves) > 1:
        yield n, edges, {**labels, leaves[0]: labels[leaves[1]]}


def test_construction_accepts_exactly_what_validate_accepts():
    rng = random.Random(7)
    graphs = [_configuration_graph(rng) for _ in range(1500)]
    for _ in range(500):  # arbitrary small digraphs, ids out of range included
        n = rng.randrange(-1, 6)
        edges = [(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
                 for _ in range(rng.randrange(8))]
        graphs.append((n, edges, {v: rng.choice(("a", "b", "c d", 7)) for v in range(n)
                                  if rng.random() < 0.6}))
    for net in corpus(300, max_leaves=6, max_retics=5, seed_base=33_000):
        graphs += _mutants(net, rng)
    outcomes = set()
    for n, edges, labels in graphs:
        report = validate(Digraph(n, tuple(edges), labels))
        try:
            PhyloNetwork(edges, labels, n)
        except InvalidNetworkError as err:
            assert err.report == report and not report.ok, (n, edges, labels)
        else:
            assert report.ok, (n, edges, labels)
        outcomes.add(report.ok)
    assert outcomes == {True, False}
