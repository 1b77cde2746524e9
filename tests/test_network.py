import heapq
import random

import pytest

from tbnet import network
from tbnet import (
    Digraph,
    GenSpec,
    InvalidNetworkError,
    PhyloNetwork,
    attach_leaf,
    attach_leaves,
    generate,
    parse_edgelist,
    parse_enewick,
    serialize_edgelist,
    serialize_enewick,
    tree_based_completion,
    validate,
)

from conftest import corpus, load_fixture

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


@pytest.mark.parametrize("key", [1.0, "1"], ids=["float", "str"])
@pytest.mark.parametrize("n", [None, 3])
def test_label_keys_that_are_not_ints_are_refused(key, n):
    # as an edge id is: not truncated, parsed or compared with the int keys
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        PhyloNetwork([(0, 1), (0, 2)], {key: "a", 2: "b"}, n)


def test_a_bool_label_key_is_stored_as_an_int():
    net = PhyloNetwork([(0, 1), (0, 2)], {True: "a", 2: "b"})
    assert type(net.vertex_by_label("a")) is int
    assert net.vertex_by_label("a") == 1
    assert {type(v) for v in net.leaf_labels} == {int}


def test_an_edge_that_is_not_a_pair_is_refused():
    with pytest.raises(ValueError, match="too many values to unpack"):
        PhyloNetwork(((0, 1, 2), (0, 2)), {1: "a", 2: "b"}, 3)


def test_validate_report_ignores_arc_order():
    # self-loops, parallel pairs and out-of-range arcs are reported in
    # ascending arc order, whatever order the arcs are listed in
    arcs = ((0, 1), (2, 2), (0, 0), (1, 3), (1, 3), (0, 4), (3, 7), (0, 1))
    loopless = tuple(e for e in arcs if e[0] != e[1])
    for n, edges in ((4, arcs), (8, arcs), (8, loopless)):
        report = validate(Digraph(n, edges, {}))
        assert report == validate(Digraph(n, edges[::-1], {})), report.summary()
        assert len(report.violations) >= 2


def test_a_label_with_a_newline_inside_is_refused():
    # joined by newlines for one match, "a\nb" reads as two good labels
    tree = PhyloNetwork(*TWO_LEAF)
    builds = [
        (lambda: PhyloNetwork([(0, 1), (0, 2)], {1: "a\nb", 2: "c"}), 1, "a\nb"),
        (lambda: PhyloNetwork.from_lists([[1, 2], [], []], [[], [0], [0]], {1: "a\nb", 2: "c"}), 1, "a\nb"),
        (lambda: attach_leaves(tree, [(0, 1)], ["c\nd"]), 4, "c\nd"),
        # the splice checks only its new labels: one of two, and one made
        # of two labels the network already has
        (lambda: attach_leaves(tree, [(0, 1), (0, 2)], ["c", "d\ne"]), 6, "d\ne"),
        (lambda: attach_leaves(tree, [(0, 1)], ["a\nb"]), 4, "a\nb"),
    ]
    for build, leaf, label in builds:
        with pytest.raises(InvalidNetworkError) as info:
            build()
        assert info.value.report.violations == (
            ("bad-label", (leaf,), f"leaf {leaf} has an unusable label {label!r}"),)


def test_invalid_network_error_carries_report():
    with pytest.raises(InvalidNetworkError) as err:
        PhyloNetwork(((0, 1), (0, 1)), {1: "a"}, 2)
    assert err.value.report.violations


def test_subdivide_edge_shape():
    net = PhyloNetwork(*TWO_LEAF)
    out = attach_leaf(net, (0, 1), "c")
    s = net.num_vertices
    assert out.edges == ((0, 2), (0, s), (s, 1), (s, s + 1))
    assert (out.parents[s], out.children[s]) == ((0,), (1, s + 1))
    assert out.leaf_labels[s + 1] == "c"


def test_subdivide_unknown_edge():
    # a tail out of range is refused, not wrapped around to the last
    # vertex, which is the root (-1, 1) would name in the second network
    net = PhyloNetwork(*TWO_LEAF)
    last_root = PhyloNetwork(((2, 0), (2, 1)), {0: "a", 1: "b"}, 3)
    for graph, edge in ((net, (1, 2)), (net, (5, 1)), (last_root, (-1, 1))):
        with pytest.raises(ValueError, match="not an edge"):
            attach_leaf(graph, edge, "c")


def test_attach_leaf_makes_every_id_a_plain_int():
    # as the arc front end does: a bool is an int, a float is refused
    net = parse_enewick("((a,(b)#H1),(#H1,c));")
    out = attach_leaf(net, (2, True), "z")
    assert out.children[7] == (1, 8) and attach_leaves(net, [(2, 1)], ["z"]).edges == out.edges
    ids = [x for lists in (out.children, out.parents, out.edges) for xs in lists for x in xs]
    assert {type(x) for x in ids} == {int}
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        attach_leaf(net, (1.0, 2), "z")


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


# A bad call raises what the full check of its whole result reports,
# recorded from a build of that result through the check, on
# ((a,(b)#H1),(#H1,c)); with the arcs (2, 1), (3, 0), (3, 2), (5, 2),
# (5, 4), (6, 3) and (6, 5) and labels a, b, c on 0, 1, 4.
_LEAF_8_IS_7 = ("bad-label", (8,), "leaf 8 has an unusable label 7")


@pytest.mark.parametrize("edges,labels,error", [
    ([(3, 0)], ["a"], (("duplicate-label", (0, 8), "label 'a' used by vertices 0 and 8"),)),
    ([(3, 0), (5, 2)], ["z", "z"], (("duplicate-label", (8, 10), "label 'z' used by vertices 8 and 10"),)),
    ([(3, 0)], [7], (_LEAF_8_IS_7,)),
    ([(3, 0)], [[]], (("bad-label", (8,), "leaf 8 has an unusable label []"),)),
    ([(3, 0)], [""], (("bad-label", (8,), "leaf 8 has an unusable label ''"),)),
    ([(3, 0)], ["c\nd"], (("bad-label", (8,), "leaf 8 has an unusable label 'c\\nd'"),)),
    ([(3, 0), (5, 2)], [7, "a"], (_LEAF_8_IS_7, ("duplicate-label", (0, 10), "label 'a' used by vertices 0 and 10"))),
    ([(3, 0), (5, 2), (6, 5)], ["b", "b", "x y"], (
        ("duplicate-label", (1, 8), "label 'b' used by vertices 1 and 8"),
        ("duplicate-label", (8, 10), "label 'b' used by vertices 8 and 10"),
        ("bad-label", (12,), "leaf 12 has an unusable label 'x y'"))),
    # a pair that is no arc wins over a bad label, wherever it is listed
    ([(0, 3), (3, 0)], ["z", "a"], "(0, 3) is not an edge of the network"),
    ([(3, 0), (0, 3)], ["a", "z"], "(0, 3) is not an edge of the network"),
    ([(3, 0), (5, 2)], ["z"], "zip() argument 2 is shorter than argument 1"),
    ([(3, 0)], ["z", "y"], "zip() argument 2 is longer than argument 1"),
    ([(0, 3)], ["z", "y"], "(0, 3) is not an edge of the network"),
], ids=["existing", "twice", "int", "unhashable", "empty", "newline", "int-and-existing", "three",
        "non-arc-first", "non-arc-last", "fewer-labels", "more-labels", "non-arc-and-more-labels"])
def test_attach_leaves_refuses_as_the_full_build_did(edges, labels, error):
    net = parse_enewick("((a,(b)#H1),(#H1,c));")
    assert net.edges == ((2, 1), (3, 0), (3, 2), (5, 2), (5, 4), (6, 3), (6, 5))
    if isinstance(error, str):
        with pytest.raises(ValueError) as info:
            attach_leaves(net, edges, labels)
        assert type(info.value) is ValueError and str(info.value) == error
    else:
        with pytest.raises(InvalidNetworkError) as info:
            attach_leaves(net, edges, labels)
        assert info.value.report == (False, error)
        assert str(info.value) == "; ".join(message for _, _, message in error)


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
    label dropped, moved to the leaf's parent, made a number, given a
    newline inside or duplicated."""
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
    yield n, edges, {**moved, leaves[0]: "a\nb"}
    if len(leaves) > 1:
        yield n, edges, {**labels, leaves[0]: labels[leaves[1]]}


def test_construction_accepts_exactly_what_validate_accepts():
    rng = random.Random(7)
    graphs = [_configuration_graph(rng) for _ in range(1500)]
    for _ in range(500):  # arbitrary small digraphs, ids out of range included
        n = rng.randrange(-1, 6)
        edges = [(rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
                 for _ in range(rng.randrange(8))]
        graphs.append((n, edges, {v: rng.choice(("a", "b", "c d", 7, "a\nb", "", "x\n"))
                                  for v in range(n) if rng.random() < 0.6}))
    for net in corpus(300, max_leaves=6, max_retics=5, seed_base=33_000):
        graphs += _mutants(net, rng)
    outcomes = set()
    for n, edges, labels in graphs:
        report = validate(Digraph(n, tuple(edges), labels))
        built = {}
        try:
            built["arcs"] = PhyloNetwork(edges, labels, n)
        except InvalidNetworkError as err:
            assert err.report == report and not report.ok, (n, edges, labels)
        else:
            assert report.ok, (n, edges, labels)
        # Lists hold only ids in 0..n-1, so the core sees those graphs.
        if all(0 <= x < n for e in edges for x in e):
            kids = [[] for _ in range(n)]
            pars = [[] for _ in range(n)]
            for u, v in edges:
                kids[u].append(v)
                pars[v].append(u)
            try:
                built["lists"] = PhyloNetwork.from_lists(kids, pars, dict(labels))
            except InvalidNetworkError as err:
                assert err.report == report and not report.ok, (n, edges, labels)
            else:
                assert report.ok, (n, edges, labels)
        if len(built) == 2:
            assert _fields(built["lists"]) == _fields(built["arcs"])
        outcomes.add(report.ok)
    assert outcomes == {True, False}


def _fields(net):
    return (net.num_vertices, net.edges, dict(net.leaf_labels), net.root, net.children,
            net.parents, net.in_degree, net.out_degree, net.leaves, net.reticulations,
            net.labels)


def test_producers_build_what_the_arc_front_end_builds():
    # the readers, the completion and the generator hand the core their own
    # lists; the front end rebuilds them from the arcs
    for net in corpus(300, max_leaves=7, max_retics=6, seed_base=47_000):
        built = [net, parse_enewick(serialize_enewick(net)),
                 parse_edgelist(serialize_edgelist(net))]
        built += [tree_based_completion(x).network for x in built]
        for x in built:
            assert _fields(x) == _fields(PhyloNetwork(x.edges, x.leaf_labels, x.num_vertices))


def _splices(net, rng, rounds):
    """Arc sets to splice into ``net``: none, both out-arcs of the root and
    of a tree vertex, both in-arcs of a reticulation, and ``rounds`` seeded
    random sets of 1 to every arc."""
    arcs = net.edges
    yield ()
    yield tuple((u, v) for u, v in arcs if u == net.root)
    tree = [u for u in range(net.num_vertices) if net.out_degree[u] == 2 and u != net.root]
    if tree:
        t = rng.choice(tree)
        yield tuple((u, v) for u, v in arcs if u == t)
    if net.reticulations:
        r = rng.choice(net.reticulations)
        yield tuple((u, v) for u, v in arcs if v == r)
    for _ in range(rounds if arcs else 0):
        yield tuple(rng.sample(arcs, rng.randint(1, len(arcs))))


def test_the_splice_builds_what_the_arc_front_end_builds():
    # attach_leaves derives the degrees, sinks and reticulations of its
    # result instead of checking it; the front end rebuilds and checks them
    rng = random.Random(31)
    nets = corpus(120, max_leaves=7, max_retics=6, seed_base=52_000)
    nets += corpus(60, max_leaves=5, max_retics=5, seed_base=53_000, temporal_only=True)
    nets += [load_fixture(name) for name in ("diamond", "deviation_one", "killer", "temporal_nontb")]
    nets.append(PhyloNetwork((), {0: "only"}, 1))
    spliced = 0
    for net in nets:
        for arcs in _splices(net, rng, rounds=3):
            out = attach_leaves(net, arcs, [f"new_{i}" for i in range(len(arcs))])
            assert _fields(out) == _fields(PhyloNetwork(out.edges, out.leaf_labels, out.num_vertices))
            assert validate(Digraph(out.num_vertices, out.edges, dict(out.leaf_labels))).ok
            spliced += len(arcs)
    assert spliced > 2000


def test_only_networks_entering_from_outside_are_checked(monkeypatch, deviation_one):
    # a completion splices a network already checked; every reader, the
    # generator and both construction routes check what they are given
    def refuse(*args):
        raise AssertionError("checked again")

    monkeypatch.setattr(network, "_check", refuse)
    result = tree_based_completion(deviation_one)
    assert result.labels and result.network.num_vertices == deviation_one.num_vertices + 2
    builds = [
        lambda: parse_enewick(serialize_enewick(deviation_one)),
        lambda: parse_edgelist(serialize_edgelist(deviation_one)),
        lambda: generate(GenSpec(4, 2, seed=1)),
        lambda: PhyloNetwork.from_lists([[1, 2], [], []], [[], [0], [0]], {1: "a", 2: "b"}),
        lambda: PhyloNetwork(*TWO_LEAF),
    ]
    for build in builds:
        with pytest.raises(AssertionError, match="checked again"):
            build()
