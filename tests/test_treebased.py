from itertools import count

import pytest

from tbnet import (
    BaseTreeCertificate,
    FailureWitness,
    GenSpec,
    PhyloNetwork,
    attach_leaf,
    check_path_partition_characterisation,
    deviation_indices,
    generate,
    is_tree_based,
    rooted_spanning_tree,
    tree_based_completion,
    vertex_disjoint_paths,
)
from tbnet.edgelist import parse_edgelist
from tbnet.enewick import parse_enewick
from tbnet.treebased import _failure_witness, zigzag_trails
from tbnet.oracles import (
    isomorphic,
    oracle_min_attachments,
    oracle_min_path_partition,
    oracle_min_spanning_tree_extra_leaves,
    oracle_tree_based,
)

from conftest import FIXTURES, corpus, ladder


def assert_valid_partition(net, partition):
    seen = set()
    edge_set = set(net.edges)
    for path in partition.paths:
        assert path, "empty path"
        for v in path:
            assert v not in seen
            seen.add(v)
        for u, v in zip(path, path[1:]):
            assert (u, v) in edge_set
    assert seen == set(range(net.num_vertices))


def assert_valid_spanning_tree(net, tree):
    edge_set = set(net.edges)
    assert set(tree.edges) <= edge_set
    assert tree.root == net.root
    indeg = {v: 0 for v in range(net.num_vertices)}
    for _, v in tree.edges:
        indeg[v] += 1
    assert indeg[net.root] == 0
    assert all(indeg[v] == 1 for v in range(net.num_vertices) if v != net.root)
    # connectivity from the root
    children = {v: [] for v in range(net.num_vertices)}
    for u, v in tree.edges:
        children[u].append(v)
    stack, seen = [net.root], {net.root}
    while stack:
        v = stack.pop()
        for c in children[v]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    assert seen == set(range(net.num_vertices))


def test_diamond_tree_based(diamond):
    based, cert = is_tree_based(diamond)
    assert based and isinstance(cert, BaseTreeCertificate)
    assert_valid_spanning_tree(diamond, cert.tree)
    assert cert.tree.unlabeled_leaves(diamond) == ()
    report = deviation_indices(diamond)
    assert (report.l, report.p, report.t) == (0, 0, 0)
    assert check_path_partition_characterisation(diamond)


def test_plain_tree_base_tree_is_itself():
    net = generate(GenSpec(5, 0, seed=2))
    based, cert = is_tree_based(net)
    assert based
    assert set(cert.tree.edges) == set(net.edges)


def test_deviation_one_values(deviation_one):
    based, cert = is_tree_based(deviation_one)
    assert not based and isinstance(cert, FailureWitness)
    report = deviation_indices(deviation_one)
    assert report.u_gn == 2 and report.x_size == 1
    assert report.l == report.p == report.t == 1
    assert report.d == 2
    partition = vertex_disjoint_paths(deviation_one)
    assert partition.size == 2
    assert_valid_partition(deviation_one, partition)
    assert not check_path_partition_characterisation(deviation_one)


def test_deviation_one_spanning_tree_adds_edge_a_c(deviation_one):
    # vertex names by first appearance in the fixture file:
    # rho=0 a=1 r1=2 c=3 w=4 r2=5 x=6
    tree = rooted_spanning_tree(deviation_one)
    assert_valid_spanning_tree(deviation_one, tree)
    assert len(tree.unlabeled_leaves(deviation_one)) == 1
    partition = vertex_disjoint_paths(deviation_one)
    path_edges = {(u, v) for p in partition.paths for u, v in zip(p, p[1:])}
    assert set(tree.edges) - path_edges == {(1, 3)}


def test_failure_witness_structure(deviation_one, killer):
    for net in (deviation_one, killer):
        _, witness = is_tree_based(net)
        retic = set(net.reticulations)
        path = witness.rr_path
        assert path[0] in retic and path[-1] in retic
        assert len(witness.u1) == len(witness.u2) + 1
        assert set(witness.u2) == set(path[0::2])
        assert {p for r in witness.u2 for p in net.parents[r]} == set(witness.u1)
        assert {c for t in witness.u1 for c in net.children[t]} == set(witness.u2)


def test_failure_witness_rejects_a_non_fence(deviation_one):
    # rho=0 a=1 r1=2 c=3 w=4 r2=5 x=6; the W-fence is 2, 4, 3, 5, 4
    assert _failure_witness(deviation_one, (2, 4, 3, 5, 4)).u2 == (4, 5)
    with pytest.raises(RuntimeError):
        _failure_witness(deviation_one, (0, 2, 1))


def test_singleton_and_two_leaf():
    single = PhyloNetwork((), {0: "z"}, 1)
    report = deviation_indices(single)
    assert report.p == 0 and report.u_gn == 1 and report.d == 1
    assert vertex_disjoint_paths(single).paths == ((0,),)
    based, cert = is_tree_based(single)
    assert based and cert.tree.edges == ()

    two = PhyloNetwork(((0, 1), (0, 2)), {1: "a", 2: "b"}, 3)
    assert deviation_indices(two).p == 0
    assert vertex_disjoint_paths(two).size == 2


def test_partition_matches_oracle_minimum():
    for net in corpus(120, seed_base=2000, max_vertices=14):
        partition = vertex_disjoint_paths(net)
        assert_valid_partition(net, partition)
        assert partition.size == oracle_min_path_partition(net)
        report = deviation_indices(net)
        assert partition.size == report.u_gn == report.p + report.x_size


def test_spanning_tree_matches_oracle_minimum():
    for net in corpus(100, seed_base=3000, max_vertices=14):
        if net.num_vertices == 1:
            continue
        tree = rooted_spanning_tree(net)
        assert_valid_spanning_tree(net, tree)
        outside = tree.unlabeled_leaves(net)
        assert len(outside) == oracle_min_spanning_tree_extra_leaves(net)
        assert len(outside) == deviation_indices(net).l


def test_decision_matches_oracle():
    for net in corpus(120, seed_base=4000, max_vertices=16):
        if net.num_vertices == 1:
            continue
        based, cert = is_tree_based(net)
        assert based == oracle_tree_based(net)
        if based:
            assert_valid_spanning_tree(net, cert.tree)
            assert cert.tree.unlabeled_leaves(net) == ()
        else:
            assert len(cert.u1) == len(cert.u2) + 1


def test_completion_tree_based_and_minimal():
    for net in corpus(80, seed_base=5000, max_vertices=14):
        if net.num_vertices == 1:
            continue
        report = deviation_indices(net)
        result = tree_based_completion(net)
        assert is_tree_based(result.network)[0]
        assert len(result.attached_edges) == report.t
        assert deviation_indices(result.network).p == 0
        retic = set(net.reticulations)
        assert all(v in retic for _, v in result.attached_edges)
        if len(net.reticulations) <= 3:
            assert len(result.attached_edges) == oracle_min_attachments(net)


def test_completion_identity_on_tree_based(diamond):
    result = tree_based_completion(diamond)
    assert result.attached_edges == ()
    assert isomorphic(result.network, diamond)


def test_characterisation_v_agrees_with_decision():
    for net in corpus(120, seed_base=6000, max_vertices=16):
        if net.num_vertices == 1:
            continue
        assert check_path_partition_characterisation(net) == is_tree_based(net)[0]


def test_completion_matches_sequential_attach_leaf():
    def reference(net):
        # one attach_leaf per stuck vertex, each rebuilding the network
        stuck = sorted(rooted_spanning_tree(net).unlabeled_leaves(net))
        used = set(net.leaf_labels.values())
        fresh = (f"attached_{i}" for i in count(1) if f"attached_{i}" not in used)
        current, attached, labels = net, [], []
        for v in stuck:
            attached.append((v, net.children[v][0]))
            labels.append(next(fresh))
            current = attach_leaf(current, attached[-1], labels[-1])
        return current, tuple(attached), tuple(labels)

    for net in corpus(200, max_leaves=8, max_retics=8, seed_base=22_000):
        result = tree_based_completion(net)
        network, attached, labels = reference(net)
        assert result.network.edges == network.edges
        assert list(result.network.leaf_labels.items()) == list(network.leaf_labels.items())
        assert result.attached_edges == attached
        assert result.labels == labels
        if not attached:
            assert result.network is net


def _reference_spanning_tree(net):
    """The tree as first built: chain the matching into paths, hang each
    path but the root's below the smallest parent of its start, and take as
    leaves the vertices that no tree edge leaves."""
    partition = vertex_disjoint_paths(net)
    edges = [e for path in partition.paths for e in zip(path, path[1:])]
    edges += [(net.parents[path[0]][0], path[0]) for path in partition.paths
              if path[0] != net.root]
    edges.sort()
    out_used = {u for u, _ in edges}
    leaves = sorted(v for path in partition.paths for v in path if v not in out_used)
    return tuple(edges), net.root, tuple(leaves)


def test_spanning_tree_matches_the_chained_paths_reference():
    for net in corpus(3000, max_leaves=8, max_retics=6, seed_base=45_000):
        expected = _reference_spanning_tree(net)
        assert tuple(rooted_spanning_tree(net)) == expected, net.edges
        based, cert = is_tree_based(net)
        if based:
            assert tuple(cert.tree) == expected


def reference_zigzag_trails(net):
    """The earlier ``zigzag_trails``: one walk for both sides, indexed by
    side (0: tails, 1: heads), taking every other arc from the first.  It
    keeps nothing on ``net``."""
    n = net.num_vertices
    nbrs = (net.children, net.parents)  # side 0: tails, 1: heads
    match = ([-1] * n, [-1] * n)
    seen = (bytearray(n), bytearray(n))

    def walk(v: int, side: int) -> list[int]:
        us = nbrs[1 - side][nbrs[side][v][0]]  # the adjacency's own v, not a new int
        v = us[0] if us[0] == v else us[-1]
        trail, prev, take = [], -1, True
        while True:
            trail.append(v)
            seen[side][v] = 1
            ws = nbrs[side][v]
            w = ws[-1] if ws[0] == prev else ws[0]
            if w == prev or seen[1 - side][w]:
                return trail  # the far end of a fence, or a crown closed
            if take:
                match[side][v] = w
                match[1 - side][w] = v
            take = not take
            prev, v, side = v, w, 1 - side

    out_degree, in_degree = net.out_degree, net.in_degree
    fences = []
    for v in range(n):
        if out_degree[v] == 1 and not seen[0][v]:
            trail = walk(v, 0)
            if len(trail) % 2:  # ends at a tail too: a W-fence
                if (trail[1], trail[0]) > (trail[-2], trail[-1]):
                    trail.reverse()
                fences.append(tuple(trail))
        if in_degree[v] == 1 and not seen[1][v]:
            walk(v, 1)
    for v in range(n):
        if out_degree[v] == 2 and not seen[0][v]:
            walk(v, 0)
    fences.sort(key=lambda f: f[1])
    return (tuple(match[0]), tuple(match[1]), tuple(fences))


def _trail_kinds(net):
    """The kinds of trail the path graph holds, found without walking: a
    union-find over the copies 2u (tail u) and 2v + 1 (head v), one union
    per arc (u, v).  A trail with no end (a tail of out-degree 1 or a head
    of in-degree 1) is a crown; one whose ends are both tails is a W-fence;
    one whose smallest end copy is odd is entered at a head."""
    root = list(range(2 * net.num_vertices))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for u, v in net.edges:
        root[find(2 * u)] = find(2 * v + 1)
    ends = {}
    for v in range(net.num_vertices):
        for copy, degree in ((2 * v, net.out_degree[v]), (2 * v + 1, net.in_degree[v])):
            if degree == 1:
                ends.setdefault(find(copy), []).append(copy)
    kinds = {"crown" for u, _ in net.edges if find(2 * u) not in ends}
    for copies in ends.values():
        if len(copies) == 2 and copies[0] % 2 == copies[1] % 2 == 0:
            kinds.add("W-fence")
        if min(copies) % 2:
            kinds.add("head-entered")
    return kinds


def _walk_sample():
    yield from corpus(400)
    for k in range(1, 31):
        yield ladder(k)[0]
    for path in sorted(FIXTURES.iterdir()):
        yield (parse_enewick if path.suffix == ".nwk" else parse_edgelist)(path.read_text())
    for leaves in range(1, 14):
        for retics in range(14):
            if (leaves, retics) == (1, 1):
                continue
            for seed in range(4):
                yield generate(GenSpec(leaves, retics, seed=seed))
    yield generate(GenSpec(3000, 2001, 1))


def test_the_walk_matches_the_reference_walk():
    kinds = set()
    for net in _walk_sample():
        assert zigzag_trails(net) == reference_zigzag_trails(net), net.edges
        kinds |= _trail_kinds(net)
    assert kinds == {"crown", "W-fence", "head-entered"}
