import hashlib
import tracemalloc

import pytest

from tbnet import (GenSpec, GenerationError, PhyloNetwork, SplitMix64, generate, is_temporal,
                   parse_edgelist, parse_enewick, serialize_enewick)
from tbnet.edgelist import serialize_edgelist
from tbnet.generate import _MASK64, MAX_VERTICES, TEMPORAL_ATTEMPTS
from tbnet.network import _adjacency

from conftest import peak_ratio


def test_deterministic_per_spec():
    a = generate(GenSpec(5, 3, seed=11))
    b = generate(GenSpec(5, 3, seed=11))
    assert a.edges == b.edges and a.leaf_labels == b.leaf_labels


def test_seed_changes_output():
    a = generate(GenSpec(5, 3, seed=11))
    b = generate(GenSpec(5, 3, seed=12))
    assert a.edges != b.edges


def test_counts_and_identities():
    # construction validates, so reaching the asserts means the generator
    # produced a legal network
    for leaves in range(1, 7):
        for retics in range(0, 5):
            if (leaves, retics) == (1, 1):
                continue
            net = generate(GenSpec(leaves, retics, seed=7))
            assert len(net.leaves) == leaves
            assert len(net.reticulations) == retics
            assert net.num_vertices == 2 * leaves + 2 * retics - 1
            assert len(net.edges) == 2 * leaves + 3 * retics - 2


def test_leaf_labels_are_sequential():
    net = generate(GenSpec(4, 2, seed=3))
    assert net.labels == ("x1", "x2", "x3", "x4")


def test_singleton_shape():
    net = generate(GenSpec(1, 0, seed=0))
    assert net.num_vertices == 1 and net.edges == ()
    assert dict(net.leaf_labels) == {0: "x1"}


def test_one_leaf_one_reticulation_is_infeasible():
    with pytest.raises(GenerationError):
        generate(GenSpec(1, 1, seed=0))


def test_one_leaf_many_reticulations():
    net = generate(GenSpec(1, 3, seed=5))
    assert len(net.leaves) == 1 and len(net.reticulations) == 3


def test_bad_counts_rejected():
    with pytest.raises(GenerationError):
        generate(GenSpec(0, 2, seed=0))
    with pytest.raises(GenerationError):
        generate(GenSpec(3, -1, seed=0))


def test_temporal_only_delivers_temporal():
    for seed in range(12):
        net = generate(GenSpec(3, 2, seed=seed, temporal_only=True))
        assert is_temporal(net)[0]


def test_temporal_only_still_deterministic():
    a = generate(GenSpec(4, 3, seed=9, temporal_only=True))
    b = generate(GenSpec(4, 3, seed=9, temporal_only=True))
    assert a.edges == b.edges and a.leaf_labels == b.leaf_labels


# SHA-256 of serialize_enewick(generate(spec)), recorded with the
# generator's earlier Fraction ranks: the integer ranks must give the same
# networks.  (leaves, reticulations, seed, temporal_only).
PINNED = [
    ((3000, 2001, 1, False), "3b047393c8fa7e27b22091112ea2a519d959118708b572f8ca32a815a50495b6"),
    ((3000, 2000, 1, False), "e219baf74bd79fa3b7cdd2340fcd3d2ec066550670c2a3fc85746536993db2a3"),
    ((30, 8, 5, True), "5f01d4a1a98e524d7d763ca7fcd98fe7edd85b9e1f27b7b1039981093b95f82b"),
    ((12, 4, 3, True), "a690a4c4dc114a106181cb2f1ba66549a760d0c81faf96e4a555fbc2cccba2c5"),
    ((1, 0, 0, False), "b8cc365f9a0ee5aa3451f1ef17c0290d3323d1ab9bc963097268ce1dd8078e34"),
    ((1, 2, 0, False), "514dc0a0da8ea101edbb6bdb0acf4c5e46e2a30c8ee591d7adff7f668c36f5e3"),
    ((1, 2, 7, False), "514dc0a0da8ea101edbb6bdb0acf4c5e46e2a30c8ee591d7adff7f668c36f5e3"),
    ((1, 5, 2, False), "b146f41aa3a45a4ab62be3eb91bb01cd13f273cbb33d6326a8fdd4a5d12253b3"),
    ((2, 0, 0, False), "9eb32f67914623c26ab9cd47c838d840aced6c9f6f89ae089891a1cce819e108"),
    ((2, 1, 4, False), "662c1d8c947968966f06471b69eb87165a76c19ac08be66fea260c79067ef107"),
    ((10, 10, 42, False), "0ee0d402fc7bb5f9245cf47c293283020198f33360debdc3862e8df969fdffa1"),
    ((200, 300, 11, False), "683583311af98942ea20b95f936f35cd1c453aacf825044f2c2041bb33e3a3f0"),
]


@pytest.mark.parametrize("spec, digest", PINNED, ids=lambda v: str(v)[:20])
def test_output_is_pinned(spec, digest):
    leaves, retics, seed, temporal = spec
    text = serialize_enewick(generate(GenSpec(leaves, retics, seed, temporal_only=temporal)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("leaves, retics", [
    (MAX_VERTICES // 2 + 1, 0),       # 2L - 1 = MAX_VERTICES + 1
    (1, MAX_VERTICES // 2),           # 2R + 1 = MAX_VERTICES + 1
    (2, 99999999999),
])
def test_oversize_is_refused_before_allocating(leaves, retics):
    tracemalloc.start()
    try:
        with pytest.raises(GenerationError, match="the limit is"):
            generate(GenSpec(leaves, retics, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ceiling_leaves_room_for_a_million_vertices():
    assert MAX_VERTICES >= 10**6


# The generator as it was before it ran on flat lists: one method call per
# step, ranks and arcs as tuples.  The flat-list loop must build the same
# networks.  ``NUDGES`` counts the equal-midpoint nudges it makes.
NUDGES = [0]


def _scaled(a, b):
    (m, e), (k, f) = a, b
    if e < f:
        return m << (f - e), k, f
    return m, k << (e - f), e


def _mid(a, b):
    m, k, e = _scaled(a, b)
    return m + k, e + 1


class _Builder:
    def __init__(self):
        self.edges = []
        self.rank = []

    def add_vertex(self, rank):
        self.rank.append(rank)
        return len(self.rank) - 1

    def _midpoint(self, edge_index):
        u, v = self.edges[edge_index]
        return _mid(self.rank[u], self.rank[v])

    def subdivide(self, edge_index):
        u, v = self.edges[edge_index]
        s = self.add_vertex(self._midpoint(edge_index))
        self.edges[edge_index] = (u, s)
        self.edges.append((s, v))
        return s

    def attach_leaf(self, edge_index):
        s = self.subdivide(edge_index)
        m, e = self.rank[s]
        leaf = self.add_vertex((m + (1 << e), e))
        self.edges.append((s, leaf))
        return leaf

    def add_reticulation(self, i, j):
        mi, mj, _ = _scaled(self._midpoint(i), self._midpoint(j))
        if mj < mi:
            i, j = j, i
        u1 = self.edges[i][0]
        v2 = self.edges[j][1]
        s1 = self.subdivide(i)
        s2 = self.subdivide(j)
        if mi == mj:
            NUDGES[0] += 1
            rank = self.rank
            rank[s1] = _mid(rank[u1], rank[s1])
            rank[s2] = _mid(rank[s2], rank[v2])
        self.edges.append((s1, s2))


def _reference_build(rng, num_leaves, num_reticulations):
    b = _Builder()
    retics_left = num_reticulations
    if num_leaves == 1:
        for r in (0, 1, 2, 3, 4):
            b.add_vertex((r, 0))
        b.edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
        retics_left -= 2
    else:
        root = b.add_vertex((0, 0))
        for _ in range(2):
            b.edges.append((root, b.add_vertex((1, 0))))
        for _ in range(num_leaves - 2):
            b.attach_leaf(rng.randrange(len(b.edges)))
    for _ in range(retics_left):
        i = rng.randrange(len(b.edges))
        j = rng.randrange(len(b.edges) - 1)
        if j >= i:
            j += 1
        b.add_reticulation(i, j)
    kids, pars = _adjacency(len(b.rank), b.edges)
    labels = {}
    for v, ws in enumerate(kids):
        if not ws:
            labels[v] = f"x{len(labels) + 1}"
    return PhyloNetwork.from_lists(kids, pars, labels)


def reference_generate(spec: GenSpec) -> PhyloNetwork:
    """``generate`` for a feasible spec that is not the singleton."""
    for attempt in range(TEMPORAL_ATTEMPTS if spec.temporal_only else 1):
        stream_seed = (spec.seed ^ (attempt * 0xA5A5B5B5C5C5D5D5)) & _MASK64
        net = _reference_build(SplitMix64(stream_seed), spec.num_leaves, spec.num_reticulations)
        if not spec.temporal_only or is_temporal(net)[0]:
            return net
    raise AssertionError(f"no temporal network for {spec}")


def _same_network(spec: GenSpec) -> None:
    net, ref = generate(spec), reference_generate(spec)
    assert net.children == ref.children, spec
    assert net.parents == ref.parents, spec
    assert dict(net.leaf_labels) == dict(ref.leaf_labels), spec


def test_matches_the_reference_on_every_small_spec():
    NUDGES[0] = 0
    for leaves in range(1, 41):
        for retics in range(31):
            if leaves == 1 and retics < 2:  # the singleton, and the infeasible shape
                continue
            for seed in range(3):
                _same_network(GenSpec(leaves, retics, seed))
    # the equal-midpoint branch is among the steps compared
    assert NUDGES[0] == 983


@pytest.mark.parametrize("spec", [
    GenSpec(30, 8, 5, True), GenSpec(12, 4, 3, True), GenSpec(4, 3, 9, True),
    *(GenSpec(3, 2, seed, True) for seed in range(12)),
    GenSpec(3000, 2001, 1),
    # few leaves and many reticulations: a nudged rank decides later steps
    GenSpec(4, 70, 0), GenSpec(2, 190, 0),
], ids=str)
def test_matches_the_reference(spec):
    _same_network(spec)


def test_generation_peak_is_bounded():
    # the flat lists are dropped before the build: 1.85x, against 2.5x
    # when ranks and arcs were tuples kept through it
    assert peak_ratio(lambda: generate(GenSpec(3000, 2001, 1))) <= 2.1


@pytest.mark.parametrize("serialize, parse, bound", [
    (serialize_enewick, parse_enewick, 2.2),      # 2.04x; 2.43x keeping tokens and arcs
    (serialize_edgelist, parse_edgelist, 2.4),    # 2.17x; 2.79x keeping lines and arcs
], ids=["enewick", "edgelist"])
def test_reader_peak_is_bounded(serialize, parse, bound):
    text = serialize(generate(GenSpec(3000, 2001, 1)))
    assert peak_ratio(lambda: parse(text)) <= bound
