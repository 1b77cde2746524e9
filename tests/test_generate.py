import hashlib
import tracemalloc

import pytest

from tbnet import GenSpec, GenerationError, generate, is_temporal, serialize_enewick
from tbnet.generate import MAX_VERTICES


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
