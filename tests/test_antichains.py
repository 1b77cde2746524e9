import functools
import hashlib
import time
from itertools import islice
from pathlib import Path

import pytest

import tbnet.antichains as antichains
from tbnet import (
    BipartiteGraph,
    GenerationError,
    GenSpec,
    PhyloNetwork,
    TemporalMap,
    antichain_to_leaf,
    deviation_indices,
    export_dot,
    generate,
    has_antichain_to_leaf_property,
    is_antichain,
    is_temporal,
    is_tree_based,
    max_antichain,
    max_matching,
    maximal_antichains,
    parse_edgelist,
    parse_enewick,
    rooted_spanning_tree,
    route_to_leaves,
    separates,
    serialize_enewick,
    temporal_violating_antichain,
    temporal_violation,
    verify_temporal_map,
    vertex_disjoint_paths,
)
from tbnet.generate import TEMPORAL_ATTEMPTS
from tbnet.temporal import _temporal_test
from tbnet.treebased import zigzag_trails
from tbnet.oracles import (
    _iter_antichains,
    _reach_sets,
    oracle_antichain_to_leaf_property,
    oracle_max_antichain,
    oracle_temporal,
)

from conftest import (FIXTURES, corpus, corpus_shapes, ladder, load_fixture, reaches_a_leaf,
                      run_python)


def test_is_antichain_basics(killer):
    x, y, z = (killer.vertex_by_label(lab) for lab in ("x", "y", "z"))
    assert is_antichain(killer, (x, y, z))
    assert is_antichain(killer, (x,))
    assert not is_antichain(killer, (killer.root, x))
    with pytest.raises(ValueError):
        is_antichain(killer, (killer.num_vertices,))
    # caller ids go through operator.index, as PhyloNetwork's do: a bool
    # comes back a plain int, and a float is refused, not looked up
    net = parse_enewick("((a,(b)#H1),(#H1,c));")
    for paths in (route_to_leaves(net, [True])[0], antichain_to_leaf(net, [True])[1].paths):
        assert paths == ((1,),) and type(paths[0][0]) is int
    assert is_antichain(net, [True, 0, 1]) and not separates(net, [True, 0], [False])
    for call in (lambda: is_antichain(net, [1.0]), lambda: separates(net, [1.0, 2], [0]),
                 lambda: separates(net, [1, 2], [0.0]), lambda: route_to_leaves(net, [1.0]),
                 lambda: PhyloNetwork([(0, 1.0), (0, 2)], {1: "a", 2: "b"})):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        separates(net, [1, 2], [-1])


def test_is_antichain_matches_oracle():
    for net in corpus(60, max_leaves=5, max_retics=4, seed_base=23_000):
        reach = _reach_sets(net)
        n = net.num_vertices
        for u in range(n):
            for v in range(u + 1, n):
                apart = v not in reach[u] and u not in reach[v]
                assert is_antichain(net, (u, v)) == apart
        for antichain in _iter_antichains(net):
            assert is_antichain(net, antichain)


def test_max_antichain_killer(killer):
    antichain, chains = max_antichain(killer)
    assert len(antichain) == 3
    assert is_antichain(killer, antichain)
    assert len(chains) == 3
    covered = sorted(v for c in chains for v in c)
    assert covered == list(range(killer.num_vertices))


def test_max_antichain_tree_equals_leaf_count():
    net = generate(GenSpec(6, 0, seed=4))
    antichain, chains = max_antichain(net)
    assert len(antichain) == 6 == len(chains)


def test_max_antichain_singleton():
    single = PhyloNetwork((), {0: "u"}, 1)
    antichain, chains = max_antichain(single)
    assert antichain == (0,) and chains == ((0,),)


def assert_chain_partition(net, chains, reach):
    assert sorted(v for c in chains for v in c) == list(range(net.num_vertices))
    for chain in chains:
        assert all(b in reach[a] for a, b in zip(chain, chain[1:]))
    assert [c[0] for c in chains] == sorted(c[0] for c in chains)


def test_max_antichain_matches_oracle():
    for net in corpus(300, seed_base=8000, max_vertices=16):
        antichain, chains = max_antichain(net)
        assert is_antichain(net, antichain)
        assert len(antichain) == len(chains) == oracle_max_antichain(net)
        assert_chain_partition(net, chains, _reach_sets(net))
        width = len(antichain)
        assert len(net.leaves) <= width <= len(net.leaves) + deviation_indices(net).p


@pytest.mark.parametrize("leaves, retics, seed", [(100, 60, 1), (300, 200, 2)])
def test_max_antichain_matches_the_closure_matching(leaves, retics, seed):
    # beyond any oracle: Dilworth through Hopcroft-Karp on the transitive
    # closure, which leaves n - |M| chains
    net = generate(GenSpec(leaves, retics, seed=seed))
    reach = _reach_sets(net)
    n = net.num_vertices
    ids = tuple(range(n))
    closure = BipartiteGraph(ids, ids, tuple(tuple(sorted(r)) for r in reach))
    antichain, chains = max_antichain(net)
    assert n - max_matching(closure).size == len(antichain)
    assert is_antichain(net, antichain)
    assert_chain_partition(net, chains, reach)


def test_antichain_to_leaf_on_leaves_is_trivial(killer):
    leaves = killer.leaves
    routed, witness = antichain_to_leaf(killer, leaves)
    assert routed
    assert sorted(p[0] for p in witness.paths) == sorted(leaves)
    assert all(len(p) == 1 for p in witness.paths)


def test_antichain_to_leaf_witness_shape(killer):
    antichain, _ = max_antichain(killer)
    routed, witness = antichain_to_leaf(killer, antichain)
    assert routed
    starts = sorted(p[0] for p in witness.paths)
    assert starts == sorted(antichain)
    seen = set()
    edge_set = set(killer.edges)
    for path in witness.paths:
        assert killer.out_degree[path[-1]] == 0
        for v in path:
            assert v not in seen
            seen.add(v)
        for u, v in zip(path, path[1:]):
            assert (u, v) in edge_set


def test_antichain_to_leaf_rejects_non_antichain(killer):
    with pytest.raises(ValueError):
        antichain_to_leaf(killer, (killer.root, killer.leaves[0]))


def test_maximal_antichains_complete_and_maximal(killer):
    found = sorted(maximal_antichains(killer))
    # cross-check against filtering the full antichain enumeration
    all_chains = [a for a in _iter_antichains(killer) if a]
    as_sets = [set(a) for a in all_chains]
    expected = sorted(
        a for a in all_chains
        if not any(set(a) < other for other in as_sets)
    )
    assert found == expected


def test_property_modes_and_oracle():
    for net in corpus(90, seed_base=10_000, max_vertices=14):
        if net.num_vertices == 1:
            continue
        fast = has_antichain_to_leaf_property(net)
        assert fast == oracle_antichain_to_leaf_property(net)
        temporal, _ = is_temporal(net)
        if temporal:
            assert fast == has_antichain_to_leaf_property(net, mode="temporal-shortcut")


def test_property_killer_holds_but_not_tree_based(killer):
    assert has_antichain_to_leaf_property(killer)
    assert not is_tree_based(killer)[0]


def test_property_mode_errors(killer):
    with pytest.raises(ValueError):
        has_antichain_to_leaf_property(killer, mode="temporal-shortcut")
    with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
        has_antichain_to_leaf_property(killer, mode="bogus")
    big = generate(GenSpec(8, 4, seed=3))  # 23 vertices
    with pytest.raises(ValueError, match=r"^exhaustive antichain check limited to 18 vertices \(got 23\)$"):
        has_antichain_to_leaf_property(big)


@pytest.mark.parametrize("faulty, why", [
    (lambda net: (net.root, net.leaves[0]), "input vertex set is not an antichain"),
    (lambda net: (net.leaves[0], net.num_vertices), "vertex 7 out of range"),
], ids=["comparable", "out-of-range"])
def test_the_route_still_checks_antichains_the_path_tails_route(diamond, monkeypatch, faulty, why):
    # the diamond is tree-based, so every path of the walk's partition ends
    # at a leaf and the root and a leaf both lie on one: only the antichain
    # check stands between a faulty enumeration and a "holds"
    assert is_tree_based(diamond)[0] and diamond.num_vertices == 7
    monkeypatch.setattr(antichains, "maximal_antichains", lambda net: iter([faulty(net)]))
    with pytest.raises(RuntimeError, match=rf"^the exhaustive route refused its own antichain: {why}$"):
        has_antichain_to_leaf_property(diamond)


def test_the_path_tails_never_replace_a_verdict(monkeypatch):
    # every antichain the route passes without a flow is one the flow
    # routes too, and the verdicts are the oracle's
    enumerate_all, route = antichains.maximal_antichains, antichains.route_to_leaves
    yielded, flowed = [], []

    def spy_enumerate(net):
        for antichain in enumerate_all(net):
            yielded.append(antichain)
            yield antichain

    def spy_route(net, members):
        flowed.append(tuple(members))
        return route(net, members)

    monkeypatch.setattr(antichains, "maximal_antichains", spy_enumerate)
    monkeypatch.setattr(antichains, "route_to_leaves", spy_route)
    certified = flows = deviating = 0
    for net in corpus(400, seed_base=20_000, max_vertices=14):
        if net.num_vertices == 1:
            continue
        yielded.clear()
        flowed.clear()
        assert has_antichain_to_leaf_property(net) == oracle_antichain_to_leaf_property(net), net.edges
        passed = set(yielded).difference(flowed)
        for antichain in passed:
            assert route(net, antichain)[0] is not None, (net.edges, antichain)
        certified += len(passed)
        flows += len(flowed)
        deviating += deviation_indices(net).p > 0
    assert certified and flows and deviating >= 30, (certified, flows, deviating)


def test_tree_based_implies_property():
    for net in corpus(70, seed_base=11_000, max_vertices=14):
        if net.num_vertices == 1:
            continue
        if is_tree_based(net)[0]:
            assert has_antichain_to_leaf_property(net)


def test_is_temporal_examples(diamond, killer, temporal_nontb):
    ok, tmap = is_temporal(diamond)
    assert ok
    verify_temporal_map(diamond, tmap)
    assert not is_temporal(killer)[0]
    ok, tmap = is_temporal(temporal_nontb)
    assert ok
    verify_temporal_map(temporal_nontb, tmap)


def test_bad_temporal_map_rejected_under_optimisation():
    # python -O strips assert statements; the check must not rely on them
    script = (
        "import sys\n"
        "from tbnet import TemporalMap, parse_edgelist, verify_temporal_map\n"
        "net = parse_edgelist(open(sys.argv[1]).read())\n"
        "try:\n"
        "    verify_temporal_map(net, TemporalMap((0,) * net.num_vertices))\n"
        "except ValueError:\n"
        "    sys.exit(3)\n"
    )
    proc = run_python("-O", "-c", script, str(FIXTURES / "diamond.edges"))
    assert proc.returncode == 3, proc.stderr


def test_a_map_without_one_rank_per_vertex_is_rejected(diamond):
    ok, tmap = is_temporal(diamond)
    assert ok and diamond.num_vertices == 7
    for ranks in ((0,), tmap.ranks + (0,)):  # short, and valid plus one rank
        with pytest.raises(ValueError, match=f"^{len(ranks)} ranks for 7 vertices$"):
            verify_temporal_map(diamond, TemporalMap(ranks))


def test_nested_reticulation_parent_not_temporal():
    # one parent of the reticulation is a tree-edge ancestor of the other:
    # the level map would need lambda(1) = lambda(3) = lambda(4) yet
    # lambda(1) < lambda(4) along the tree edge (1, 4)
    net = PhyloNetwork(
        ((0, 1), (0, 2), (1, 3), (1, 4), (4, 3), (4, 5), (3, 6)),
        {2: "z", 5: "x", 6: "y"},
        7,
    )
    assert not is_temporal(net)[0]


@pytest.mark.parametrize("leaves, retics, seed, want", [
    (500, 30, 1, "0789c90ac7e642f97a2d85018fc93bc72e359532c162edec93cc7daf39eab243"),
    (500, 30, 2, "b44400bc4dd37424d01eb19651aa96d1c2fd003aca1587612852e21c3baace05"),
    (1000, 40, 1, "a01996e7653cb8a655aa19b49bcbc3837450c31aaa06f462ea82b1d6d469dbfd"),
    (1000, 40, 3, "79ac94d4ae1a2682db65673ececda6ec16841f1d2a6956bc9302c86d0cc20932"),
    (2000, 50, 1, "da438daacac36711ce79184aee587653818b8a1e1bc1a5ddbfda09516d2477a6"),
])
def test_temporal_ranks_are_pinned(leaves, retics, seed, want):
    # the longest-path levels of the contracted DAG are unique: 1059 to 4099
    # vertices, beyond what the oracle comparison reaches
    ok, tmap = is_temporal(generate(GenSpec(leaves, retics, seed, temporal_only=True)))
    assert ok and hashlib.sha256(repr(tmap.ranks).encode()).hexdigest() == want


def test_answers_ignore_arc_order():
    # the same network built from its arc list reversed: same ids and labels,
    # so every answer and certificate must be the same
    checked = 0
    for net in corpus(400, max_leaves=6, max_retics=4, seed_base=91_000):
        if net.num_vertices > 18:
            continue
        rev = PhyloNetwork(tuple(reversed(net.edges)), net.leaf_labels, net.num_vertices)
        assert rev.edges == net.edges and export_dot(rev) == export_dot(net)
        for antichain in maximal_antichains(net):
            assert antichain_to_leaf(rev, antichain) == antichain_to_leaf(net, antichain)
            checked += 1
        for query in (is_temporal, max_antichain, is_tree_based, vertex_disjoint_paths,
                      rooted_spanning_tree):
            assert query(rev) == query(net), query.__name__
    assert checked > 4000


def test_temporal_matches_oracle():
    # the last network is a 15-vertex "no" near the oracle's size bound,
    # where a search over time assignments is exponential; the oracle must
    # answer every case at once
    for net in corpus(120, seed_base=12_000, max_vertices=14) + [generate(GenSpec(6, 2, seed=1))]:
        if net.num_vertices == 1:
            continue
        fast, tmap = is_temporal(net)
        started = time.perf_counter()
        assert fast == oracle_temporal(net)
        assert time.perf_counter() - started < 1.0
        if fast:
            verify_temporal_map(net, tmap)


def test_temporal_violating_antichain(temporal_nontb):
    violating = temporal_violating_antichain(temporal_nontb)
    assert is_antichain(temporal_nontb, violating)
    routed, _ = antichain_to_leaf(temporal_nontb, violating)
    assert not routed
    # q1, q2 are the two reticulations feeding r (ids 3 and 4 by file order)
    assert violating == (3, 4)


def test_temporal_violating_antichain_preconditions(diamond, killer):
    with pytest.raises(ValueError):
        temporal_violating_antichain(diamond)   # tree-based
    with pytest.raises(ValueError):
        temporal_violating_antichain(killer)  # not temporal


@pytest.mark.parametrize("k", range(1, 31))
def test_a_ladder_violates_with_all_its_tails(k):
    # one W-fence with k + 1 tails, longer than any corpus network's
    net, tails = ladder(k)
    assert net.num_vertices == 4 * k + 11
    assert is_temporal(net)[0]
    assert deviation_indices(net).p == 1
    based, witness = is_tree_based(net)
    assert not based
    assert witness.u1 == tails and len(witness.rr_path) == 2 * k - 1
    assert temporal_violating_antichain(net) == tails


def test_temporal_violating_antichain_on_corpus():
    found = 0
    for net in corpus(400, max_leaves=4, max_retics=5, seed_base=13_000,
                      temporal_only=True, max_vertices=16):
        if deviation_indices(net).p == 0:
            continue
        found += 1
        violating = temporal_violating_antichain(net)
        assert is_antichain(net, violating)
        routed, _ = antichain_to_leaf(net, violating)
        assert not routed
        if found >= 40:
            break
    assert found >= 40


def reference_temporal_test(net):
    """The earlier ``_temporal_test``: a union-find over the reticulation
    arcs, one ``find`` per vertex, and one successor list per vertex."""
    n, parents, in_degree = net.num_vertices, net.parents, net.in_degree
    group = list(range(n))

    def find(v: int) -> int:
        while group[v] != v:
            group[v] = group[group[v]]
            v = group[v]
        return v

    for v in net.reticulations:
        for u in parents[v]:
            ru, rv = find(u), find(v)
            if ru != rv:
                group[ru] = rv
    root = [find(v) for v in range(n)]
    # The tree edges between groups, indexed by group root, with repeats.
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for v in range(n):
        if in_degree[v] == 1:
            g, h = root[parents[v][0]], root[v]
            if g == h:
                return False, None
            succ[g].append(h)
            indeg[h] += 1

    level = [0] * n
    stack = [g for g in range(n) if root[g] == g and not indeg[g]]
    while stack:  # Kahn's algorithm: a group is popped after its predecessors
        g = stack.pop()
        for h in succ[g]:
            if level[h] <= level[g]:
                level[h] = level[g] + 1
            indeg[h] -= 1
            if not indeg[h]:
                stack.append(h)
    if any(indeg):  # a group on or below a cycle was never popped
        return False, None

    tm = TemporalMap(tuple([level[g] for g in root]))
    verify_temporal_map(net, tm)
    return True, tm


# The temporal corpus is what ``corpus(19_500, max_leaves=5, max_retics=5,
# seed_base=70_000, temporal_only=True)`` builds by rejection sampling, about
# 18 s.  The record holds, per seed in corpus order, the attempt that
# ``generate`` accepted, or "-" where it gave up; the pin is the SHA-256 of
# the corpus's eNewick texts, one per line, as rejection sampling built them.
TEMPORAL_RECORD = Path(__file__).with_name("temporal_corpus.txt")
TEMPORAL_CORPUS_SHA256 = "06fd65812c0acf02308748d2bcc98f3fa96ba59608bac9e8d6d5428aea8c1b29"
TEMPORAL_SEED_BASE = 70_000
TEMPORAL_SHAPES = corpus_shapes(5, 5)


def _temporal_record() -> list[int | None]:
    """The accepted attempt of each seed, None where ``generate`` gave up."""
    return [None if line == "-" else int(line)
            for line in TEMPORAL_RECORD.read_text().splitlines() if not line.startswith("#")]


def _attempt_spec(i: int, attempt: int) -> GenSpec:
    """The spec that builds attempt ``attempt`` of entry ``i`` with no
    rejection: ``generate`` draws attempt a of seed s from s ^ a * K."""
    seed = (TEMPORAL_SEED_BASE + i) ^ attempt * 0xA5A5B5B5C5C5D5D5
    return GenSpec(*TEMPORAL_SHAPES[i % len(TEMPORAL_SHAPES)], seed=seed & (2**64 - 1))


@functools.cache
def _temporal_corpus():
    """Temporal networks of up to 5 leaves and 5 reticulations, about a
    third of them not tree-based, rebuilt from the record with one
    ``generate`` each, under a second, and shared by the tests below.
    None needs a fresh network: one decides with ``_temporal_test``,
    which keeps nothing, and the others only add the walk and the
    temporal answer a network keeps."""
    return tuple(generate(_attempt_spec(i, attempt))
                 for i, attempt in enumerate(_temporal_record()) if attempt is not None)


def test_the_temporal_corpus_is_the_one_rejection_sampling_built():
    record, nets = _temporal_record(), _temporal_corpus()
    assert (len(record), record.count(None), len(nets)) == (21_762, 2_262, 19_500)
    text = "\n".join(map(serialize_enewick, nets))
    assert hashlib.sha256(text.encode()).hexdigest() == TEMPORAL_CORPUS_SHA256
    assert all(is_temporal(net)[0] for net in nets)


def test_the_temporal_record_matches_rejection_sampling():
    # every 64th entry, re-derived by a rejection loop of its own and
    # checked against what generate builds, or its refusal on a skip
    record, skips = _temporal_record(), 0
    for i in range(0, len(record), 64):
        spec = GenSpec(*TEMPORAL_SHAPES[i % len(TEMPORAL_SHAPES)], TEMPORAL_SEED_BASE + i, True)
        attempt = next((a for a in range(TEMPORAL_ATTEMPTS)
                        if is_temporal(generate(_attempt_spec(i, a)))[0]), None)
        assert attempt == record[i], i
        if attempt is None:
            skips += 1
            with pytest.raises(GenerationError):
                generate(spec)
        else:
            rebuilt = generate(_attempt_spec(i, attempt))
            assert serialize_enewick(generate(spec)) == serialize_enewick(rebuilt), i
    assert skips >= 2


def _no_exit(net):
    """Which "no" a network that is not temporal takes, found without the
    test: a tree arc inside one component of reticulation arcs, or else a
    cycle between components."""
    n, parents = net.num_vertices, net.parents
    nbrs = [[] for _ in range(n)]
    for r in net.reticulations:
        for u in parents[r]:
            nbrs[u].append(r)
            nbrs[r].append(u)
    comp = [-1] * n
    for s in range(n):
        if comp[s] < 0:
            comp[s], todo = s, [s]
            for x in todo:
                for y in nbrs[x]:
                    if comp[y] < 0:
                        comp[y] = s
                        todo.append(y)
    if any(net.in_degree[v] == 1 and comp[parents[v][0]] == comp[v] for v in range(n)):
        return "tree arc inside a group"
    return "cycle between groups"


def _temporal_sample():
    yield from corpus(400)
    yield from _temporal_corpus()
    for k in range(1, 31):
        yield ladder(k)[0]
    for path in sorted(FIXTURES.iterdir()):
        yield (parse_enewick if path.suffix == ".nwk" else parse_edgelist)(path.read_text())
    for leaves in range(1, 14):
        for retics in range(14):
            if (leaves, retics) != (1, 1):
                for seed in range(4):
                    yield generate(GenSpec(leaves, retics, seed=seed))
    yield generate(GenSpec(3000, 2001, 1))


def test_the_temporal_test_matches_the_reference():
    exits = set()
    for net in _temporal_sample():
        answer = _temporal_test(net)
        assert answer == reference_temporal_test(net), net.edges
        if not answer[0]:
            exits.add(_no_exit(net))
    assert exits == {"tree arc inside a group", "cycle between groups"}


def reference_violating_antichain(net):
    """The earlier ``temporal_violating_antichain``, which checked its
    answer with :func:`antichain_to_leaf`, one flow search per member."""
    if not is_temporal(net)[0]:
        raise ValueError("network is not temporal")
    based, witness = is_tree_based(net)
    if based:
        raise ValueError("network is tree-based; no violating antichain exists")
    u_set = witness.u1
    below = set()
    stack = list(witness.u2)
    while stack:
        v = stack.pop()
        if v not in below:
            below.add(v)
            stack.extend(net.children[v])
    drop = {v for v in (u_set[0], u_set[-1]) if v in below}
    result = tuple(sorted(v for v in u_set if v not in drop))
    if not is_antichain(net, result):
        raise RuntimeError("comparable pair with no reticulation route")
    if antichain_to_leaf(net, result)[0]:
        raise RuntimeError("constructed antichain unexpectedly reaches leaves disjointly")
    return result


# End tails that are heads too: the one W-fence is 6, 2, 5, 6, 1, 3, 2, both
# end tails are dropped, and a separator that left them unmarked would fail.
DROPPED_HEAD = PhyloNetwork([(0, 1), (0, 5), (1, 3), (1, 6), (2, 3), (3, 4), (5, 2), (5, 6),
                             (6, 2)], {4: "x"})


def _violations():
    yield from (ladder(k)[0] for k in range(1, 31))
    yield DROPPED_HEAD
    yield from (net for net in _temporal_corpus() if zigzag_trails(net)[2])


def test_the_violation_keeps_its_antichain_and_its_separator_holds():
    found = dropped = 0
    for net in _violations():
        antichain, separator = temporal_violation(net)
        assert antichain == reference_violating_antichain(net), net.edges
        assert temporal_violating_antichain(net) == antichain
        assert separates(net, antichain, separator), net.edges
        assert not reaches_a_leaf(net, antichain, separator)
        found += 1
        dropped += len(antichain) < len(is_tree_based(net)[1].u1)
    assert found >= 31 + 7000 and dropped >= 4000  # the ladders and DROPPED_HEAD, then the corpus


# Fences no walk gives: the first W-fence cut short at either end, a lone
# tail, and reversed minus one vertex.
BOGUS_FENCES = {
    "cut short at the start": lambda fence: fence[1:],
    "cut short at the end": lambda fence: fence[:-1],
    "a lone tail": lambda fence: fence[:1],
    "reversed minus one vertex": lambda fence: fence[-2::-1],
}


@pytest.mark.parametrize("bogus", BOGUS_FENCES)
def test_the_violation_trusts_no_fence(bogus):
    # temporal_violation reads the walk's first fence unchecked, so a bogus
    # one must end in RuntimeError.  On the fixture every one does.  On a
    # corpus network a bogus fence may still name a violating antichain;
    # a pair returned there must pass checks that share no code with
    # is_antichain or separates.
    nets = [load_fixture("temporal_nontb")]  # fresh: each gets a bogus walk
    nets += [net for net in (generate(_attempt_spec(i, attempt))
                             for i, attempt in enumerate(_temporal_record()[:60])
                             if attempt is not None) if zigzag_trails(net)[2]]
    refused = 0
    for net in nets:
        succ, pred, fences = zigzag_trails(net)
        net._trails = succ, pred, (BOGUS_FENCES[bogus](fences[0]),) + fences[1:]
        try:
            antichain, separator = temporal_violation(net)
        except RuntimeError as exc:
            refused += 1
            if net is nets[0]:
                assert str(exc) == "the heads left do not cut the antichain off the leaves"
            continue
        assert net is not nets[0], "a bogus fence on the fixture gave a pair"
        reach = _reach_sets(net)
        assert not any(reach[v] & set(antichain) for v in antichain), net.edges
        assert len(separator) < len(antichain) and not reaches_a_leaf(net, antichain, separator)
    assert len(nets) >= 8 and refused >= len(nets) - 1


def test_the_separator_check_refuses_mutants():
    opened = 0
    for net in islice(_violations(), 600):
        antichain, separator = temporal_violation(net)
        others = [v for v in range(net.num_vertices) if v not in separator]
        grown = separator + tuple(others[:len(antichain) - len(separator)])
        assert len(grown) == len(antichain) and not separates(net, antichain, grown)
        assert not separates(net, antichain, ())
        for i in range(len(separator)):
            smaller = separator[:i] + separator[i + 1:]
            if reaches_a_leaf(net, antichain, smaller):
                opened += 1
                assert not separates(net, antichain, smaller)
    assert opened >= 600
    with pytest.raises(ValueError):
        separates(DROPPED_HEAD, (1, 2), (7,))


@pytest.mark.parametrize("route", [
    temporal_violating_antichain,
    lambda net: has_antichain_to_leaf_property(net, "temporal-shortcut"),
], ids=["temporal_violating_antichain", "temporal-shortcut"])
def test_the_violating_antichain_scales_linearly(route, request, capsys):
    # one W-fence of k + 1 tails: one flow search per tail made the
    # violating antichain ~75x for 10x the vertices; the linear routes give
    # ~10x.  The property's temporal route is the one --check-property
    # takes on a temporal network, and generated networks are not temporal.
    def best(k: int) -> float:
        runs = []
        for _ in range(3):
            net = ladder(k)[0]  # fresh: a network keeps its walk and its temporal test
            start = time.perf_counter()
            route(net)
            runs.append(time.perf_counter() - start)
        return min(runs)

    small, big = best(300), best(3000)
    assert big < 30.0 * small
    with capsys.disabled():
        print(f"\n[{request.node.callspec.id}] ladder(300): {small * 1e3:.1f} ms, "
              f"ladder(3000): {big * 1e3:.1f} ms, ratio {big / small:.1f}x")


def test_routing_every_leaf_scales_linearly(capsys):
    # every leaf as the set: one flow search per member made this ~100x for
    # 10x the vertices; seeding each leaf's own path gives ~10x
    def best(leaves: int, retics: int) -> float:
        net = generate(GenSpec(leaves, retics, 1))
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            routed, _ = antichain_to_leaf(net, net.leaves)
            runs.append(time.perf_counter() - start)
            assert routed
        return min(runs)

    small, big = best(300, 201), best(3000, 2001)
    assert big < 30.0 * small
    with capsys.disabled():
        print(f"\n[antichain_to_leaf] every leaf, 10^3: {small * 1e3:.2f} ms, "
              f"10^4: {big * 1e3:.2f} ms, ratio {big / small:.1f}x")
