"""A network keeps its trail walk and its temporal test: every query on one
network object reads the same stored result, and answers what a freshly
parsed copy answers, whatever the order of the queries."""

import json
import sys

import pytest

from tbnet import (GenSpec, antichain_to_leaf, deviation_indices, generate,
                   has_antichain_to_leaf_property, is_temporal, is_tree_based, max_antichain,
                   parse_edgelist, parse_enewick, rooted_spanning_tree, serialize_edgelist,
                   serialize_enewick, tree_based_completion, vertex_disjoint_paths)
from tbnet.temporal import DEFAULT_EXHAUSTIVE_BOUND, _temporal_test
from tbnet.treebased import zigzag_trails

from conftest import FIXTURES, corpus, run_python

NETWORKS = corpus(60, max_leaves=6, max_retics=4, seed_base=47_000)
# Half eNewick, half edge lists, as the benchmark's corpus holds them.
TEXTS = [(parse_enewick, serialize_enewick(net)) if i % 2 else (parse_edgelist, serialize_edgelist(net))
         for i, net in enumerate(NETWORKS)]


def _property(net):
    temporal = is_temporal(net)[0]
    if not temporal and net.num_vertices > DEFAULT_EXHAUSTIVE_BOUND:
        return None
    return has_antichain_to_leaf_property(net, "temporal-shortcut" if temporal else "exhaustive")


def _completion(net):
    done = tree_based_completion(net)
    return done.network.edges, dict(done.network.leaf_labels), done.attached_edges, done.labels


# Every query the benchmark's corpus worker asks of each network.
QUERIES = (
    is_tree_based, deviation_indices, vertex_disjoint_paths, rooted_spanning_tree, _completion,
    lambda net: is_temporal(net), max_antichain, lambda net: antichain_to_leaf(net, net.leaves[:2]), _property,
)


@pytest.fixture
def kept(monkeypatch):
    """Every result the walk and the temporal test hand out, per network."""
    results = {}

    def recording(fn):
        def recorded(net):
            result = fn(net)
            results.setdefault((fn.__name__, id(net)), []).append(result)
            return result
        return recorded

    modules = [m for n, m in sys.modules.items() if n == "tbnet" or n.startswith("tbnet.")]
    modules.append(sys.modules[__name__])  # the queries above call is_temporal too
    for fn in (zigzag_trails, is_temporal):
        wrapped = recording(fn)
        for mod in modules:
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)
    return results


# A patch of the walk, as the fixture above and the traced benchmark make
# it, in a fresh interpreter, where no shortcut has run yet.
PATCH_AND_UNDO = """
import json, sys
import tbnet.antichains, tbnet.cli, tbnet.matching, tbnet.temporal, tbnet.treebased
from tbnet import has_antichain_to_leaf_property, parse_edgelist

original, calls = tbnet.treebased.zigzag_trails, []

def recorder(net):
    calls.append(net)
    return original(net)

saved = [mod for name, mod in sys.modules.items() if name.startswith("tbnet.")
         and getattr(mod, "zigzag_trails", None) is original]
for mod in saved:
    mod.zigzag_trails = recorder
net = parse_edgelist(open(sys.argv[1]).read())
holds = has_antichain_to_leaf_property(net, "temporal-shortcut")
for mod in saved:
    mod.zigzag_trails = original
left = sorted(f"{name}.{attr}" for name, mod in sys.modules.items() if name.startswith("tbnet")
              for attr, value in vars(mod).items() if value is recorder)
print(json.dumps([holds, len(calls), left]))
"""


def test_an_undone_patch_of_the_walk_leaves_nothing_behind():
    proc = run_python("-c", PATCH_AND_UNDO, str(FIXTURES / "temporal_nontb.edges"))
    assert proc.returncode == 0, proc.stderr
    holds, calls, left = json.loads(proc.stdout)
    assert (holds, calls) == (False, 1)
    assert left == []


@pytest.mark.parametrize("k", range(0, len(TEXTS), 2))
def test_interleaved_queries_read_one_stored_result(kept, k):
    (parse_a, text_a), (parse_b, text_b) = TEXTS[k], TEXTS[k + 1]
    a, b = parse_a(text_a), parse_b(text_b)
    answers = {id(a): [], id(b): []}
    for query in QUERIES:  # a and b take turns, so a store shared by the two fails
        for net in (a, b):
            answers[id(net)].append(query(net))
    for name in ("zigzag_trails", "is_temporal"):
        for net in (a, b):
            calls = kept[name, id(net)]
            assert len(calls) >= 1 and all(result is calls[0] for result in calls)
    for net in (a, b):
        succ, pred, fences = zigzag_trails(net)
        assert type(succ) is tuple and type(pred) is tuple and type(fences) is tuple
        assert is_temporal(net) == _temporal_test(net)
    for (parse, text), net in (((parse_a, text_a), a), ((parse_b, text_b), b)):
        fresh = parse(text)
        expected = [query(fresh) for query in reversed(QUERIES)][::-1]
        assert answers[id(net)] == expected


def test_a_network_built_for_a_query_walks_for_itself():
    # the completed network is a new object, with nothing kept from its input
    net = next(net for net in map(parse_edgelist, map(serialize_edgelist, NETWORKS))
               if deviation_indices(net).p)
    done = tree_based_completion(net).network
    assert done is not net and deviation_indices(done).p == 0
    assert zigzag_trails(done) is not zigzag_trails(net)


@pytest.mark.parametrize("write, read", [(None, None), (serialize_enewick, parse_enewick),
                                         (serialize_edgelist, parse_edgelist)],
                         ids=["generated", "enewick", "edgelist"])
def test_the_kept_walk_holds_no_id_of_its_own(write, read):
    # ids above 256 are not cached ints: a walk that stored an int it made
    # itself, say its loop variable, would keep a second object per trail
    net = generate(GenSpec(300, 201, seed=1))
    if read is not None:
        net = read(write(net))
    assert net.num_vertices >= 1000
    held = {id(v) for lists in (net.children, net.parents) for vs in lists for v in vs}
    succ, pred, fences = zigzag_trails(net)
    assert fences
    kept = [v for v in succ + pred if v != -1] + [v for fence in fences for v in fence]
    assert all(id(v) in held for v in kept)
