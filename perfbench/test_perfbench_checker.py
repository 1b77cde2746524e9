"""The benchmark's checker and generator, against tbnet and its fixtures.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
The broken certificates show that the checker cannot pass a wrong answer,
including the all-zero rank map on ``diamond`` that ``python -O`` lets
through tbnet's own ``assert``-based check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import inputs  # noqa: E402
from tbnet import cli, deviation_indices, is_temporal, parse_edgelist, parse_enewick  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
NAMES = ("diamond", "deviation_one", "killer", "temporal_nontb")
FILES = [f"{name}.{ext}" for name in NAMES for ext in ("nwk", "edges")]


def _fmt(path: str) -> str:
    return "enewick" if path.endswith(".nwk") else "edgelist"


def _answer(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([*argv, "--json"])
    return rc, json.loads(out.getvalue())["payload"]


def _facts(path: Path) -> tuple[checker.Graph, dict]:
    g = checker.parse(path.read_text(), _fmt(path.name))
    return g, {"p": checker.w_fences(g), "temporal": checker.is_temporal(g),
               "property": None, "set": sorted(g.labels.values())[:1]}


@pytest.mark.parametrize("name", FILES)
def test_parsers_number_vertices_like_the_cli(name):
    text = (FIXTURES / name).read_text()
    net = parse_enewick(text) if _fmt(name) == "enewick" else parse_edgelist(text)
    g = checker.parse(text, _fmt(name))
    assert g.n == net.num_vertices
    assert g.arcs == frozenset(net.edges)
    assert g.labels == dict(net.leaf_labels)
    assert checker.w_fences(g) == deviation_indices(net).p
    assert checker.is_temporal(g) == is_temporal(net)[0]


@pytest.mark.parametrize("name", FILES)
def test_cli_answers_on_fixtures_pass(name):
    path = FIXTURES / name
    g, expect = _facts(path)
    for command, argv in [("check", ["check"]), ("indices", ["indices"]),
                          ("paths", ["paths"]), ("spanning-tree", ["spanning-tree"]),
                          ("temporal", ["temporal"]), ("complete", ["complete"]),
                          ("antichain-max", ["antichain", "--max"]),
                          ("antichain-set", ["antichain", "--set", expect["set"][0]])]:
        rc, payload = _answer(*argv, str(path))
        checker.check_answer(command, g, rc, payload, expect)


def _broken(name: str, argv: list[str], command: str, spoil) -> None:
    path = FIXTURES / name
    g, expect = _facts(path)
    rc, payload = _answer(*argv, str(path))
    checker.check_answer(command, g, rc, payload, expect)
    bad = copy.deepcopy(payload)
    spoil(bad)
    with pytest.raises(checker.CheckError):
        checker.check_answer(command, g, rc, bad, expect)


def test_base_tree_missing_an_arc_is_rejected():
    _broken("diamond.edges", ["check"], "check",
            lambda p: p["certificate"]["edges"].pop())


def test_partition_repeating_a_vertex_is_rejected():
    def repeat(p):
        longest = max(p["paths"], key=len)
        shortest = min(p["paths"], key=len)
        shortest.append(longest[0])
    _broken("killer.edges", ["paths"], "paths", repeat)


def test_all_zero_rank_map_is_rejected():
    _broken("diamond.nwk", ["temporal"], "temporal",
            lambda p: p.update(ranks=[0] * len(p["ranks"])))


def test_wrong_verdicts_and_witnesses_are_rejected():
    _broken("deviation_one.edges", ["check"], "check",
            lambda p: p["certificate"]["u1"].pop())
    _broken("killer.edges", ["antichain", "--max"], "antichain-max",
            lambda p: p["antichain"].append(0))
    _broken("deviation_one.nwk", ["complete"], "complete",
            lambda p: p.update(network="((x,attached_1),(y,z));"))
    g, expect = _facts(FIXTURES / "diamond.edges")
    rc, payload = _answer("indices", str(FIXTURES / "diamond.edges"))
    with pytest.raises(checker.CheckError):
        checker.check_answer("indices", g, rc, payload, dict(expect, p=1))
    with pytest.raises(checker.CheckError):
        checker.check_answer("check", g, 1, _answer("check", str(FIXTURES / "diamond.edges"))[1],
                             expect)


@pytest.mark.parametrize("seed", range(6))
def test_constructions_have_the_promised_deviation(seed):
    rng = inputs.Rng(seed)
    cases = [
        (inputs.tree_based_network(rng, 9, 7), 0, None),
        (inputs.temporal_network(rng, 12, 2, 3), 2, True),
        (inputs.random_network(rng, 8, 6), None, None),
    ]
    for net, p, temporal in cases:
        for text, parse in ((inputs.to_enewick(net), parse_enewick),
                            (inputs.to_edgelist(net), parse_edgelist)):
            tb = parse(text)
            assert tb.num_vertices == net.num_vertices == 2 * net.leaves + 2 * net.reticulations - 1
            want = deviation_indices(tb).p
            assert checker.w_fences(checker.Graph.build(net.num_vertices, net.arcs, net.labels)) == want
            assert p is None or want == p
            assert temporal is None or is_temporal(tb)[0] == temporal


def test_generator_is_deterministic_per_seed():
    def text(seed):
        return inputs.to_enewick(inputs.random_network(inputs.Rng(seed), 50, 30))
    assert text(3) == text(3) != text(4)
