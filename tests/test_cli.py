"""End-to-end command tests, run in process through ``main(argv)``."""

import functools
import gc
import importlib
import io
import json
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import event, example, given, settings, strategies as st

from tbnet import (InvalidNetworkError, PhyloNetwork, is_tree_based, parse_enewick, parse_edgelist,
                   separates)
from tbnet import network, treebased
from tbnet.cli import SUBCOMMANDS, _build_parser, _json_text, _read_argv, main, process_main
from tbnet.treebased import zigzag_trails

from conftest import FIXTURES, run_python

SCHEMA = json.loads(
    resources.files("tbnet").joinpath("report.schema.json").read_text())


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope, err


def test_check_tree_based(capsys):
    code, env, _ = run_json(capsys, "check", fixture_path("diamond.edges"))
    assert code == 0
    assert env["tool"] == "tbnet" and env["command"] == "check"
    payload = env["payload"]
    assert payload["tree_based"] is True
    assert payload["certificate"]["kind"] == "base_tree"
    assert len(payload["certificate"]["edges"]) == payload["num_vertices"] - 1


def test_check_not_tree_based(capsys):
    code, env, _ = run_json(capsys, "check", fixture_path("deviation_one.edges"))
    assert code == 1
    cert = env["payload"]["certificate"]
    assert cert["kind"] == "rr_path"
    assert len(cert["u1"]) == len(cert["u2"]) + 1


@pytest.mark.parametrize("name, witness", [
    ("deviation_one.edges", {"rr_path": [4, 3, 5], "u1": [2, 3, 4], "u2": [4, 5]}),
    ("deviation_one.nwk", {"rr_path": [1, 4, 2], "u1": [2, 4, 3], "u2": [1, 2]}),
    ("killer.edges", {"rr_path": [6, 5, 7], "u1": [3, 5, 4], "u2": [6, 7]}),
    ("killer.nwk", {"rr_path": [4, 10, 7], "u1": [5, 10, 8], "u2": [4, 7]}),
])
def test_check_witness_is_pinned(capsys, name, witness):
    code, env, _ = run_json(capsys, "check", fixture_path(name))
    assert code == 1
    assert env["payload"]["certificate"] == {"kind": "rr_path", **witness}


@pytest.mark.parametrize("via_stdin", [False, True])
def test_non_utf8_input_is_an_input_error(tmp_path, via_stdin):
    data = b"\xff\xfe(a,b);"
    bad = tmp_path / "bad.nwk"
    bad.write_bytes(data)
    proc = run_python("-m", "tbnet.cli", "check", "-" if via_stdin else str(bad),
                      stdin=data if via_stdin else None)
    assert proc.returncode == 2
    assert proc.stdout == b""
    name = "stdin" if via_stdin else str(bad)
    assert proc.stderr.decode() == f"error: input is not UTF-8 text: {name}\n"


def test_internal_error_is_exit_3_not_a_no():
    # a completion that is not tree-based must fail the self-check, under -O too
    script = (
        "import sys\n"
        "import tbnet.cli as cli\n"
        "import tbnet.treebased as treebased\n"
        "treebased.tree_based_completion = lambda net: treebased.CompletionResult(net, (), ())\n"
        "sys.exit(cli.main(['complete', sys.argv[1]]))\n"
    )
    proc = run_python("-O", "-c", script, fixture_path("deviation_one.edges"))
    assert proc.returncode == 3, proc.stderr
    assert b"Traceback" in proc.stderr
    assert b"internal error:" in proc.stderr


def test_a_fault_in_the_exhaustive_route_is_exit_3_not_an_input_error():
    # the route's own antichains are antichains by construction: one that is
    # not is an internal fault, not a refused input
    script = (
        "import sys\n"
        "import tbnet.antichains as antichains\n"
        "import tbnet.cli as cli\n"
        "antichains.maximal_antichains = lambda net: iter([(net.root, net.leaves[0])])\n"
        "sys.exit(cli.main(['antichain', '--check-property', sys.argv[1]]))\n"
    )
    proc = run_python("-O", "-c", script, fixture_path("killer.edges"))
    assert proc.returncode == 3, proc.stderr
    assert b"internal error:" in proc.stderr
    assert b"RuntimeError: the exhaustive route refused its own antichain" in proc.stderr


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", [0, 1, 2, 3])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled, outcome):
    # the collector is off while the query runs, and the caller's setting
    # comes back on every exit; only the process entry point freezes the heap
    during = []

    def spy(net):
        during.append(gc.isenabled())
        if outcome == 3:
            raise RuntimeError("boom")
        return is_tree_based(net)

    monkeypatch.setattr(treebased, "is_tree_based", spy)
    path = {1: fixture_path("deviation_one.edges"),
            2: "/no/such/file.nwk"}.get(outcome, fixture_path("diamond.edges"))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run(capsys, "check", path)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was else gc.disable)()
    assert code == outcome
    assert during == ([] if outcome == 2 else [False])


QUERIES = [("check",), ("indices",), ("paths",), ("spanning-tree",), ("temporal",),
           ("complete",), ("antichain", "--max"), ("antichain", "--set", "0"),
           ("antichain", "--check-property")]


@pytest.mark.parametrize("query", QUERIES, ids=" ".join)
@pytest.mark.parametrize("name", ["diamond", "deviation_one", "killer", "temporal_nontb"])
@pytest.mark.parametrize("ext", [".edges", ".nwk"])
def test_each_query_builds_and_derives_once(capsys, monkeypatch, query, name, ext):
    counts = {"build": 0, "walk": 0, "is_temporal": 0, "topological_order": 0, "label_index": 0}

    def counting(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # the construction core, which the arc front end and every producer call
    monkeypatch.setattr(PhyloNetwork, "_build", counting("build", PhyloNetwork._build))
    monkeypatch.setattr(PhyloNetwork, "topological_order",
                        counting("topological_order", PhyloNetwork.topological_order))
    # a walk, a temporal test or a label index is counted when it is
    # stored, so a second call that reads the stored result is free and one
    # that computes again is not
    for key, store in (("walk", "_trails"), ("is_temporal", "_temporal"), ("label_index", "_by_label")):
        slot = PhyloNetwork.__dict__[store]

        def counting_setter(net, value, key=key, slot=slot):
            counts[key] += value is not None
            slot.__set__(net, value)
        monkeypatch.setattr(PhyloNetwork, store, property(slot.__get__, counting_setter))
    code, env, _ = run_json(capsys, *query, fixture_path(name + ext))
    assert code in (0, 1)
    # complete walks its result too, and builds it unless it attached nothing
    complete = query == ("complete",)
    assert counts["build"] == 1 + (complete and env["payload"]["attachments"] > 0)
    assert counts["walk"] <= 1 + complete
    assert counts["is_temporal"] <= 1
    # only the exhaustive antichain route asks for the heap order
    if query != ("antichain", "--check-property"):
        assert counts["topological_order"] == 0
    # only a --set token is looked up by label
    assert counts["label_index"] <= (query == ("antichain", "--set", "0"))


@pytest.mark.parametrize("name", ["deviation_one.nwk", "killer.edges", "gen-10^4"])
def test_complete_checks_only_the_network_it_reads(capsys, monkeypatch, tmp_path, name):
    # the completion is spliced from the network read, which was checked
    if name == "gen-10^4":
        path = tmp_path / "gen.nwk"
        assert main(["gen", "--leaves", "3000", "--retics", "2001", "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
    else:
        path = FIXTURES / name
    check, calls = network._check, []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(network, "_check", counted)
    code, env, _ = run_json(capsys, "complete", str(path))
    assert code == 0 and env["payload"]["attachments"] > 0
    assert len(calls) == 1


def _as_json_dumps(out: str) -> str:
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("query", QUERIES, ids=" ".join)
@pytest.mark.parametrize("name", ["diamond", "deviation_one", "killer", "temporal_nontb"])
@pytest.mark.parametrize("ext", [".edges", ".nwk"])
def test_envelope_text_is_json_dumps(capsys, query, name, ext):
    code, out, _ = run(capsys, *query, fixture_path(name + ext), "--json")
    assert code in (0, 1)
    assert out == _as_json_dumps(out)


@pytest.mark.parametrize("argv", [
    ("gen", "--leaves", "6", "--retics", "3", "--seed", "2"),
    ("gen", "--leaves", "1", "--retics", "0", "--temporal"),
    ("bench", "--leaves", "8", "--retics", "2", "--repeat", "2"),
], ids=" ".join)
def test_envelope_text_is_json_dumps_without_input(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == _as_json_dumps(out)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-2**80, max_value=2**80)
    | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(st.integers(), max_size=5)
                   | st.tuples(inner, inner) | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"f": [float("inf"), float("-inf"), float("nan"), -0.0, 1e300], "b": [True, 1]})
@example({"edges": [[0, 1], [0, 2], [2, 3]], "paths": [[4, 1, 7], [5]], "mixed": [[1, 2], []]})
@example(((0, 1), (0, 2), (2, 3)))
@example(((4, 1, 7), (5,), (2, 3), (6, 8, 9, 10)))
@example(((0, 1), (), (2, 3)))
@example([[0, 1], [], (2, 3)])
@example(["", " ", '"', "\\", "\x1f", "\x7f", "\u00e9"])
@example({"": 0, " ": 1, '"': 2, "\\": 3, "\x1f": 4, "\x7f": 5, "\u00e9": 6})
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


int_tuples = st.lists(st.lists(st.integers() | st.integers(min_value=-2**80, max_value=2**80),
                               max_size=6).map(tuple), max_size=12)


@settings(max_examples=300, deadline=None)
@given(int_tuples, st.integers(min_value=0, max_value=3))
@example([(), (), ()], 0)
@example([(0, 1), (), (5,), (2, 3, 4)], 2)
def test_int_tuple_lists_match_json_dumps(value, depth):
    # lists of int tuples, at any indent, go through the one-format-call branch
    for _ in range(depth):
        value = {"k": value}
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


# What the option-table reader meets: every subcommand and a misspelt one,
# every option name and an abbreviation, the forms only argparse reads,
# and values that are files, ints or neither.  Each argv holds some of its
# subcommand's options, each once and with a value where it takes one, and
# up to one token of any kind inserted anywhere, so many are well formed.
OPTION_NAMES = sorted({opt.name for _, _, options in SUBCOMMANDS.values() for opt in options
                       if opt.name[0] == "-"})
VALUES = ["x.nwk", "-", "-1", "+3", "1_0", "\u0663", "", "enewick", "xml", "7", "a,b"]
TOKENS = [*SUBCOMMANDS, "chek", *OPTION_NAMES, "--js", "--format=enewick", "-h", "--version", "--",
          *VALUES]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*SUBCOMMANDS, "chek"]))
    argv = [command]
    if command in SUBCOMMANDS:
        options = SUBCOMMANDS[command][2]
        for opt in draw(st.lists(st.sampled_from(options), unique_by=lambda opt: opt.name)):
            value = draw(st.sampled_from(VALUES))
            argv += ([opt.name] if opt.kind is bool else [value] if opt.name == "input"
                     else [opt.name, value])
    for token in draw(st.lists(st.sampled_from(TOKENS), max_size=1)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["antichain", "--set", "a,b", "x.nwk", "--json"])
@example(["antichain", "--check-property", "-", "--format", "enewick"])
@example(["gen", "--leaves", "7", "--retics", "7", "--seed", "7", "--out", "x.nwk", "--temporal"])
@example(["bench", "--retics", "7", "--repeat", "7", "--leaves", "7"])
@example(["complete", "x.nwk", "--dot", "a,b", "--out", "x.nwk"])
def test_argv_read_from_the_table_parses_the_same_with_argparse(argv):
    args = _read_argv(argv)
    event("read from the table" if args else "left to argparse")
    if args is None:  # main parses it with argparse
        return
    try:
        parsed = _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}")
    assert vars(args) == vars(parsed)


def test_check_human_output(capsys):
    code, out, _ = run(capsys, "check", fixture_path("diamond.edges"))
    assert code == 0
    assert "tree-based: yes" in out


def test_indices_values(capsys):
    code, env, _ = run_json(capsys, "indices", fixture_path("deviation_one.edges"))
    assert code == 0
    payload = env["payload"]
    assert payload == {"l": 1, "p": 1, "t": 1, "u_gn": 2, "x_size": 1, "d": 2}


def test_paths(capsys):
    code, env, _ = run_json(capsys, "paths", fixture_path("deviation_one.edges"))
    assert code == 0
    assert env["payload"]["count"] == 2
    assert len(env["payload"]["paths"]) == 2


def test_spanning_tree(capsys):
    code, env, _ = run_json(capsys, "spanning-tree", fixture_path("deviation_one.edges"))
    assert code == 0
    assert env["payload"]["unlabeled_leaf_count"] == 1


def test_complete(capsys):
    code, env, _ = run_json(capsys, "complete", fixture_path("deviation_one.edges"))
    assert code == 0
    payload = env["payload"]
    assert payload["attachments"] == 1
    assert payload["new_labels"] == ["attached_1"]
    completed = parse_enewick(payload["network"])
    assert is_tree_based(completed)[0]


def test_complete_skips_labels_in_use(capsys, tmp_path):
    text = (FIXTURES / "deviation_one.edges").read_text()
    clash = tmp_path / "clash.edges"
    clash.write_text(text.replace("r2 x", "r2 attached_1"))
    code, env, _ = run_json(capsys, "complete", str(clash))
    assert code == 0
    assert env["payload"]["new_labels"] == ["attached_2"]
    completed = parse_enewick(env["payload"]["network"])
    assert is_tree_based(completed)[0]
    assert sorted(completed.labels) == ["attached_1", "attached_2"]


def test_complete_out_edgelist(capsys, tmp_path):
    out_file = tmp_path / "done.edges"
    code, _, _ = run(capsys, "complete", fixture_path("deviation_one.edges"),
                     "--out", str(out_file))
    assert code == 0
    completed = parse_edgelist(out_file.read_text())
    assert is_tree_based(completed)[0]


def test_complete_out_takes_its_format_from_the_out_path(capsys, tmp_path):
    # the input's --format describes the input only
    source = tmp_path / "in.txt"
    source.write_text((FIXTURES / "deviation_one.edges").read_text())
    out_file = tmp_path / "out.nwk"
    code, env, _ = run_json(capsys, "complete", str(source), "--format", "edgelist",
                            "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().rstrip("\n") == env["payload"]["network"]
    code, env, _ = run_json(capsys, "check", str(out_file))
    assert code == 0 and env["payload"]["tree_based"] is True


def test_antichain_max(capsys):
    code, env, _ = run_json(capsys, "antichain", fixture_path("killer.edges"), "--max")
    assert code == 0
    assert env["payload"]["size"] == 3


def test_antichain_set_routes(capsys):
    code, env, _ = run_json(capsys, "antichain", fixture_path("killer.edges"),
                            "--set", "x,y,z")
    assert code == 0
    assert env["payload"]["routes_to_leaves"] is True
    assert len(env["payload"]["paths"]) == 3


def test_antichain_set_keeps_each_member_once(capsys):
    killer = parse_edgelist((FIXTURES / "killer.edges").read_text())
    x = killer.vertex_by_label("x")
    # leading zeros, past int()'s 4300 digits too, name the same id
    code, env, _ = run_json(capsys, "antichain", fixture_path("killer.edges"),
                            "--set", f"x,x,{x},0{x},{'0' * 5000}{x},y")
    assert code == 0
    payload = env["payload"]
    assert payload["set"] == [x, killer.vertex_by_label("y")]
    assert len(payload["paths"]) == len(payload["set"])


def test_antichain_set_lists_paths_in_the_order_given(capsys):
    # in killer.nwk, 0 is a leaf and 3 reaches the leaf 1
    code, env, _ = run_json(capsys, "antichain", fixture_path("killer.nwk"), "--set", "3,0")
    assert code == 0
    payload = env["payload"]
    assert payload["set"] == [3, 0]
    assert payload["paths"] == [[3, 1], [0]]
    assert payload["separator"] is None
    code, out, _ = run(capsys, "antichain", fixture_path("killer.nwk"), "--set", "3,0")
    assert out == "disjoint paths to leaves: yes\n  3 -> 1\n  0\n"


def test_antichain_set_no_carries_a_separator(capsys):
    # the violating antichain that temporal names, given in descending order
    code, env, _ = run_json(capsys, "antichain", fixture_path("temporal_nontb.edges"),
                            "--set", "4,3")
    assert code == 1
    payload = env["payload"]
    assert payload["routes_to_leaves"] is False and payload["paths"] is None
    net = parse_edgelist((FIXTURES / "temporal_nontb.edges").read_text())
    separator = payload.pop("separator")
    assert separates(net, payload["set"], separator)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(env, SCHEMA)
    code, out, _ = run(capsys, "antichain", fixture_path("temporal_nontb.edges"),
                       "--set", "4,3")
    assert code == 1
    assert out == ("disjoint paths to leaves: no\n"
                   f"separator, met by every path from it to a leaf: {separator}\n")


def test_antichain_set_rejects_non_antichain(capsys):
    # 0 is the root, which reaches the leaf x
    code, _, err = run(capsys, "antichain", fixture_path("killer.edges"),
                       "--set", "0,x")
    assert code == 2
    assert "not an antichain" in err


def test_antichain_set_unknown_vertex(capsys):
    code, _, err = run(capsys, "antichain", fixture_path("killer.edges"),
                       "--set", "bogus")
    assert code == 2
    assert "unknown vertex" in err


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "-1"])
def test_antichain_set_reads_only_ascii_decimal_ids(capsys, token):
    # int() reads each of these as a number; none is a label or a plain id
    code, out, err = run(capsys, "antichain", "--set", token, fixture_path("diamond.nwk"))
    assert (code, out, err) == (2, "", f"error: unknown vertex {token!r}\n")


def test_antichain_set_id_out_of_range(capsys):
    # int() refuses a string of over 4300 digits, leading zeros included
    for token, shown in (("99", "99"), ("9" * 5000, "of 5000 digits"),
                         ("0" * 5000 + "7", "7")):
        code, out, err = run(capsys, "antichain", "--set", token, fixture_path("diamond.nwk"))
        assert (code, out, err) == (2, "", f"error: vertex id {shown} out of range\n")


def test_exhaustive_property_check_refuses_an_oversize_network(capsys, tmp_path):
    # gen --leaves 8 --retics 4 --seed 3 is not temporal, so the check takes
    # the exhaustive route, which is bounded
    target = tmp_path / "big.nwk"
    code, _, _ = run(capsys, "gen", "--leaves", "8", "--retics", "4", "--seed", "3",
                     "--out", str(target))
    assert code == 0
    code, out, err = run(capsys, "antichain", "--check-property", str(target))
    assert (code, out) == (2, "")
    assert err == "error: exhaustive antichain check limited to 18 vertices (got 23)\n"


def test_antichain_property_strategies(capsys):
    code, env, _ = run_json(capsys, "antichain", fixture_path("killer.edges"),
                            "--check-property")
    assert code == 0
    assert env["payload"]["strategy"] == "exhaustive"
    assert env["payload"]["holds"] is True

    code, env, _ = run_json(capsys, "antichain", fixture_path("temporal_nontb.edges"),
                            "--check-property")
    assert code == 1
    assert env["payload"]["strategy"] == "temporal-shortcut"
    assert env["payload"]["holds"] is False


def test_temporal(capsys):
    code, env, _ = run_json(capsys, "temporal", fixture_path("diamond.edges"))
    assert code == 0
    assert env["payload"]["temporal"] is True
    assert env["payload"]["violating_antichain"] is None

    code, env, _ = run_json(capsys, "temporal", fixture_path("killer.edges"))
    assert code == 1
    assert env["payload"]["ranks"] is None

    code, env, _ = run_json(capsys, "temporal", fixture_path("temporal_nontb.edges"))
    assert code == 0
    assert env["payload"]["violating_antichain"] == [3, 4]


def test_gen_deterministic(capsys):
    code, env1, _ = run_json(capsys, "gen", "--leaves", "5", "--retics", "2",
                             "--seed", "9")
    assert code == 0
    _, env2, _ = run_json(capsys, "gen", "--leaves", "5", "--retics", "2",
                          "--seed", "9")
    assert env1["payload"]["network"] == env2["payload"]["network"]
    net = parse_enewick(env1["payload"]["network"])
    assert len(net.leaves) == 5 and len(net.reticulations) == 2


def test_gen_infeasible_shape(capsys):
    code, _, err = run(capsys, "gen", "--leaves", "1", "--retics", "1")
    assert code == 2
    assert "error:" in err


def test_gen_oversize_is_an_input_error(capsys):
    code, out, err = run(capsys, "gen", "--leaves", "2", "--retics", "99999999999")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "the limit is" in err


def test_an_invalid_network_error_is_one_short_line(capsys, tmp_path):
    # a ternary tree of 30001 vertices breaks the degree rule at each of its
    # 10000 inner vertices; the error line names 20 and counts the rest
    text = "".join(f"v{(i - 1) // 3} v{i}\n" for i in range(1, 30001))
    with pytest.raises(InvalidNetworkError) as caught:
        parse_edgelist(text)
    assert len(caught.value.report.violations) == 10_000
    path = tmp_path / "ternary.edges"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: vertex 0 has degree signature in=0, out=3; ")
    assert err.endswith("; and 9980 more\n") and err.count("\n") == 1 and len(err) < 2048


def test_gen_out_file(capsys, tmp_path):
    target = tmp_path / "made.nwk"
    code, _, _ = run(capsys, "gen", "--leaves", "4", "--retics", "1",
                     "--out", str(target))
    assert code == 0
    assert parse_enewick(target.read_text()).num_vertices == 9


def test_bench_payload(capsys):
    code, env, _ = run_json(capsys, "bench", "--leaves", "10", "--retics", "3",
                            "--repeat", "2")
    assert code == 0
    payload = env["payload"]
    assert payload["num_vertices"] == 25
    assert len(payload["runs_ms"]) == 2
    assert payload["best_ms"] <= payload["mean_ms"] + 1e-9
    assert env["input_sha256"] is None


def test_bench_walks_on_every_repeat(capsys, monkeypatch):
    # a network keeps its walk, so a repeat on the same object would time a
    # lookup; each repeat must walk a network of its own
    walked = []

    def counted(net):
        if net._trails is None:
            walked.append(net)
        return zigzag_trails(net)

    monkeypatch.setattr(treebased, "zigzag_trails", counted)
    code, env, _ = run_json(capsys, "bench", "--leaves", "10", "--retics", "3",
                            "--repeat", "3")
    assert code == 0 and len(env["payload"]["runs_ms"]) == 3
    assert len(walked) == len(set(map(id, walked))) == 3


@pytest.mark.parametrize("repeat", ["0", "-3"])
def test_bench_needs_at_least_one_repeat(capsys, repeat):
    code, out, err = run(capsys, "bench", "--leaves", "4", "--retics", "1",
                         "--repeat", repeat)
    assert (code, out, err) == (2, "", "error: --repeat must be at least 1\n")


@pytest.mark.parametrize("argv, option, name", [
    (("check", fixture_path("diamond.nwk")), "--dot", "x.dot"),
    (("complete", fixture_path("deviation_one.edges")), "--out", "x.nwk"),
    (("gen", "--leaves", "4", "--retics", "1"), "--out", "x.nwk"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_unwritable_output_path_is_an_input_error(capsys, tmp_path, argv, option, name):
    target = tmp_path / "no-such-dir" / name
    code, out, err = run(capsys, *argv, option, str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (("check", fixture_path("diamond.nwk")), "--dot"),
    (("complete", fixture_path("deviation_one.edges")), "--out"),
    (("gen", "--leaves", "4", "--retics", "1"), "--out"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_a_stdout_path_is_refused_with_json(capsys, argv, option):
    code, out, err = run(capsys, *argv, option, "-", "--json")
    assert (code, out) == (2, "")
    assert err == (f"error: {option} - would mix into the JSON report on stdout; "
                   f"give {option} a file path\n")


def test_a_stdout_path_without_json_writes_ahead_of_the_answer(capsys):
    code, out, err = run(capsys, "check", fixture_path("diamond.nwk"), "--dot", "-")
    assert (code, err) == (0, "")
    assert out.startswith("digraph network {")
    assert out.endswith("}\ntree-based: yes\nbase tree edges: 6\n")


def test_complete_out_stdout_ends_the_network_with_a_newline(capsys):
    # the eNewick text carries no newline of its own; the answer follows it
    code, out, err = run(capsys, "complete", fixture_path("deviation_one.nwk"), "--out", "-")
    assert (code, err) == (0, "")
    first, summary, again, tail = out.split("\n")
    assert (summary, again, tail) == ("attached 1 leaf(s)", first, "")
    assert is_tree_based(parse_enewick(first))[0]


# Runs ``python <argv>`` with its stdout a pipe whose reader is closed.
CLOSED_STDOUT = (
    "import os, subprocess, sys\n"
    "read, write = os.pipe()\n"
    "os.close(read)\n"
    "proc = subprocess.run([sys.executable, *sys.argv[1:]],\n"
    "                      stdout=write, stderr=subprocess.PIPE)\n"
    "print(proc.returncode)\n"
    "print(proc.stderr.decode(), end='')\n"
)


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
def test_a_closed_stdout_is_an_error_not_a_crash(flags):
    proc = run_python("-c", CLOSED_STDOUT, "-m", "tbnet.cli", "paths",
                      fixture_path("killer.nwk"), *flags)
    code, err = proc.stdout.decode().split("\n", 1)
    assert code == "2"
    assert err == "error: stdout was closed before the answer was written\n"


def test_an_empty_set_is_refused_not_taken_as_absent(capsys):
    # an empty --set must not fall through to --check-property
    code, out, err = run(capsys, "antichain", "--set", "", fixture_path("diamond.edges"))
    assert (code, out, err) == (2, "", "error: --set needs at least one vertex\n")


def test_an_empty_dot_path_is_an_input_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "check", fixture_path("diamond.edges"), "--dot", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("complete", fixture_path("deviation_one.edges")),
    ("gen", "--leaves", "3", "--retics", "0"),
], ids=lambda argv: argv[0])
def test_an_empty_out_path_is_an_input_error(capsys, argv):
    # an empty --out must not fall back to stdout
    code, out, err = run(capsys, *argv, "--out", "")
    assert (code, out) == (2, "")
    assert err == ("error: cannot infer format from ''; give it one of the extensions "
                   ".nwk .enwk .enewick .newick .edges .edgelist\n")


def test_stdin_enewick(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("((a,(b)#H1),(#H1,c));"))
    code, env, _ = run_json(capsys, "check", "-")
    assert code == 0
    assert env["payload"]["tree_based"] is True


def test_format_inference_failure(capsys, tmp_path):
    anon = tmp_path / "net.txt"
    anon.write_text("((a,b),c);")
    code, _, err = run(capsys, "check", str(anon))
    assert code == 2
    assert "cannot infer format" in err

    code, _, _ = run(capsys, "check", str(anon), "--format", "enewick")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("gen", "--leaves", "3", "--retics", "0"),
    ("complete", fixture_path("deviation_one.edges")),
], ids=lambda argv: argv[0])
def test_out_without_a_known_extension_names_the_extensions(capsys, tmp_path, argv):
    # neither command has an output --format to point to
    target = tmp_path / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot infer format from {str(target)!r}; give it one of the "
                   "extensions .nwk .enwk .enewick .newick .edges .edgelist\n")
    assert not target.exists()


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.nwk"
    bad.write_text("((a,b);")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("name, text, vertex", [
    ("loop.edges", "r a\nr b\nb b\n", 2),
    ("loop.nwk", "((#H1)#H1,a);", 0),
])
def test_a_self_loop_is_an_input_error(capsys, tmp_path, name, text, vertex):
    # both readers leave the loop in the lists; the build names it
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: self-loop at vertex {vertex}\n")


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.nwk")
    assert code == 2
    assert "error:" in err


def test_dot_outputs(capsys, tmp_path):
    dot_file = tmp_path / "net.dot"
    code, _, _ = run(capsys, "check", fixture_path("diamond.edges"),
                     "--dot", str(dot_file))
    assert code == 0
    text = dot_file.read_text()
    assert text.startswith("digraph network {")
    assert "penwidth" in text  # the base tree overlay made it in


def test_dot_paths_overlay(capsys, tmp_path):
    dot_file = tmp_path / "paths.dot"
    code, _, _ = run(capsys, "paths", fixture_path("deviation_one.edges"),
                     "--dot", str(dot_file))
    assert code == 0
    assert "color=" in dot_file.read_text()


@pytest.mark.parametrize("argv", [
    ("check", "diamond.nwk"),
    ("check", "deviation_one.edges"),
    ("check", "no_such_file.nwk"),
], ids=["yes", "no", "input error"])
def test_the_process_entry_point_answers_as_main(capsys, argv):
    argv = (argv[0], fixture_path(argv[1]))
    proc = run_python("-m", "tbnet.cli", *argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == run(capsys, *argv)


def test_the_process_entry_point_answers_as_main_on_a_closed_stdout():
    main_only = "import sys, tbnet.cli\nsys.exit(tbnet.cli.main(sys.argv[1:]))\n"
    argv = ("paths", fixture_path("killer.nwk"))
    via_main = run_python("-c", CLOSED_STDOUT, "-c", main_only, *argv)
    via_entry = run_python("-c", CLOSED_STDOUT, "-m", "tbnet.cli", *argv)
    assert via_entry.stdout == via_main.stdout == (
        b"2\nerror: stdout was closed before the answer was written\n")


def test_the_console_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(FIXTURES.parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tbnet"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is process_main
