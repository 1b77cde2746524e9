"""What a query loads: the package resolves its names on first use, each
subcommand imports only the modules it runs, and argparse builds the full
parser once, for help, version and errors only."""

import argparse
import ast
import hashlib
import importlib
import json
import types
from pathlib import Path

import pytest

import tbnet
from tbnet.cli import main
from tbnet.network import PhyloNetwork

from conftest import FIXTURES, run_python

TRACING = FIXTURES.parents[1] / "perfbench" / "tracing.py"
PLANS = TRACING.with_name("plans.py")

LOADED = (
    "import sys\n"
    "import tbnet.cli\n"
    "code = tbnet.cli.main(sys.argv[1:])\n"
    "sys.stderr.write(' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
# Modules a query must not load, by argv; the tree-based queries are the
# default.  No query loads matching, the reference route, dataclasses,
# which also loads inspect, ast, dis and tokenize, json, whose escaping
# encoder the envelope needs only for strings no query writes, or hashlib,
# which loads OpenSSL for the one SHA-256 the builtin _sha256 gives.  The
# temporal and antichain queries read the walk from network and never load
# treebased, and the temporal queries never load the flows.  A query on an
# edge list loads enewick only for complete, which writes the network it
# answers with in eNewick.
NEVER = {"tbnet.matching", "fractions", "dataclasses", "json", "json.encoder",
         "hashlib", "_hashlib"}
NOT_TREE_BASED = NEVER | {"tbnet.antichains", "tbnet.temporal", "tbnet.generate", "tbnet.dot"}
NOT_GEN = NEVER | {"tbnet.antichains", "tbnet.dot", "tbnet.treebased"}
TEMPORAL = NOT_TREE_BASED - {"tbnet.temporal"}
EDGES = {"tbnet.enewick"}
ABSENT = {
    ("check", "deviation_one.edges"): NOT_TREE_BASED | EDGES,
    ("indices", "killer.edges"): NOT_TREE_BASED | EDGES,
    ("paths", "killer.edges"): NOT_TREE_BASED | EDGES,
    ("spanning-tree", "deviation_one.edges"): NOT_TREE_BASED | EDGES,
    ("antichain", "--set", "x,y", "killer.nwk"): TEMPORAL - {"tbnet.antichains"} | {"tbnet.treebased"},
    ("antichain", "--set", "x,y", "killer.edges"):
        TEMPORAL - {"tbnet.antichains"} | {"tbnet.treebased"} | EDGES,
    ("antichain", "--max", "killer.edges"): TEMPORAL - {"tbnet.antichains"} | {"tbnet.treebased"} | EDGES,
    ("antichain", "--check-property", "temporal_nontb.edges"): TEMPORAL | {"tbnet.treebased"} | EDGES,
    ("temporal", "temporal_nontb.edges"): TEMPORAL | {"tbnet.treebased"} | EDGES,
    ("temporal", "killer.nwk"): TEMPORAL | {"tbnet.treebased"},
    ("gen", "--leaves", "5", "--retics", "2"): NOT_GEN | {"tbnet.temporal"},
    ("gen", "--leaves", "5", "--retics", "2", "--temporal"): NOT_GEN,
}


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare interpreter has loaded before tbnet, ``site`` hooks included."""
    proc = run_python("-c", "import sys; sys.stderr.write(' '.join(sys.modules))")
    return set(proc.stderr.decode().split())


@pytest.mark.parametrize("argv", [
    ("check", "diamond.nwk"),
    ("check", "deviation_one.edges"),
    ("indices", "killer.nwk"),
    ("indices", "killer.edges"),
    ("paths", "killer.edges"),
    ("spanning-tree", "deviation_one.nwk"),
    ("spanning-tree", "deviation_one.edges"),
    ("complete", "deviation_one.nwk"),
    ("complete", "deviation_one.edges"),
    ("antichain", "--set", "x,y", "killer.nwk"),
    ("antichain", "--set", "x,y", "killer.edges"),
    ("antichain", "--max", "killer.edges"),
    ("antichain", "--check-property", "temporal_nontb.edges"),
    ("temporal", "temporal_nontb.edges"),
    ("temporal", "killer.nwk"),
    ("gen", "--leaves", "5", "--retics", "2"),
    ("gen", "--leaves", "5", "--retics", "2", "--temporal"),
], ids=" ".join)
def test_a_query_loads_only_its_own_modules(argv, bare_modules):
    absent = ABSENT.get(argv, NOT_TREE_BASED) - bare_modules
    argv = [str(FIXTURES / a) if a.endswith((".nwk", ".edges")) else a for a in argv]
    proc = run_python("-c", LOADED, *argv, "--json")
    assert proc.returncode in (0, 1), proc.stderr
    loaded = set(proc.stderr.decode().split())
    assert "tbnet.network" in loaded
    assert not loaded & absent


def _benchmark_argvs() -> list[tuple[str, ...]]:
    """Each argv shape the benchmark runs, read from its plans, with a
    fixture for each input, two of its leaves for a set and 7 for a number;
    the benchmark adds --json."""
    shapes = set()
    for node in ast.walk(ast.parse(PLANS.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Query":
            shapes.add(tuple("7" if isinstance(item, ast.Call)
                             else item.value if isinstance(item, ast.Constant)
                             else "x,y" if item.id.endswith("set")
                             else str(FIXTURES / "killer.nwk")
                             for item in node.args[1].elts) + ("--json",))
    return sorted(shapes)


@pytest.mark.parametrize("argv", _benchmark_argvs(),
                         ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_a_benchmark_query_loads_no_argparse(argv, bare_modules):
    # well-formed argv is read from the option table; argparse, and the
    # gettext and locale it loads, are for help, version and errors
    proc = run_python("-c", LOADED, *argv)
    assert proc.returncode in (0, 1), proc.stderr
    loaded = set(proc.stderr.decode().split())
    assert not {"argparse", "gettext", "locale"} - bare_modules & loaded


@pytest.mark.parametrize("argv, code, built", [
    # well-formed argv is read from the option table, with no parser
    ("check diamond.nwk --json", 0, 0),
    ("antichain --max killer.edges", 0, 0),
    ("gen --leaves 5 --retics 2", 0, 0),
    # help, version and every usage error build one full parser
    ("--help", 0, 9),
    ("", 2, 9),
    ("chek diamond.nwk", 2, 9),
    ("check diamond.nwk extra", 2, 9),
], ids=lambda x: str(x) or "(none)")
def test_a_query_builds_only_its_own_parser(capsys, monkeypatch, argv, code, built):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: calls.append(name) or add_parser(self, name, **kw))
    try:
        returned = main([str(FIXTURES / a) if a.endswith((".nwk", ".edges")) else a
                         for a in argv.split()])
    except SystemExit as exc:
        returned = exc.code
    capsys.readouterr()
    assert (returned, len(calls)) == (code, built), calls


def test_the_digest_is_the_same_from_hashlib():
    # an interpreter built without the builtin _sha256 hashes with hashlib
    no_builtin = ("import sys\n"
                  "sys.modules['_sha256'] = None\n"
                  "import tbnet.cli\n"
                  "sys.exit(tbnet.cli.main(sys.argv[1:]))\n")
    argv = ("check", str(FIXTURES / "diamond.nwk"), "--json")
    digests = {json.loads(proc.stdout)["input_sha256"]
               for proc in (run_python("-c", no_builtin, *argv), run_python("-m", "tbnet.cli", *argv))}
    assert digests == {hashlib.sha256((FIXTURES / "diamond.nwk").read_bytes()).hexdigest()}


def test_the_digest_comes_from_sha2_where_it_replaces_sha256(bare_modules):
    # Python 3.12 merged the builtin _sha256 into _sha2; in that layout a
    # query still hashes without loading hashlib or OpenSSL's _hashlib
    layout = ("import sys\n"
              "try:\n"
              "    import _sha2\n"
              "except ImportError:\n"
              "    import _sha256 as _sha2\n"
              "sys.modules['_sha2'], sys.modules['_sha256'] = _sha2, None\n"
              "import tbnet.cli\n"
              "code = tbnet.cli.main(sys.argv[1:])\n"
              "sys.stderr.write(' '.join(sorted(sys.modules)))\n"
              "sys.exit(code)\n")
    proc = run_python("-c", layout, "check", str(FIXTURES / "diamond.nwk"), "--json")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((FIXTURES / "diamond.nwk").read_bytes()).hexdigest()
    assert json.loads(proc.stdout)["input_sha256"] == digest
    assert not {"hashlib", "_hashlib"} - bare_modules & set(proc.stderr.decode().split())


def test_the_dot_export_loads_no_answer_module():
    # dot.py names the tree-based records in annotations only
    proc = run_python("-c", "import sys, tbnet.dot\n"
                            "print(sorted(m for m in sys.modules if m.startswith('tbnet')))")
    assert proc.stdout.decode().strip() == "['tbnet', 'tbnet.dot', 'tbnet.network']"


def test_the_edge_list_reader_loads_no_enewick():
    # ParseError lives in the model, beside InvalidNetworkError
    proc = run_python("-c", "import sys, tbnet.edgelist\n"
                            "print(sorted(m for m in sys.modules if m.startswith('tbnet')))")
    assert proc.stdout.decode().strip() == "['tbnet', 'tbnet.edgelist', 'tbnet.network']"
    import tbnet.edgelist
    import tbnet.enewick

    assert tbnet.enewick.ParseError is tbnet.edgelist.ParseError is tbnet.ParseError


def test_importing_the_package_loads_no_submodule():
    proc = run_python("-c", "import sys, tbnet\n"
                            "print(sorted(m for m in sys.modules if m.startswith('tbnet')))")
    assert proc.stdout.decode().strip() == "['tbnet']"


@pytest.mark.parametrize("name", tbnet.__all__)
def test_every_exported_name_imports(name):
    namespace = {}
    exec(f"from tbnet import {name}", namespace)
    assert not isinstance(namespace[name], types.ModuleType)
    assert namespace[name] is getattr(tbnet, name)
    assert name in dir(tbnet)


def test_every_exported_name_is_defined_where_it_is_mapped():
    # a name mapped to a module that only re-exports it would load that
    # module's own imports too: tbnet.is_temporal would load the flows
    for module, names in tbnet._EXPORTS.items():
        for name in names:
            assert getattr(tbnet, name).__module__ == f"tbnet.{module}", name


def test_loading_a_submodule_does_not_shadow_its_function():
    # tbnet.generate is both a submodule and the function it defines
    proc = run_python("-c", "import tbnet.generate\n"
                            "from tbnet import generate\n"
                            "print(type(generate).__name__)")
    assert proc.stdout.decode().strip() == "function"


def test_every_traced_name_resolves():
    # the traced benchmark swaps these names for wrappers; read them from its
    # source, so a rename fails here rather than in a traced run
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(TRACING.read_text()).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("WRAPPED", "METHODS")}
    for module, names in tables["WRAPPED"].items():
        for name in names:
            assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    for attr in tables["METHODS"]:
        assert callable(PhyloNetwork.__dict__.get(attr)), attr
    assert {"antichain_to_leaf", "max_antichain"} <= set(tables["WRAPPED"]["tbnet.antichains"])


def test_antichain_answers_read_no_arc_list():
    # the antichain and tree-based queries read the adjacency construction
    # built; a read of .edges rebuilds every arc, O(m) tuples, on each access
    for module in ("antichains", "network", "temporal", "treebased"):
        with open(importlib.import_module(f"tbnet.{module}").__file__) as source:
            tree = ast.parse(source.read())
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "edges"]
        assert not reads, f"{module}.py reads .edges on lines {reads}"


def test_each_stored_structure_is_filled_by_one_module():
    # network.py declares the stores and starts them empty; only the module
    # that computes a structure fills its store, so no other code can hand
    # a query a result it did not compute
    owner = {"_trails": "network.py", "_temporal": "temporal.py"}
    writes, declared = set(), set()
    for path in sorted(Path(tbnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                empties = isinstance(node, ast.Assign) and path.name == "network.py" and (
                    isinstance(node.value, ast.Constant) and node.value.value is None)
                writes |= {(sub.attr, path.name) for target in targets for sub in ast.walk(target)
                           if isinstance(sub, ast.Attribute) and sub.attr in owner and not empties}
            elif isinstance(node, ast.Constant) and node.value in owner:
                declared.add((node.value, path.name))
    assert writes == set(owner.items())
    assert declared == {(name, "network.py") for name in owner}


def test_no_module_rebinds_its_globals():
    # a function that rebinds a module name at run time keeps whatever that
    # name was bound to at the time, a test's patch included, after the
    # patch is undone
    found = []
    for path in sorted(Path(tbnet.__file__).parent.glob("*.py")):
        found += [(path.name, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Global)]
    assert not found


def test_no_module_imports_another_modules_private_name():
    # a module's underscored names are its own, so every answer goes through
    # public functions; the shared helpers are network._adjacency, which
    # the readers and the generator build their lists with, and the id and
    # antichain checks of temporal, which the flows start with
    shared = {("network", "_adjacency"), ("temporal", "_vertices"), ("temporal", "_unreachable")}
    private = []
    for path in sorted(Path(tbnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or "tbnet"
            if not node.level and module.partition(".")[0] != "tbnet":
                continue
            source = module.rpartition(".")[2]
            private += [(path.name, source, alias.name) for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")
                        and (source, alias.name) not in shared]
    assert not private
