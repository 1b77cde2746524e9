"""Command-line front end.

Exit codes: 0 for success (or a positive analysis answer), 1 for a negative
analysis answer (not tree-based, property fails, not temporal), 2 for input
or usage errors and for a stdout closed before the answer was written, 3
for an internal error (any other exception, or a failed self-check),
reported with its traceback.  ``--json`` wraps every payload in a fixed
envelope whose schema ships with the package as ``report.schema.json``.

One pipeline in :func:`main` serves every subcommand.  It reads and builds
the input network (``gen`` and ``bench`` generate theirs), times the query,
calls the subcommand's answer function and writes the ``--json`` envelope
or the human lines to stdout in one write.  An answer function
``cmd_*(args, net)`` holds only public library calls and returns
``(payload, human_lines, exit_code)``, with the library's tuples in the
payload as they are; every ``--dot`` is written by :func:`_dot`.  The
human lines of a path list or of a maximum antichain come as an
iterator, formatted only if the human answer is written.
:func:`_json_text` writes the envelope, each list of edges or paths with
one ``%`` call, and loads ``json.encoder`` only for a string that needs
escapes.

Each function imports the modules it runs, so a query loads only its own
layers: ``network`` and its input's reader always, and ``enewick`` to
write for ``complete`` and ``gen``; ``treebased`` for ``check``,
``indices``, ``paths``, ``spanning-tree`` and ``complete``; ``temporal``,
never ``treebased``, for ``temporal``; ``antichains`` for ``antichain
--max`` and ``--set``, and ``temporal`` for ``--check-property``, adding
``antichains`` only on a network that is not temporal; ``generate`` and
``dot`` only where they are used.
No subcommand loads ``matching``, the reference route, ``dataclasses``,
``json`` or ``hashlib``; the input digest comes from the builtin ``_sha2``
or ``_sha256``.  One option table, :data:`SUBCOMMANDS`, declares every
subcommand's options: :func:`main` reads well-formed argv from it; only
for help, version and errors does it load ``argparse``, build the full
parser from the table once and parse with it once.  It turns
the cyclic garbage collector off while a query runs, since a query's
structures hold no reference cycles, and restores the caller's setting
on return.  :func:`process_main`, the one entry
point of ``python -m tbnet.cli`` and the ``tbnet`` script, runs ``main``
and then freezes the heap, so the interpreter's shutdown collections do
not scan what is about to be freed; ``main`` itself never freezes.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Sequence

try:  # the builtin module (_sha2 from Python 3.12 on); hashlib would also load OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .network import InvalidNetworkError, ParseError, PhyloNetwork, zigzag_trails

if TYPE_CHECKING:
    import argparse

EXT_FORMATS = {
    ".nwk": "enewick", ".enwk": "enewick", ".enewick": "enewick", ".newick": "enewick",
    ".edges": "edgelist", ".edgelist": "edgelist",
}
# What an answer function returns: the --json payload, the human lines and
# the exit code.
Answer = tuple[dict, Iterable[str], int]


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _detect_format(path: str) -> str | None:
    """The format the extension of ``path`` names (eNewick for stdin), or None."""
    if path == "-":
        return "enewick"
    for ext, fmt in EXT_FORMATS.items():
        if path.endswith(ext):
            return fmt
    return None


def _read_input(path: str) -> tuple[str, str]:
    """The input text and the SHA-256 of its UTF-8 encoding."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        # stdin may decode bad bytes to surrogates, which fail to encode
        return text, sha256(text.encode()).hexdigest()
    except UnicodeError as exc:
        raise CliError(f"input is not UTF-8 text: {'stdin' if path == '-' else path}") from exc
    except OSError as exc:
        raise CliError(str(exc)) from exc


def _load(args) -> tuple[PhyloNetwork, str]:
    text, digest = _read_input(args.input)
    fmt = args.format or _detect_format(args.input)
    if fmt is None:
        raise CliError(
            f"cannot infer format from {args.input!r}; pass --format enewick|edgelist")
    if fmt == "enewick":
        from .enewick import parse_enewick as parse
    else:
        from .edgelist import parse_edgelist as parse
    return parse(text), digest


def _write_network(path: str, net: PhyloNetwork, enewick_text: str) -> None:
    """Write ``net`` in the format of ``path``; ``enewick_text`` is its eNewick form."""
    fmt = _detect_format(path)
    if fmt is None:
        raise CliError(f"cannot infer format from {path!r}; "
                       f"give it one of the extensions {' '.join(EXT_FORMATS)}")
    if fmt == "enewick":
        _write_text(path, enewick_text)
    else:
        from .edgelist import serialize_edgelist

        _write_text(path, serialize_edgelist(net))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(str(exc)) from exc


def _quoted(text: str) -> str:
    """``text`` as json.dumps writes a str.  Printable ASCII without ``"``
    or ``\\`` needs no escape; only other text loads ``json.encoder``."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _json_text(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, float, bool and None.
    ``newline`` is a newline plus the indent of the line ``obj`` is on.
    The json module writes indented output in pure Python, one call per
    value; this joins each all-int list in one step, and writes a list of
    all-int tuples (edges, paths, as the library returns them) with one
    ``%`` call: each item's template for its length, joined, filled with
    every int of the list."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif kinds == {tuple} and set(map(type, chain.from_iterable(obj))) <= {int}:
            item = sep + "  %d"
            templates = {n: "[" + item[1:] + item * (n - 1) + inner + "]" if n else "[]"
                         for n in set(map(len, obj))}
            body = (sep.join(map(templates.__getitem__, map(len, obj)))
                    % tuple(chain.from_iterable(obj)))
        else:
            body = sep.join([_json_text(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_quoted(key) + ": " + _json_text(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return _quoted(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (float("inf"), float("-inf")):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dot(args, net: PhyloNetwork, **overlay) -> None:
    """Write ``net`` with ``overlay`` (see :func:`tbnet.dot.export_dot`) to
    ``--dot``, when it is given."""
    if args.dot is not None:
        from .dot import export_dot

        _write_text(args.dot, export_dot(net, **overlay))


def cmd_check(args, net: PhyloNetwork) -> Answer:
    from .treebased import is_tree_based

    based, cert = is_tree_based(net)
    if based:
        certificate = {"kind": "base_tree", "edges": cert.tree.edges}
        human = ["tree-based: yes", f"base tree edges: {len(cert.tree.edges)}"]
    else:
        certificate = {"kind": "rr_path", "rr_path": cert.rr_path,
                       "u1": cert.u1, "u2": cert.u2}
        human = ["tree-based: no",
                 f"blocking reticulation path: {list(cert.rr_path)}",
                 f"U1: {list(cert.u1)}  U2: {list(cert.u2)}"]
    payload = {"tree_based": based, "num_vertices": net.num_vertices,
               "num_leaves": len(net.leaves), "num_reticulations": len(net.reticulations),
               "certificate": certificate}
    _dot(args, net, tree=cert.tree if based else None)
    return payload, human, 0 if based else 1


def cmd_indices(args, net: PhyloNetwork) -> Answer:
    from .treebased import deviation_indices

    payload = deviation_indices(net).as_dict()
    return payload, [f"{k} = {v}" for k, v in payload.items()], 0


def _path_lines(paths: Iterable[Sequence[int]]) -> Iterator[str]:
    """A human line per path, formatted as the human answer is written."""
    return ("  " + " -> ".join(map(str, p)) for p in paths)


def cmd_paths(args, net: PhyloNetwork) -> Answer:
    from .treebased import vertex_disjoint_paths

    partition = vertex_disjoint_paths(net)
    payload = {"count": partition.size, "paths": partition.paths}
    human = chain((f"paths: {partition.size}",), _path_lines(partition.paths))
    _dot(args, net, paths=partition)
    return payload, human, 0


def cmd_spanning_tree(args, net: PhyloNetwork) -> Answer:
    from .treebased import rooted_spanning_tree

    tree = rooted_spanning_tree(net)
    outside = tree.unlabeled_leaves(net)
    payload = {
        "root": tree.root,
        "edges": tree.edges,
        "leaves": tree.leaves,
        "unlabeled_leaves": outside,
        "unlabeled_leaf_count": len(outside),
    }
    human = [f"spanning tree with {len(tree.edges)} edges, "
             f"{len(outside)} leaf(s) outside the label set"]
    _dot(args, net, tree=tree)
    return payload, human, 0


def cmd_complete(args, net: PhyloNetwork) -> Answer:
    from .enewick import serialize_enewick
    from .treebased import deviation_indices, tree_based_completion

    result = tree_based_completion(net)
    if deviation_indices(result.network).p:
        raise RuntimeError("the completed network still has a W-fence")
    text = serialize_enewick(result.network)
    payload = {
        "attachments": len(result.attached_edges),
        "attached_edges": result.attached_edges,
        "new_labels": result.labels,
        "network": text,
    }
    if args.out is not None:
        _write_network(args.out, result.network, text)
    _dot(args, result.network, attached=result.network.leaves[len(net.leaves):])  # the sinks above every input id
    return payload, [f"attached {len(result.attached_edges)} leaf(s)", text], 0


def _resolve_vertices(net: PhyloNetwork, spec: str) -> tuple[int, ...]:
    """Tokens are leaf labels when they match one, else ids written in
    ASCII decimal digits only; a repeated vertex is kept once, where it
    first appears."""
    out = []
    most = len(str(net.num_vertices - 1))  # the digits of the largest id
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            vid = net.vertex_by_label(token)
        except KeyError:
            # int() would also read "1_0", "+3" and non-ASCII digits
            if not (token.isascii() and token.isdigit()):
                raise CliError(f"unknown vertex {token!r}") from None
            digits = token.lstrip("0") or "0"
            if len(digits) > most:  # int() refuses over 4300 digits, leading zeros too
                shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
                raise CliError(f"vertex id {shown} out of range")
            vid = int(digits)
            if vid >= net.num_vertices:
                raise CliError(f"vertex id {vid} out of range")
        out.append(vid)
    if not out:
        raise CliError("--set needs at least one vertex")
    return tuple(dict.fromkeys(out))


def cmd_antichain(args, net: PhyloNetwork) -> Answer:
    if args.max:
        from .antichains import max_antichain

        antichain, chains = max_antichain(net)
        payload = {"mode": "max", "antichain": antichain, "size": len(antichain),
                   "chain_cover": chains}
        # formatted only if the human answer is written
        return payload, (f"maximum antichain (size {len(a)}): {list(a)}" for a in (antichain,)), 0
    if args.set is not None:
        from .antichains import route_to_leaves

        members = _resolve_vertices(net, args.set)
        try:
            paths, separator = route_to_leaves(net, members)
        except ValueError:
            raise CliError(f"{list(members)} is not an antichain") from None
        routed = paths is not None
        payload = {"mode": "set", "set": members, "routes_to_leaves": routed,
                   "paths": paths, "separator": separator}
        if routed:
            human = chain(("disjoint paths to leaves: yes",), _path_lines(paths))
        else:
            human = ["disjoint paths to leaves: no",
                     f"separator, met by every path from it to a leaf: {list(separator)}"]
        return payload, human, 0 if routed else 1
    # --check-property
    from .temporal import has_antichain_to_leaf_property, is_temporal

    strategy = "temporal-shortcut" if is_temporal(net)[0] else "exhaustive"
    try:
        holds = has_antichain_to_leaf_property(net, strategy)
    except ValueError as exc:  # the size refusal; a fault in the route is a RuntimeError
        raise CliError(str(exc)) from exc
    payload = {"mode": "check-property", "strategy": strategy, "holds": holds}
    human = [f"antichain-to-leaf property: {'holds' if holds else 'fails'} ({strategy})"]
    return payload, human, 0 if holds else 1


def cmd_temporal(args, net: PhyloNetwork) -> Answer:
    from .temporal import is_temporal, temporal_violation

    temporal, tmap = is_temporal(net)
    payload = {"temporal": temporal,
               "ranks": tmap.ranks if tmap else None,
               "violating_antichain": None,
               "separator": None}
    human = [f"temporal: {'yes' if temporal else 'no'}"]
    if temporal and zigzag_trails(net)[2]:  # a W-fence: not tree-based
        violating, separator = temporal_violation(net)
        payload["violating_antichain"] = violating
        payload["separator"] = separator
        human += [f"not tree-based; antichain with no disjoint leaf routing: {list(violating)}",
                  f"separator, met by every path from it to a leaf: {list(separator)}"]
    return payload, human, 0 if temporal else 1


def _generate(args) -> tuple[PhyloNetwork, None]:
    """The network of ``gen`` and ``bench``, which read no input;
    ``args.generate_ms`` records the time generation alone took."""
    from .generate import GenerationError, GenSpec, generate

    if getattr(args, "repeat", 1) < 1:  # gen takes no --repeat, bench no --temporal
        raise CliError("--repeat must be at least 1")
    started = time.perf_counter()
    try:
        net = generate(GenSpec(args.leaves, args.retics, args.seed, getattr(args, "temporal", False)))
    except GenerationError as exc:
        raise CliError(str(exc)) from exc
    args.generate_ms = (time.perf_counter() - started) * 1000.0
    return net, None


def cmd_gen(args, net: PhyloNetwork) -> Answer:
    from .enewick import serialize_enewick

    text = serialize_enewick(net)
    payload = {"leaves": args.leaves, "retics": args.retics, "seed": args.seed,
               "temporal_only": args.temporal,
               "num_vertices": net.num_vertices, "network": text}
    if args.out is None:
        return payload, [text], 0
    _write_network(args.out, net, text)
    return payload, [f"wrote {args.out}"], 0


def cmd_bench(args, net: PhyloNetwork) -> Answer:
    from .treebased import deviation_indices

    runs = []
    for _ in range(args.repeat):
        # a network keeps its walk, so each run walks a fresh copy, built
        # before the timer starts
        fresh = PhyloNetwork.from_lists(list(net.children), list(net.parents), dict(net.leaf_labels))
        started = time.perf_counter()
        deviation_indices(fresh)
        runs.append((time.perf_counter() - started) * 1000.0)
    payload = {
        "leaves": args.leaves, "retics": args.retics, "seed": args.seed,
        "repeat": args.repeat, "num_vertices": net.num_vertices,
        "generate_ms": round(args.generate_ms, 3),
        "runs_ms": [round(r, 3) for r in runs],
        "best_ms": round(min(runs), 3),
        "mean_ms": round(sum(runs) / len(runs), 3),
    }
    human = [f"|V| = {net.num_vertices}: generate {args.generate_ms:.1f} ms, "
             f"indices best {min(runs):.1f} ms over {args.repeat} run(s)"]
    return payload, human, 0


def _option(name: str, kind, default=None, help: str | None = None,
            metavar: str | None = None, need: str = "") -> SimpleNamespace:
    """One option as both readers of argv take it.  ``name`` "input" is the
    one positional; ``kind`` is bool for a flag, str, int, or the tuple of
    choices; ``need`` is "required" or "one of" the subcommand's exclusive
    group.  A namespace: creating a NamedTuple class would cost every query
    about 0.2 ms."""
    return SimpleNamespace(name=name, kind=kind, default=default, help=help,
                           metavar=metavar, need=need)


_INPUT = (_option("input", str, None, "input file, or - for stdin", need="required"),
          _option("--format", ("enewick", "edgelist"), None,
                  "input format (default: by file extension)"),
          _option("--json", bool, False, "JSON report envelope"))
_DOT = _option("--dot", str, None, "write a DOT rendering", "PATH")
_GENERATED = (_option("--leaves", int, need="required"),
              _option("--retics", int, need="required"), _option("--seed", int, 0))

# Every subcommand, in the order ``tbnet --help`` lists them: its answer
# function, its help line, and its options in the order its help lists
# them.  _read_argv reads well-formed argv from it, and _build_parser
# builds argparse's full parser from it for help, version and errors.
SUBCOMMANDS = {
    "check": (cmd_check, "decide tree-based and emit a certificate", (*_INPUT, _DOT)),
    "indices": (cmd_indices, "deviation indices l, p, t and friends", _INPUT),
    "paths": (cmd_paths, "minimum vertex-disjoint path partition", (*_INPUT, _DOT)),
    "spanning-tree": (cmd_spanning_tree,
                      "rooted spanning tree minimising leaves outside the label set",
                      (*_INPUT, _DOT)),
    "complete": (cmd_complete, "attach leaves to make the network tree-based", (
        *_INPUT, _DOT, _option("--out", str, None, "write the result network", "PATH"))),
    "antichain": (cmd_antichain, "antichain queries", (
        *_INPUT,
        _option("--max", bool, False, "maximum antichain", need="one of"),
        _option("--set", str, None, "route the given antichain to leaves disjointly",
                "V1,V2,...", "one of"),
        _option("--check-property", bool, False, "decide the antichain-to-leaf property",
                need="one of"))),
    "temporal": (cmd_temporal, "decide temporality, emit ranks", _INPUT),
    "gen": (cmd_gen, "generate a seeded random network", (
        *_GENERATED,
        _option("--temporal", bool, False, "rejection-sample until temporal"),
        _option("--out", str, None, "write here instead of stdout", "PATH"),
        _option("--json", bool, False))),
    "bench": (cmd_bench, "time the index pipeline on a generated network", (
        *_GENERATED, _option("--repeat", int, 3), _option("--json", bool, False))),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of ``tbnet`` and of every subcommand, built from the table."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tbnet",
        description="Tree-based analysis of rooted binary phylogenetic networks.")
    parser.add_argument("--version", action="version", version=f"tbnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, options) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        group = None
        for opt in options:
            kw = {"default": opt.default, "help": opt.help}
            if opt.kind is bool:
                kw["action"] = "store_true"
            else:
                kw.update(metavar=opt.metavar, type=int if opt.kind is int else None,
                          choices=None if isinstance(opt.kind, type) else opt.kind)
            if opt.need == "required" and opt.name != "input":  # argparse requires a positional
                kw["required"] = True
            if opt.need == "one of" and group is None:
                group = sp.add_mutually_exclusive_group(required=True)
            (group if opt.need == "one of" else sp).add_argument(opt.name, **kw)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv``, read from the option table
    when ``argv`` is well formed: a subcommand, then its exact option names,
    each at most once, a value that starts with no ``-`` after each value
    option, an int in ASCII digits, a choice among its choices, at most the
    one positional (``-`` is one), and every required item.  Anything else
    gives None, and argparse parses it and writes every help, usage and
    error text."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, options = SUBCOMMANDS[argv[0]]
    named = {opt.name: opt for opt in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        opt = named.get("input" if token == "-" or token[:1] != "-" else token)
        if opt is None or opt.name in given:
            return None
        if opt.kind is bool:
            value = True
        elif opt.name == "input":
            value = token
        else:
            value = next(tokens, "-")  # a missing value fails as a "-" would
            if value[:1] == "-":
                return None
            if opt.kind is int:
                # int() converts 640 digits under any digit limit it is given
                if not (value.isascii() and value.isdigit() and len(value) <= 640):
                    return None
                value = int(value)
            elif opt.kind is not str and value not in opt.kind:
                return None
        given[opt.name] = value
    if any(opt.need == "required" and opt.name not in given for opt in options):
        return None
    group = [opt.name for opt in options if opt.need == "one of"]
    if group and sum(name in given for name in group) != 1:
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        opt.name.lstrip("-").replace("-", "_"): given.get(opt.name, opt.default)
        for opt in options})


def main(argv=None) -> int:
    """Run one query: read and build the network (``gen`` and ``bench``
    generate it), answer, and print the envelope or the human lines."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # well-formed argv is read from the option table, without argparse
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    # A query builds up to one tuple or list of ints per vertex and arc but
    # no reference cycle, so reference counting frees all of it; the cyclic
    # collector would only rescan it.  The caller's setting is restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for option in ("dot", "out"):
            if args.json and getattr(args, option, None) == "-":
                raise CliError(f"--{option} - would mix into the JSON report on stdout; "
                               f"give --{option} a file path")
        started = time.perf_counter()
        net, digest = (_load if hasattr(args, "input") else _generate)(args)
        payload, human, code = args.func(args, net)
        if args.command == "gen":  # what gen answers about is the network it writes
            digest = sha256(payload["network"].encode()).hexdigest()
        if args.json:
            elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
            text = _json_text({"tool": "tbnet", "version": __version__, "command": args.command,
                               "input_sha256": digest, "elapsed_ms": elapsed_ms,
                               "payload": payload})
        else:
            text = "\n".join(human)
        # one write: with PYTHONUNBUFFERED set, each write is a system call
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
        return code
    except (CliError, ParseError, InvalidNetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to the null
        # device, so the flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the answer was written", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        print(f"internal error: {traceback.format_exc()}", file=sys.stderr, end="")
        return 3
    finally:
        if collecting:
            gc.enable()


def process_main() -> NoReturn:
    """The process entry point, of ``python -m tbnet.cli`` and of the
    ``tbnet`` script: exit with the code of :func:`main`.  Whichever way
    ``main`` ends, the heap is frozen first, so the collections the
    interpreter runs at shutdown skip objects it is about to free anyway.
    ``main`` never freezes: library callers and tests run it in process."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    process_main()
