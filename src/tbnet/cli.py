"""Command-line front end.

Exit codes: 0 for success (or a positive analysis answer), 1 for a negative
analysis answer (not tree-based, property fails, not temporal), 2 for input
or usage errors, 3 for an internal error (any other exception, or a failed
self-check), reported with its traceback.  ``--json`` wraps every payload in
a fixed envelope whose schema ships with the package as
``report.schema.json``.

One pipeline in :func:`main` serves every subcommand.  It reads and builds
the input network (``gen`` and ``bench`` generate theirs), times the query,
calls the subcommand's answer function and prints the ``--json`` envelope
or the human lines.  An answer function ``cmd_*(args, net)`` holds only its
library call and returns ``(payload, human_lines, exit_code)``; every
``--dot`` is written by :func:`_dot`.

Each answer function imports the modules it runs, so a query loads only
its own layers: ``check``, ``indices``, ``paths``, ``spanning-tree`` and
``complete`` load ``network``, the reader and ``treebased``;
``antichains``, ``generate`` and ``dot`` load only where they are used.
No subcommand loads ``matching``, the reference route, or ``dataclasses``.
:func:`main` turns the cyclic garbage collector off while a query runs,
since a query's structures hold no reference cycles, and restores the
caller's setting on return.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .enewick import ParseError, parse_enewick, serialize_enewick
from .network import InvalidNetworkError, PhyloNetwork

EXT_FORMATS = {
    ".nwk": "enewick", ".enwk": "enewick", ".enewick": "enewick", ".newick": "enewick",
    ".edges": "edgelist", ".edgelist": "edgelist",
}
# What an answer function returns: the --json payload, the human lines and
# the exit code.
Answer = tuple[dict, list[str], int]


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
        return text, hashlib.sha256(text.encode()).hexdigest()
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
        return parse_enewick(text), digest
    from .edgelist import parse_edgelist

    return parse_edgelist(text), digest


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


def _json_text(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, float, bool and None.
    ``newline`` is a newline plus the indent of the line ``obj`` is on.
    The json module writes indented output in pure Python, one call per
    value; this joins each all-int list in one step, and each list of
    non-empty all-int lists (edges, paths) without a call per inner list."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        elif (set(map(type, obj)) == {list} and all(obj)
              and set(map(type, chain.from_iterable(obj))) == {int}):
            sep = "," + inner + "  "
            items = ["[" + inner + "  " + sep.join(map(int.__repr__, x)) + inner + "]"
                     for x in obj]
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
                 for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
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
        certificate = {"kind": "base_tree", "edges": [list(e) for e in cert.tree.edges]}
        human = ["tree-based: yes", f"base tree edges: {len(cert.tree.edges)}"]
    else:
        certificate = {"kind": "rr_path", "rr_path": list(cert.rr_path),
                       "u1": list(cert.u1), "u2": list(cert.u2)}
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


def cmd_paths(args, net: PhyloNetwork) -> Answer:
    from .treebased import vertex_disjoint_paths

    partition = vertex_disjoint_paths(net)
    payload = {"count": partition.size,
               "paths": [list(p) for p in partition.paths]}
    human = [f"paths: {partition.size}"] + [
        "  " + " -> ".join(map(str, p)) for p in partition.paths]
    _dot(args, net, paths=partition)
    return payload, human, 0


def cmd_spanning_tree(args, net: PhyloNetwork) -> Answer:
    from .treebased import rooted_spanning_tree

    tree = rooted_spanning_tree(net)
    outside = tree.unlabeled_leaves(net)
    payload = {
        "root": tree.root,
        "edges": [list(e) for e in tree.edges],
        "leaves": list(tree.leaves),
        "unlabeled_leaves": list(outside),
        "unlabeled_leaf_count": len(outside),
    }
    human = [f"spanning tree with {len(tree.edges)} edges, "
             f"{len(outside)} leaf(s) outside the label set"]
    _dot(args, net, tree=tree)
    return payload, human, 0


def cmd_complete(args, net: PhyloNetwork) -> Answer:
    from .treebased import tree_based_completion, zigzag_trails

    result = tree_based_completion(net)
    if zigzag_trails(result.network)[2]:
        raise RuntimeError("the completed network still has a W-fence")
    text = serialize_enewick(result.network)
    payload = {
        "attachments": len(result.attached_edges),
        "attached_edges": [list(e) for e in result.attached_edges],
        "new_labels": list(result.labels),
        "network": text,
    }
    if args.out is not None:
        _write_network(args.out, result.network, text)
    _dot(args, result.network,
         attached=tuple(map(result.network.vertex_by_label, result.labels)))
    return payload, [f"attached {len(result.attached_edges)} leaf(s)", text], 0


def _resolve_vertices(net: PhyloNetwork, spec: str) -> tuple[int, ...]:
    """Tokens are leaf labels when they match one, else integer ids; a
    repeated vertex is kept once, where it first appears."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            vid = net.vertex_by_label(token)
        except KeyError:
            try:
                vid = int(token)
            except ValueError:
                raise CliError(f"unknown vertex {token!r}") from None
            if not 0 <= vid < net.num_vertices:
                raise CliError(f"vertex id {vid} out of range")
        out.append(vid)
    if not out:
        raise CliError("--set needs at least one vertex")
    return tuple(dict.fromkeys(out))


def cmd_antichain(args, net: PhyloNetwork) -> Answer:
    from .antichains import (antichain_to_leaf, has_antichain_to_leaf_property,
                             is_temporal, max_antichain)
    from .treebased import deviation_indices

    if args.max:
        antichain, chains = max_antichain(net)
        payload = {"mode": "max", "antichain": list(antichain),
                   "size": len(antichain),
                   "chain_cover": [list(c) for c in chains]}
        return payload, [f"maximum antichain (size {len(antichain)}): {list(antichain)}"], 0
    if args.set is not None:
        members = _resolve_vertices(net, args.set)
        try:
            routed, witness = antichain_to_leaf(net, members)
        except ValueError:
            raise CliError(f"{list(members)} is not an antichain") from None
        payload = {"mode": "set", "set": list(members),
                   "routes_to_leaves": routed,
                   "paths": [list(p) for p in witness.paths] if witness else None}
        human = [f"disjoint paths to leaves: {'yes' if routed else 'no'}"]
        if witness:
            human += ["  " + " -> ".join(map(str, p)) for p in witness.paths]
        return payload, human, 0 if routed else 1
    # --check-property
    temporal, _ = is_temporal(net)
    strategy = "temporal-shortcut" if temporal else "exhaustive"
    try:  # on a temporal network the property is tree-basedness
        holds = deviation_indices(net).p == 0 if temporal else has_antichain_to_leaf_property(net)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {"mode": "check-property", "strategy": strategy, "holds": holds}
    human = [f"antichain-to-leaf property: {'holds' if holds else 'fails'} ({strategy})"]
    return payload, human, 0 if holds else 1


def cmd_temporal(args, net: PhyloNetwork) -> Answer:
    from .antichains import _violating_antichain, is_temporal
    from .treebased import zigzag_trails

    temporal, tmap = is_temporal(net)
    payload = {"temporal": temporal,
               "ranks": list(tmap.ranks) if tmap else None,
               "violating_antichain": None}
    human = [f"temporal: {'yes' if temporal else 'no'}"]
    fences = zigzag_trails(net)[2] if temporal else ()
    if fences:
        violating = _violating_antichain(net, fences[0])
        payload["violating_antichain"] = list(violating)
        human.append(f"not tree-based; antichain with no disjoint leaf routing: "
                     f"{list(violating)}")
    return payload, human, 0 if temporal else 1


def _generate(args) -> tuple[PhyloNetwork, None]:
    """The network of ``gen`` and ``bench``, which read no input;
    ``args.generate_ms`` records the time generation alone took."""
    from .generate import GenerationError, GenSpec, generate

    if args.repeat < 1:
        raise CliError("--repeat must be at least 1")
    started = time.perf_counter()
    try:
        net = generate(GenSpec(args.leaves, args.retics, args.seed, args.temporal))
    except GenerationError as exc:
        raise CliError(str(exc)) from exc
    args.generate_ms = (time.perf_counter() - started) * 1000.0
    return net, None


def cmd_gen(args, net: PhyloNetwork) -> Answer:
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
        started = time.perf_counter()
        deviation_indices(net)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbnet",
        description="Tree-based analysis of rooted binary phylogenetic networks.")
    parser.add_argument("--version", action="version", version=f"tbnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_command(name: str, func, help_: str, dot: bool = False, out: bool = False):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input", help="input file, or - for stdin")
        sp.add_argument("--format", choices=("enewick", "edgelist"),
                        help="input format (default: by file extension)")
        sp.add_argument("--json", action="store_true", help="JSON report envelope")
        if dot:
            sp.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
        if out:
            sp.add_argument("--out", metavar="PATH", help="write the result network")
        sp.set_defaults(func=func)
        return sp

    io_command("check", cmd_check, "decide tree-based and emit a certificate", dot=True)
    io_command("indices", cmd_indices, "deviation indices l, p, t and friends")
    io_command("paths", cmd_paths, "minimum vertex-disjoint path partition", dot=True)
    io_command("spanning-tree", cmd_spanning_tree,
               "rooted spanning tree minimising leaves outside the label set", dot=True)
    io_command("complete", cmd_complete,
               "attach leaves to make the network tree-based", dot=True, out=True)

    anti = io_command("antichain", cmd_antichain, "antichain queries")
    group = anti.add_mutually_exclusive_group(required=True)
    group.add_argument("--max", action="store_true", help="maximum antichain")
    group.add_argument("--set", metavar="V1,V2,...",
                       help="route the given antichain to leaves disjointly")
    group.add_argument("--check-property", action="store_true",
                       help="decide the antichain-to-leaf property")

    io_command("temporal", cmd_temporal, "decide temporality, emit ranks")

    gen = sub.add_parser("gen", help="generate a seeded random network")
    gen.add_argument("--leaves", type=int, required=True)
    gen.add_argument("--retics", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--temporal", action="store_true",
                     help="rejection-sample until temporal")
    gen.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen, repeat=1)  # _generate reads both commands' options

    bench = sub.add_parser("bench", help="time the index pipeline on a generated network")
    bench.add_argument("--leaves", type=int, required=True)
    bench.add_argument("--retics", type=int, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeat", type=int, default=3)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench, temporal=False)

    return parser


def main(argv=None) -> int:
    """Run one query: read and build the network (``gen`` and ``bench``
    generate it), answer, and print the envelope or the human lines."""
    args = _build_parser().parse_args(argv)
    # A query builds up to one tuple or list of ints per vertex and arc but
    # no reference cycle, so reference counting frees all of it; the cyclic
    # collector would only rescan it.  The caller's setting is restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        net, digest = (_load if "input" in args else _generate)(args)
        payload, human, code = args.func(args, net)
        if args.command == "gen":  # what gen answers about is the network it writes
            digest = hashlib.sha256(payload["network"].encode()).hexdigest()
        if args.json:
            elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
            print(_json_text({"tool": "tbnet", "version": __version__, "command": args.command,
                              "input_sha256": digest, "elapsed_ms": elapsed_ms,
                              "payload": payload}))
        else:
            print(*human, sep="\n")
        return code
    except (CliError, ParseError, InvalidNetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        print(f"internal error: {traceback.format_exc()}", file=sys.stderr, end="")
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
