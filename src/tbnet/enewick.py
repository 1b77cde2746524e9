"""Extended Newick reading and writing.

Dialect notes, since eNewick in the wild varies:

* A reticulation appears under one hybrid tag ``#H<k>`` exactly twice, once
  per parent.  The occurrence written as ``(subtree)#H<k>`` carries the
  children; the bare ``#H<k>`` occurrence is a reference.
* Names directly before a hybrid tag (``x#H1`` or ``(a,b)v#H1``) are
  accepted and discarded; only bare labels denote leaves.
* Branch lengths are not part of the dialect and ``:`` is rejected
  outright rather than silently dropped.
* Whitespace between tokens is ignored.

Parsing and serialising both use explicit stacks so deeply nested inputs
do not hit the interpreter recursion limit.
"""

from __future__ import annotations

import re

from .network import LABEL_RE, PhyloNetwork

TAG_RE = re.compile(r"#H(\d+)")


class ParseError(ValueError):
    """Input text rejected, with position information."""

    def __init__(self, message: str, text: str, offset: int):
        self.offset = offset
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),;":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == ":":
            raise ParseError("branch lengths are not supported", text, i)
        if ch == "#":
            m = TAG_RE.match(text, i)
            if not m:
                raise ParseError("expected hybrid tag of the form #H<number>", text, i)
            tokens.append(("tag", m.group(0), i))
            i = m.end()
            continue
        m = LABEL_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", text, i)
        tokens.append(("label", m.group(0), i))
        i = m.end()
    return tokens


def parse_enewick(text: str) -> PhyloNetwork:
    """Parse one network; raises ParseError on bad syntax and
    InvalidNetworkError when the digraph is not a valid network."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", text, 0)

    num_vertices = 0
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    hybrid_id: dict[str, int] = {}
    hybrid_uses: dict[str, int] = {}
    hybrid_defined: set[str] = set()

    def new_vertex() -> int:
        nonlocal num_vertices
        num_vertices += 1
        return num_vertices - 1

    def hybrid(tag: str, children, pos: int) -> int:
        vid = hybrid_id.get(tag)
        if vid is None:
            vid = new_vertex()
            hybrid_id[tag] = vid
        hybrid_uses[tag] = hybrid_uses.get(tag, 0) + 1
        if children is not None:
            if tag in hybrid_defined:
                raise ParseError(f"hybrid tag {tag} has a subtree in two places", text, pos)
            hybrid_defined.add(tag)
            for c in children:
                edges.append((vid, c))
        return vid

    # pending: the item just read, shapes ("leaf", label), ("group", children,
    # named) and ("done", vid).  stack holds child lists of open groups.
    stack: list[list[int]] = []
    pending = None

    def finalize() -> int:
        kind = pending[0]
        if kind == "leaf":
            vid = new_vertex()
            labels[vid] = pending[1]
            return vid
        if kind == "group":
            vid = new_vertex()
            for c in pending[1]:
                edges.append((vid, c))
            return vid
        return pending[1]

    end_offset = None
    for kind, value, pos in tokens:
        if end_offset is not None:
            raise ParseError("unexpected text after ';'", text, pos)
        if kind == "(":
            if pending is not None:
                raise ParseError("expected ',' or ')' before '('", text, pos)
            stack.append([])
        elif kind == "label":
            if pending is None:
                pending = ("leaf", value)
            elif pending[0] == "group" and not pending[2]:
                pending = ("group", pending[1], True)
            else:
                raise ParseError("unexpected label", text, pos)
        elif kind == "tag":
            if pending is None:
                pending = ("done", hybrid(value, None, pos))
            elif pending[0] == "leaf":
                pending = ("done", hybrid(value, None, pos))
            elif pending[0] == "group":
                pending = ("done", hybrid(value, pending[1], pos))
            else:
                raise ParseError("unexpected hybrid tag", text, pos)
        elif kind == ",":
            if pending is None:
                raise ParseError("expected a subtree before ','", text, pos)
            if not stack:
                raise ParseError("',' outside parentheses", text, pos)
            stack[-1].append(finalize())
            pending = None
        elif kind == ")":
            if pending is None:
                raise ParseError("expected a subtree before ')'", text, pos)
            if not stack:
                raise ParseError("unmatched ')'", text, pos)
            kids = stack.pop()
            kids.append(finalize())
            pending = ("group", tuple(kids), False)
        else:  # ";"
            if stack:
                raise ParseError("unclosed '(' before ';'", text, pos)
            if pending is None:
                raise ParseError("expected a network before ';'", text, pos)
            root = finalize()
            pending = None
            end_offset = pos

    if end_offset is None:
        raise ParseError("missing ';'", text, len(text))

    for tag, uses in hybrid_uses.items():
        if uses != 2:
            raise ParseError(
                f"hybrid tag {tag} appears {uses} time(s); a reticulation needs exactly 2",
                text, end_offset)
        if tag not in hybrid_defined:
            raise ParseError(f"hybrid tag {tag} never given a subtree", text, end_offset)

    return PhyloNetwork(edges, labels, num_vertices)


def _min_leaf_labels(net: PhyloNetwork) -> list[str]:
    out = [""] * net.num_vertices
    for v in reversed(net.topological_order()):
        if net.out_degree[v] == 0:
            out[v] = net.leaf_labels[v]
        else:
            out[v] = min(out[c] for c in net.children[v])
    return out


def serialize_enewick(net: PhyloNetwork) -> str:
    """Deterministic form: children ordered by (smallest leaf label beneath,
    vertex id), hybrid numbers assigned in traversal order.  Output is a
    fixed function of the network as built; round-trips through the parser
    preserve the network up to isomorphism, not the exact string, because
    parsing renumbers vertices."""
    if net.num_vertices == 1:
        return f"{net.leaf_labels[0]};"
    minlab = _min_leaf_labels(net)
    retic = set(net.reticulations)
    number: dict[int, int] = {}
    out: list[str] = []

    def enter(v: int):
        """Emit v's opening text; a frame if its children still need writing."""
        if net.out_degree[v] == 0:
            out.append(net.leaf_labels[v])
            return None
        if v in retic:
            if v in number:
                out.append(f"#H{number[v]}")
                return None
            number[v] = len(number) + 1
        out.append("(")
        kids = sorted(net.children[v], key=lambda c: (minlab[c], c))
        return [v, kids, 0]

    stack = [enter(net.root)]
    while stack:
        frame = stack[-1]
        v, kids, i = frame
        if i == len(kids):
            stack.pop()
            out.append(")")
            if v in retic:
                out.append(f"#H{number[v]}")
            continue
        frame[2] += 1
        if i:
            out.append(",")
        child_frame = enter(kids[i])
        if child_frame is not None:
            stack.append(child_frame)
    out.append(";")
    return "".join(out)
