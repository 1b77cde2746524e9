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

The reader finds every token with one compiled regular expression and
reads them in one loop that keeps its state in locals.  Errors carry the
line and column of the offending token; a character that starts no token
is reported first, wherever it stands, at its own position.

The writer makes two linear passes over the child lists and needs no
topological order: a post-order that finds the smallest leaf label below
each vertex, then one that writes the text.  Parsing and serialising both
use explicit stacks so deeply nested inputs do not hit the interpreter
recursion limit.
"""

from __future__ import annotations

import re

from .network import LABEL_RE, PhyloNetwork

# The tokens, one per match: punctuation, a hybrid tag or a label.  A scan
# skips what matches none of them, so the reader checks that it skipped
# only whitespace.
_TOKEN_RE = re.compile(rf"[(),;]|#H\d+|{LABEL_RE.pattern}")
# The same, plus any other non-space character, captured: a lexical error.
_LEX_RE = re.compile(rf"{_TOKEN_RE.pattern}|(\S)")

# What the reader holds between tokens: nothing, a leaf label, a finished
# vertex id (a hybrid tag was read), or a group's children, unnamed or named.
_NONE, _LEAF, _DONE, _GROUP, _NAMED = range(5)


class ParseError(ValueError):
    """Input text rejected, with position information."""

    def __init__(self, message: str, text: str, offset: int):
        self.offset = offset
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


def _lexical_error(text: str) -> ParseError:
    """The error for the first non-space character that starts no token;
    the text must have one."""
    m = next(m for m in _LEX_RE.finditer(text) if m.group(1))
    bad = m.group(1)
    if bad == ":":
        return ParseError("branch lengths are not supported", text, m.start())
    if bad == "#":
        return ParseError("expected hybrid tag of the form #H<number>", text, m.start())
    return ParseError(f"unexpected character {bad!r}", text, m.start())


def _error_at(text: str, k: int, message: str) -> ParseError:
    """The error ``message`` at the start of token ``k``."""
    return ParseError(message, text, [m.start() for m in _TOKEN_RE.finditer(text)][k])


def parse_enewick(text: str) -> PhyloNetwork:
    """Parse one network; raises ParseError on bad syntax and
    InvalidNetworkError when the digraph is not a valid network.

    One regex scan splits the text into tokens and one loop reads them,
    holding the item just read in ``state`` and ``value``.  Vertex ids are
    given in reading order: a leaf or group when the token after it closes
    it, a reticulation at the first occurrence of its tag."""
    tokens = _TOKEN_RE.findall(text)
    # A lexical error is reported first, wherever it stands.
    if sum(map(len, tokens)) != sum(map(len, text.split())):
        raise _lexical_error(text)
    if not tokens:
        raise ParseError("empty input", text, 0)

    n = 0
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    hybrid_id: dict[str, int] = {}
    hybrid_uses: dict[str, int] = {}
    hybrid_defined: set[str] = set()
    stack: list[list[int]] = []  # child lists of the open groups
    state, value = _NONE, None
    end = -1
    for k, tok in enumerate(tokens):
        if tok == "," or tok == ")" or tok == ";":  # closes the item just read
            if tok == ";":
                if stack:
                    raise _error_at(text, k, "unclosed '(' before ';'")
                if state == _NONE:
                    raise _error_at(text, k, "expected a network before ';'")
            else:
                if state == _NONE:
                    raise _error_at(text, k, f"expected a subtree before '{tok}'")
                if not stack:
                    raise _error_at(text, k, "',' outside parentheses" if tok == ","
                                    else "unmatched ')'")
            if state == _LEAF:
                v = n
                n += 1
                labels[v] = value
            elif state == _DONE:
                v = value
            else:
                v = n
                n += 1
                for c in value:
                    edges.append((v, c))
            if tok == ",":
                stack[-1].append(v)
                state = _NONE
            elif tok == ")":
                value = stack.pop()
                value.append(v)
                state = _GROUP
            else:
                end = k
                break
        elif tok == "(":
            if state != _NONE:
                raise _error_at(text, k, "expected ',' or ')' before '('")
            stack.append([])
        elif tok[0] == "#":
            if state == _DONE:
                raise _error_at(text, k, "unexpected hybrid tag")
            v = hybrid_id.get(tok)
            if v is None:
                v = hybrid_id[tok] = n
                n += 1
            hybrid_uses[tok] = hybrid_uses.get(tok, 0) + 1
            if state >= _GROUP:  # the occurrence that carries the children
                if tok in hybrid_defined:
                    raise _error_at(text, k, f"hybrid tag {tok} has a subtree in two places")
                hybrid_defined.add(tok)
                for c in value:
                    edges.append((v, c))
            state, value = _DONE, v
        elif state == _NONE:
            state, value = _LEAF, tok
        elif state == _GROUP:
            state = _NAMED
        else:
            raise _error_at(text, k, "unexpected label")

    if end < 0:
        raise ParseError("missing ';'", text, len(text))
    if end + 1 < len(tokens):
        raise _error_at(text, end + 1, "unexpected text after ';'")
    for tag, uses in hybrid_uses.items():
        if uses != 2:
            raise _error_at(
                text, end,
                f"hybrid tag {tag} appears {uses} time(s); a reticulation needs exactly 2")
        if tag not in hybrid_defined:
            raise _error_at(text, end, f"hybrid tag {tag} never given a subtree")
    return PhyloNetwork(edges, labels, n)


def serialize_enewick(net: PhyloNetwork) -> str:
    """Deterministic form: children ordered by (smallest leaf label beneath,
    vertex id), hybrid numbers assigned in traversal order.  Output is a
    fixed function of the network as built; round-trips through the parser
    preserve the network up to isomorphism, not the exact string, because
    parsing renumbers vertices.

    Two linear stack passes over the child lists, with no topological
    order.  The first is a post-order that stores the smallest leaf label
    beneath each vertex.  The second writes from one stack that holds
    vertices to enter and the text that closes or separates them; a tree
    vertex's child ids are ascending, so one label comparison orders them
    by (smallest label, id)."""
    children = net.children
    minlab: list = [None] * net.num_vertices
    for v, name in net.leaf_labels.items():
        minlab[v] = name
    if net.num_vertices == 1:
        return f"{minlab[0]};"

    # Pass 1, a post-order: ~v closes v once its children are done.  A
    # vertex popped with its label set is done, never entered and unfinished:
    # only its descendants sit above its ~v, and none of them is its parent.
    stack = [net.root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        v = pop()
        if v < 0:
            kids = children[~v]  # one child or two
            a, b = minlab[kids[0]], minlab[kids[-1]]
            minlab[~v] = b if b < a else a
        elif minlab[v] is None:
            push(~v)
            extend(children[v])

    # Pass 2.  Strings on the stack are written as they are; a reticulation
    # gets its tag when first entered and is a bare reference after that.
    tags: dict[int, str] = {}
    out: list[str] = []
    write = out.append
    push(net.root)
    while stack:
        v = pop()
        if v.__class__ is str:
            write(v)
            continue
        kids = children[v]
        if not kids:
            write(minlab[v])
        elif len(kids) == 2:
            a, b = kids
            write("(")
            if minlab[b] < minlab[a]:
                extend((")", a, ",", b))
            else:
                extend((")", b, ",", a))
        elif v in tags:
            write(tags[v])
        else:
            tag = tags[v] = f"#H{len(tags) + 1}"
            write("(")
            extend((")" + tag, kids[0]))
    write(";")
    return "".join(out)
