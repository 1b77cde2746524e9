"""Mutated corpus networks, in both formats: a reader either returns a
network or raises ParseError or InvalidNetworkError, nothing else."""

import re

from hypothesis import given, settings, strategies as st

from tbnet import (InvalidNetworkError, ParseError, parse_edgelist, parse_enewick,
                   serialize_edgelist, serialize_enewick)

from conftest import corpus

NETWORKS = corpus(40, max_leaves=5, max_retics=3, seed_base=31_000)
ENEWICK = [serialize_enewick(net) for net in NETWORKS]
EDGELIST = [serialize_edgelist(net) for net in NETWORKS]

chars = st.sampled_from("(),;:#H0123456789ax_.- \t\n") | st.characters()


@st.composite
def mutated(draw, texts):
    """A corpus text after one to four edits: insert, delete or replace a
    character, add ':', repeat a hybrid tag, or add whitespace."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "colon", "tag", "space")))
        if edit == "insert":
            text = text[:i] + draw(chars) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "replace":
            text = text[:i] + draw(chars) + text[i + 1:]
        elif edit == "colon":
            text = text[:i] + ":" + text[i:]
        elif edit == "tag":
            tags = re.findall(r"#H\d+", text) or ["#H1"]
            text = text[:i] + draw(st.sampled_from(tags)) + text[i:]
        else:
            text = text[:i] + draw(st.sampled_from((" ", "\n", "\t", " \n "))) + text[i:]
    return text


def _read_or_reject(parse, text):
    try:
        parse(text)
    except (ParseError, InvalidNetworkError):
        pass


@settings(max_examples=400, deadline=None)
@given(mutated(ENEWICK))
def test_enewick_reader_raises_only_input_errors(text):
    _read_or_reject(parse_enewick, text)


@settings(max_examples=300, deadline=None)
@given(mutated(EDGELIST))
def test_edgelist_reader_raises_only_input_errors(text):
    _read_or_reject(parse_edgelist, text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab \n\r\x0b\x0c\x1c\x85\u2028")), st.data())
def test_error_positions_count_lines_as_splitlines(text, data):
    offset = data.draw(st.integers(0, len(text)))
    if text[offset - 1:offset + 1] == "\r\n":
        offset -= 1  # no error is reported between "\r" and "\n"
    starts, pos = [0], 0  # line starts: 0 and the end of each line break
    for piece in text.splitlines(keepends=True):
        pos += len(piece)
        if piece.splitlines() != [piece]:
            starts.append(pos)
    line = sum(start <= offset for start in starts)
    err = ParseError("bad", text, offset)
    assert (err.line, err.column) == (line, offset - starts[line - 1] + 1)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("ab \t\n")), st.booleans(), st.data())
def test_error_positions_in_newline_texts_are_unchanged(text, crlf, data):
    # with "\n" or "\r\n" line ends, lines are counted by "\n" as before
    if crlf:
        text = text.replace("\n", "\r\n")
    offset = data.draw(st.integers(0, len(text)))
    if text[offset - 1:offset + 1] == "\r\n":
        offset -= 1  # no error is reported between "\r" and "\n"
    err = ParseError("bad", text, offset)
    assert (err.line, err.column) == (text.count("\n", 0, offset) + 1,
                                      offset - text.rfind("\n", 0, offset))
