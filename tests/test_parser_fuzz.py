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
