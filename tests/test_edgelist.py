import pytest

from tbnet import (
    InvalidNetworkError,
    ParseError,
    parse_edgelist,
    serialize_edgelist,
    vertex_names,
)
from tbnet.oracles import isomorphic

from conftest import corpus


def test_ids_by_first_appearance():
    net = parse_edgelist("rho a\nrho b\n")
    assert net.root == 0
    assert net.num_vertices == 3
    assert dict(net.leaf_labels) == {1: "a", 2: "b"}


def test_comments_and_blanks():
    text = "# heading\nrho a   # inline\n\nrho b\n"
    net = parse_edgelist(text)
    assert net.labels == ("a", "b")


def test_singleton_round_trip():
    net = parse_edgelist("lonely\n")
    assert net.num_vertices == 1 and net.labels == ("lonely",)
    assert serialize_edgelist(net) == "lonely\n"


def test_three_tokens_rejected():
    with pytest.raises(ParseError) as err:
        parse_edgelist("rho a b\n")
    assert "parent child" in str(err.value)


@pytest.mark.parametrize("text,line,column", [
    ("r a\nr b c\n", 2, 1),
    ("# x y z\r\nr a # b c\r\n\r\n  r a b\r\n", 4, 1),
    ("r a\u2028r\x85b c d\n", 3, 1),  # every break str.splitlines knows ends a line
    ("r a\nr b\n\x0bx # y\nq w e", 5, 1),
    ("r a\rr b c\r", 2, 1),  # bare carriage returns
])
def test_a_malformed_line_is_reported_where_it_starts(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_edgelist(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_edgelist("# nothing but comments\n\n")


def test_parallel_edges_fail_validation():
    with pytest.raises(InvalidNetworkError):
        parse_edgelist("r a\nr a\n")


def test_undirected_cycle_fails_validation():
    with pytest.raises(InvalidNetworkError):
        parse_edgelist("a b\nb c\nc a\n")


def test_vertex_names_stable_and_unique():
    net = parse_edgelist("rho i0\nrho b\n")  # leaf literally named i0
    names = vertex_names(net)
    assert len(set(names)) == net.num_vertices
    assert names[1] == "i0"       # the leaf keeps its label
    assert names[0].startswith("i0")  # the root falls back and disambiguates


def test_round_trip_isomorphism():
    for net in corpus(60, seed_base=17_000):
        again = parse_edgelist(serialize_edgelist(net))
        assert isomorphic(net, again)


def test_serialization_deterministic_and_sorted():
    for net in corpus(20, seed_base=18_000):
        text = serialize_edgelist(net)
        assert text == serialize_edgelist(net)
        if net.num_vertices > 1:
            lines = text.strip().split("\n")
            assert len(lines) == len(net.edges)


def test_fixture_round_trip(killer):
    again = parse_edgelist(serialize_edgelist(killer))
    assert isomorphic(killer, again)
    # labels survive verbatim
    assert again.labels == killer.labels
