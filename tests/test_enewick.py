"""Parser and serializer behavior for the hybrid-tagged Newick dialect."""

import random

import pytest

from tbnet import ParseError, PhyloNetwork, parse_enewick, serialize_enewick
from tbnet.oracles import isomorphic

from conftest import corpus, fixture_text

SMALL_HYBRID = "((a,(b)#H1),(#H1,c));"


def test_small_hybrid_example():
    net = parse_enewick(SMALL_HYBRID)
    assert net.num_vertices == 7
    assert net.labels == ("a", "b", "c")
    assert len(net.reticulations) == 1
    (r,) = net.reticulations
    assert net.in_degree[r] == 2
    assert net.leaf_labels[net.children[r][0]] == "b"


def test_fixture_files_agree(diamond, deviation_one, killer, temporal_nontb):
    for name, net in (("diamond", diamond), ("deviation_one", deviation_one),
                      ("killer", killer), ("temporal_nontb", temporal_nontb)):
        from_newick = parse_enewick(fixture_text(f"{name}.nwk"))
        assert isomorphic(net, from_newick), name


def test_round_trip_isomorphism():
    for net in corpus(80, seed_base=14_000):
        text = serialize_enewick(net)
        again = parse_enewick(text)
        assert isomorphic(net, again)


def test_serialization_deterministic():
    for net in corpus(25, seed_base=15_000):
        assert serialize_enewick(net) == serialize_enewick(net)


def test_tree_serialization_is_canonical():
    # Without reticulations the child ordering never falls back to vertex
    # ids (sibling subtrees cannot share a minimal leaf label), so the
    # string is a fixed point of parse/serialize.
    for net in corpus(40, seed_base=16_000, max_retics=0):
        s1 = serialize_enewick(net)
        assert serialize_enewick(parse_enewick(s1)) == s1


def _reference_serialize(net: PhyloNetwork) -> str:
    """The writer as first built: smallest labels over the ascending-id
    heap order, then a frame per vertex with its children sorted by
    (smallest label, id)."""
    if net.num_vertices == 1:
        return f"{net.leaf_labels[0]};"
    minlab = [""] * net.num_vertices
    for v in reversed(net.topological_order()):
        if net.out_degree[v] == 0:
            minlab[v] = net.leaf_labels[v]
        else:
            minlab[v] = min(minlab[c] for c in net.children[v])
    retic = set(net.reticulations)
    number: dict[int, int] = {}
    out: list[str] = []

    def enter(v):
        if net.out_degree[v] == 0:
            out.append(net.leaf_labels[v])
            return None
        if v in retic:
            if v in number:
                out.append(f"#H{number[v]}")
                return None
            number[v] = len(number) + 1
        out.append("(")
        return [v, sorted(net.children[v], key=lambda c: (minlab[c], c)), 0]

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
        child = enter(kids[i])
        if child is not None:
            stack.append(child)
    out.append(";")
    return "".join(out)


def _renumbered(net: PhyloNetwork, rng: random.Random) -> PhyloNetwork:
    perm = list(range(net.num_vertices))
    rng.shuffle(perm)
    return PhyloNetwork([(perm[u], perm[v]) for u, v in net.edges],
                        {perm[v]: name for v, name in net.leaf_labels.items()},
                        net.num_vertices)


def test_writer_matches_the_heap_order_reference():
    # Renumbered copies break ties on the smallest label by other ids.
    rng = random.Random(17)
    nets = corpus(3000, max_leaves=8, max_retics=6, seed_base=40_000)
    nets += [_renumbered(net, rng) for net in nets[:1500]]
    for net in nets:
        assert serialize_enewick(net) == _reference_serialize(net), net.edges


def test_singleton():
    net = parse_enewick("only;")
    assert net.num_vertices == 1
    assert dict(net.leaf_labels) == {0: "only"}
    assert serialize_enewick(net) == "only;"


def test_name_before_hybrid_tag_is_discarded():
    plain = parse_enewick("((a,(b)#H1),(#H1,c));")
    named = parse_enewick("((a,(b)v#H1),(#H1,c));")
    assert isomorphic(plain, named)
    assert named.labels == ("a", "b", "c")


def test_whitespace_tolerated():
    a = parse_enewick("((a, (b)#H1) ,\n  (#H1, c));")
    b = parse_enewick(SMALL_HYBRID)
    assert isomorphic(a, b)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("((a,b),c)", "missing ';'"),
        ("((a,b),c);x", "after ';'"),
        ("((a,b);", "unclosed"),
        ("(a,b));", "unmatched"),
        ("(a,,b);", "before ','"),
        ("(a,(b)#H1);", "appears 1 time"),
        ("((a)#H1,(b)#H1,#H1);", "two places"),
        ("(#H1,(a)#H1,#H1);", "appears 3 time"),
        ("(a:1,b);", "branch lengths"),
        ("(a,b@c);", "unexpected character"),
        ("(a,#X1);", "hybrid tag"),
        (";", "expected a network"),
        ("", "empty"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_enewick(text)
    assert fragment in str(err.value)


# Message, line and column of each error, as the character-by-character
# reader this one replaced reported them.  A lexical error (a character
# that starts no token) is reported before any structural one, wherever it
# is in the text.
MALFORMED = [
    ('', 'empty input', 1, 1),
    ('   \n\t ', 'empty input', 1, 1),
    ('(a,b)', "missing ';'", 1, 6),
    ('((a,b),c)\n', "missing ';'", 2, 1),
    ('(a,b);x', "unexpected text after ';'", 1, 7),
    ('(a,b); (c,d);', "unexpected text after ';'", 1, 8),
    ('(a:1,b);', 'branch lengths are not supported', 1, 3),
    ('(a,b):0.5;', 'branch lengths are not supported', 1, 6),
    ('(a,#X1);', 'expected hybrid tag of the form #H<number>', 1, 4),
    ('(a,#);', 'expected hybrid tag of the form #H<number>', 1, 4),
    ('(a,#h1);', 'expected hybrid tag of the form #H<number>', 1, 4),
    ('(a,b)#H;', 'expected hybrid tag of the form #H<number>', 1, 6),
    ('(a,é);', "unexpected character 'é'", 1, 4),
    ('(a,b);é', "unexpected character 'é'", 1, 7),
    ('(a b);', 'unexpected label', 1, 4),
    ('((a,b)c d);', 'unexpected label', 1, 9),
    ('(a,,b);', "expected a subtree before ','", 1, 4),
    ('(,a);', "expected a subtree before ','", 1, 2),
    ('(a,);', "expected a subtree before ')'", 1, 4),
    ('a,b;', "',' outside parentheses", 1, 2),
    ('(a,b));', "unmatched ')'", 1, 6),
    (')a;', "expected a subtree before ')'", 1, 1),
    (';', "expected a network before ';'", 1, 1),
    ('();', "expected a subtree before ')'", 1, 2),
    ('(a,b)(c,d);', "expected ',' or ')' before '('", 1, 6),
    ('a(b,c);', "expected ',' or ')' before '('", 1, 2),
    ('(a,b)#H1;', 'hybrid tag #H1 appears 1 time(s); a reticulation needs exactly 2', 1, 9),
    ('((a,b)#H1,(c)#H1);', 'hybrid tag #H1 has a subtree in two places', 1, 14),
    ('((a,b)#H1,#H1#H1);', 'unexpected hybrid tag', 1, 14),
    ('(a#H1,b);', 'hybrid tag #H1 appears 1 time(s); a reticulation needs exactly 2', 1, 9),
    ('((a,b)#H1,(#H1,#H2));', 'hybrid tag #H2 appears 1 time(s); a reticulation needs exactly 2', 1, 21),
    ('((a,b)#H2,(#H1,c));', 'hybrid tag #H2 appears 1 time(s); a reticulation needs exactly 2', 1, 19),
    ('(((a)#H1,b),(#H1,c)#H1);', 'hybrid tag #H1 has a subtree in two places', 1, 20),
    ('(a,(b,c);', "unclosed '(' before ';'", 1, 9),
    ('((a,b),c;', "unclosed '(' before ';'", 1, 9),
    ('(a,b)\n;\nx', "unexpected text after ';'", 3, 1),
    ('(a,\n(b,\n c)\n)\n)\n;', "unmatched ')'", 5, 1),
    ('(a,\n  b:1);', 'branch lengths are not supported', 2, 4),
    ('(a\xa0b);', 'unexpected label', 1, 4),
    ('(a,b)\u3000;\u2028x', "unexpected text after ';'", 1, 9),
    ('(a,b);:', 'branch lengths are not supported', 1, 7),
    ('(a,,b):', 'branch lengths are not supported', 1, 7),
    ('(a,,b)é;', "unexpected character 'é'", 1, 7),
    (')(:', 'branch lengths are not supported', 1, 3),
    ('(a,b)#H1#H2;', 'unexpected hybrid tag', 1, 9),
    ('(a,b)c#H1;', 'hybrid tag #H1 appears 1 time(s); a reticulation needs exactly 2', 1, 10),
    ('(a,b)c d;', 'unexpected label', 1, 8),
    ('\ufeff(a,b);', "unexpected character '\\ufeff'", 1, 1),
    ('(a,b);\x00', "unexpected character '\\x00'", 1, 7),
    ('(a,b)#H01,#H1;', "',' outside parentheses", 1, 10),
    ('(#H1,#H1);', 'hybrid tag #H1 never given a subtree', 1, 10),
    ('((a,#H1),(#H1,b));', 'hybrid tag #H1 never given a subtree', 1, 18),
    ('(a,b)#H1;:', 'branch lengths are not supported', 1, 10),
    ('(a#H1,b);x', "unexpected text after ';'", 1, 10),
    ('((a,b)#H1,(#H1,c)#H2);', 'hybrid tag #H2 appears 1 time(s); a reticulation needs exactly 2', 1, 22),
    ('(a,b)\n#H7;', 'hybrid tag #H7 appears 1 time(s); a reticulation needs exactly 2', 2, 4),
]


@pytest.mark.parametrize("text, message, line, column", MALFORMED)
def test_malformed_input_error_is_pinned(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_enewick(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_enewick("(a\n,b:3);")
    assert err.value.line == 2
    assert err.value.column == 3


def test_deep_caterpillar_round_trip():
    # both directions run on explicit stacks, so a tree much deeper than the
    # interpreter recursion limit must survive a full round trip
    depth = 4000
    text = "".join(f"(a{i}," for i in range(depth)) + "b" + ")" * depth + ";"
    net = parse_enewick(text)
    assert net.num_vertices == 2 * depth + 1
    again = parse_enewick(serialize_enewick(net))
    assert isomorphic(net, again)
