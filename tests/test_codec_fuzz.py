"""Property tests for the codecs and the pattern language.

The round trips run on graphs with at most 30 vertices.  Random text fed to
the three decoders must either decode or raise ``CodecError``, fed to the
DIMACS CNF reader must either read or raise ``CodecError`` or the instance's
own ``ValueError``, and fed to ``parse_pattern`` must either parse or raise
``ValueError``; the CLI reports these errors with exit code 2, and any other
exception would be an internal error, exit code 4.  Every digit run in that
text is cut to two digits (one for patterns), so that no input asks for a
graph larger than the tests can afford to build; the vertex limit of the
decoders has its own test in ``test_graphs.py``.
"""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cocolour.gadgets import SatInstance  # noqa: E402
from cocolour.graphs import (  # noqa: E402
    CodecError,
    Graph,
    dimacs_decode,
    dimacs_encode,
    edgelist_decode,
    edgelist_encode,
    graph6_decode,
    graph6_encode,
    parse_pattern,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def graphs(draw, max_n=30):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


def short_numbers(text, digits):
    """``text`` with every run of digits cut to its first ``digits``."""
    return re.sub(r"(\d{%d})\d+" % digits, r"\1", text)


# Text near each format: its keywords, separators and digits, ASCII or not,
# among arbitrary characters, so that the decoders get past their first check.
CODEC_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["p", "edge", "e", "c", "#", "~", " ", "\n", "\t", "-", "\u00b2", "\u0663"]
        ),
        st.integers(0, 40).map(str),
        st.characters(),
    ),
    max_size=30,
).map("".join)
CNF_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            ["p", "cnf", "c", " ", "\n", "\t", "-", "0", "_", "\u00b2", "\u0663"]
        ),
        st.integers(-40, 40).map(str),
        st.characters(),
    ),
    max_size=30,
).map("".join)
PATTERN_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["P", "C", "K", "K1,", "S", ",", "+", "co(", ")", " "]),
        st.integers(0, 9).map(str),
        st.characters(),
    ),
    max_size=12,
).map("".join)


@SETTINGS
@given(graphs())
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)) == g


@SETTINGS
@given(graphs())
def test_edge_list_round_trip(g):
    assert edgelist_decode(edgelist_encode(g)) == g


@SETTINGS
@given(graphs())
def test_dimacs_round_trip(g):
    assert dimacs_decode(dimacs_encode(g)) == g


@pytest.mark.parametrize("decode", [graph6_decode, edgelist_decode, dimacs_decode])
@SETTINGS
@given(st.one_of(CODEC_TEXT, st.text(max_size=40)))
def test_decoders_raise_only_input_errors(decode, text):
    try:
        g = decode(short_numbers(text, 2))
    except CodecError:
        return
    assert isinstance(g, Graph)


@SETTINGS
@given(st.one_of(CNF_TEXT, st.text(max_size=40)))
def test_cnf_reader_raises_only_input_errors(text):
    text = short_numbers(text, 2)
    try:
        inst = SatInstance.from_dimacs(text)
    except CodecError as exc:
        assert 0 <= exc.offset < max(1, len(text.encode("utf-8", "surrogatepass")))
        return
    except ValueError as exc:
        assert "clause" in str(exc) or "variable" in str(exc)
        return
    assert SatInstance.from_dimacs(inst.to_dimacs()) == inst


@SETTINGS
@given(st.one_of(PATTERN_TEXT, st.text(max_size=20)))
def test_parse_pattern_raises_only_input_errors(text):
    try:
        g = parse_pattern(short_numbers(text, 1))
    except ValueError:
        return
    assert isinstance(g, Graph)
