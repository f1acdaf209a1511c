import pytest
from hypothesis import given, settings

from weakiasi import (
    EdgeListParseError,
    SetLabel,
    VertexLabeling,
    path_graph,
    read_edge_list,
    to_dot,
    write_edge_list,
)

from helpers import graphs


def test_read_simple_path():
    assert read_edge_list("3\n0 1\n1 2") == path_graph(3)


def test_comments_and_blank_lines_ignored():
    text = "# a path\n\n3\n# edges follow\n0 1\n\n1 2\n"
    assert read_edge_list(text) == path_graph(3)


def test_write_is_canonical():
    assert write_edge_list(path_graph(3)) == "3\n0 1\n1 2\n"


def test_round_trip_on_text():
    text = "4\n0 1\n1 2\n2 3\n"
    assert write_edge_list(read_edge_list(text)) == text


@settings(max_examples=80)
@given(graphs(max_vertices=9))
def test_round_trip_on_graphs(g):
    assert read_edge_list(write_edge_list(g)) == g


def test_self_loop_reported_with_line_number():
    with pytest.raises(EdgeListParseError, match="line 2: self-loop") as info:
        read_edge_list("2\n0 0")
    assert info.value.line_number == 2


def test_reversed_pair_rejected():
    with pytest.raises(EdgeListParseError, match="reversed"):
        read_edge_list("3\n1 0")


def test_duplicate_edge_rejected():
    with pytest.raises(EdgeListParseError, match="line 3: duplicate"):
        read_edge_list("3\n0 1\n0 1")


def test_out_of_range_rejected():
    with pytest.raises(EdgeListParseError, match="out of range"):
        read_edge_list("2\n0 5")


def test_malformed_vertex_count():
    with pytest.raises(EdgeListParseError, match="vertex count"):
        read_edge_list("abc\n0 1")


def test_malformed_edge_line():
    with pytest.raises(EdgeListParseError, match="expected 'u v'"):
        read_edge_list("3\n0 1 2")


def test_non_integer_endpoint():
    with pytest.raises(EdgeListParseError, match="non-integer"):
        read_edge_list("3\n0 x")


@pytest.mark.parametrize("text", ["1_0\n0 1", "+3\n0 1", "\u0665\n0 1"])
def test_vertex_count_is_an_ascii_decimal(text):
    with pytest.raises(EdgeListParseError, match="line 1: expected vertex count"):
        read_edge_list(text)


@pytest.mark.parametrize("edge", ["1_0 11", "2 +3", "4 \u0665"])
def test_endpoints_are_ascii_decimals(edge):
    with pytest.raises(EdgeListParseError, match="line 2: non-integer endpoint"):
        read_edge_list(f"12\n{edge}")


def test_negative_values_keep_their_messages():
    with pytest.raises(EdgeListParseError, match="line 1: vertex count must be non-negative"):
        read_edge_list("-3\n")
    with pytest.raises(EdgeListParseError, match="line 2: edge -1 2 out of range"):
        read_edge_list("3\n-1 2")


def test_empty_input_rejected():
    with pytest.raises(EdgeListParseError, match="empty input"):
        read_edge_list("# only a comment\n")


def test_dot_export_plain():
    dot = to_dot(path_graph(2))
    assert "graph G {" in dot
    assert "0 -- 1;" in dot


def test_dot_export_marks_mono_vertices():
    labeling = VertexLabeling({0: SetLabel((1,)), 1: SetLabel((2, 5))})
    dot = to_dot(path_graph(2), labeling)
    assert '0 [label="0: {1}", style=filled];' in dot
    assert '1 [label="1: {2,5}"];' in dot
