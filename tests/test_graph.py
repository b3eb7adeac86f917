"""Edge-list parsing, graph construction, and ego-network extraction."""
import io
import random

import pytest

from lsentropy import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    ego_network,
    load_edge_list,
    to_edge_list,
)


def test_load_basic_triangle():
    g = load_edge_list("a b\nb c\nc a\n")
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.labels == ("a", "b", "c")
    assert g.degrees == (2, 2, 2)
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_labels_interned_in_first_appearance_order():
    g = load_edge_list("7 3\n3 12\n12 7\n")
    assert g.labels == ("7", "3", "12")


def test_comments_and_blank_lines_skipped():
    text = "# heading\n\na b\n   \n# trailing comment\nb c\n"
    g = load_edge_list(text)
    assert g.edge_count == 2


def test_load_accepts_text_stream():
    g = load_edge_list(io.StringIO("x y\ny z\n"))
    assert g.labels == ("x", "y", "z")


def test_duplicate_edges_collapse_in_either_orientation():
    g = load_edge_list("a b\nb a\na b\n")
    assert g.edge_count == 1
    assert g.degrees == (1, 1)


def test_self_loops_dropped_and_counted():
    g = load_edge_list("a a\na b\nc c\n")
    assert g.self_loops_dropped == 2
    # the loop-only label never enters the graph
    assert g.labels == ("a", "b")
    assert g.degrees == (1, 1)


def test_self_loops_excluded_from_equality():
    without = load_edge_list("a b\n")
    with_loop = load_edge_list("a a\na b\n")
    assert without == with_loop


def test_parse_error_carries_line_number():
    with pytest.raises(EdgeListParseError) as excinfo:
        load_edge_list("a b\na b c\n")
    assert excinfo.value.line_number == 2
    assert "line 2" in str(excinfo.value)


def test_single_token_line_rejected():
    with pytest.raises(EdgeListParseError):
        load_edge_list("lonely\n")


def test_empty_input_rejected():
    with pytest.raises(EmptyGraphError):
        load_edge_list("# nothing but comments\n\n")


def test_only_self_loops_rejected():
    with pytest.raises(EmptyGraphError):
        load_edge_list("a a\nb b\n")


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match=r"adjacency is not symmetric: 0->1"):
        Graph(labels=("a", "b"), adjacency=((1,), ()))
    with pytest.raises(ValueError, match=r"adjacency is not symmetric: 2->0"):
        Graph(labels=("a", "b", "c"), adjacency=((1,), (0,), (0,)))


def test_graph_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Graph(labels=("a", "a"), adjacency=((1,), (0,)))


def test_graph_rejects_self_loop_in_adjacency():
    with pytest.raises(ValueError):
        Graph(labels=("a",), adjacency=((0,),))


def test_round_trip_small():
    g = load_edge_list("a b\nc d\na d\n")
    assert load_edge_list(to_edge_list(g)) == g


def test_round_trip_random_graphs():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 20)
        edges = {(u, rng.randrange(u + 1, n)) for u in range(n - 1)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        text = "".join(f"{u} {v}\n" for u, v in sorted(edges))
        g = load_edge_list(text)
        assert load_edge_list(to_edge_list(g)) == g


def test_serialization_rejects_isolated_node():
    g = Graph(labels=("a", "b", "c"), adjacency=((1,), (0,), ()))
    with pytest.raises(ValueError, match="no canonical edge-list form"):
        to_edge_list(g)


def test_ego_network_members_and_degrees():
    # path a-b-c: ego of b is the whole path, degrees taken graph-wide
    g = load_edge_list("a b\nb c\n")
    ego = ego_network(g, 1)
    assert ego.center == 1
    assert ego.members == (0, 1, 2)
    assert ego.member_degrees == (1, 2, 1)
    leaf = ego_network(g, 0)
    assert leaf.members == (0, 1)
    assert leaf.member_degrees == (1, 2)


def test_ego_network_size_is_degree_plus_one(karate):
    for i in range(karate.node_count):
        ego = ego_network(karate, i)
        assert len(ego.members) == karate.degrees[i] + 1
        assert i in ego.members


def test_ego_network_rejects_bad_node():
    g = load_edge_list("a b\n")
    with pytest.raises(ValueError):
        ego_network(g, 2)
    with pytest.raises(ValueError):
        ego_network(g, -1)
