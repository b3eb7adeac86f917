"""Edge-list parsing, graph construction, and ego-network shares."""
import io
import random

import pytest

from lsentropy import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    load_edge_list,
    load_karate,
    local_degree_distribution,
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
    assert g.duplicate_edges_collapsed == 2


def test_duplicate_edges_counted_apart_from_self_loops():
    # A repeated self-loop is a dropped loop each time, never a duplicate.
    g = load_edge_list("a a\na b\nb a\na a\nb c\nc b\nb c\nc c\n")
    assert (g.self_loops_dropped, g.duplicate_edges_collapsed) == (3, 3)
    assert g.edge_count == 2
    assert g == load_edge_list("a b\nb c\n")
    assert Graph(labels=g.labels, adjacency=g.adjacency).duplicate_edges_collapsed == 0


def test_self_loops_dropped_and_counted():
    g = load_edge_list("a a\na b\nc c\n")
    assert g.self_loops_dropped == 2
    # the loop-only label never enters the graph
    assert g.labels == ("a", "b")
    assert g.degrees == (1, 1)


@pytest.mark.parametrize("counter", ["self_loops_dropped", "duplicate_edges_collapsed"])
def test_constructor_refuses_the_ingestion_counters(counter):
    # Only ingestion counts; a graph built from its arrays has seen nothing.
    with pytest.raises(TypeError):
        Graph(labels=("a", "b"), adjacency=((1,), (0,)), **{counter: 5})
    graph = Graph(labels=("a", "b"), adjacency=((1,), (0,)))
    assert getattr(graph, counter) == 0


def test_self_loops_excluded_from_equality():
    without = load_edge_list("a b\n")
    with_loop = load_edge_list("a a\na b\n")
    assert without == with_loop


def test_parse_error_carries_line_number(tmp_path):
    # The second text's bad line follows a comment, a blank line and a
    # self-loop; the parse streams, so a stream source must count alike.
    # A string is read as a file opened in text mode reads it: a line ends
    # at \n, \r\n or \r, and \x0c, \x1c, \x85 or \u2028 are whitespace
    # inside it, though str.splitlines() would end a line there.
    cases = [
        ("a b\na b c\n", 2),
        ("# edges\na b\n\nc c\n  x y z\nb c\n", 5),
        ("a b\r\nc d\r\ne f g\r\n", 3),
        ("a b\rc d\re f g\r", 3),
        ("a b\u2028c d\n", 1),
        ("a b\x0cc d\ne f g\n", 1),
        ("x y\na b\x1cc d\x85e f\n", 2),
    ]
    path = tmp_path / "edges.txt"
    for text, line_number in cases:
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as file:
            for source in (text, io.StringIO(text, newline=None), file):
                with pytest.raises(EdgeListParseError) as excinfo:
                    load_edge_list(source)
                assert excinfo.value.line_number == line_number, repr(text)
                assert f"line {line_number}: expected 2 labels" in str(excinfo.value)


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
    # Of two one-sided edges, the one from the lower id is named.
    with pytest.raises(ValueError, match=r"adjacency is not symmetric: 1->0"):
        Graph(labels=("a", "b", "c"), adjacency=((), (0,), (0,)))


def test_graph_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Graph(labels=("a", "a"), adjacency=((1,), (0,)))


@pytest.mark.parametrize(
    "labels, adjacency, message",
    [
        (("a", "b"), ((1,),), "labels and adjacency lengths differ"),
        (("a", "b"), ((1, 1), (0,)), "adjacency of node 0 has duplicates"),
        (("a", "b"), ((2,), (0,)), "neighbour id 2 out of range"),
        (("a", "b"), ((-1,), (0,)), "neighbour id -1 out of range"),
    ],
    ids=["lengths", "repeated-neighbour", "past-the-end", "negative"],
)
def test_graph_rejects_malformed_adjacency(labels, adjacency, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(labels=labels, adjacency=adjacency)


def test_graph_rejects_self_loop_in_adjacency():
    with pytest.raises(ValueError):
        Graph(labels=("a",), adjacency=((0,),))


def test_checked_constructor_stores_tuples():
    # Lists are stored as tuples before the checks, so the graph is
    # hashable where rank and sweep cache by its labels.
    from lsentropy import rank, score_all, sweep

    g = Graph(labels=["a", "b", "c"], adjacency=[[1, 2], (0,), [0]])
    assert g.labels == ("a", "b", "c")
    assert g.adjacency == ((1, 2), (0,), (0,))
    assert rank(score_all(g, 1.0)).ordered_labels == ("a", "b", "c")
    assert len(sweep(g, (0.0, 1.0)).rankings) == 2
    assert Graph(labels=("a", "b"), adjacency=([1], [0])).adjacency == ((1,), (0,))
    labels = ("a", "b")
    assert Graph(labels=labels, adjacency=((1,), (0,))).labels is labels
    with pytest.raises(ValueError, match="node 0 is not sorted"):
        Graph(labels=["a", "b", "c"], adjacency=[[2, 1], [0], [0]])


def test_loaded_graph_passes_checked_constructor():
    # load_edge_list skips Graph's checks, so each graph it builds must
    # pass them when handed to the checked constructor.
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 20)
        edges = {(u, rng.randrange(u + 1, n)) for u in range(n - 1)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        lines = [f"{u} {v}" for u, v in sorted(edges)]
        repeats = rng.sample(sorted(edges), len(edges) // 2)
        lines += [f"{v} {u}" for u, v in repeats] + [f"{u} {v}" for u, v in repeats[::2]]
        loops = [f"{u} {u}" for u in rng.choices(range(n), k=rng.randint(0, 3))]
        lines += loops + ["# comment", "", "   "] * rng.randint(0, 2)
        rng.shuffle(lines)
        g = load_edge_list("\n".join(lines) + "\n")
        checked = Graph(labels=g.labels, adjacency=g.adjacency)
        assert checked == g
        assert checked.degrees == g.degrees
        assert g.self_loops_dropped == len(loops)
        assert g.duplicate_edges_collapsed == len(repeats) + len(repeats[::2])


def test_loaded_graph_is_not_rechecked(monkeypatch):
    def refuse(self):
        raise AssertionError("Graph.__post_init__ ran on a loaded graph")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
    g = load_karate()
    assert (g.node_count, g.edge_count) == (34, 78)
    with pytest.raises(AssertionError):
        Graph(labels=g.labels, adjacency=g.adjacency)


def test_ego_network_members_and_degrees():
    # path a-b-c (degrees 1, 2, 1): the ego of b is the whole path; shares
    # follow member id, the centre among them, with degrees taken graph-wide
    g = load_edge_list("a b\nb c\n")
    assert local_degree_distribution(g, 1) == (1 / 4, 2 / 4, 1 / 4)
    assert local_degree_distribution(g, 0) == (1 / 3, 2 / 3)
    assert local_degree_distribution(g, 2) == (2 / 3, 1 / 3)


def test_ego_network_size_is_degree_plus_one(karate):
    for i in range(karate.node_count):
        members = sorted((i, *karate.adjacency[i]))
        total = sum(karate.degrees[m] for m in members)
        shares = local_degree_distribution(karate, i)
        assert len(shares) == karate.degrees[i] + 1
        assert shares[members.index(i)] == karate.degrees[i] / total


def test_ego_network_rejects_bad_node():
    g = load_edge_list("a b\n")
    for node in (-1, g.node_count):
        with pytest.raises(ValueError, match="out of range"):
            local_degree_distribution(g, node)
