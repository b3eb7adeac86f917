"""Tsallis entropy and per-node structure entropy."""
from array import array
import math
from pathlib import Path
import random
import sys

import pytest

from lsentropy import (
    Graph,
    default_grid,
    load_edge_list,
    local_degree_distribution,
    local_structure_entropy,
    score_all,
    sweep,
    tsallis_entropy,
)
from lsentropy import entropy as entropy_module
from lsentropy.entropy import ego_share_vector, local_structure_entropies

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402


def test_tsallis_uniform_hand_values():
    quarter = (0.25, 0.25, 0.25, 0.25)
    assert tsallis_entropy(quarter, 0.0) == pytest.approx(3.0, abs=1e-15)
    assert tsallis_entropy(quarter, 1.0) == pytest.approx(math.log(4.0))
    # q=2: 1 - 4*(1/16) = 0.75
    assert tsallis_entropy(quarter, 2.0) == pytest.approx(0.75)


def test_tsallis_q0_counts_support_minus_one():
    rng = random.Random(11)
    for n in (2, 5, 17):
        raw = [rng.uniform(0.5, 2.0) for _ in range(n)]
        total = math.fsum(raw)
        probs = [x / total for x in raw]
        assert tsallis_entropy(probs, 0.0) == n - 1


def test_shannon_branch_matches_direct_formula():
    probs = (0.5, 0.3, 0.2)
    direct = -sum(p * math.log(p) for p in probs)
    assert tsallis_entropy(probs, 1.0) == pytest.approx(direct, abs=1e-15)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
def test_tsallis_of_a_one_point_distribution_is_positive_zero(q):
    # The Shannon branch negates 0.0, and q < 1 divides 0.0 by q - 1 < 0.
    assert math.copysign(1.0, tsallis_entropy([1.0], q)) == 1.0


def test_tsallis_continuous_at_shannon_crossover():
    probs = (0.1, 0.2, 0.3, 0.4)
    shannon = tsallis_entropy(probs, 1.0)
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        assert tsallis_entropy(probs, q) == pytest.approx(shannon, abs=1e-5)


def test_tsallis_rejects_bad_distributions():
    with pytest.raises(ValueError):
        tsallis_entropy((), 1.0)
    with pytest.raises(ValueError):
        tsallis_entropy((0.5, 0.0, 0.5), 1.0)
    # At q = 2 a zero share has a term, 0.0, so only the check refuses it.
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\], got 0.0"):
        tsallis_entropy((0.5, 0.0, 0.5), 2.0)
    with pytest.raises(ValueError):
        tsallis_entropy((0.7, -0.2, 0.5), 1.0)
    with pytest.raises(ValueError):
        tsallis_entropy((0.5, 0.4), 1.0)


def test_tsallis_rejects_bad_index():
    with pytest.raises(ValueError):
        tsallis_entropy((0.5, 0.5), -0.1)
    with pytest.raises(ValueError):
        tsallis_entropy((0.5, 0.5), math.inf)
    with pytest.raises(ValueError):
        tsallis_entropy((0.5, 0.5), math.nan)


def test_degree_shares_sum_to_one(karate):
    for i in range(karate.node_count):
        total = math.fsum(local_degree_distribution(karate, i))
        assert total == pytest.approx(1.0, abs=1e-12)


def _hub_with_neighbor_degrees(neighbor_degrees):
    """Star around 'h' padded with leaves so neighbor i reaches the
    requested graph-wide degree; leaves stay outside h's ego network."""
    pairs = []
    leaf = 0
    for i, degree in enumerate(neighbor_degrees):
        name = f"n{i}"
        pairs.append(("h", name))
        for _ in range(degree - 1):
            pairs.append((name, f"x{leaf}"))
            leaf += 1
    return Graph.from_edge_labels(pairs)


def test_hub_reference_entropy():
    # Degree-6 hub whose neighbors have degrees 3,2,3,4,4,3: ego degree
    # total 25, shares {6,3,2,3,4,4,3}/25, Shannon value 1.89426.
    g = _hub_with_neighbor_degrees([3, 2, 3, 4, 4, 3])
    hub = g.labels.index("h")
    assert g.degrees[hub] == 6
    shares = local_degree_distribution(g, hub)
    assert sorted(shares) == sorted(
        (6 / 25, 3 / 25, 2 / 25, 3 / 25, 4 / 25, 4 / 25, 3 / 25)
    )
    assert local_structure_entropy(g, hub, 1.0) == pytest.approx(
        1.89426, abs=1e-4
    )


def test_isolated_node_scores_zero():
    g = Graph(labels=("a", "b", "z"), adjacency=((1,), (0,), ()))
    assert local_structure_entropy(g, 2, 1.0) == 0.0
    assert local_structure_entropy(g, 2, 0.0) == 0.0
    with pytest.raises(ValueError):
        local_degree_distribution(g, 2)


def test_entropy_rejects_bad_node():
    g = load_edge_list("a b\n")
    with pytest.raises(ValueError):
        local_structure_entropy(g, 5, 1.0)


def test_scoring_never_rechecks_the_library_shares(karate, monkeypatch):
    """Shares the library built reach the formula without
    ``_checked_distribution``, which serves caller-given vectors only."""

    def refuse(probs):
        raise AssertionError("library-built shares were checked again")

    monkeypatch.setattr(entropy_module, "_checked_distribution", refuse)
    for q in (0.0, 0.5, 1.0, 2.5):
        scores = score_all(karate, q).scores
        for node in range(karate.node_count):
            assert local_structure_entropy(karate, node, q) == scores[node]
    with pytest.raises(AssertionError):
        tsallis_entropy((0.5, 0.5), 1.0)


def _pa_graph(n, m, seed):
    """Preferential attachment, as the benchmark corpus generates it."""
    return load_edge_list(corpus.edge_list_text(corpus.preferential_attachment(n, m, seed)))


def _share_ids_by_node(g):
    """``ego_share_vector(g)`` read back per node: the distinct share
    values, each node's share ids in the layout, and ``places``."""
    values, isolated, groups, places = ego_share_vector(g)
    every_id = range(len(values))
    by_place = [()] * isolated
    for k, get in groups:
        ids = get(every_id)
        assert len(ids) % k == 0
        by_place += (ids[i : i + k] for i in range(0, len(ids), k))
    assert len(by_place) == g.node_count
    return values, [by_place[p] for p in places], places


@pytest.mark.parametrize(
    "q", [0.0, 0.5, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 2.2, 10.0, 100.0, 20.0, 1000.0]
)
def test_score_all_equals_node_by_node_bitwise(karate, q):
    with_isolated = Graph(
        labels=("a", "b", "c", "z"), adjacency=((1, 2), (0,), (0,), ())
    )
    # b's ego degrees (2, 1, 1) give 1/4 twice; x's ego degrees (2, 3, 3)
    # give 2/8, the same float from another (d, total) pair.
    coinciding = load_edge_list("a b\nb c\nx y\nx z\ny y1\ny y2\nz z1\nz z2\n")
    one_edge = load_edge_list("a b\n")
    star = load_edge_list("".join(f"h l{i}\n" for i in range(6)))  # hub alone in its group
    isolated_among = Graph(
        labels=("z0", "a", "b", "z1", "c", "z2"),
        adjacency=((), (2, 4), (1,), (), (1,), ()),
    )
    hubs = _pa_graph(300, 2, seed=5)
    for g in (karate, with_isolated, coinciding, one_edge, star, isolated_among, hubs):
        expected = tuple(local_structure_entropy(g, i, q) for i in range(g.node_count))
        assert score_all(g, q).scores.tobytes() == array("d", expected).tobytes()

        values, ids, places = _share_ids_by_node(g)
        assert len(set(values)) == len(values)
        # The layout orders the nodes stably by degree.
        layout = sorted(range(g.node_count), key=g.degrees.__getitem__)
        assert [places[node] for node in layout] == list(range(g.node_count))
        for node in range(g.node_count):
            gathered = sorted(values[k] for k in ids[node])
            if g.degrees[node]:
                assert gathered == sorted(local_degree_distribution(g, node))
            else:
                assert gathered == []
    b, x = coinciding.labels.index("b"), coinciding.labels.index("x")
    values, ids, _ = _share_ids_by_node(coinciding)
    quarter = values.index(0.25)
    assert ids[b][1:] == (quarter, quarter)
    assert ids[x][0] == quarter
    assert max(star.degrees) == 6 and star.degrees.count(6) == 1


def test_q0_scores_are_the_degrees_without_a_share_build():
    g = _pa_graph(300, 2, seed=5)
    with_isolated = Graph(labels=("a", "b", "z"), adjacency=((1,), (0,), ()))
    for graph in (g, with_isolated):
        scores = local_structure_entropies(graph, 0.0)
        assert scores.tobytes() == array("d", map(float, graph.degrees)).tobytes()
        assert "_ego_shares" not in graph.__dict__


def test_repeated_sweeps_on_one_graph_agree(karate):
    g = Graph(labels=karate.labels, adjacency=karate.adjacency)
    first = sweep(g, default_grid())
    assert sweep(g, (0.5, 1.0)) == sweep(karate, (0.5, 1.0))
    assert sweep(g, default_grid()) == first
