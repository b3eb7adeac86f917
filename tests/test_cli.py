"""End-to-end command-line behavior: arguments, formats, exit codes."""
import csv
import io
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from lsentropy import (
    default_grid,
    karate_edges_path,
    load_edge_list,
    local_structure_entropy,
    parse_grid,
    rank,
    score_all,
    sweep,
    three_states,
)
from lsentropy import cli, ranking
from lsentropy.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture(scope="session")
def karate_path():
    return str(karate_edges_path())


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("1 2\n2 3\n3 1\n")
    return str(path)


@pytest.fixture()
def k5_path(tmp_path):
    path = tmp_path / "k5.edges"
    lines = [f"{u} {v}" for u, v in itertools.combinations("12345", 2)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_rank_triangle_symmetry(capsys, triangle_path):
    code, out, err = _run(capsys, "rank", "--input", triangle_path, "--q", "1")
    assert code == 0 and err == ""
    rows = _rows(out)
    assert rows[0] == ["label", "degree", "entropy", "rank"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
    assert [row[3] for row in rows[1:]] == ["1", "2", "3"]
    assert len({row[2] for row in rows[1:]}) == 1


def test_rank_karate_q0_top_row(capsys, karate_path):
    code, out, _ = _run(capsys, "rank", "--input", karate_path, "--q", "0")
    assert code == 0
    assert out.splitlines()[1] == "34,17,17.000000,1"


def test_rank_entropy_has_six_decimals(capsys, karate_path):
    _, out, _ = _run(capsys, "rank", "--input", karate_path, "--q", "1")
    for row in _rows(out)[1:]:
        whole, _, frac = row[2].partition(".")
        assert whole.isdigit() and len(frac) == 6


def test_rank_json_full_precision(capsys, karate_path, karate):
    code, out, _ = _run(
        capsys, "rank", "--input", karate_path, "--q", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "rank"
    assert payload["config"] == {
        "command": "rank",
        "input": karate_path,
        "format": "json",
        "q": 1.0,
    }
    by_label = {row["label"]: row for row in payload["rows"]}
    for i, label in enumerate(karate.labels):
        assert by_label[label]["entropy"] == local_structure_entropy(karate, i, 1.0)
        assert by_label[label]["degree"] == karate.degrees[i]
    assert [row["rank"] for row in payload["rows"]] == list(
        range(1, karate.node_count + 1)
    )


def test_rank_rejects_negative_q(capsys, triangle_path):
    code, out, err = _run(capsys, "rank", "--input", triangle_path, "--q", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_sweep_default_grid_row_count(capsys, karate_path, karate):
    code, out, _ = _run(capsys, "sweep", "--input", karate_path)
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["q", "label", "entropy", "rank"]
    assert len(rows) - 1 == len(default_grid()) * karate.node_count


def test_sweep_q0_block_reproduces_degree_order(capsys, karate_path, karate):
    _, out, _ = _run(capsys, "sweep", "--input", karate_path, "--grid", "0,1")
    rows = _rows(out)[1:]
    q0_labels = [row[1] for row in rows if row[0] == "0.0"]
    assert tuple(q0_labels) == rank(score_all(karate, 0.0)).ordered_labels


def test_sweep_single_edge_symmetry(capsys, tmp_path):
    path = tmp_path / "edge.edges"
    path.write_text("a b\n")
    _, out, _ = _run(capsys, "sweep", "--input", str(path), "--grid", "0,1,2")
    rows = _rows(out)[1:]
    assert len(rows) == 6
    for q in ("0.0", "1.0", "2.0"):
        entropies = {row[2] for row in rows if row[0] == q}
        assert len(entropies) == 1


def test_sweep_rejects_bad_grid(capsys, triangle_path):
    code, out, err = _run(
        capsys, "sweep", "--input", triangle_path, "--grid", "2,1"
    )
    assert code == 1 and out == "" and "error:" in err


def test_sweep_rejects_non_finite_grid_bound(capsys, triangle_path):
    code, out, err = _run(
        capsys, "sweep", "--input", triangle_path, "--grid", "0:nan:1"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: bad grid segment '0:nan:1'")


@pytest.mark.parametrize("command", ["sweep", "threshold", "states"])
def test_bad_grid_reported_before_input_is_read(capsys, tmp_path, command):
    missing = str(tmp_path / "absent.edges")
    code, out, err = _run(capsys, command, "--input", missing, "--grid", "0:1:-1")
    assert code == 1 and out == ""
    assert err == "error: grid step must be positive in '0:1:-1'\n"


@pytest.mark.parametrize("command", ["sweep", "threshold", "states"])
def test_oversized_grid_reported_before_input_is_read(capsys, tmp_path, command):
    missing = str(tmp_path / "absent.edges")
    grid = "0:1000000:1,2000000"  # one point per segment past MAX_GRID_POINTS
    code, out, err = _run(capsys, command, "--input", missing, "--grid", grid)
    assert code == 1 and out == ""
    assert err == (
        "error: q grid would hold 1000002 points; at most 1000000 are allowed\n"
    )


@pytest.mark.parametrize(
    "command, grid, message",
    [
        ("states", "2,3", "three-states grid must contain q=0 and q=1"),
        ("threshold", "5", "threshold detection needs a sweep of >= 2 grid points"),
    ],
    ids=["states", "threshold"],
)
def test_command_grid_rule_reported_before_input_is_read(
    capsys, tmp_path, command, grid, message
):
    missing = str(tmp_path / "absent.edges")
    code, out, err = _run(capsys, command, "--input", missing, "--grid", grid)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_threshold_complete_graph_stable_from_zero(capsys, k5_path):
    code, out, _ = _run(capsys, "threshold", "--input", k5_path)
    assert code == 0
    fields = dict(_rows(out)[1:])
    assert fields["p_value"] == "0.0"
    assert int(fields["suffix_length"]) == len(default_grid())
    assert fields["stable_top10"] == "1,2,3,4,5"


def test_threshold_star_stable_from_zero(capsys, tmp_path):
    path = tmp_path / "star.edges"
    path.write_text("".join(f"c l{i}\n" for i in range(6)))
    code, out, _ = _run(capsys, "threshold", "--input", str(path))
    assert code == 0
    fields = dict(_rows(out)[1:])
    assert fields["p_value"] == "0.0"
    assert fields["stable_top10"].startswith("c,")


def test_threshold_undetected_reports_null(capsys, karate_path):
    code, out, _ = _run(
        capsys, "threshold", "--input", karate_path, "--grid", "0,5,10"
    )
    assert code == 0
    fields = dict(_rows(out)[1:])
    assert fields["p_value"] == "null"
    assert fields["stable_top10"] == "null"
    assert fields["suffix_length"] == "1"


def test_threshold_refine_row(capsys, karate_path):
    code, out, _ = _run(capsys, "threshold", "--input", karate_path, "--refine")
    assert code == 0
    fields = dict(_rows(out)[1:])
    assert float(fields["refined_p_value"]) <= float(fields["p_value"])


def test_threshold_relaxed_mode(capsys, karate_path):
    code, out, _ = _run(
        capsys, "threshold", "--input", karate_path, "--relaxed-tau", "0.05"
    )
    assert code == 0
    fields = dict(_rows(out)[1:])
    assert float(fields["p_value"]) < 8.5


def test_threshold_relaxed_tau_out_of_range(capsys, karate_path):
    code, _, err = _run(
        capsys, "threshold", "--input", karate_path, "--relaxed-tau", "0.2"
    )
    assert code == 1 and "relaxed-tau" in err


def test_threshold_json_payload(capsys, karate_path):
    code, out, _ = _run(
        capsys,
        "threshold",
        "--input",
        karate_path,
        "--refine",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "threshold"
    assert math.isfinite(payload["p_value"])
    assert math.isfinite(payload["refined_p_value"])
    assert payload["suffix_length"] >= 2
    assert len(payload["stable_top10"]) == 10
    assert payload["config"]["refine"] is True
    assert "jobs" not in payload["config"]


@pytest.fixture()
def cycle_path(tmp_path):
    # Every node's ego holds three equal shares, so every q ranks by label.
    path = tmp_path / "cycle.edges"
    path.write_text("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
    return str(path)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "graph, grid",
    [("karate", None), ("karate", "8,10"), ("karate", "6:10:1"), ("cycle", None)],
    ids=["karate-default-grid", "2-point-grid", "5-point-grid", "cycle"],
)
def test_threshold_bytes_match_detection_over_a_full_sweep(
    capsys, monkeypatch, karate_path, cycle_path, graph, grid, jobs
):
    """threshold scores the grid from its top down in blocks, as detection
    reads it; its bytes must be those of detection over one sweep of the
    whole grid. At --jobs 2 the 5-point grid would leave a 1-point bottom
    block, and on the cycle every block is read."""
    monkeypatch.setattr(cli, "_job_count", lambda requested: requested)  # any CPU count
    path = karate_path if graph == "karate" else cycle_path
    base = ["threshold", "--input", path, "--jobs", jobs]
    base += ["--grid", grid] if grid else []
    options = itertools.product(
        ("csv", "json"), ([], ["--relaxed-tau", "0.05"]), ([], ["--refine"])
    )
    for fmt, relaxed, refine in options:
        argv = [*base, "--format", fmt, *relaxed, *refine]
        by_block = _run(capsys, *argv)
        with monkeypatch.context() as eager:
            eager.setattr(
                cli, "_RankedFromTop", lambda g, grid, jobs: sweep(g, grid, jobs).rankings
            )
            whole = _run(capsys, *argv)
        assert by_block[0] == 0, by_block[2]
        assert by_block == whole, argv


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("relaxed", [[], ["--relaxed-tau", "0.05"]], ids=["exact", "relaxed"])
@pytest.mark.parametrize("graph", ["karate", "cycle"])
def test_threshold_scores_only_the_blocks_detection_reads(
    capsys, monkeypatch, karate_path, cycle_path, graph, relaxed, jobs
):
    """Detection reads the stable suffix and the point below it, so the
    blocks of 2 * jobs points that hold them are all that is scored; each
    block's workers are reaped before the next block starts."""
    real_sweep = cli.sweep
    scored = []

    def counting_sweep(graph, grid, jobs=1):
        result = real_sweep(graph, grid, jobs=jobs)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left running or unreaped
        scored.append(len(grid))
        return result

    monkeypatch.setattr(cli, "sweep", counting_sweep)
    monkeypatch.setattr(cli, "_job_count", lambda requested: requested)  # any CPU count
    path = karate_path if graph == "karate" else cycle_path
    code, out, err = _run(capsys, "threshold", "--input", path, "--jobs", str(jobs), *relaxed)
    assert code == 0, err
    suffix_length = int(dict(_rows(out)[1:])["suffix_length"])
    points = len(default_grid())
    assert sum(scored) <= min(points, suffix_length + 1) + 2 * jobs - 1, scored


# (lo, hi) of each default-grid slice that threshold scores, in order.
_THRESHOLD_SLICES = {
    ("karate", 1): [(40, 43), (38, 40)],
    ("karate", 2): [(39, 43), (35, 39)],
    ("karate", 3): [(36, 43)],
    ("cycle", 1): [
        (40, 43), (38, 40), (36, 38), (34, 36), (32, 34), (30, 32), (28, 30),
        (26, 28), (24, 26), (22, 24), (20, 22), (18, 20), (16, 18), (14, 16),
        (12, 14), (10, 12), (8, 10), (6, 8), (4, 6), (2, 4), (0, 2),
    ],
    ("cycle", 2): [
        (39, 43), (35, 39), (31, 35), (27, 31), (23, 27), (19, 23),
        (15, 19), (11, 15), (7, 11), (3, 7), (0, 3),
    ],
    ("cycle", 3): [(36, 43), (30, 36), (24, 30), (18, 24), (12, 18), (6, 12), (0, 6)],
}


@pytest.mark.parametrize("graph, jobs", sorted(_THRESHOLD_SLICES))
def test_threshold_scores_the_same_grid_slices_in_the_same_order(
    capsys, monkeypatch, karate_path, cycle_path, graph, jobs
):
    """The blocks threshold scores, top block first: detection stops early
    on karate and reads every point of the cycle."""
    real_sweep = cli.sweep
    scored = []

    def recording_sweep(graph, grid, jobs=1):
        scored.append(tuple(grid))
        return real_sweep(graph, grid, jobs=jobs)

    monkeypatch.setattr(cli, "sweep", recording_sweep)
    monkeypatch.setattr(cli, "_job_count", lambda requested: requested)  # any CPU count
    path = karate_path if graph == "karate" else cycle_path
    code, _, err = _run(capsys, "threshold", "--input", path, "--jobs", str(jobs))
    assert code == 0, err
    grid = default_grid()
    assert scored == [grid[lo:hi] for lo, hi in _THRESHOLD_SLICES[graph, jobs]]


def test_states_karate_rows(capsys, karate_path):
    code, out, _ = _run(capsys, "states", "--input", karate_path)
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["state", "order"]
    assert [row[0] for row in rows[1:]] == [
        "Order_q0",
        "Order_q1",
        "Order_stable",
    ]
    assert rows[1][1].startswith("34,1,33,3,2")
    assert rows[3][1] != "none"


def test_states_path_center_first(capsys, tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("a b\nb c\n")
    _, out, _ = _run(capsys, "states", "--input", str(path), "--grid", "0,1,2")
    for row in _rows(out)[1:]:
        assert row[1].split(",")[0] == "b"


def test_states_complete_graph_identical_rows(capsys, k5_path):
    _, out, _ = _run(capsys, "states", "--input", k5_path, "--grid", "0,1,2")
    values = {row[1] for row in _rows(out)[1:]}
    assert values == {"1,2,3,4,5"}


def test_states_requires_zero_and_one(capsys, karate_path):
    code, _, err = _run(
        capsys, "states", "--input", karate_path, "--grid", "0.5,1"
    )
    assert code == 1 and "error:" in err


def test_states_json_payload(capsys, karate_path, karate):
    code, out, _ = _run(
        capsys, "states", "--input", karate_path, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order_q0"][:5] == ["34", "1", "33", "3", "2"]
    assert sorted(payload["order_q1"]) == sorted(karate.labels)
    assert isinstance(payload["order_stable"], list)


def test_states_relaxed_tau_finds_stable_row(capsys, karate_path, karate):
    # On this grid exact detection finds no stable suffix; T = 0.05 does.
    grid = "0:8:0.5"
    argv = ("states", "--input", karate_path, "--grid", grid)
    _, exact, _ = _run(capsys, *argv)
    assert _rows(exact)[3] == ["Order_stable", "none"]
    code, out, err = _run(capsys, *argv, "--relaxed-tau", "0.05")
    assert code == 0 and err == ""
    name, cell = _rows(out)[3]
    stable = next(csv.reader([cell]))
    assert name == "Order_stable"
    assert stable == list(sweep(karate, parse_grid(grid)).rankings[-1].ordered_labels)
    states = three_states(karate, parse_grid(grid), relaxed_tau=0.05)
    assert list(states.order_stable.ordered_labels) == stable
    _, out, _ = _run(capsys, *argv, "--relaxed-tau", "0.05", "--format", "json")
    payload = json.loads(out)
    assert payload["config"]["relaxed_tau"] == 0.05
    assert payload["order_stable"] == stable


def test_compare_rank_file_with_itself(capsys, karate_path, tmp_path):
    out_path = tmp_path / "rank.csv"
    assert main(
        ["rank", "--input", karate_path, "--q", "0", "--output", str(out_path)]
    ) == 0
    capsys.readouterr()
    code, out, _ = _run(capsys, "compare", str(out_path), str(out_path))
    assert code == 0
    rows = _rows(out)
    assert rows[0] == ["kendall_tau", "top5_overlap", "top10_overlap"]
    assert rows[1] == ["1.0", "1.0", "1.0"]


def test_compare_reversed_rank_files(capsys, tmp_path):
    labels = [str(i) for i in range(1, 8)]
    forward = tmp_path / "forward.csv"
    backward = tmp_path / "backward.csv"
    header = "label,degree,entropy,rank\n"
    forward.write_text(
        header
        + "".join(f"{lab},1,0.500000,{i}\n" for i, lab in enumerate(labels, 1))
    )
    backward.write_text(
        header
        + "".join(
            f"{lab},1,0.500000,{i}\n"
            for i, lab in enumerate(reversed(labels), 1)
        )
    )
    code, out, _ = _run(capsys, "compare", str(forward), str(backward))
    assert code == 0
    assert float(_rows(out)[1][0]) == pytest.approx(-1.0)


def test_compare_reads_a_rank_csv_with_a_byte_order_mark(capsys, karate_path, tmp_path):
    paths = {}
    for q in ("0", "1"):
        paths[q] = tmp_path / f"q{q}.csv"
        argv = ["rank", "--input", karate_path, "--q", q, "--output", str(paths[q])]
        assert main(argv) == 0
    bom_path = tmp_path / "q1-bom.csv"
    bom_path.write_bytes(b"\xef\xbb\xbf" + paths["1"].read_bytes())
    capsys.readouterr()
    for pair, bom_pair in (
        ((paths["0"], paths["1"]), (paths["0"], bom_path)),
        ((paths["1"], paths["0"]), (bom_path, paths["0"])),
    ):
        expected = _run(capsys, "compare", *map(str, pair))
        assert expected[0] == 0
        assert _run(capsys, "compare", *map(str, bom_pair)) == expected


def test_compare_reads_a_states_csv_with_a_byte_order_mark(capsys, karate_path, tmp_path):
    path = tmp_path / "states.csv"
    assert main(["states", "--input", karate_path, "--output", str(path)]) == 0
    bom_path = tmp_path / "states-bom.csv"
    bom_path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    capsys.readouterr()
    expected = _run(capsys, "compare", str(path), str(path), "--state-b", "stable")
    assert expected[0] == 0
    for pair in ((bom_path, path), (path, bom_path)):
        argv = ["compare", *map(str, pair), "--state-b", "stable"]
        assert _run(capsys, *argv) == expected


def test_compare_reads_a_states_file_of_any_size(capsys, tmp_path):
    """A states cell holds every label, past the csv module's default
    field limit here (700 labels of 200 digits); the limit is restored."""
    edges = tmp_path / "long.edges"
    edges.write_text(
        "".join(f"{i:0200d} {(i + 1) % 700:0200d}\n" for i in range(700))
    )
    states = tmp_path / "states.csv"
    argv = ["states", "--input", str(edges), "--grid", "0,1,2", "--output", str(states)]
    assert main(argv) == 0
    assert states.stat().st_size > 3 * 131072
    limit = csv.field_size_limit()
    code, out, err = _run(
        capsys, "compare", str(states), str(states), "--state-b", "stable"
    )
    assert csv.field_size_limit() == limit
    assert (code, err) == (0, "")
    rows = _rows(out)
    assert rows[0] == ["kendall_tau", "top5_overlap", "top10_overlap"]
    assert len(rows) == 2


@pytest.mark.parametrize(
    "name, text, bad_first",
    [
        ("dup.csv", "label,degree,entropy,rank\nx,1,0,1\ndupe,1,0,2\ndupe,1,0,3\n", False),
        ("dup-states.csv", 'state,order\nOrder_q0,"x,dupe,dupe"\n', True),
    ],
    ids=["rank-second", "states-first"],
)
def test_compare_duplicate_label_is_one_error_line_naming_file_and_label(
    capsys, tmp_path, name, text, bad_first
):
    good = tmp_path / "ok.csv"
    good.write_text("label,degree,entropy,rank\nx,1,0.5,1\ndupe,1,0.5,2\n")
    bad = tmp_path / name
    bad.write_text(text)
    pair = (bad, good) if bad_first else (good, bad)
    code, out, err = _run(capsys, "compare", *map(str, pair))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert str(bad) in err and "dupe" in err


def test_compare_label_holding_a_nul_byte_is_read_or_refused_naming_the_file(
    capsys, tmp_path
):
    """The csv module refuses a NUL byte before Python 3.11 and reads it
    from then on; either way the result is output or one error line."""
    path = tmp_path / "nul.csv"
    path.write_text("label,degree,entropy,rank\na\0b,1,0.5,1\nc,1,0.5,2\n")
    code, out, err = _run(capsys, "compare", str(path), str(path))
    if code == 0:
        assert _rows(out)[1] == ["1.0", "1.0", "1.0"] and err == ""
    else:
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert str(path) in err


def test_compare_states_q0_vs_q1(capsys, karate_path, karate, tmp_path):
    states_path = tmp_path / "states.csv"
    assert main(
        ["states", "--input", karate_path, "--output", str(states_path)]
    ) == 0
    capsys.readouterr()
    code, out, _ = _run(
        capsys,
        "compare",
        str(states_path),
        str(states_path),
        "--state-a",
        "q0",
        "--state-b",
        "q1",
    )
    assert code == 0
    got = float(_rows(out)[1][0])
    # brute-force pair enumeration over the two library rankings
    a = rank(score_all(karate, 0.0)).ordered_labels
    b = rank(score_all(karate, 1.0)).ordered_labels
    pos_a = {lab: i for i, lab in enumerate(a)}
    pos_b = {lab: i for i, lab in enumerate(b)}
    concordant = discordant = 0
    for x, y in itertools.combinations(a, 2):
        sign = (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y])
        if sign > 0:
            concordant += 1
        else:
            discordant += 1
    oracle = (concordant - discordant) / (concordant + discordant)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_label_lists_round_trip_commas_and_quotes(capsys, tmp_path):
    edges = tmp_path / "commas.edges"
    edges.write_text('a,b x\nx y\ny a,b\ny z\nz w\nw say"hi"\n', encoding="utf-8")
    graph_labels = {"a,b", "x", "y", "z", "w", 'say"hi"'}
    rank_path, states_path = tmp_path / "r.csv", tmp_path / "s.csv"
    assert main(["rank", "--input", str(edges), "--q", "1", "--output", str(rank_path)]) == 0
    assert main(["states", "--input", str(edges), "--output", str(states_path)]) == 0
    capsys.readouterr()

    states = {row[0]: next(csv.reader([row[1]])) for row in _rows(states_path.read_text())[1:]}
    assert set(states["Order_q0"]) == set(states["Order_q1"]) == graph_labels
    code, out, _ = _run(capsys, "threshold", "--input", str(edges))
    assert code == 0
    fields = dict(_rows(out)[1:])
    assert next(csv.reader([fields["stable_top10"]])) == states["Order_stable"]

    code, out, err = _run(
        capsys, "compare", str(states_path), str(states_path),
        "--state-a", "q0", "--state-b", "q1", "--format", "json",
    )
    assert code == 0, err
    a, b = states["Order_q0"], states["Order_q1"]
    discordant = sum(
        (a.index(x) - a.index(y)) * (b.index(x) - b.index(y)) < 0
        for x, y in itertools.combinations(a, 2)
    )
    pairs = len(a) * (len(a) - 1) // 2
    assert json.loads(out)["kendall_tau"] == pytest.approx(1 - 2 * discordant / pairs)

    code, out, err = _run(capsys, "compare", str(rank_path), str(states_path), "--state-b", "q1")
    assert code == 0 and err == ""
    # identical rankings of 6 labels: tau-b's float reads 0.9999999999999999
    assert [float(x) for x in _rows(out)[1]] == pytest.approx([1.0, 1.0, 1.0])


def test_compare_label_mismatch_lists_difference(capsys, tmp_path):
    header = "label,degree,entropy,rank\n"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(header + "x,1,0.500000,1\ny,1,0.400000,2\n")
    b.write_text(header + "x,1,0.500000,1\nz,1,0.400000,2\n")
    code, out, err = _run(capsys, "compare", str(a), str(b))
    assert code == 1 and out == ""
    assert "y" in err and "z" in err


def test_compare_missing_stable_row_fails(capsys, tmp_path):
    path = tmp_path / "states.csv"
    path.write_text('state,order\nOrder_q0,"b,a"\nOrder_q1,"b,a"\nOrder_stable,none\n')
    code, _, err = _run(
        capsys, "compare", str(path), str(path), "--state-a", "stable"
    )
    assert code == 1 and "no stable ordering" in err


def _compare_refuses(capsys, path, *options):
    """``lse compare path path`` exits 1 with one error line naming
    ``path``; returns that line."""
    code, out, err = _run(capsys, "compare", str(path), str(path), *options)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
    return err


@pytest.mark.parametrize(
    "ranks",
    [(7, 7, -3), (1, 1, 2), (1, 2, 4), (0, 1, 2), (2, 3, 4)],
    ids=["repeated-and-negative", "repeated", "past-n", "zero", "shifted"],
)
def test_compare_refuses_a_rank_column_other_than_1_to_n(capsys, tmp_path, ranks):
    path = tmp_path / "ranks.csv"
    rows = "".join(f"{label},1,0.5,{r}\n" for label, r in zip("abc", ranks))
    path.write_text("label,degree,entropy,rank\n" + rows)
    assert "1..3" in _compare_refuses(capsys, path)


@pytest.mark.parametrize(
    "row", ["b,1,0.5", "b,1,0.5,two"], ids=["three-cells", "non-integer-rank"]
)
def test_compare_refuses_a_malformed_ranking_row(capsys, tmp_path, row):
    path = tmp_path / "ranks.csv"
    path.write_text(f"label,degree,entropy,rank\na,1,0.5,1\n{row}\n")
    assert _compare_refuses(capsys, path) == f"error: {path}: malformed ranking row\n"


def test_compare_reads_rank_rows_in_any_order(capsys, tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("label,degree,entropy,rank\nb,1,0.5,2\nc,1,0.5,3\na,1,0.5,1\n")
    ordered = tmp_path / "ordered.csv"
    ordered.write_text("label,degree,entropy,rank\na,1,0.5,1\nb,1,0.5,2\nc,1,0.5,3\n")
    code, out, _ = _run(capsys, "compare", str(path), str(ordered))
    assert code == 0 and _rows(out)[1] == ["1.0", "1.0", "1.0"]


@pytest.mark.parametrize("state", ["q0", "q1"])
def test_compare_refuses_a_state_named_twice(capsys, tmp_path, state):
    path = tmp_path / "states.csv"
    path.write_text('state,order\nOrder_q0,"a,b,c"\nOrder_q1,"a,b,c"\nOrder_q0,"c,b,a"\n')
    err = _compare_refuses(capsys, path, "--state-a", state, "--state-b", state)
    assert "'Order_q0'" in err


def test_compare_refuses_a_states_file_without_the_requested_row(capsys, tmp_path):
    path = tmp_path / "states.csv"
    path.write_text('state,order\nOrder_q1,"a,b"\n')
    assert "'Order_q0'" in _compare_refuses(capsys, path)


@pytest.mark.parametrize(
    "text",
    ["", "label,degree,entropy,rank\n", 'state,order\nOrder_q0,""\nOrder_q1,a\n'],
    ids=["empty-file", "header-only-rank", "empty-states-cell"],
)
def test_compare_rejects_empty_rankings(capsys, tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    code, out, err = _run(capsys, "compare", str(path), str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "empty" in err


def test_compare_rejects_unknown_header(capsys, tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("foo,bar\n1,2\n")
    code, _, err = _run(capsys, "compare", str(path), str(path))
    assert code == 1 and "unrecognized header" in err


def test_compare_json_payload(capsys, karate_path, tmp_path):
    out_path = tmp_path / "rank.csv"
    main(["rank", "--input", karate_path, "--q", "2", "--output", str(out_path)])
    capsys.readouterr()
    code, out, _ = _run(
        capsys, "compare", str(out_path), str(out_path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kendall_tau"] == 1.0
    assert payload["top5_overlap"] == 1.0
    assert payload["top10_overlap"] == 1.0
    assert payload["config"]["state_a"] == "q0"


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--q", "1.5"],
        ["sweep", "--grid", "0,0.5,1,2.2"],
        ["threshold", "--refine", "--relaxed-tau", "0.05"],
        ["threshold", "--refine", "--grid", "0,5,10"],
        ["states"],
        ["states", "--grid", "0,1,10"],
        ["compare"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_csv_and_json_carry_the_same_content(capsys, karate_path, tmp_path, argv):
    if argv == ["compare"]:
        rank_path, states_path = tmp_path / "rank.csv", tmp_path / "states.csv"
        assert main(["rank", "--input", karate_path, "--q", "1", "--output", str(rank_path)]) == 0
        assert main(["states", "--input", karate_path, "--output", str(states_path)]) == 0
        argv = ["compare", str(rank_path), str(states_path), "--state-b", "stable"]
    else:
        argv = [*argv, "--input", karate_path]
    code, csv_out, err = _run(capsys, *argv)
    assert code == 0, err
    code, json_out, err = _run(capsys, *argv, "--format", "json")
    assert code == 0, err
    header, *body = _rows(csv_out)
    payload = json.loads(json_out)
    assert payload["command"] == payload["config"]["command"] == argv[0]
    fields = {k: v for k, v in payload.items() if k not in ("command", "config")}

    if argv[0] in ("rank", "sweep"):
        assert len(body) == len(fields["rows"])
        for row, record in zip(body, fields["rows"]):
            assert list(record) == header
            expected = [str(value) for value in record.values()]
            expected[header.index("entropy")] = f"{record['entropy']:.6f}"
            assert row == expected
    elif argv[0] == "threshold":
        assert header == ["field", "value"]
        cells = dict(body)
        assert set(cells) == set(fields)
        for name, cell in cells.items():
            value = fields[name]
            if value is None:
                assert cell == "null"
            elif name == "stable_top10":
                assert next(csv.reader([cell])) == value
            else:
                assert cell == str(value)
    elif argv[0] == "states":
        assert header == ["state", "order"]
        assert [row[0] for row in body] == ["Order_q0", "Order_q1", "Order_stable"]
        for (name, cell), (key, value) in zip(body, fields.items()):
            assert key == name.lower()
            if value is None:
                assert cell == "none"
            else:
                assert next(csv.reader([cell])) == value
    else:
        assert header == list(fields)
        assert body == [[str(value) for value in fields.values()]]


def test_output_file_matches_stdout(capsys, triangle_path, tmp_path):
    out_path = tmp_path / "rank.csv"
    code = main(
        ["rank", "--input", triangle_path, "--q", "1", "--output", str(out_path)]
    )
    captured = capsys.readouterr()
    assert code == 0 and captured.out == ""
    code, stdout_text, _ = _run(
        capsys, "rank", "--input", triangle_path, "--q", "1"
    )
    assert out_path.read_text(encoding="utf-8") == stdout_text

    # sweep streams its CSV rows; labels that need quoting go through it.
    quoted = tmp_path / "quoted.edges"
    quoted.write_text('a,b say"hi"\nsay"hi" c\nc a,b\nc d\n', encoding="utf-8")
    sweep_args = ["sweep", "--input", str(quoted), "--grid", "0,1,2.5"]
    sweep_path = tmp_path / "sweep.csv"
    assert main([*sweep_args, "--output", str(sweep_path)]) == 0
    assert capsys.readouterr().out == ""
    code, stdout_text, _ = _run(capsys, *sweep_args)
    assert code == 0
    assert sweep_path.read_text(encoding="utf-8") == stdout_text
    assert '"a,b"' in stdout_text and '"say""hi"""' in stdout_text
    rows = _rows(stdout_text)
    assert {row[1] for row in rows[1:]} == {"a,b", 'say"hi"', "c", "d"}
    assert len(rows) == 1 + 3 * 4

    bad_path = tmp_path / "bad.csv"
    code, _, err = _run(
        capsys, "sweep", "--input", str(quoted), "--grid", "2,1",
        "--output", str(bad_path),
    )
    assert code == 1 and "grid" in err
    assert not bad_path.exists()


@pytest.mark.parametrize(
    "argv",
    [["rank", "--q", "1.5"], ["sweep", "--grid", "0,0.25,1,2.2"]],
    ids=lambda argv: argv[0],
)
def test_table_csv_bytes_match_csv_writer(capsys, tmp_path, argv):
    # The table CSV is formatted by hand; csv.writer on the JSON rows is the
    # reference for its quoting, q cells and line endings.
    edges = tmp_path / "labels.edges"
    edges.write_text(
        'a,b say"hi"\nsay"hi" é\né 007\n007 10\n10 a,b\né 10\n', encoding="utf-8"
    )
    csv_path, json_path = tmp_path / "table.csv", tmp_path / "table.json"
    argv = [*argv, "--input", str(edges)]
    assert main([*argv, "--output", str(csv_path)]) == 0
    assert main([*argv, "--format", "json", "--output", str(json_path)]) == 0
    capsys.readouterr()

    rows = json.loads(json_path.read_text(encoding="utf-8"))["rows"]
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        row["entropy"] = f"{row['entropy']:.6f}"
        writer.writerow(row.values())
    assert csv_path.read_bytes() == reference.getvalue().encode("utf-8")
    assert {row["label"] for row in rows} == {"a,b", 'say"hi"', "é", "007", "10"}


def _per_row_csv(argv, header, graph, tables, rankings):
    """The table CSV written one row at a time by ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for table, ranking in zip(tables, rankings):
        for position, node in enumerate(ranking.order, start=1):
            label, entropy = graph.labels[node], f"{table.scores[node]:.6f}"
            if header[0] == "q":
                writer.writerow([table.q, label, entropy, position])
            else:
                writer.writerow([label, graph.degrees[node], entropy, position])
    return out.getvalue().encode("utf-8")


def _per_row_json(argv, header, graph, tables, rankings):
    """The table JSON built as one dict per row and one ``json.dumps``."""
    rows = []
    for table, ranking in zip(tables, rankings):
        for position, node in enumerate(ranking.order, start=1):
            columns = {
                "q": float(table.q),
                "label": graph.labels[node],
                "degree": graph.degrees[node],
            }
            cells = (columns[header[0]], columns[header[1]], table.scores[node])
            rows.append(dict(zip(header, (*cells, position))))
    option, value = argv[1:3]  # --q or --grid, as parsed
    config = {
        "command": argv[0],
        "input": argv[argv.index("--input") + 1],
        "format": "json",
        option[2:]: float(value) if option == "--q" else value,
    }
    payload = {"command": argv[0], "config": config, "rows": rows}
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@pytest.fixture()
def label_table_input(tmp_path):
    """An edge list whose labels a % template, a CSV reader, a JSON string
    or an ASCII codec would misread, in a directory whose name holds the
    ``[]`` that JSON output echoes with its input path."""
    edges = tmp_path / "[]" / "percent.edges"
    edges.parent.mkdir()
    edges.write_text(
        '50% %s\n%s %(x)s\n%(x)s %%\n%% a,b\na,b say"hi"\nsay"hi" é漢\n'
        "é漢 50%\n%s %%\n%d %s\n%.6f %d\na\\b \x07\n\x07 50%\n",
        encoding="utf-8",
    )
    graph = load_edge_list(edges.read_text(encoding="utf-8"))
    assert {"%(x)s", "%%", "a\\b", "\x07"} <= set(graph.labels)
    return str(edges), graph


def _table_bytes_match_a_per_row_formatter(capsys, tmp_path, label_table_input, argv, fmt):
    # rank's one block is formatted in this process; sweep's four are
    # split over --jobs processes.
    edges, graph = label_table_input
    argv = [*argv, "--input", edges]
    out_path = tmp_path / f"table.{fmt}"
    if argv[0] == "rank":
        table = score_all(graph, float(argv[2]))
        header, tables, rankings = cli._RANK_HEADER, [table], [rank(table)]
    else:
        result = sweep(graph, parse_grid(argv[2]))
        header = ("q", "label", "entropy", "rank")
        tables, rankings = result.score_tables, result.rankings
    assert main([*argv, "--format", fmt, "--output", str(out_path)]) == 0
    assert capsys.readouterr().err == ""
    reference = {"csv": _per_row_csv, "json": _per_row_json}[fmt]
    assert out_path.read_bytes() == reference(argv, header, graph, tables, rankings)


_TABLE_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--q", "1.5"],
        ["rank", "--q", "0"],
        ["sweep", "--grid", "0,0.25,1,2.2", "--jobs", "1"],
        ["sweep", "--grid", "0,0.25,1,2.2", "--jobs", "2"],
    ],
    ids=["rank", "rank-q0", "sweep-jobs1", "sweep-jobs2"],
)


@_TABLE_ARGVS
def test_table_csv_bytes_match_a_per_row_formatter(capsys, tmp_path, label_table_input, argv):
    _table_bytes_match_a_per_row_formatter(capsys, tmp_path, label_table_input, argv, "csv")


@_TABLE_ARGVS
def test_table_json_bytes_match_a_per_row_formatter(capsys, tmp_path, label_table_input, argv):
    _table_bytes_match_a_per_row_formatter(capsys, tmp_path, label_table_input, argv, "json")


def test_json_table_is_written_block_by_block(label_table_input):
    # The head, one block per grid point, then the tail: no write holds the
    # whole table.
    edges, graph = label_table_input
    grid = "0,0.5,1,2"
    args = cli.build_parser().parse_args(
        ["sweep", "--input", edges, "--grid", grid, "--format", "json", "--jobs", "2"]
    )
    cli._check_args(args)
    writes = []
    cli._emit(args, *args.handler(args), SimpleNamespace(write=writes.append))
    assert len(writes) == len(parse_grid(grid)) + 2
    assert all(isinstance(data, bytes) for data in writes)
    rows = json.loads(b"".join(writes))["rows"]
    assert len(rows) == len(parse_grid(grid)) * graph.node_count


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_locale(encoding, label_table_input, tmp_path):
    import lsentropy

    edges, _ = label_table_input
    src = str(Path(lsentropy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": encoding}
    for argv in (
        ["rank", "--q", "1"],
        ["sweep", "--grid", "0,1", "--format", "json"],
        ["states", "--grid", "0,1,2"],
        ["threshold", "--grid", "0,1,2", "--format", "json"],
    ):
        command = [sys.executable, "-m", "lsentropy.cli", *argv, "--input", edges]
        out_path = tmp_path / "out"
        subprocess.run([*command, "--output", str(out_path)], env=env, check=True)
        proc = subprocess.run(command, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out_path.read_bytes()
        assert "é漢".encode() in proc.stdout


def test_parse_error_reports_path_and_line(capsys, tmp_path):
    path = tmp_path / "broken.edges"
    path.write_text("a b\na b c\n")
    code, out, err = _run(capsys, "rank", "--input", str(path), "--q", "1")
    assert code == 1 and out == ""
    assert str(path) in err and "line 2" in err


def test_self_loops_warn_but_do_not_fail(capsys, tmp_path):
    path = tmp_path / "loops.edges"
    path.write_text("a a\na b\n")
    code, out, err = _run(capsys, "rank", "--input", str(path), "--q", "0")
    assert code == 0
    assert "self-loop" in err
    rows = _rows(out)[1:]
    # the loop contributes nothing: both nodes keep degree 1
    assert {row[1] for row in rows} == {"1"}


@pytest.mark.parametrize(
    "argv", [["rank", "--q", "1"], ["threshold"]], ids=["rank", "threshold"]
)
def test_edge_list_with_a_byte_order_mark_reads_as_without(
    capsys, karate_path, tmp_path, argv
):
    """A leading UTF-8 BOM is not part of the first label."""
    bom_path = tmp_path / "karate-bom.edges"
    bom_path.write_bytes(b"\xef\xbb\xbf" + Path(karate_path).read_bytes())
    outputs = [
        _run(capsys, *argv, "--input", path) for path in (karate_path, str(bom_path))
    ]
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("command", ["rank", "compare", "compare-states"])
def test_input_that_is_not_utf8_is_one_error_line_naming_it(
    capsys, karate_path, tmp_path, command
):
    """A byte that does not decode is reported against the file that holds
    it; for compare, the second of two files, or a states file first."""
    if command == "rank":
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"1 2\n2 \xff3\n")
        argv = ["rank", "--q", "1", "--input", str(bad)]
    elif command == "compare":
        good, bad = tmp_path / "r.csv", tmp_path / "bad.csv"
        assert main(["rank", "--q", "1", "--input", karate_path, "--output", str(good)]) == 0
        bad.write_bytes(b"label,degree,entropy,rank\n\xff,1,0.500000,1\n")
        argv = ["compare", str(good), str(bad)]
    else:
        good, bad = tmp_path / "r.csv", tmp_path / "bad-states.csv"
        assert main(["rank", "--q", "1", "--input", karate_path, "--output", str(good)]) == 0
        bad.write_bytes(b'state,order\nOrder_q0,"1,\xff"\n')
        argv = ["compare", str(bad), str(good)]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert str(bad) in err and "Traceback" not in err


def test_missing_input_file(capsys, tmp_path):
    code, out, err = _run(
        capsys, "rank", "--input", str(tmp_path / "absent.edges"), "--q", "1"
    )
    assert code == 1 and out == "" and "error:" in err


def test_empty_input_file(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("# no data\n")
    code, _, err = _run(capsys, "sweep", "--input", str(path))
    assert code == 1 and "no edges" in err


def test_jobs_must_be_positive(capsys, karate_path):
    code, _, err = _run(
        capsys, "sweep", "--input", karate_path, "--grid", "0,1", "--jobs", "0"
    )
    assert code == 1 and "--jobs" in err


def test_jobs_default_to_and_cap_at_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert cli._job_count(None) == cpus
    assert cli._job_count(1_000_000) == cpus
    assert cli._job_count(1) == 1


def test_failed_worker_exits_1_without_traceback(capsys, monkeypatch, karate_path):
    real = ranking.score_all

    def failing(graph, q):
        if q == 1.0:  # item 1 of (0, 1, 2): forked worker 1's with --jobs 2
            raise RuntimeError("boom")
        return real(graph, q)

    monkeypatch.setattr(ranking, "score_all", failing)
    monkeypatch.setattr(cli, "_job_count", lambda requested: requested)  # any CPU count
    code, out, err = _run(
        capsys, "sweep", "--input", karate_path, "--grid", "0,1,2", "--jobs", "2"
    )
    assert code == 1 and out == ""
    assert err == "error: worker 1 failed on item 1: RuntimeError: boom\n"


def _cli_command(*argv):
    """``python -m lsentropy.cli argv`` and the environment that imports
    this checkout's package."""
    import lsentropy

    src = str(Path(lsentropy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return [sys.executable, "-m", "lsentropy.cli", *argv], env


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_pipe_exits_141_quietly(jobs, tmp_path):
    """A reader that stops early, as ``| head -n 1`` does, ends the run with
    128 + SIGPIPE and nothing on stderr. stderr reaches its end only when
    every process holding it has exited, forked workers included."""
    rng = random.Random(3)
    edges = [(i, rng.randrange(i)) for i in range(1, 300)]
    edges += [rng.sample(range(300), 2) for _ in range(600)]
    path = tmp_path / "g.edges"
    path.write_text("".join(f"node{u} node{v}\n" for u, v in edges))
    command, env = _cli_command("sweep", "--input", str(path), "--jobs", jobs)
    subprocess.run([*command, "--output", str(tmp_path / "all.csv")], env=env, check=True)
    assert (tmp_path / "all.csv").stat().st_size > 300_000  # outgrows a pipe's buffer
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"q,label,entropy,rank\n"
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()  # only if it outlived the timeout
    assert (proc.returncode, stderr) == (141, b"")


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
def test_stdout_closed_at_start_is_one_error_line(output, karate_path, tmp_path):
    """With fd 1 closed before the run, Python's ``sys.stdout`` is None: a
    run that writes there exits 1 with one ``error:`` line, and one that
    writes to --output runs as usual."""
    argv = ["rank", "--q", "1", "--input", karate_path]
    if output:
        argv += ["--output", str(tmp_path / "rank.csv")]
    command, env = _cli_command(*argv)
    proc = subprocess.run(
        ["/bin/sh", "-c", 'exec "$@" >&-', "sh", *command], capture_output=True, env=env
    )
    if output:
        assert (proc.returncode, proc.stderr) == (0, b"")
        written = (tmp_path / "rank.csv").read_bytes()
        assert written.startswith(b"label,degree,entropy,rank\n")
    else:
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--output" in lines[0]


def test_json_echoes_an_input_path_that_is_not_utf8(tmp_path, karate_path):
    """argv decodes a byte that is not UTF-8 to a lone surrogate; JSON
    echoes it as its escape, so the output stays UTF-8 and reads back as
    the path."""
    edges = os.fsencode(tmp_path / "k") + b"\xff.edges"
    ranked = os.fsencode(tmp_path / "r") + b"\xff.csv"
    try:
        shutil.copyfile(karate_path, edges)
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a name that is not UTF-8")
    command, env = _cli_command("rank", "--q", "1", "--input", edges)
    subprocess.run([*command, "--output", ranked], env=env, check=True)
    for argv, echoed in (
        (["rank", "--q", "1", "--input", edges], {"input": edges}),
        (["compare", ranked, ranked], {"input_a": ranked, "input_b": ranked}),
    ):
        command, env = _cli_command(*argv, "--format", "json")
        proc = subprocess.run(command, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        config = json.loads(proc.stdout.decode("utf-8"))["config"]
        for name, path in echoed.items():
            assert config[name] == os.fsdecode(path)


@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["threshold", "--refine"], ["states"]],
    ids=["sweep", "threshold", "states"],
)
def test_stdout_bytes_same_for_any_jobs(argv, karate_path):
    """A forked worker inherits this process's buffered stdout; it must
    never flush it, or the header would be written twice."""
    import lsentropy

    src = str(Path(lsentropy.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe stays block-buffered
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "lsentropy.cli", *argv, "--input", karate_path,
             "--jobs", jobs],
            capture_output=True,
            env=env,
            check=True,
        ).stdout
        for jobs in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 1


def test_json_config_echo_excludes_parallelism(capsys, karate_path):
    _, serial, _ = _run(
        capsys,
        "sweep",
        "--input",
        karate_path,
        "--grid",
        "0,1",
        "--format",
        "json",
    )
    _, parallel, _ = _run(
        capsys,
        "sweep",
        "--input",
        karate_path,
        "--grid",
        "0,1",
        "--jobs",
        "2",
        "--format",
        "json",
    )
    assert serial == parallel
    assert "jobs" not in json.loads(serial)["config"]


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


def test_console_script_entry_point(karate_path):
    exe = shutil.which("lse")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "rank", "--input", karate_path, "--q", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("label,degree,entropy,rank")


@pytest.mark.parametrize(
    "module, code",
    [
        ("scipy", "import lsentropy"),
        ("numpy", "import lsentropy"),
        (
            "numpy",
            "from lsentropy import cli, karate_edges_path; "
            "cli.main(['sweep', '--input', str(karate_edges_path()), "
            "'--output', os.devnull])",
        ),
        (
            "numpy",
            "from lsentropy import cli, karate_edges_path; "
            "assert cli.main(['threshold', '--refine', '--relaxed-tau', '0.05', "
            "'--input', str(karate_edges_path()), '--output', os.devnull]) == 0",
        ),
        (
            "numpy",
            "from lsentropy import cli, karate_edges_path; k = str(karate_edges_path()); "
            "assert cli.main(['rank', '--q', '1', '--input', k, '--output', 'r.csv']) == 0; "
            "assert cli.main(['states', '--input', k, '--output', 's.csv']) == 0; "
            "assert cli.main(['compare', 'r.csv', 's.csv', '--output', os.devnull]) == 0",
        ),
        *(
            (
                module,
                "from lsentropy import cli, karate_edges_path; "
                "assert cli.main(['sweep', '--jobs', '2', '--input', "
                "str(karate_edges_path()), '--output', os.devnull]) == 0",
            )
            for module in ("multiprocessing", "pickle")
        ),
    ],
    ids=[
        "scipy-import",
        "numpy-import",
        "numpy-sweep",
        "numpy-relaxed",
        "numpy-compare",
        "multiprocessing-sweep",
        "pickle-sweep",
    ],
)
def test_heavy_module_stays_unloaded(module, code, tmp_path):
    import lsentropy

    src = str(Path(lsentropy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import os, sys; {code}; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
