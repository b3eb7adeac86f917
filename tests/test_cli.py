"""End-to-end command-line behavior: arguments, formats, exit codes."""
import csv
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference
from lsentropy import (
    DEFAULT_GRID_SPEC,
    default_grid,
    karate_edges_path,
    load_edge_list,
    parse_grid,
    sweep,
)
from lsentropy import cli, ranking
from lsentropy.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _reference(argv):
    """The reference model's bytes for ``lse argv``, any command but
    compare, its arguments parsed as the CLI parses them."""
    args = cli.build_parser().parse_args(argv)
    path, fmt, tau = args.input, args.format, getattr(args, "relaxed_tau", None)
    return {
        "rank": lambda: reference.rank(path, args.q, fmt),
        "sweep": lambda: reference.sweep(path, args.grid, fmt),
        "threshold": lambda: reference.threshold(path, args.grid, tau, args.refine, fmt),
        "states": lambda: reference.states(path, args.grid, tau, fmt),
    }[args.command]()


def _writes_the_model_bytes(capsys, *argv):
    """``lse argv`` succeeds, with nothing on stderr, and writes the
    reference model's bytes."""
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, ""), argv
    assert out.encode() == _reference(list(argv)), argv


def _written(row, tmp_path):
    """Write a table row's input files to ``tmp_path``; its argv, with
    ``{dir}`` read as that directory."""
    for name, data in row.files.items():
        (tmp_path / name).write_bytes(data)
    return [arg.replace("{dir}", str(tmp_path)) for arg in row.argv]


def _refused(capsys, tmp_path, key):
    """``lse`` refuses row ``key`` of ``reference.REFUSALS`` as the row says,
    writing nothing but its one error line."""
    refusal = reference.REFUSALS[key]
    try:
        code = main(_written(refusal, tmp_path))
    except SystemExit as exc:  # argparse's refusals
        code = exc.code
    out, err = capsys.readouterr()
    line = refusal.line.replace("{dir}", str(tmp_path))
    assert (code, out) == (refusal.status, ""), err
    if refusal.status == 2:
        assert err.startswith("usage: lse") and err.endswith(f"\n{line}\n"), err
    else:
        assert err == f"{line}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(refusal.files)


_FAMILIES = []


def _family(table, family):
    """Parametrize a test over the rows ``family/case`` of
    ``reference.table``, each with ``case`` as its test id."""
    _FAMILIES.append((table, family))
    keys = [key for key in getattr(reference, table) if key.startswith(f"{family}/")]
    return pytest.mark.parametrize("key", keys, ids=[key.split("/", 1)[1] for key in keys])


@pytest.mark.parametrize("key", [key for key in reference.REFUSALS if "/" not in key])
def test_lse_refuses(capsys, tmp_path, key):
    """The rows of ``reference.REFUSALS`` in no family."""
    _refused(capsys, tmp_path, key)


@pytest.mark.parametrize("key", [key for key in reference.CASES if "/" not in key])
def test_lse_writes_the_model_bytes(capsys, tmp_path, jobs_as_requested, key):
    """``lse`` writes the model's bytes for row ``key`` of
    ``reference.CASES``; ``--jobs N`` runs N processes on any host."""
    _writes_the_model_bytes(capsys, *_written(reference.CASES[key], tmp_path))


@_family("REFUSALS", "grid-with-minus")
def test_grid_spec_starting_with_minus_is_written_with_equals(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "grid-step")
def test_bad_grid_reported_before_input_is_read(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "oversized-grid")
def test_oversized_grid_reported_before_input_is_read(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "short-grid")
def test_command_grid_rule_reported_before_input_is_read(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "not-utf8")
def test_input_that_is_not_utf8_is_one_error_line_naming_it(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "rank-column")
def test_compare_refuses_a_rank_column_other_than_1_to_n(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "rank-row")
def test_compare_refuses_a_malformed_ranking_row(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "states-row")
def test_compare_refuses_a_malformed_states_row(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "state-twice")
def test_compare_refuses_a_state_named_twice(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "empty-ranking")
def test_compare_rejects_empty_rankings(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("REFUSALS", "duplicate-label")
def test_compare_duplicate_label_is_one_error_line_naming_file_and_label(capsys, tmp_path, key):
    _refused(capsys, tmp_path, key)


@_family("CASES", "rank-minus-zero")
def test_rank_writes_minus_zero_q_as_zero(capsys, tmp_path, key):
    _writes_the_model_bytes(capsys, *_written(reference.CASES[key], tmp_path))


@_family("CASES", "sweep-minus-zero")
def test_sweep_writes_minus_zero_as_zero(capsys, tmp_path, key):
    _writes_the_model_bytes(capsys, *_written(reference.CASES[key], tmp_path))


@_family("CASES", "states-off-grid")
def test_states_scores_zero_and_one_off_the_grid(capsys, tmp_path, key):
    _writes_the_model_bytes(capsys, *_written(reference.CASES[key], tmp_path))


@_family("CASES", "byte-order-mark")
def test_edge_list_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, key):
    _writes_the_model_bytes(capsys, *_written(reference.CASES[key], tmp_path))


def test_each_table_row_runs_under_one_test():
    """A row ``family/case`` runs under its family's test and no other; a
    row with no slash runs under its table's runner."""
    for table in ("REFUSALS", "CASES"):
        families = {key.split("/")[0] for key in getattr(reference, table) if "/" in key}
        tested = [family for name, family in _FAMILIES if name == table]
        assert sorted(tested) == sorted(families), table


@pytest.fixture(scope="session")
def karate_path():
    return str(karate_edges_path())


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("1 2\n2 3\n3 1\n")
    return str(path)


@pytest.fixture()
def cycle_path(tmp_path):
    # Every node's ego holds three equal shares, so every q ranks by label.
    path = tmp_path / "cycle.edges"
    path.write_text("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
    return str(path)


# The top k integer points up to 10, for each grid length k from 2 to 9.
_SHORT_GRIDS = {2: "8,10", **{k: f"{11 - k}:10:1" for k in range(3, 10)}}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "graph, grid",
    [("karate", None), ("cycle", None), *(("karate", g) for g in _SHORT_GRIDS.values())],
    ids=["karate-default-grid", "cycle", *(f"{k}-point-grid" for k in _SHORT_GRIDS)],
)
def test_threshold_bytes_match_detection_over_a_full_sweep(
    capsys, monkeypatch, forkless_on, karate_path, cycle_path, graph, grid, cpus
):
    """threshold scores the grid from its top down in blocks, as detection
    reads it; its bytes must be the reference model's, which detects over
    one sweep of the whole grid, on any CPU count and without a fork. The
    short grids leave every remainder for the top block, and on the cycle
    every block is read. The last block scored holds at least 2 points, so
    that detection could run over it alone."""
    forkless_on(cpus)
    path = karate_path if graph == "karate" else cycle_path
    base = ["threshold", "--input", path]
    base += ["--grid", grid] if grid else []
    options = itertools.product(("csv", "json"), (None, 0.05), (False, True))
    for fmt, tau, refine in options:
        relaxed = ["--relaxed-tau", str(tau)] if tau else []
        argv = [*base, "--format", fmt, *relaxed, *["--refine"] * refine]
        sizes = []

        def recording_sweep(g, grid):
            sizes.append(len(grid))
            return sweep(g, grid)

        monkeypatch.setattr(cli, "sweep", recording_sweep)
        _writes_the_model_bytes(capsys, *argv)
        assert sizes[-1] >= 2, (argv, sizes)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("relaxed", [[], ["--relaxed-tau", "0.05"]], ids=["exact", "relaxed"])
@pytest.mark.parametrize("graph", ["karate", "cycle"])
def test_threshold_scores_only_the_blocks_detection_reads(
    capsys, monkeypatch, forkless_on, karate_path, cycle_path, graph, relaxed, cpus
):
    """Detection reads the stable suffix and the point below it, so the
    blocks of 2 points that hold them are all that is scored, on any CPU
    count and without a fork."""
    forkless_on(cpus)
    real_sweep = cli.sweep
    scored = []

    def counting_sweep(graph, grid):
        scored.append(len(grid))
        return real_sweep(graph, grid)

    monkeypatch.setattr(cli, "sweep", counting_sweep)
    path = karate_path if graph == "karate" else cycle_path
    code, out, err = _run(capsys, "threshold", "--input", path, *relaxed)
    assert code == 0, err
    suffix_length = int(dict(_rows(out)[1:])["suffix_length"])
    points = len(default_grid())
    assert sum(scored) <= min(points, suffix_length + 1) + 1, scored


# (lo, hi) of each default-grid slice that threshold scores, in order:
# blocks of 2 points counted from the grid's bottom, read from its top.
_THRESHOLD_SLICES = {
    "karate": [(42, 43), (40, 42), (38, 40)],
    "cycle": [(42, 43), *((lo, lo + 2) for lo in range(40, -1, -2))],
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("graph", sorted(_THRESHOLD_SLICES))
def test_threshold_scores_the_same_grid_slices_in_the_same_order(
    capsys, monkeypatch, forkless_on, karate_path, cycle_path, graph, cpus
):
    """The blocks threshold scores, top block first, are the same on any
    CPU count: detection stops early on karate and reads every point of
    the cycle."""
    forkless_on(cpus)
    real_sweep = cli.sweep
    scored = []

    def recording_sweep(graph, grid):
        scored.append(tuple(grid))
        return real_sweep(graph, grid)

    monkeypatch.setattr(cli, "sweep", recording_sweep)
    path = karate_path if graph == "karate" else cycle_path
    code, _, err = _run(capsys, "threshold", "--input", path)
    assert code == 0, err
    grid = default_grid()
    assert scored == [grid[lo:hi] for lo, hi in _THRESHOLD_SLICES[graph]]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize(
    "grid",
    [*_SHORT_GRIDS.values(), "0.5,1", "0,0.5", "0,1,2,3"],
    ids=[
        *(f"{k}-point-grid" for k in _SHORT_GRIDS), "q1-on-grid", "q0-on-grid", "both-on-grid",
    ],
)
def test_states_rows_match_detection_over_a_full_sweep(
    capsys, forkless_on, karate_path, grid, cpus
):
    """states detects through threshold's top-down path; its bytes must be
    the reference model's, whose stable row is detection's over one sweep
    of the whole grid and whose q = 0 and q = 1 rows are the rankings
    scored alone there, on the grid or off it, on any CPU count and
    without a fork."""
    forkless_on(cpus)
    for tau, fmt in itertools.product((None, 0.05), ("csv", "json")):
        relaxed = [] if tau is None else ["--relaxed-tau", str(tau)]
        argv = ["states", "--input", karate_path, "--grid", grid, *relaxed, "--format", fmt]
        _writes_the_model_bytes(capsys, *argv)


def test_states_scores_what_threshold_scores_plus_two(capsys, monkeypatch, karate_path):
    """states detects as threshold does, then scores q = 0 and q = 1 alone:
    on karate's default grid, 7 points exact and 15 relaxed."""
    real = ranking.score_all
    for relaxed, points in (([], 7), (["--relaxed-tau", "0.05"], 15)):
        scored = {}
        for command in ("threshold", "states"):
            calls = scored[command] = []

            def counting(graph, q, calls=calls):
                calls.append(q)
                return real(graph, q)

            with monkeypatch.context() as counted:
                counted.setattr(ranking, "score_all", counting)
                counted.setattr(cli, "score_all", counting)
                argv = (command, "--input", karate_path, *relaxed)
                code, _, err = _run(capsys, *argv)
            assert code == 0 and err == "", err
        assert scored["states"] == [*scored["threshold"], 0.0, 1.0], relaxed
        assert len(scored["states"]) == points, relaxed


def test_compare_reversed_rank_files(capsys, tmp_path):
    paths = [str(tmp_path / "forward.csv"), str(tmp_path / "backward.csv")]
    for path, labels in zip(paths, (range(1, 8), range(7, 0, -1))):
        rows = "".join(f"{label},1,0.500000,{r}\n" for r, label in enumerate(labels, 1))
        Path(path).write_text("label,degree,entropy,rank\n" + rows)
    code, out, _ = _run(capsys, "compare", *paths)
    assert (code, _rows(out)[1]) == (0, ["-1.0", "0.6", "1.0"])


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


def test_compare_reads_rank_rows_in_any_order(capsys, tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("label,degree,entropy,rank\nb,1,0.5,2\nc,1,0.5,3\na,1,0.5,1\n")
    ordered = tmp_path / "ordered.csv"
    ordered.write_text("label,degree,entropy,rank\na,1,0.5,1\nb,1,0.5,2\nc,1,0.5,3\n")
    code, out, _ = _run(capsys, "compare", str(path), str(ordered))
    assert code == 0 and _rows(out)[1] == ["1.0", "1.0", "1.0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--q", "1.5"],
        ["sweep", "--grid", "0,0.5,1,2.2"],
        ["threshold", "--refine", "--relaxed-tau", "0.05"],
        ["threshold", "--refine", "--grid", "0,5,10"],
        # 0.2 - 0.1 is exactly REFINE_RESOLUTION, so refine does not bisect.
        ["threshold", "--refine", "--grid", "0.1,0.2,0.3"],
        ["states"],
        ["states", "--grid", "0,1,10"],
        ["compare"],
    ],
    ids=lambda argv: "_".join(argv),
)
def test_csv_and_json_carry_the_same_content(capsys, karate_path, tmp_path, argv):
    """Both formats write the reference model's bytes, which it builds
    from one set of values."""
    if argv == ["compare"]:
        paths = [str(tmp_path / "rank.csv"), str(tmp_path / "states.csv")]
        assert main(["rank", "--input", karate_path, "--q", "1", "--output", paths[0]]) == 0
        assert main(["states", "--input", karate_path, "--output", paths[1]]) == 0
        argv = ["compare", *paths, "--state-b", "stable"]
        a = reference.ranking(reference.load(karate_path), 1.0)
        b = reference.states_orders(karate_path, DEFAULT_GRID_SPEC, None)["stable"]
        config = dict(input_a=paths[0], input_b=paths[1], state_a="q0", state_b="stable")

        def model(full):
            return reference.compare(a, b, {**config, "format": full[-1]})

    else:
        argv, model = [*argv, "--input", karate_path], _reference
    for fmt in ("csv", "json"):
        code, out, err = _run(capsys, *argv, "--format", fmt)
        assert code == 0, err
        assert out.encode() == model([*argv, "--format", fmt]), fmt


def test_output_file_matches_stdout(capsys, triangle_path, tmp_path):
    # sweep streams its CSV rows; labels that need quoting go through it.
    quoted = tmp_path / "quoted.edges"
    quoted.write_text('a,b say"hi"\nsay"hi" c\nc a,b\nc d\n', encoding="utf-8")
    out_path = tmp_path / "out.csv"
    for argv in (
        ["rank", "--input", triangle_path, "--q", "1"],
        ["sweep", "--input", str(quoted), "--grid", "0,1,2.5"],
    ):
        assert main([*argv, "--output", str(out_path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out_path.read_bytes() == _reference(argv)
        _writes_the_model_bytes(capsys, *argv)


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
    # split over --jobs processes. The reference model writes row by row.
    argv = [*argv, "--input", label_table_input[0], "--format", fmt]
    out_path = tmp_path / f"table.{fmt}"
    assert main([*argv, "--output", str(out_path)]) == 0
    assert capsys.readouterr().err == ""
    assert out_path.read_bytes() == _reference(argv)


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
    edges, _ = label_table_input
    for argv in (
        ["rank", "--q", "1"],
        ["sweep", "--grid", "0,1", "--format", "json"],
        ["states", "--grid", "0,1,2"],
        ["threshold", "--grid", "0,1,2", "--format", "json"],
    ):
        command, env = _cli_command(*argv, "--input", edges)
        env["PYTHONIOENCODING"] = encoding
        out_path = tmp_path / "out"
        subprocess.run([*command, "--output", str(out_path)], env=env, check=True)
        proc = subprocess.run(command, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out_path.read_bytes()
        assert "é漢".encode() in proc.stdout


def test_self_loops_warn_but_do_not_fail(capsys, tmp_path):
    path = tmp_path / "loops.edges"
    path.write_text("a a\na b\n")
    code, out, err = _run(capsys, "rank", "--input", str(path), "--q", "0")
    assert code == 0
    assert "self-loop" in err
    rows = _rows(out)[1:]
    # the loop contributes nothing: both nodes keep degree 1
    assert {row[1] for row in rows} == {"1"}


def test_jobs_default_to_and_cap_at_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert cli._job_count(None) == cpus
    assert cli._job_count(1_000_000) == cpus
    assert cli._job_count(1) == 1


def test_failed_worker_exits_1_without_traceback(
    capsys, monkeypatch, jobs_as_requested, karate_path
):
    real = ranking.score_all

    def failing(graph, q):
        if q == 1.0:  # item 1 of (0, 1, 2): forked worker 1's with --jobs 2
            raise RuntimeError("boom")
        return real(graph, q)

    monkeypatch.setattr(ranking, "score_all", failing)
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


@pytest.mark.parametrize("argv", [["sweep"]], ids=["sweep"])
def test_stdout_bytes_same_for_any_jobs(argv, karate_path):
    """A forked worker inherits this process's buffered stdout; it must
    never flush it, or the header would be written twice."""
    outputs = []
    for jobs in ("1", "2"):
        command, env = _cli_command(*argv, "--input", karate_path, "--jobs", jobs)
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe stays block-buffered
        outputs.append(subprocess.run(command, capture_output=True, env=env, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 1


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


# Each code runs lse through cli.main on karate, with ``k`` its path.
_RUN = "from lsentropy import cli, karate_edges_path; k = str(karate_edges_path()); assert "


@pytest.mark.parametrize(
    "module, code",
    [
        ("scipy", "import lsentropy"),
        ("numpy", "import lsentropy"),
        ("numpy", _RUN + "cli.main(['sweep', '--input', k, '--output', os.devnull]) == 0"),
        (
            "numpy",
            _RUN + "cli.main(['threshold', '--refine', '--relaxed-tau', '0.05', "
            "'--input', k, '--output', os.devnull]) == 0",
        ),
        (
            "numpy",
            _RUN + "cli.main(['rank', '--q', '1', '--input', k, '--output', 'r.csv']) == 0; "
            "assert cli.main(['states', '--input', k, '--output', 's.csv']) == 0; "
            "assert cli.main(['compare', 'r.csv', 's.csv', '--output', os.devnull]) == 0",
        ),
        *(
            (module, _RUN + "cli.main(['sweep', '--jobs', '2', '--input', k, "
             "'--output', os.devnull]) == 0")
            for module in ("multiprocessing", "pickle")
        ),
    ],
    ids=[
        "scipy-import", "numpy-import", "numpy-sweep", "numpy-relaxed", "numpy-compare",
        "multiprocessing-sweep", "pickle-sweep",
    ],
)
def test_heavy_module_stays_unloaded(module, code, tmp_path):
    _, env = _cli_command()
    command = [sys.executable, "-c", f"import os, sys; {code}; print({module!r} in sys.modules)"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
