"""Command-line front-end: load edge lists, run experiments, emit CSV/JSON.

Five subcommands: ``rank`` scores every node at one entropic index,
``sweep`` does so over a q grid, ``threshold`` detects the q where the
ranking stabilizes, ``states`` emits the q=0 / q=1 / stable orderings,
and ``compare`` measures agreement between two previously emitted
ranking files. Data goes to stdout (or --output), diagnostics to
stderr, exit status 0 only on success.

Every subcommand returns one ``(fields, header, rows)`` result, and
``_emit`` alone writes it. A table (``rank``, ``sweep``: ``fields`` is
None) passes ``(graph, score tables, rankings)`` as its rows; it is four
columns whose third is an entropy and whose fourth is the rank, one
block of rows per scored q in ranking order. CSV writes each block with
one write of hand-joined lines, the labels quoted once per command by
``csv.writer`` itself, q as its repr and the entropy at 6 decimals; JSON
gives one object per row at full float precision. A record
(``threshold``, ``states``, ``compare``) carries its JSON ``fields``
and its CSV ``header`` and ``rows`` side by side, because the two
formats order, name and spell them differently. CSV output is
UTF-8 with LF line endings and a header row. JSON output also echoes
the arguments listed next to the subcommand in ``_DISPATCH``; the echo
excludes the output path and --jobs, which cannot affect the numbers:
identical (input, parameters) must produce byte-identical output.

``--jobs`` splits a grid command's q points, and the table CSV's blocks,
over that many processes forked from this one (``_workers.forked_map``);
it defaults to, and is capped at, the CPUs this process may use.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import repeat
from typing import IO, Callable, Iterable, Iterator

from ._workers import forked_map
from .graph import EdgeListParseError, EmptyGraphError, Graph, load_edge_list
from .ranking import (
    DEFAULT_GRID_SPEC,
    MAX_RELAXED_TAU,
    Ranking,
    compare_rankings,
    detect_threshold,
    parse_grid,
    rank,
    refine_threshold,
    score_all,
    sweep,
    three_states,
)

_RANK_HEADER = ("label", "degree", "entropy", "rank")
_STATES_HEADER = ("state", "order")
_STATE_ROW_NAMES = {"q0": "Order_q0", "q1": "Order_q1", "stable": "Order_stable"}

# What every subcommand returns: JSON fields (None for a table), then the
# CSV header and rows (for a table, graph, score tables and rankings).
Result = tuple[dict | None, tuple[str, ...], Iterable[tuple]]


def _check_args(args: argparse.Namespace) -> None:
    """The argument checks argparse cannot express, run before any file is
    read; also resolves ``args.jobs`` to a worker count."""
    q = getattr(args, "q", 0.0)
    if not (math.isfinite(q) and q >= 0.0):
        raise ValueError("--q must be finite and >= 0")
    relaxed_tau = getattr(args, "relaxed_tau", None)
    if relaxed_tau is not None and not 0.0 < relaxed_tau <= MAX_RELAXED_TAU:
        raise ValueError(f"--relaxed-tau must lie in (0, {MAX_RELAXED_TAU}]")
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ValueError("--jobs must be >= 1")
    args.jobs = _job_count(jobs)


def _job_count(requested: int | None) -> int:
    """Worker processes for ``--jobs requested``: the CPUs this process may
    use when None, and never more than them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus if requested is None else min(requested, cpus)


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            graph = load_edge_list(handle)
    except (EdgeListParseError, EmptyGraphError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if graph.self_loops_dropped:
        print(
            f"warning: {path}: dropped {graph.self_loops_dropped} self-loop edge(s)",
            file=sys.stderr,
        )
    return graph


class _Echo:
    """A file whose ``write`` returns the text, so that a ``csv.writer``
    on it returns each line it formats."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv_lines(rows: Iterable[Iterable]) -> list[str]:
    """Each row as one CSV line without a line terminator."""
    return list(map(csv.writer(_Echo(), lineterminator="").writerow, rows))


def _label_line(labels: Iterable[str]) -> str:
    """Labels as one CSV line, so that labels holding ',' or '"' read back
    intact with ``next(csv.reader([line]))``."""
    return _csv_lines([labels])[0]


def _table_block(
    header, labels, q_cell, graph: Graph, tables, rankings
) -> Callable[[int], tuple[Iterator, Iterator, Iterator]]:
    """A function of k giving the k-th scored q's rows in ranking order,
    as iterators over the first two columns that ``header`` names and
    over the entropies; a row's rank is its position. ``labels`` (by node
    id) and ``q_cell`` give the label and q cells."""
    index = {label: i for i, label in enumerate(graph.labels)}

    def block(k: int) -> tuple[Iterator, Iterator, Iterator]:
        table = tables[k]
        order = list(map(index.__getitem__, rankings[k].ordered_labels))
        columns = {
            "q": repeat(q_cell(table.q)),
            "label": map(labels.__getitem__, order),
            "degree": map(graph.degrees.__getitem__, order),
        }
        entropies = map(table.scores.__getitem__, order)
        return columns[header[0]], columns[header[1]], entropies

    return block


def cmd_rank(args: argparse.Namespace) -> Result:
    graph = _load_graph(args.input)
    table = score_all(graph, args.q)
    return None, _RANK_HEADER, (graph, [table], [rank(table)])


def cmd_sweep(args: argparse.Namespace) -> Result:
    graph = _load_graph(args.input)
    result = sweep(graph, parse_grid(args.grid), jobs=args.jobs)
    rows = (graph, result.score_tables, result.rankings)
    return None, ("q", "label", "entropy", "rank"), rows


def cmd_threshold(args: argparse.Namespace) -> Result:
    graph = _load_graph(args.input)
    result = sweep(graph, parse_grid(args.grid), jobs=args.jobs)
    report = detect_threshold(result, relaxed_tau=args.relaxed_tau)
    top10 = report.stable_ranking.top(10) if report.stable_ranking else None
    fields = {
        "p_value": report.p_value,
        "suffix_length": report.suffix_length,
        "stable_top10": list(top10) if top10 else None,
    }
    rows = [("p_value", "null" if report.p_value is None else report.p_value)]
    if args.refine:
        refined = refine_threshold(graph, result, report, relaxed_tau=args.relaxed_tau)
        fields["refined_p_value"] = refined
        rows.append(("refined_p_value", "null" if refined is None else refined))
    rows.append(("suffix_length", report.suffix_length))
    rows.append(("stable_top10", _label_line(top10) if top10 else "null"))
    return fields, ("field", "value"), rows


def cmd_states(args: argparse.Namespace) -> Result:
    graph = _load_graph(args.input)
    states = three_states(
        graph, parse_grid(args.grid), relaxed_tau=args.relaxed_tau, jobs=args.jobs
    )
    fields, rows = {}, []
    for state, row_name in _STATE_ROW_NAMES.items():
        order = getattr(states, f"order_{state}")
        fields[f"order_{state}"] = list(order.ordered_labels) if order else None
        rows.append((row_name, _label_line(order.ordered_labels) if order else "none"))
    return fields, _STATES_HEADER, rows


def _load_ranking_csv(path: str, state: str) -> Ranking:
    """Read a ranking back from cmd_rank or cmd_states CSV output."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header = tuple(rows[0])
    if header == _RANK_HEADER:
        try:
            body = sorted(rows[1:], key=lambda row: int(row[3]))
        except (IndexError, ValueError):
            raise ValueError(f"{path}: malformed ranking row") from None
        return Ranking(tuple(row[0] for row in body))
    if header == _STATES_HEADER:
        wanted = _STATE_ROW_NAMES[state]
        for row in rows[1:]:
            if len(row) == 2 and row[0] == wanted:
                if row[1] == "none":
                    raise ValueError(
                        f"{path}: no stable ordering was detected in this file"
                    )
                return Ranking(tuple(next(csv.reader([row[1]]))))
        raise ValueError(f"{path}: missing row {wanted!r}")
    raise ValueError(
        f"{path}: unrecognized header {','.join(header)!r}; "
        "expected rank or states CSV"
    )


def cmd_compare(args: argparse.Namespace) -> Result:
    ranking_a = _load_ranking_csv(args.input_a, args.state_a)
    ranking_b = _load_ranking_csv(args.input_b, args.state_b)
    comparison = compare_rankings(ranking_a, ranking_b)
    fields = {
        "kendall_tau": comparison.kendall_tau,
        "top5_overlap": comparison.top_k_overlap[5],
        "top10_overlap": comparison.top_k_overlap[10],
    }
    return fields, tuple(fields), [tuple(fields.values())]


# Each subcommand, with the arguments its JSON output echoes as "config".
_DISPATCH = {
    "rank": (cmd_rank, ("input", "format", "q")),
    "sweep": (cmd_sweep, ("input", "format", "grid")),
    "threshold": (cmd_threshold, ("input", "format", "grid", "refine", "relaxed_tau")),
    "states": (cmd_states, ("input", "format", "grid", "relaxed_tau")),
    "compare": (cmd_compare, ("input_a", "input_b", "state_a", "state_b", "format")),
}


def _emit(args: argparse.Namespace, fields, header, rows, handle: IO[str]) -> None:
    """Write one subcommand's result to ``handle`` as CSV or JSON, by the
    table and record rules in the module docstring."""
    if args.format == "json":
        if fields is None:
            block = _table_block(header, rows[0].labels, float, *rows)
            blocks = map(block, range(len(rows[1])))
            fields = {"rows": [
                dict(zip(header, (*cells, position)))
                for block in blocks
                for position, cells in enumerate(zip(*block), start=1)
            ]}
        config = {"command": args.command}
        config.update((name, getattr(args, name)) for name in _DISPATCH[args.command][1])
        payload = {"command": args.command, "config": config, **fields}
        handle.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
        return
    if fields is None:
        # One write per scored q, its block formatted by one of args.jobs
        # processes. csv.writer quotes each label once, and q is formatted
        # once per block as repr, which csv.writer writes for a float.
        block = _table_block(header, _csv_lines(zip(rows[0].labels)), repr, *rows)

        def formatted(k: int) -> bytes:
            return "".join([
                f"{a},{b},{entropy:.6f},{position}\n"
                for position, (a, b, entropy) in enumerate(zip(*block(k)), start=1)
            ]).encode()

        handle.write(",".join(header) + "\n")
        for text in forked_map(formatted, range(len(rows[1])), args.jobs):
            handle.write(text.decode())
        return
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lse",
        description=(
            "Rank nodes of an undirected network by nonextensive local "
            "structure entropy and locate the entropic index where the "
            "ranking stabilizes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    output_opts = argparse.ArgumentParser(add_help=False)
    output_opts.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )
    output_opts.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write to PATH instead of stdout",
    )

    input_opts = argparse.ArgumentParser(add_help=False)
    input_opts.add_argument(
        "--input",
        metavar="PATH",
        required=True,
        help="edge-list file: one 'u v' pair per line, '#' comments allowed",
    )

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument(
        "--grid",
        metavar="SPEC",
        default=DEFAULT_GRID_SPEC,
        help=(
            "q grid: comma-separated values and/or start:stop:step ranges "
            f"(default: {DEFAULT_GRID_SPEC})"
        ),
    )
    grid_opts.add_argument(
        "--jobs",
        metavar="N",
        type=int,
        default=None,
        help=(
            "processes that score the grid points and format the sweep CSV, "
            "capped at the usable CPUs; output is the same for every N "
            "(default: the usable CPUs)"
        ),
    )

    p_rank = sub.add_parser(
        "rank",
        parents=[input_opts, output_opts],
        help="score and rank every node at one entropic index",
    )
    p_rank.add_argument(
        "--q", type=float, required=True, metavar="REAL", help="entropic index, >= 0"
    )

    sub.add_parser(
        "sweep",
        parents=[input_opts, grid_opts, output_opts],
        help="score and rank every node at each grid point",
    )

    p_threshold = sub.add_parser(
        "threshold",
        parents=[input_opts, grid_opts, output_opts],
        help="detect the entropic index where the ranking stabilizes",
    )
    p_threshold.add_argument(
        "--refine",
        action="store_true",
        help="bisect below the detected grid point to 0.1 resolution",
    )
    p_threshold.add_argument(
        "--relaxed-tau",
        type=float,
        default=None,
        metavar="T",
        help=(
            "accept suffixes agreeing to Kendall tau >= 1-T instead of "
            f"exact equality; T in (0, {MAX_RELAXED_TAU}]"
        ),
    )

    p_states = sub.add_parser(
        "states",
        parents=[input_opts, grid_opts, output_opts],
        help="emit the q=0, q=1, and stable orderings",
    )
    p_states.add_argument(
        "--relaxed-tau",
        type=float,
        default=None,
        metavar="T",
        help="stability tolerance passed through to threshold detection",
    )

    p_compare = sub.add_parser(
        "compare",
        parents=[output_opts],
        help="measure agreement between two ranking CSV files",
    )
    p_compare.add_argument(
        "input_a", metavar="a.csv", help="rank or states CSV emitted by this tool"
    )
    p_compare.add_argument(
        "input_b", metavar="b.csv", help="rank or states CSV emitted by this tool"
    )
    p_compare.add_argument(
        "--state-a",
        choices=("q0", "q1", "stable"),
        default="q0",
        help="row to take when a.csv is a states file (default: q0)",
    )
    p_compare.add_argument(
        "--state-b",
        choices=("q0", "q1", "stable"),
        default="q0",
        help="row to take when b.csv is a states file (default: q0)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        result = _DISPATCH[args.command][0](args)
        if args.output is None:
            _emit(args, *result, sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                _emit(args, *result, handle)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
