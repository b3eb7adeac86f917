"""Command-line front-end: load edge lists, run experiments, emit CSV or JSON.

Five subcommands: ``rank`` scores every node at one entropic index,
``sweep`` does so over a q grid, ``threshold`` detects the q where the
ranking stabilizes, ``states`` emits the q=0 / q=1 / stable orderings,
and ``compare`` measures agreement between two previously emitted
ranking files. Data goes to stdout (or --output), diagnostics to
stderr. The exit status is 0 on success and 1 on an error; a reader that
closes stdout early, as ``| head`` does, ends the run quietly with 141
(128 + SIGPIPE).

Every subcommand returns one ``(fields, header, rows)`` result, and
``_emit`` alone writes it. A table (``rank``, ``sweep``: ``fields`` is
None) passes ``(graph, score tables, rankings)`` as its rows; it is four
columns whose third is an entropy and whose fourth is the rank, one
block of rows per scored q in ranking order, read by indexing the
graph's columns with each ranking's node-id order. Both formats write a
table as a head, one write per block, and a tail. Each block is one
``%`` template of numbered rows, built once per command, filled with
the block's cells, so a label holding ``%`` is never read as a format;
each label is quoted once per command, and q is its repr. The formats
differ only in that data: CSV quotes labels as ``csv.writer`` does, has
6-decimal entropies and a header line for its head; JSON quotes them
with ``json.dumps``, has full-precision (repr) entropies, joins blocks
with ``,`` and cuts its head and tail from the payload dumped with an
empty ``rows``. A record (``threshold``, ``states``, ``compare``)
carries its JSON ``fields`` and its CSV ``header`` and ``rows`` side by
side, because the two formats order, name and spell them differently.
Output is UTF-8 bytes whatever the locale; CSV has LF line endings and
a header row. JSON output echoes as "config" the arguments each
subparser's ``echo`` default names, never the output path or --jobs,
which cannot affect the numbers: identical (input, parameters) must
produce byte-identical output. A path byte that is not UTF-8 reaches the
echo as a lone surrogate (0xff as U+DCFF), which JSON holds escaped.
``compare`` re-indexes its second ranking into the first's labels once,
as it loads them, so tau and the overlaps compare id orders.

``--jobs`` splits a grid command's q points, and a table's blocks, over
that many processes forked from this one (``_workers.forked_map``);
it defaults to, and is capped at, the CPUs this process may use.

``sweep`` and ``states`` score every grid point. ``threshold`` scores
the grid from its top down, in blocks of about 2 * jobs points, as
detection reads them: past the threshold the ranking no longer changes,
so detection reads only the stable suffix and the point below it, and
scoring stops with the block that holds that point.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Sequence
from itertools import chain, repeat
from typing import IO, Iterable

from ._workers import forked_map
from .graph import EdgeListParseError, EmptyGraphError, Graph, load_edge_list
from .ranking import (
    DEFAULT_GRID_SPEC,
    MAX_RELAXED_TAU,
    REFINE_RESOLUTION,
    Ranking,
    SweepResult,
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


def cmd_rank(args: argparse.Namespace) -> Result:
    graph = _load_graph(args.input)
    table = score_all(graph, args.q)
    return None, _RANK_HEADER, (graph, [table], [rank(table)])


def cmd_sweep(args: argparse.Namespace) -> Result:
    grid = parse_grid(args.grid)
    graph = _load_graph(args.input)
    result = sweep(graph, grid, jobs=args.jobs)
    rows = (graph, result.score_tables, result.rankings)
    return None, ("q", "label", "entropy", "rank"), rows


class _RankedFromTop(Sequence):
    """The rankings of ``graph`` at each point of ``grid``, each scored on
    first use, from the top of the grid down.

    Reading point k scores every block from the top down to k's: blocks
    of 2 * jobs points, each one ``sweep`` over ``jobs`` processes, of
    which only the rankings are kept. Where the grid's length would leave
    one point for the bottom block, the top block takes it instead, so
    reading the top m >= 2 points scores fewer than m + 2 * jobs.
    """

    def __init__(self, graph: Graph, grid: tuple[float, ...], jobs: int):
        self._graph, self._grid, self._jobs = graph, grid, jobs
        self._rankings: list[Ranking | None] = [None] * len(grid)
        self._scored_from = len(grid)  # the lowest scored point
        size = 2 * jobs
        top = len(grid) - size - (len(grid) % size == 1)
        self._block_starts = chain(range(top, 0, -size), [0])

    def __len__(self) -> int:
        return len(self._grid)

    def __getitem__(self, k: int) -> Ranking:
        k = range(len(self._grid))[k]  # IndexError out of range, like a tuple's
        while k < self._scored_from:
            lo, hi = next(self._block_starts), self._scored_from
            block = sweep(self._graph, self._grid[lo:hi], jobs=self._jobs)
            self._rankings[lo:hi] = block.rankings
            self._scored_from = lo
        return self._rankings[k]


def cmd_threshold(args: argparse.Namespace) -> Result:
    grid = parse_grid(args.grid)
    graph = _load_graph(args.input)
    rankings = _RankedFromTop(graph, grid, args.jobs)
    result = SweepResult(grid=grid, score_tables=(), rankings=rankings)
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
    grid = parse_grid(args.grid)
    graph = _load_graph(args.input)
    states = three_states(graph, grid, relaxed_tau=args.relaxed_tau, jobs=args.jobs)
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
    # Both rankings order a's labels from here on, so comparing them, and
    # any detection over them, reads ids alone.
    ranking_a = _load_ranking_csv(args.input_a, args.state_a)
    ranking_b = _load_ranking_csv(args.input_b, args.state_b).over(ranking_a.labels)
    comparison = compare_rankings(ranking_a, ranking_b)
    fields = {
        "kendall_tau": comparison.kendall_tau,
        "top5_overlap": comparison.top_k_overlap[5],
        "top10_overlap": comparison.top_k_overlap[10],
    }
    return fields, tuple(fields), [tuple(fields.values())]


def _emit(args: argparse.Namespace, fields, header, rows, handle: IO[bytes]) -> None:
    """Write one subcommand's result to ``handle`` as UTF-8 CSV or JSON, by
    the table and record rules in the module docstring."""
    if args.format == "json":
        config = {"command": args.command}
        config.update((name, getattr(args, name)) for name in args.echo)
        body = {"rows": []} if fields is None else fields
        payload = {"command": args.command, "config": config, **body}
        text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    else:
        lines = [header] if fields is None else [header, *rows]
        text = "".join(map(csv.writer(_Echo(), lineterminator="\n").writerow, lines))
    if fields is not None:
        handle.write(text.encode(errors="backslashreplace"))
        return
    graph, tables, rankings = rows
    if args.format == "json":
        # The table goes where the empty list is: "rows" is the last key.
        head, _, tail = text.rpartition("[]")
        head, tail = head + "[\n", "\n  ]" + tail
        labels = [json.dumps(label, ensure_ascii=False) for label in graph.labels]
        keys = zip(header, ("%%s", "%%s", "%%r", "%d"))
        row = "    {\n%s\n    }" % ",\n".join(f'      "{k}": {cell}' for k, cell in keys)
        separator = ",\n"
    else:
        head, tail, labels = text, "", _csv_lines(zip(graph.labels))
        row, separator = "%%s,%%s,%%.6f,%d\n", ""
    # Row k of a block is template row k, whose cells are the arguments.
    template = separator.join(row % k for k in range(1, graph.node_count + 1))
    templates = (template, separator + template)  # for the first block, the rest

    def formatted(k: int) -> bytes:
        order = rankings[k].order
        columns = {
            "q": repeat(repr(tables[k].q)),
            "label": map(labels.__getitem__, order),
            "degree": map(graph.degrees.__getitem__, order),
        }
        entropies = map(tables[k].scores.__getitem__, order)
        cells = zip(columns[header[0]], columns[header[1]], entropies)
        return (templates[k > 0] % tuple(chain.from_iterable(cells))).encode()

    handle.write(head.encode(errors="backslashreplace"))
    for data in forked_map(formatted, range(len(tables)), args.jobs):
        handle.write(data)
    handle.write(tail.encode(errors="backslashreplace"))


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
            "processes that score the grid points and format the sweep table, "
            "capped at the usable CPUs; output is the same for every N "
            "(default: the usable CPUs)"
        ),
    )

    relaxed_opts = argparse.ArgumentParser(add_help=False)
    relaxed_opts.add_argument(
        "--relaxed-tau",
        type=float,
        default=None,
        metavar="T",
        help=(
            "accept suffixes agreeing to Kendall tau >= 1-T instead of "
            f"exact equality; T in (0, {MAX_RELAXED_TAU}]"
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
    p_rank.set_defaults(handler=cmd_rank, echo=("input", "format", "q"))

    sub.add_parser(
        "sweep",
        parents=[input_opts, grid_opts, output_opts],
        help="score and rank every node at each grid point",
    ).set_defaults(handler=cmd_sweep, echo=("input", "format", "grid"))

    p_threshold = sub.add_parser(
        "threshold",
        parents=[input_opts, grid_opts, output_opts, relaxed_opts],
        help="detect the entropic index where the ranking stabilizes",
    )
    p_threshold.add_argument(
        "--refine",
        action="store_true",
        help=f"bisect below the detected grid point to {REFINE_RESOLUTION} resolution",
    )
    p_threshold.set_defaults(
        handler=cmd_threshold, echo=("input", "format", "grid", "refine", "relaxed_tau")
    )

    sub.add_parser(
        "states",
        parents=[input_opts, grid_opts, output_opts, relaxed_opts],
        help="emit the q=0, q=1, and stable orderings",
    ).set_defaults(handler=cmd_states, echo=("input", "format", "grid", "relaxed_tau"))

    p_compare = sub.add_parser(
        "compare",
        parents=[output_opts],
        help="measure agreement between two ranking CSV files",
    )
    for side in "ab":
        p_compare.add_argument(
            f"input_{side}",
            metavar=f"{side}.csv",
            help="rank or states CSV emitted by this tool",
        )
        p_compare.add_argument(
            f"--state-{side}",
            choices=tuple(_STATE_ROW_NAMES),
            default="q0",
            help=f"row to take when {side}.csv is a states file (default: q0)",
        )
    p_compare.set_defaults(
        handler=cmd_compare, echo=("input_a", "input_b", "state_a", "state_b", "format")
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        result = args.handler(args)
        if args.output is None:
            sys.stdout.flush()  # whatever was printed goes ahead of the bytes
            _emit(args, *result, sys.stdout.buffer)
        else:
            with open(args.output, "wb") as handle:
                _emit(args, *result, handle)
    except BrokenPipeError:
        # The reader stopped early. On /dev/null, stdout's flush at exit cannot
        # fail again; 141 = 128 + SIGPIPE, a shell's status for such a writer.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
