"""Command-line front-end: load edge lists, run experiments, emit CSV or JSON.

Five subcommands: ``rank`` scores every node at one entropic index,
``sweep`` does so over a q grid, ``threshold`` detects the q where the
ranking stabilizes, ``states`` emits the q=0 / q=1 / stable orderings,
and ``compare`` measures agreement between two previously emitted
ranking files. Data goes to stdout (or --output), diagnostics to
stderr. The exit status is 0 on success and 1 on an error, a stdout
closed before the run starts included; a reader that closes stdout
early, as ``| head`` does, ends the run quietly with 141 (128 + SIGPIPE).
Every input file is read through one reader, ``_reading``: it is UTF-8,
a leading byte-order mark is dropped, and any error in its contents (a
byte that does not decode, a malformed line, a repeated label) is one
error naming it. ``threshold`` and ``states`` share one grid rule, at
least 2 points, checked like the grid itself before any file is read.

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
One CSV-line writer, ``_csv_lines``, writes every CSV line outside a
table block: a header, a record row, a label-list cell, a quoted label.
Output is UTF-8 bytes whatever the locale; CSV has LF line endings and
a header row. JSON output echoes as "config" the arguments each
subparser's ``echo`` default names, never the output path or --jobs,
which cannot affect the numbers: identical (input, parameters) must
produce byte-identical output. A path byte that is not UTF-8 reaches the
echo as a lone surrogate (0xff as U+DCFF), which JSON holds escaped.
``compare`` passes both rankings as loaded to ``compare_rankings``,
which re-indexes the second into the first's labels once.

``sweep --jobs N`` splits the q points, and the table's blocks, over N
processes forked from this one (``_workers.forked_map``); N defaults to,
and is capped at, the CPUs this process may use. No other command forks.

``sweep`` scores every grid point. ``threshold`` and ``states`` detect
through ``_detected``, which scores the grid from its top down, in
blocks of 2 points counted from its bottom, as detection reads them:
past the threshold the ranking no longer changes, so detection reads
the rankings once, from the top, through the stable suffix and the
point below it, and scoring stops with the block that holds that
point. ``states`` then scores q = 0 and q = 1 alone: 2 points more.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain, repeat
from typing import IO, Iterable, Iterator

from ._workers import forked_map
from .graph import Graph, load_edge_list
from .ranking import (
    DEFAULT_GRID_SPEC,
    MAX_RELAXED_TAU,
    REFINE_RESOLUTION,
    Ranking,
    SweepResult,
    ThresholdReport,
    check_detection_grid,
    compare_rankings,
    detect_threshold,
    parse_grid,
    rank,
    refine_threshold,
    score_all,
    sweep,
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
    if hasattr(args, "q"):
        if not (math.isfinite(args.q) and args.q >= 0.0):
            raise ValueError("--q must be finite and >= 0")
        args.q += 0.0  # -0.0 becomes 0.0, so "-0" writes as "0" does
    relaxed_tau = getattr(args, "relaxed_tau", None)
    if relaxed_tau is not None and not 0.0 < relaxed_tau <= MAX_RELAXED_TAU:
        raise ValueError(f"--relaxed-tau must lie in (0, {MAX_RELAXED_TAU}]")
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.output is None and sys.stdout is None:  # fd 1 was closed at start
        raise ValueError("stdout is closed; write to a file with --output PATH")
    args.jobs = _job_count(jobs)


def _job_count(requested: int | None) -> int:
    """Worker processes for ``--jobs requested``: the CPUs this process may
    use when None, and never more than them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus if requested is None else min(requested, cpus)


@contextmanager
def _reading(path: str, newline: str | None = None) -> Iterator[IO[str]]:
    """``path`` open as UTF-8 text, a leading byte-order mark dropped. Any
    ValueError or csv.Error raised while it is read becomes one naming the
    file; of a byte that does not decode, the decoder's position counts
    from its current chunk, not from the file's start, so it is left out."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        reason = f"not UTF-8 text (byte 0x{byte:02x}: {exc.reason})"
        raise ValueError(f"{path}: {reason}") from None
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    with _reading(path) as handle:
        graph = load_edge_list(handle)
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


class _RankedFromTop:
    """The rankings of ``graph`` at each point of ``grid``, scored as
    ``reversed()`` reads them, from the top of the grid down: blocks of
    2 points, each one ``sweep`` in this process, counted from the grid's
    bottom so that only the top block may hold 1, and the last block
    scored holds 2. Only the block being read is held. Each read scores
    the grid anew, so it is read once: detection is its only reader.
    """

    def __init__(self, graph: Graph, grid: tuple[float, ...]):
        self._graph, self._grid = graph, grid

    def __reversed__(self) -> Iterator[Ranking]:
        for lo in reversed(range(0, len(self._grid), 2)):
            yield from reversed(sweep(self._graph, self._grid[lo : lo + 2]).rankings)


def _detected(args: argparse.Namespace) -> tuple[Graph, SweepResult, ThresholdReport]:
    """The graph, its grid's rankings as ``_RankedFromTop`` scores them, and
    the threshold detected over them: the steps ``threshold`` and ``states`` share."""
    grid = parse_grid(args.grid)
    check_detection_grid(grid)
    graph = _load_graph(args.input)
    rankings = _RankedFromTop(graph, grid)
    result = SweepResult(grid=grid, score_tables=(), rankings=rankings)
    return graph, result, detect_threshold(result, relaxed_tau=args.relaxed_tau)


def cmd_threshold(args: argparse.Namespace) -> Result:
    graph, result, report = _detected(args)
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
    rows.append(("stable_top10", _csv_lines([top10])[0] if top10 else "null"))
    return fields, ("field", "value"), rows


def cmd_states(args: argparse.Namespace) -> Result:
    """The q=0, q=1 and stable orderings: the stable one as ``threshold``
    detects it, q = 0 and q = 1 scored alone, on the grid or off it."""
    graph, _, report = _detected(args)
    orders = [rank(score_all(graph, q)) for q in (0.0, 1.0)] + [report.stable_ranking]
    fields, rows = {}, []
    for (state, row_name), order in zip(_STATE_ROW_NAMES.items(), orders):
        fields[f"order_{state}"] = list(order.ordered_labels) if order else None
        rows.append((row_name, _csv_lines([order.ordered_labels])[0] if order else "none"))
    return fields, _STATES_HEADER, rows


def _load_ranking_csv(path: str, state: str) -> Ranking:
    """Read a ranking of at least one label back from cmd_rank or cmd_states
    CSV output: rows of the header's field count, in any order, naming each
    state once or ranked 1..n once each, compared as text with ``lse rank``'s
    spelling, so no int-string limit applies. A states cell holds every
    label, so the field limit is lifted while it is read."""
    limit = csv.field_size_limit(2**31 - 1)  # the most a 32-bit C long holds
    try:
        with _reading(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
            if not rows:
                raise ValueError("empty CSV")
            header = tuple(rows[0])
            if header == _RANK_HEADER:
                try:
                    by_rank = {rank: label for label, _, _, rank in rows[1:]}
                except ValueError:  # a field count other than 4
                    raise ValueError("malformed ranking row") from None
                ranks = list(map(str, range(1, len(rows))))
                if by_rank.keys() != set(ranks):
                    if all(r.isascii() and r.removeprefix("-").isdecimal() for r in by_rank):
                        raise ValueError(f"rank column does not hold 1..{len(ranks)} once each")
                    raise ValueError("malformed ranking row")
                ranking = Ranking(map(by_rank.__getitem__, ranks))
            elif header == _STATES_HEADER:
                named = {}  # each state's row; a row already there is another list
                for row in rows[1:]:
                    if len(row) != 2:
                        raise ValueError("malformed states row")
                    if named.setdefault(row[0], row) is not row:
                        raise ValueError(f"state {row[0]!r} appears twice")
                wanted = _STATE_ROW_NAMES[state]
                if wanted not in named:
                    raise ValueError(f"missing row {wanted!r}")
                if named[wanted][1] == "none":
                    raise ValueError("no stable ordering was detected in this file")
                ranking = Ranking(next(csv.reader([named[wanted][1]])))
            else:
                raise ValueError(
                    f"unrecognized header {','.join(header)!r}; expected rank or states CSV"
                )
            if not ranking.labels:
                raise ValueError("the ranking is empty")
            return ranking
    finally:
        csv.field_size_limit(limit)


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
        text = "".join(f"{line}\n" for line in _csv_lines(lines))
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
            "q grid: comma-separated values and/or start:stop:step ranges; "
            "write a spec that starts with '-' as --grid=SPEC "
            f"(default: {DEFAULT_GRID_SPEC})"
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

    p_sweep = sub.add_parser(
        "sweep",
        parents=[input_opts, grid_opts, output_opts],
        help="score and rank every node at each grid point",
    )
    p_sweep.add_argument(
        "--jobs",
        metavar="N",
        type=int,
        help=(
            "processes that score the grid points and format the table, "
            "capped at the usable CPUs; output is the same for every N "
            "(default: the usable CPUs)"
        ),
    )
    p_sweep.set_defaults(handler=cmd_sweep, echo=("input", "format", "grid"))

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
