"""Command-line front-end: load edge lists, run experiments, emit CSV/JSON.

Five subcommands: ``rank`` scores every node at one entropic index,
``sweep`` does so over a q grid, ``threshold`` detects the q where the
ranking stabilizes, ``states`` emits the q=0 / q=1 / stable orderings,
and ``compare`` measures agreement between two previously emitted
ranking files. Data goes to stdout (or --output), diagnostics to
stderr, exit status 0 only on success.

CSV output is UTF-8 with LF line endings and a header row; entropies
are printed at 6 decimals. JSON output mirrors the CSV columns at full
float precision and echoes the run configuration. The echo excludes
the output path and the ignored --jobs, which cannot affect the numbers:
identical (input, parameters) must produce byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
from functools import partial
import io
import json
import math
import sys
from typing import IO, Callable

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


def _check_args(args: argparse.Namespace) -> None:
    """The argument checks argparse cannot express, run before any file is read."""
    q = getattr(args, "q", 0.0)
    if not (math.isfinite(q) and q >= 0.0):
        raise ValueError("--q must be finite and >= 0")
    relaxed_tau = getattr(args, "relaxed_tau", None)
    if relaxed_tau is not None and not 0.0 < relaxed_tau <= MAX_RELAXED_TAU:
        raise ValueError(f"--relaxed-tau must lie in (0, {MAX_RELAXED_TAU}]")
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("--jobs must be >= 1")


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


def _write_csv(header, rows, handle: IO[str]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    _write_csv(header, rows, buffer)
    return buffer.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _entropy_text(value: float) -> str:
    return f"{value:.6f}"


def _q_text(q: float) -> str:
    return str(float(q))


def _echo_base(args: argparse.Namespace) -> dict:
    return {"command": args.command, "input": args.input, "format": args.format}


def cmd_rank(args: argparse.Namespace) -> str:
    graph = _load_graph(args.input)
    table = score_all(graph, args.q)
    ranking = rank(table)
    index = {label: i for i, label in enumerate(graph.labels)}
    rows = []
    for position, label in enumerate(ranking.ordered_labels, start=1):
        i = index[label]
        rows.append((label, graph.degrees[i], table.scores[i], position))
    if args.format == "json":
        echo = _echo_base(args)
        echo["q"] = args.q
        return _json_text(
            {
                "command": "rank",
                "config": echo,
                "rows": [
                    {"label": lab, "degree": deg, "entropy": ent, "rank": pos}
                    for lab, deg, ent, pos in rows
                ],
            }
        )
    return _csv_text(
        _RANK_HEADER,
        [(lab, deg, _entropy_text(ent), pos) for lab, deg, ent, pos in rows],
    )


def cmd_sweep(args: argparse.Namespace) -> str | Callable[[IO[str]], None]:
    graph = _load_graph(args.input)
    grid = parse_grid(args.grid)
    result = sweep(graph, grid, jobs=args.jobs)
    index = {label: i for i, label in enumerate(graph.labels)}

    def rows():
        for table, ranking in zip(result.score_tables, result.rankings):
            for position, label in enumerate(ranking.ordered_labels, start=1):
                yield table.q, label, table.scores[index[label]], position

    if args.format == "json":
        echo = _echo_base(args)
        echo["grid"] = args.grid
        return _json_text(
            {
                "command": "sweep",
                "config": echo,
                "rows": [
                    {"q": q, "label": lab, "entropy": ent, "rank": pos}
                    for q, lab, ent, pos in rows()
                ],
            }
        )
    # One row per (node, q): written straight to the output, never held
    # as one string.
    return partial(
        _write_csv,
        ("q", "label", "entropy", "rank"),
        ((_q_text(q), lab, _entropy_text(ent), pos) for q, lab, ent, pos in rows()),
    )


def cmd_threshold(args: argparse.Namespace) -> str:
    graph = _load_graph(args.input)
    grid = parse_grid(args.grid)
    result = sweep(graph, grid, jobs=args.jobs)
    report = detect_threshold(result, relaxed_tau=args.relaxed_tau)
    refined = None
    if args.refine:
        refined = refine_threshold(
            graph, result, report, relaxed_tau=args.relaxed_tau
        )
    stable_top10 = None
    if report.stable_ranking is not None:
        stable_top10 = report.stable_ranking.top(10)
    if args.format == "json":
        echo = _echo_base(args)
        echo["grid"] = args.grid
        echo["refine"] = args.refine
        echo["relaxed_tau"] = args.relaxed_tau
        payload = {
            "command": "threshold",
            "config": echo,
            "p_value": report.p_value,
            "suffix_length": report.suffix_length,
            "stable_top10": list(stable_top10) if stable_top10 else None,
        }
        if args.refine:
            payload["refined_p_value"] = refined
        return _json_text(payload)
    rows = [("p_value", "null" if report.p_value is None else _q_text(report.p_value))]
    if args.refine:
        rows.append(
            ("refined_p_value", "null" if refined is None else _q_text(refined))
        )
    rows.append(("suffix_length", str(report.suffix_length)))
    rows.append(
        ("stable_top10", ",".join(stable_top10) if stable_top10 else "null")
    )
    return _csv_text(("field", "value"), rows)


def cmd_states(args: argparse.Namespace) -> str:
    graph = _load_graph(args.input)
    grid = parse_grid(args.grid)
    states = three_states(
        graph, grid, jobs=args.jobs, relaxed_tau=args.relaxed_tau
    )
    stable = states.order_stable
    if args.format == "json":
        echo = _echo_base(args)
        echo["grid"] = args.grid
        echo["relaxed_tau"] = args.relaxed_tau
        return _json_text(
            {
                "command": "states",
                "config": echo,
                "order_q0": list(states.order_q0.ordered_labels),
                "order_q1": list(states.order_q1.ordered_labels),
                "order_stable": list(stable.ordered_labels) if stable else None,
            }
        )
    return _csv_text(
        _STATES_HEADER,
        [
            ("Order_q0", ",".join(states.order_q0.ordered_labels)),
            ("Order_q1", ",".join(states.order_q1.ordered_labels)),
            ("Order_stable", ",".join(stable.ordered_labels) if stable else "none"),
        ],
    )


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
                return Ranking(tuple(row[1].split(",")))
        raise ValueError(f"{path}: missing row {wanted!r}")
    raise ValueError(
        f"{path}: unrecognized header {','.join(header)!r}; "
        "expected rank or states CSV"
    )


def cmd_compare(args: argparse.Namespace) -> str:
    ranking_a = _load_ranking_csv(args.input_a, args.state_a)
    ranking_b = _load_ranking_csv(args.input_b, args.state_b)
    comparison = compare_rankings(ranking_a, ranking_b)
    if args.format == "json":
        return _json_text(
            {
                "command": "compare",
                "config": {
                    "command": "compare",
                    "input_a": args.input_a,
                    "input_b": args.input_b,
                    "state_a": args.state_a,
                    "state_b": args.state_b,
                    "format": args.format,
                },
                "kendall_tau": comparison.kendall_tau,
                "top5_overlap": comparison.top_k_overlap[5],
                "top10_overlap": comparison.top_k_overlap[10],
            }
        )
    return _csv_text(
        ("kendall_tau", "top5_overlap", "top10_overlap"),
        [
            (
                str(comparison.kendall_tau),
                str(comparison.top_k_overlap[5]),
                str(comparison.top_k_overlap[10]),
            )
        ],
    )


_DISPATCH = {
    "rank": cmd_rank,
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "states": cmd_states,
    "compare": cmd_compare,
}


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
        default=1,
        help="ignored, kept for compatibility; must be >= 1 (default: 1)",
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


def _write_output(payload: str | Callable[[IO[str]], None], path: str | None) -> None:
    """Write the output text, or call the function that writes it."""
    write = payload if callable(payload) else lambda handle: handle.write(payload)
    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write(handle)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        payload = _DISPATCH[args.command](args)
        _write_output(payload, args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
