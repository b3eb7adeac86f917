"""Run one ``lse`` invocation in this process, with a span around each call
``lsentropy.cli`` makes into the graph, entropy and ranking layers.

Usage (from the repository root):

    python -X importtime perfbench/traced_cli.py SPANS.json RUN_ID LSE_ARG...

After ``cli.main`` returns, a ``probe`` root span times, on the data the
invocation already holds, graph re-validation and share vectors, plus
whichever of exact detection, relaxed detection, one ranking comparison
and refine the invocation did not call itself. Spans are written to
SPANS.json when the process ends. Output files are the same bytes as an
untraced run's.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402

PROBE_RELAXED_TAU = 0.05


def main(spans_path: str, run_id: str, argv: list[str]) -> int:
    import lsentropy  # noqa: F401  (timed by -X importtime)
    from lsentropy import cli, entropy, ranking
    from lsentropy.graph import Graph

    tracer = Tracer(run_id)
    held: dict = {}

    def keep(key):
        def note(span, result, *args, **kwargs):
            held[key] = (result, args)
        return note

    def note_load(span, graph, *args):
        held["graph"] = graph
        # Share-vector entries per q: one per ego member, sum of (degree + 1).
        held["terms"] = sum(graph.degrees) + graph.node_count
        span["nodes"], span["edges"] = graph.node_count, graph.edge_count

    def note_score(span, table, graph, q):
        span["terms"] = held["terms"]

    def note_detect(span, report, result, relaxed_tau=None):
        held["relaxed" if relaxed_tau is not None else "exact"] = report
        span["suffix_length"] = report.suffix_length

    def detect_name(result, relaxed_tau=None):
        mode = "exact" if relaxed_tau is None else "relaxed"
        return f"ranking.detect_{mode}"

    cli.load_edge_list = tracer.wrap(cli.load_edge_list, "graph.load", note_load)
    cli.sweep = tracer.wrap(cli.sweep, "ranking.sweep", keep("sweep"))
    cli.score_all = ranking.score_all = tracer.wrap(
        ranking.score_all, "entropy.score", note_score
    )
    cli.rank = ranking.rank = tracer.wrap(ranking.rank, "ranking.rank")
    cli.detect_threshold = tracer.wrap(cli.detect_threshold, detect_name, note_detect)
    cli.refine_threshold = tracer.wrap(
        cli.refine_threshold, "ranking.refine", keep("refine")
    )
    cli.compare_rankings = tracer.wrap(
        cli.compare_rankings, "ranking.compare", keep("compare")
    )

    with tracer.span("cli.main"):
        status = cli.main(argv)

    with tracer.span("probe"):
        graph = held.get("graph")
        if graph is not None:
            with tracer.span("graph.validate"):
                Graph(labels=graph.labels, adjacency=graph.adjacency)
            with tracer.span("entropy.share"):
                for node in range(graph.node_count):
                    entropy.local_degree_distribution(graph, node)
        if "sweep" in held:
            result = held["sweep"][0]
        elif "compare" in held:
            # The two compared rankings, read as a two-point sweep.
            pair = held["compare"][1]
            result = ranking.SweepResult(grid=(0.0, 1.0), score_tables=(), rankings=pair)
        else:
            result = None
        if result is not None:
            if "exact" not in held:
                cli.detect_threshold(result)
            if "relaxed" not in held:
                cli.detect_threshold(result, relaxed_tau=PROBE_RELAXED_TAU)
            if "compare" not in held:
                cli.compare_rankings(result.rankings[0], result.rankings[-1])
            if "refine" not in held:
                cli.refine_threshold(
                    graph, result, held["relaxed"], relaxed_tau=PROBE_RELAXED_TAU
                )
    tracer.write(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
