"""The benchmark's workloads: a seeded graph, the ``lse`` invocations run on
it, the files they write, and the reference check of those files.

Why each workload exists is recorded in BENCHMARK.json.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import check
import corpus

DEFAULT_GRID_POINTS = len(check.parse_grid(check.DEFAULT_GRID_SPEC))
REFINE_RESOLUTION = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    edges: Callable[[int], list[tuple[int, int]]]
    # lse argument lists; "{graph}" and "{out}/" are filled in per run.
    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]
    check: Callable
    # (node, q) pairs scored per node, read from the run's outputs.
    q_points: Callable

    def argv(self, graph_path: str, out_dir: str) -> list[list[str]]:
        return [
            [a.replace("{graph}", graph_path).replace("{out}", out_dir) for a in call]
            for call in self.calls
        ]


def threshold_q_points(run_dir) -> int:
    """Grid points plus the bisection points refine scored. The bisection of
    [previous grid point, p_value] is replayed in the same float arithmetic;
    a midpoint was found stable exactly when it is >= the refined value."""
    fields = dict(check.read_csv(run_dir / "threshold.csv")[1:])
    grid = check.parse_grid(check.DEFAULT_GRID_SPEC)
    steps = 0
    if fields["p_value"] != "null":
        index = grid.index(float(fields["p_value"]))
        refined = float(fields["refined_p_value"])
        if index > 0:
            lo, hi = grid[index - 1], grid[index]
            while hi - lo > REFINE_RESOLUTION:
                mid = (lo + hi) / 2.0
                steps += 1
                if mid >= refined:
                    hi = mid
                else:
                    lo = mid
    return DEFAULT_GRID_POINTS + steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-er",
            edges=lambda seed: corpus.erdos_renyi(10_000, 40_000, seed),
            calls=(("sweep", "--input", "{graph}", "--output", "{out}/sweep.csv"),),
            outputs=("sweep.csv",),
            check=check.check_sweep,
            q_points=lambda run_dir: DEFAULT_GRID_POINTS,
        ),
        Workload(
            name="threshold-pa",
            edges=lambda seed: corpus.preferential_attachment(10_000, 4, seed),
            calls=(
                (
                    "threshold", "--refine", "--relaxed-tau", str(check.RELAXED_TAU),
                    "--input", "{graph}", "--output", "{out}/threshold.csv",
                ),
            ),
            outputs=("threshold.csv",),
            check=check.check_threshold,
            q_points=threshold_q_points,
        ),
        Workload(
            name="rank-compare",
            edges=lambda seed: corpus.erdos_renyi(50_000, 200_000, seed),
            calls=(
                ("rank", "--q", "0", "--input", "{graph}", "--output", "{out}/rank0.csv"),
                ("rank", "--q", "1", "--input", "{graph}", "--output", "{out}/rank1.csv"),
                ("compare", "{out}/rank0.csv", "{out}/rank1.csv", "--output", "{out}/compare.csv"),
            ),
            outputs=("rank0.csv", "rank1.csv", "compare.csv"),
            check=check.check_rank_compare,
            q_points=lambda run_dir: 2,
        ),
    )
}
