"""Reference checks of workload outputs, for any seed.

golden.json pins output bytes for a fixed set of seeds. These checks
cover every other seed: they recompute what the output claims from the
generated edges with a separate implementation of the measure, so they
do not trust the code under test. Degree (q = 0) rankings are compared
exactly; other entropies to the 6 printed decimals, and their order
against the reference scores.
"""
from __future__ import annotations

import csv
import math
from decimal import Decimal

DEFAULT_GRID_SPEC = "0:2:0.1,2.2:4:0.2,4.5:10:0.5"
RELAXED_TAU = 0.05
PRINT_SLACK = 6e-7  # 6-decimal rounding plus float noise
ORDER_SLACK = 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_grid(spec: str) -> list[float]:
    points = []
    for segment in spec.split(","):
        parts = [Decimal(p) for p in segment.split(":")]
        if len(parts) == 1:
            points.append(float(parts[0]))
            continue
        value, stop, step = parts
        while value <= stop:
            points.append(float(value))
            value += step
    return points


def kendall_tau(order_a: list[str], order_b: list[str]) -> float:
    """Tau of two permutations of one label set, by merge-sort inversion count."""
    position = {label: i for i, label in enumerate(order_b)}
    seq = [position[label] for label in order_a]
    n = len(seq)
    if n < 2:
        return 1.0
    inversions = 0
    width = 1
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            left, right = seq[lo : lo + width], seq[lo + width : lo + 2 * width]
            i = j = 0
            while i < len(left) and j < len(right):
                if right[j] < left[i]:
                    inversions += len(left) - i
                    merged.append(right[j])
                    j += 1
                else:
                    merged.append(left[i])
                    i += 1
            merged += left[i:]
            merged += right[j:]
        seq = merged
        width *= 2
    return 1.0 - 4.0 * inversions / (n * (n - 1))


class Reference:
    """Local structure entropy of every node, computed from raw edges."""

    def __init__(self, edges: list[tuple[int, int]]):
        neighbours: dict[int, set[int]] = {}
        for u, v in edges:
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
        self.degree = {str(u): len(n) for u, n in neighbours.items()}
        self._shares = {}
        for u, n in neighbours.items():
            ego = [len(neighbours[m]) for m in (u, *n)]
            total = sum(ego)
            self._shares[str(u)] = [d / total for d in ego]

    def labels(self) -> list[str]:
        return list(self.degree)

    def score(self, label: str, q: float) -> float:
        p = self._shares[label]
        if q == 1.0:
            return -math.fsum(x * math.log(x) for x in p)
        return (1.0 - math.fsum(x**q for x in p)) / (q - 1.0)

    def degree_ranking(self) -> list[str]:
        return sorted(self.degree, key=lambda lab: (-self.degree[lab], int(lab)))

    def ranking(self, q: float) -> list[str]:
        scores = {lab: self.score(lab, q) for lab in self.degree}
        return sorted(scores, key=lambda lab: (-scores[lab], int(lab)))


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def check_ranked_block(ref: Reference, q: float, labels, entropies, ranks, full: bool):
    """One ranking at one q: a permutation in rank order whose printed
    entropies match the reference; ``full`` also checks the order."""
    require(sorted(labels) == sorted(ref.degree), f"q={q}: label set differs")
    require(ranks == [str(i) for i in range(1, len(labels) + 1)], f"q={q}: ranks")
    if q == 0.0:
        require(labels == ref.degree_ranking(), "q=0: not the degree ranking")
    step = 1 if full else max(1, len(labels) // 200)
    for label, text in list(zip(labels, entropies))[::step]:
        expected = ref.score(label, q)
        require(abs(float(text) - expected) <= PRINT_SLACK, f"q={q}: entropy of {label}")
    if full:
        scores = [ref.score(label, q) for label in labels]
        for a, b in zip(scores, scores[1:]):
            require(b <= a + ORDER_SLACK * max(1.0, abs(a)), f"q={q}: order")


def check_sweep(ref: Reference, run_dir) -> None:
    rows = read_csv(run_dir / "sweep.csv")
    require(rows[0] == ["q", "label", "entropy", "rank"], "sweep header")
    grid = parse_grid(DEFAULT_GRID_SPEC)
    n = len(ref.degree)
    require(len(rows) == 1 + n * len(grid), "sweep row count")
    for k, q in enumerate(grid):
        block = rows[1 + k * n : 1 + (k + 1) * n]
        require(all(r[0] == str(q) for r in block), f"q column at block {k}")
        check_ranked_block(
            ref, q, [r[1] for r in block], [r[2] for r in block],
            [r[3] for r in block], full=q in (0.0, 1.0, grid[-1]),
        )


def check_threshold(ref: Reference, run_dir) -> None:
    rows = read_csv(run_dir / "threshold.csv")
    fields = dict(rows[1:])
    require(rows[0] == ["field", "value"], "threshold header")
    require(
        list(fields) == ["p_value", "refined_p_value", "suffix_length", "stable_top10"],
        "threshold fields",
    )
    grid = parse_grid(DEFAULT_GRID_SPEC)
    require(fields["p_value"] != "null", "no threshold detected")
    p_value, refined = float(fields["p_value"]), float(fields["refined_p_value"])
    require(p_value in grid, "p_value is not a grid point")
    index = grid.index(p_value)
    require(int(fields["suffix_length"]) == len(grid) - index, "suffix_length")
    require(index == 0 or grid[index - 1] < refined <= p_value, "refined_p_value")
    final = ref.ranking(grid[-1])
    require(fields["stable_top10"].split(",") == final[:10], "stable_top10")
    for q in (p_value, refined):
        tau = kendall_tau(ref.ranking(q), final)
        require(tau >= 1.0 - RELAXED_TAU - 1e-9, f"ranking at q={q} is not stable")


def check_rank_compare(ref: Reference, run_dir) -> None:
    orders = []
    for name, q in (("rank0.csv", 0.0), ("rank1.csv", 1.0)):
        rows = read_csv(run_dir / name)
        require(rows[0] == ["label", "degree", "entropy", "rank"], f"{name} header")
        body = rows[1:]
        labels = [r[0] for r in body]
        require(
            all(int(r[1]) == ref.degree[r[0]] for r in body), f"{name}: degree column"
        )
        check_ranked_block(
            ref, q, labels, [r[2] for r in body], [r[3] for r in body], full=True
        )
        orders.append(labels)
    rows = read_csv(run_dir / "compare.csv")
    require(rows[0] == ["kendall_tau", "top5_overlap", "top10_overlap"], "compare header")
    tau, top5, top10 = (float(x) for x in rows[1])
    require(abs(tau - kendall_tau(*orders)) <= 1e-9, "kendall_tau")
    for k, value in ((5, top5), (10, top10)):
        shared = len(set(orders[0][:k]) & set(orders[1][:k]))
        require(value == shared / k, f"top{k}_overlap")
