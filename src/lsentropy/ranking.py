"""Influence rankings, entropic-index sweeps, and stability detection.

Scoring every node at one entropic index q yields a ScoreTable, its
scores an ``array('d')`` in node-id order; sorting descending (ties
broken by ascending label) yields the Ranking for that q. A ranking is
a permutation of node ids, an ``array('q')``, over the graph's labels
tuple, which every ranking of that graph shares, so detection, refine
and Kendall tau compare id orders and never look a label up. Sweeping a
grid of q values exposes how the ranking evolves, and
``detect_threshold`` finds the smallest grid q past which the ranking
stops changing: the nonextensive threshold of the network.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, InvalidOperation, Overflow, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, count, repeat
import math
from typing import Iterable, Sequence

from ._workers import forked_map
from .entropy import local_structure_entropies
from .graph import Graph

# Sweep used throughout: dense at small q where rankings churn, sparser
# once they settle. 43 points over [0, 10].
DEFAULT_GRID_SPEC = "0:2:0.1,2.2:4:0.2,4.5:10:0.5"

# Upper bound accepted for the relaxed stability tolerance.
MAX_RELAXED_TAU = 0.05

# Width in q below which refine_threshold stops bisecting.
REFINE_RESOLUTION = 0.1

# Most points parse_grid accepts in one grid.
MAX_GRID_POINTS = 10**6

# Entries per sorted run that _discordant_pairs builds by insertion
# before it merges runs pairwise.
_BLOCK = 4096

# Longest label read as an integer: the lowest int-string digit limit
# Python allows (sys.int_info.str_digits_check_threshold), so that no
# setting of that limit changes which labels parse.
_MAX_INT_LABEL = 640


def label_sort_key(label: str) -> tuple[int, int, str]:
    """Tie-break key: integer labels of at most _MAX_INT_LABEL characters
    ascend numerically and sort ahead of all other labels, which ascend
    lexicographically."""
    if len(label) <= _MAX_INT_LABEL:
        try:
            return (0, int(label), label)
        except ValueError:
            pass
    return (1, 0, label)


@dataclass(frozen=True)
class ScoreTable:
    """Per-node entropy scores at one entropic index.

    ``scores[i]`` is the score of ``labels[i]``; ``score_all`` and
    ``sweep`` give an ``array('d')``. ``labels`` is stored as a tuple.
    """

    q: float
    labels: tuple[str, ...]
    scores: Sequence[float]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.scores):
            raise ValueError("labels and scores lengths differ")


def _check_distinct(labels: tuple[str, ...]) -> None:
    if len(set(labels)) != len(labels):
        seen: set[str] = set()
        # set.add returns None, so this yields the first label seen twice.
        repeated = next(label for label in labels if label in seen or seen.add(label))
        raise ValueError(f"ranking contains duplicate labels, first {repeated!r}")


@dataclass(frozen=True, init=False, eq=False)
class Ranking:
    """Total influence order over node labels, most influential first.

    ``order`` is an ``array('q')`` permutation of indices into
    ``labels``, a tuple of distinct labels. ``rank`` and ``sweep`` share
    the graph's labels among all its rankings, and their orders are
    permutations by construction. ``Ranking(ordered_labels)`` ranks the
    labels given in the order given, and is the one constructor that
    checks them for duplicates. Rankings are equal when they order the
    same labels alike, however they were built.
    """

    labels: tuple[str, ...]
    order: array

    def __init__(self, ordered_labels: Iterable[str]):
        labels = tuple(ordered_labels)
        _check_distinct(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "order", array("q", range(len(labels))))

    @classmethod
    def _of(cls, labels: tuple[str, ...], order: array) -> Ranking:
        """A ranking of ``labels`` by ``order``, a permutation of their
        indices, unchecked."""
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "labels", labels)
        object.__setattr__(ranking, "order", order)
        return ranking

    @property
    def ordered_labels(self) -> tuple[str, ...]:
        """The labels, most influential first."""
        return tuple(map(self.labels.__getitem__, self.order))

    def top(self, k: int) -> tuple[str, ...]:
        return tuple(map(self.labels.__getitem__, self.order[: max(0, k)]))

    def over(self, labels: tuple[str, ...]) -> Ranking:
        """This ranking as an order over ``labels``: itself when it already
        ranks that tuple, else its order re-indexed into it.

        Raises:
            ValueError: ``labels`` is another label set (the message lists
                up to the first 10 differing labels).
        """
        if self.labels is labels or self.labels == labels:
            return self
        index = {label: i for i, label in enumerate(labels)}
        try:
            order = array("q", map(index.__getitem__, self.ordered_labels))
        except KeyError:
            order = None
        if order is None or len(order) != len(labels):
            difference = sorted(set(self.labels) ^ set(labels), key=label_sort_key)
            raise ValueError(
                "rankings cover different label sets; differing labels: "
                + ", ".join(difference[:10])
            )
        return Ranking._of(labels, order)

    def __eq__(self, other):
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.ordered_labels == other.ordered_labels

    def __hash__(self):
        return hash(self.ordered_labels)


@dataclass(frozen=True)
class SweepResult:
    """Score tables and rankings for each point of a q grid.

    ``sweep`` gives tuples of both. Detection and refine read only
    ``grid`` and ``rankings``, and ``rankings`` only through ``reversed()``,
    so rankings scored as they are read from the top down will do there:
    ``lse threshold`` and ``lse states`` detect over such rankings, with
    no score tables.
    """

    grid: tuple[float, ...]
    score_tables: Sequence[ScoreTable]
    rankings: Sequence[Ranking]


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of stability detection over a sweep.

    ``p_value`` is the smallest grid q whose suffix of rankings agrees
    (None when even the last two rankings differ); ``suffix_length``
    counts the agreeing grid points at the tail.
    """

    p_value: float | None
    stable_ranking: Ranking | None
    suffix_length: int


@dataclass(frozen=True)
class RankingComparison:
    kendall_tau: float
    top_k_overlap: dict[int, float]


def score_all(graph: Graph, q: float) -> ScoreTable:
    """Local structure entropy of every node at entropic index q."""
    scores = local_structure_entropies(graph, q)
    return ScoreTable(q=float(q), labels=graph.labels, scores=scores)


@lru_cache(maxsize=1)
def _label_order(labels: tuple[str, ...]) -> tuple[int, ...]:
    """Indices of ``labels`` by label_sort_key, sorted once per labels tuple."""
    return tuple(sorted(range(len(labels)), key=lambda i: label_sort_key(labels[i])))


def rank(table: ScoreTable) -> Ranking:
    """Descending stable sort by score; ties ascend by original label."""
    # The sort stays stable under reverse=True, so tied scores keep label order.
    order = sorted(
        _label_order(table.labels), key=table.scores.__getitem__, reverse=True
    )
    return Ranking._of(table.labels, array("q", order))


def _checked_grid(grid: tuple[float, ...]) -> tuple[float, ...]:
    if not grid:
        raise ValueError("q grid is empty")
    for q in grid:
        if not math.isfinite(q) or q < 0.0:
            raise ValueError(f"grid values must be finite and >= 0, got {q!r}")
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise ValueError(f"grid must be strictly increasing ({a} !< {b})")
    return grid


def sweep(graph: Graph, grid, jobs: int = 1) -> SweepResult:
    """Score and rank every node at each grid point.

    ``jobs`` > 1 splits the grid points over up to that many processes:
    this one, and workers forked from it once the graph's ego shares are
    built, so that each inherits them rather than rebuilding them. Each
    point's scores and ranking order come back as arrays from this
    process, or as their bytes from a worker, and this process copies
    either into fresh arrays, so the result is the same for every
    ``jobs``, and every table and ranking holds ``graph.labels`` itself.
    The default, 1, forks nothing: forking is unsafe in a process that
    runs threads, so ask for more only where the caller runs none.

    Raises:
        ValueError: a bad grid, or ``jobs`` < 1.
        ChildProcessError: a forked worker failed.
    """
    grid = _checked_grid(tuple(float(q) for q in grid))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    labels = graph.labels
    graph._ego_shares  # built here, before the fork, for the workers to inherit
    _label_order(labels)

    def point(q: float) -> tuple[array, array]:
        table = score_all(graph, q)
        return table.scores, rank(table).order

    tables, rankings = [], []
    for q, (scores, order) in zip(grid, forked_map(point, grid, jobs)):
        tables.append(ScoreTable(q=q, labels=labels, scores=array("d", scores)))
        rankings.append(Ranking._of(labels, array("q", order)))
    return SweepResult(grid=grid, score_tables=tuple(tables), rankings=tuple(rankings))


def check_detection_grid(grid: Sequence[float]) -> None:
    """Refuse a grid ``detect_threshold`` cannot decide: it needs 2 points."""
    if len(grid) < 2:
        raise ValueError("threshold detection needs a sweep of >= 2 grid points")


def detect_threshold(
    result: SweepResult, relaxed_tau: float | None = None
) -> ThresholdReport:
    """Find the smallest grid q whose ranking suffix is stable.

    Each two suffix rankings must be within a limit of discordant pairs:
    0 by default, so that they are identical, and ``_discordant_limit``'s
    with ``relaxed_tau``, so that their exact Kendall tau reaches 1 -
    relaxed_tau, tolerating sporadic adjacent swaps. Stability is decided
    on integer counts alone; no tau is computed. A single final grid
    point never counts: p_value is None unless two points agree. The
    rankings are read through one ``reversed()``, down to the one below
    the suffix, each over the last one's labels (ValueError for another
    label set). One identical to the ranking after it agrees as that one
    does, uncounted; ``_within_limit`` decides the others.
    """
    check_detection_grid(result.grid)
    from_top = reversed(result.rankings)
    stable = next(from_top)
    labels, previous = stable.labels, stable.order
    limit = 0 if relaxed_tau is None else _discordant_limit(len(labels), relaxed_tau)
    positions: list[array] = []  # of the suffix's rankings that differ
    upper: list[int] = []  # bounds on each one's count from ``previous``
    suffix_length = 1
    for ranking in from_top:
        order = ranking.over(labels).order
        if order != previous and not _within_limit(
            order, previous, positions, upper, limit
        ):
            break
        previous = order
        suffix_length += 1
    if suffix_length >= 2:
        return ThresholdReport(
            p_value=result.grid[-suffix_length],
            stable_ranking=stable,
            suffix_length=suffix_length,
        )
    return ThresholdReport(p_value=None, stable_ranking=None, suffix_length=suffix_length)


def _within_limit(
    order: array, previous: array, positions: list, upper: list, limit: int
) -> bool:
    """Whether ranking ``order``, which differs from ``previous``, is within
    ``limit`` discordant pairs of it and of every ranking in ``positions``.

    Differing permutations hold a discordant pair, so a limit of 0 (exact
    mode, or a tolerance too small to allow one pair) decides False
    uncounted. Else ``previous``'s positions join ``positions``, where
    ``upper[i]`` bounds ranking i's count from ``previous``. Counts form
    a metric, so that bound plus the step to ``order`` bounds ranking i's
    count from ``order``, and only rankings whose bound exceeds the limit
    are counted; on True, ``upper`` holds these bounds. A lower bound never
    decides alone: every count on entry is within the limit, so
    ``order``'s can pass it only where the step does.
    """
    if limit < 1:
        return False
    positions.append(_positions(previous))
    upper.append(0)
    step = _discordant_pairs([positions[-1][i] for i in order])
    if step > limit:
        return False
    for i, position in enumerate(positions):
        upper[i] += step
        if upper[i] > limit:
            upper[i] = _discordant_pairs([position[j] for j in order])
            if upper[i] > limit:
                return False
    return True


def refine_threshold(
    graph: Graph,
    result: SweepResult,
    report: ThresholdReport,
    relaxed_tau: float | None = None,
) -> float | None:
    """Bisect between the last unstable and first stable grid point.

    ``detect_threshold`` decides each midpoint: it is stable when its
    ranking and the stable one form a stable suffix. Returns a q known to
    reproduce the stable ranking, within REFINE_RESOLUTION of the true
    onset (assuming stability is monotone in q). Falls back to the
    reported p_value when it sits on the first grid point; None when no
    threshold was detected. A bad ``relaxed_tau`` raises ValueError on
    every path, whether or not a midpoint is scored, and so does a report
    whose p_value is not a point of ``result.grid``.
    """
    if relaxed_tau is not None:
        _discordant_limit(0, relaxed_tau)
    if report.p_value is None or report.stable_ranking is None:
        return None
    if report.p_value not in result.grid:
        raise ValueError(f"p_value {report.p_value!r} is not a point of the grid")
    index = result.grid.index(report.p_value)
    if index == 0:
        return report.p_value
    lo, hi = result.grid[index - 1], result.grid[index]
    while hi - lo > REFINE_RESOLUTION:
        mid = (lo + hi) / 2.0
        rankings = (rank(score_all(graph, mid)), report.stable_ranking)
        pair = SweepResult(grid=(mid, hi), score_tables=(), rankings=rankings)
        if detect_threshold(pair, relaxed_tau=relaxed_tau).suffix_length == 2:
            hi = mid
        else:
            lo = mid
    return hi


def _discordant_pairs(order: list[int]) -> int:
    """Pairs i < j with order[i] > order[j], for a permutation of range(n).

    Bottom-up merge count (Knight 1966). Each block of _BLOCK entries is
    counted by insertion into a sorted run: at most _BLOCK moves per
    entry, and almost none on the near-identical orders relaxed detection
    compares. Runs then merge pairwise, an odd one carrying to the next
    level: a right entry's place in the merged run, less its place in its
    own run, counts the left entries below it, and the rest of the left
    run lies above it. Each level is linear, so the worst case is
    O(n log n) for the fixed block size.
    """
    discordant = 0
    runs = []
    for start in range(0, len(order), _BLOCK):
        run: list[int] = []
        for i, x in enumerate(order[start : start + _BLOCK]):
            at = bisect_right(run, x)
            discordant += i - at
            run.insert(at, x)
        runs.append(run)
    while len(runs) > 1:
        merged = []
        for left, right in zip(runs[::2], runs[1::2]):
            run = sorted(left + right)  # a linear merge of two sorted runs
            places = sum(compress(count(), map(set(right).__contains__, run)))
            below = places - len(right) * (len(right) - 1) // 2
            discordant += len(left) * len(right) - below
            merged.append(run)
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return discordant


def _positions(order: Sequence[int]) -> array:
    """Inverse permutation as an ``array('q')``, by one O(n) scatter."""
    positions = array("q", [0]) * len(order)
    for place, i in enumerate(order):
        positions[i] = place
    return positions


def _kendall_tau(a: Sequence[int], b: Sequence[int]) -> float:
    """Kendall tau between two orders of the same ids, from their exact
    discordant-pair count; 1.0 for fewer than two ids."""
    n = len(a)
    if n < 2:
        return 1.0
    place = _positions(b)
    discordant = _discordant_pairs([place[i] for i in a])
    # Permutations carry no ties, so tau-b coincides with plain tau. Keep
    # tau-b's float expression: identical rankings give 0.9999999999999998
    # at some n, and compare output bytes depend on that float.
    total = n * (n - 1) // 2
    tau = (total - 2 * discordant) / math.sqrt(total) / math.sqrt(total)
    return min(1.0, max(-1.0, tau))


def _discordant_limit(n: int, relaxed_tau: float) -> int:
    """Largest discordant-pair count c among n labels whose exact tau,
    1 - 2c / (n(n-1)/2), reaches 1 - relaxed_tau, for a ``relaxed_tau``
    checked to lie in (0, MAX_RELAXED_TAU] (ValueError otherwise).

    That is floor(T * n(n-1)/4), with T read as the decimal its float
    prints as, so 0.05 allows tau 0.95 exactly. Detection and refine
    compare counts with it and never compute tau.
    """
    relaxed_tau = float(relaxed_tau)
    if not 0.0 < relaxed_tau <= MAX_RELAXED_TAU:
        raise ValueError(
            f"relaxed tau tolerance must lie in (0, {MAX_RELAXED_TAU}], "
            f"got {relaxed_tau!r}"
        )
    return math.floor(Fraction(repr(relaxed_tau)) * (n * (n - 1) // 2) / 2)


def compare_rankings(a: Ranking, b: Ranking) -> RankingComparison:
    """Kendall tau-b plus top-5/top-10 overlap between two rankings.

    Raises:
        ValueError: the rankings do not cover the same label set (the
            message lists up to the first 10 differing labels), or both
            are empty.
    """
    b = b.over(a.labels)
    n = len(a.labels)
    if n == 0:
        raise ValueError("rankings are empty; there is nothing to compare")
    overlap = {}
    for k in (5, 10):
        capped = min(k, n)
        shared = set(a.order[:capped]) & set(b.order[:capped])
        overlap[k] = len(shared) / capped
    return RankingComparison(
        kendall_tau=_kendall_tau(a.order, b.order), top_k_overlap=overlap
    )


def parse_grid(spec: str) -> tuple[float, ...]:
    """Parse a grid spec: comma-separated values and/or a:b:step ranges.

    Segments are decimal-exact (``0.1`` steps do not drift); a, b and
    step must be finite, and b is included when it lands on the step.
    The combined grid must be strictly increasing and non-negative, and
    hold at most MAX_GRID_POINTS points, a bound checked on counts
    computed before any range is expanded.
    """
    segments = []
    for segment in spec.split(","):
        segment = segment.strip()
        parts = segment.split(":")
        try:
            if len(parts) == 1:
                start = stop = Decimal(parts[0])
                step = Decimal(1)
            elif len(parts) == 3:
                start, stop, step = (Decimal(p) for p in parts)
            else:
                raise ValueError
            if not (start.is_finite() and stop.is_finite() and step.is_finite()):
                raise ValueError
        except (InvalidOperation, ValueError):
            raise ValueError(
                f"bad grid segment {segment!r}; expected a value or start:stop:step"
            ) from None
        if step <= 0:
            raise ValueError(f"grid step must be positive in {segment!r}")
        segments.append((start, stop, step))
    with localcontext() as context:
        context.traps[Overflow] = False  # a count past the context reads Infinity
        lengths = [
            max(0, ((stop - start) / step).to_integral_value(ROUND_FLOOR) + 1)
            for start, stop, step in segments
        ]
        total = sum(lengths)
    if total > MAX_GRID_POINTS:
        # Counts are exact below the context's 28 digits.
        shown = total if total < 10**28 else "over 10**28"
        raise ValueError(
            f"q grid would hold {shown} points; at most {MAX_GRID_POINTS} are allowed"
        )
    points: list[float] = []
    for (start, stop, step), length in zip(segments, lengths):
        values = accumulate(repeat(step, int(length) - 1), initial=start)
        # The test drops an empty range's start, and a last point past
        # stop where the count's division rounded up.
        # Adding 0.0 turns a -0.0 into 0.0, so "-0" writes as "0" does.
        points.extend(float(value) + 0.0 for value in values if value <= stop)
    return _checked_grid(tuple(points))


def default_grid() -> tuple[float, ...]:
    """The 43-point default q grid over [0, 10]."""
    return parse_grid(DEFAULT_GRID_SPEC)
