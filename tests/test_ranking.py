"""Rankings, grid sweeps, threshold detection, and comparisons."""
from array import array
from fractions import Fraction
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lsentropy
import reference
from lsentropy import ranking as ranking_module
from lsentropy import (
    DEFAULT_GRID_SPEC,
    Graph,
    Ranking,
    ScoreTable,
    SweepResult,
    ThresholdReport,
    compare_rankings,
    default_grid,
    detect_threshold,
    karate_edges_path,
    label_sort_key,
    load_edge_list,
    parse_grid,
    rank,
    refine_threshold,
    score_all,
    sweep,
)
from lsentropy.cli import main
from lsentropy.ranking import (
    _BLOCK,
    _discordant_limit,
    _discordant_pairs,
    _kendall_tau,
)


def _fake_sweep(grid, orders, shared=True):
    """A sweep ranking ``orders``, with no score tables, as ``lse`` detects
    over; with ``shared``, every ranking orders one labels tuple, as
    ``sweep``'s do, and otherwise each its own."""
    labels = tuple(sorted({lab for order in orders for lab in order}))
    rankings = tuple(Ranking(tuple(order)) for order in orders)
    if shared:
        rankings = tuple(ranking.over(labels) for ranking in rankings)
    return SweepResult(
        grid=tuple(float(q) for q in grid), score_tables=(), rankings=rankings
    )


def _swap(order, i):
    out = list(order)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def test_label_sort_key_numeric_then_lexicographic():
    labels = ["10", "2", "1a", "b"]
    assert sorted(labels, key=label_sort_key) == ["2", "10", "1a", "b"]
    # int() accepts a sign, leading zeros, underscores and non-ASCII digits;
    # labels of one integer value ascend by their strings.
    order = ["-3", "+7", "07", "7", "\u0667", "\uff17", "10", "1_0", "1a", "b"]
    assert sorted(order[::-1], key=label_sort_key) == order


def test_label_sort_key_order_ignores_the_int_string_limit():
    """A label longer than the lowest int-string limit sorts as a string,
    so the order is the same under every setting of that limit."""
    long_label = "1" + "0" * 5000
    labels = ["!x", long_label, "2"]
    limit = sys.get_int_max_str_digits()
    orders = []
    try:
        for digits in (640, 0):  # the lowest limit, then none
            sys.set_int_max_str_digits(digits)
            orders.append(sorted(labels, key=label_sort_key))
    finally:
        sys.set_int_max_str_digits(limit)
    assert orders == [["2", "!x", long_label]] * 2


def test_rank_descending_by_score():
    table = ScoreTable(q=1.0, labels=("1", "2", "3"), scores=(3.0, 1.0, 2.0))
    assert rank(table).ordered_labels == ("1", "3", "2")


def test_rank_ties_ascend_numerically():
    table = ScoreTable(q=1.0, labels=("2", "10", "1"), scores=(7.0, 7.0, 7.0))
    assert rank(table).ordered_labels == ("1", "2", "10")


def test_score_table_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ScoreTable(q=1.0, labels=("a",), scores=(1.0, 2.0))


def test_score_table_stores_labels_as_a_tuple():
    table = ScoreTable(q=1.0, labels=["1", "2", "3"], scores=[3.0, 1.0, 2.0])
    assert table.labels == ("1", "2", "3")
    assert rank(table).ordered_labels == ("1", "3", "2")
    labels = ("1", "2")
    assert ScoreTable(q=1.0, labels=labels, scores=(1.0, 2.0)).labels is labels


def test_ranking_rejects_duplicates():
    with pytest.raises(ValueError):
        Ranking(("a", "a"))


def test_duplicate_error_names_the_first_repeated_label():
    with pytest.raises(ValueError, match="duplicate labels.*'b'"):
        Ranking(("a", "b", "c", "b", "a"))


def test_rankings_equal_however_built(karate):
    ranked = rank(score_all(karate, 0.0))
    built = Ranking(ranked.ordered_labels)
    assert built.labels is not ranked.labels
    assert ranked == built and built == ranked
    assert hash(ranked) == hash(built)
    assert ranked.top(5) == built.top(5) == ranked.ordered_labels[:5]
    assert ranked != Ranking(ranked.ordered_labels[::-1])
    assert built.over(karate.labels) == ranked
    assert built.over(karate.labels).order == ranked.order
    assert Ranking(("a", "b")).over(("b", "a")) == Ranking(("a", "b"))
    assert Ranking(("a", "b")) != Ranking(("b", "a"))
    assert Ranking(("a", "b")) != Ranking(("a", "c"))
    assert Ranking(("a", "b")) != ("a", "b")
    for labels in (("a", "c"), ("a",), ("a", "b", "c")):
        with pytest.raises(ValueError, match="different label sets"):
            Ranking(("a", "b")).over(labels)


def test_over_its_own_label_set_is_the_ranking_itself(karate):
    """Detection reads every ranking over the stable one's labels; one that
    already ranks that tuple, or an equal one, comes back as it is, with
    no label index built for it."""
    ranked = rank(score_all(karate, 0.0))
    assert ranked.over(karate.labels) is ranked
    assert ranked.over(tuple(list(karate.labels))) is ranked


def test_results_keep_id_orders_over_the_graph_labels(karate, monkeypatch, tmp_path):
    """No ranking or table of sweep (any jobs), rank, detection, refine or
    the table and record emitters goes through a label round trip: each
    holds the graph's labels tuple itself, and the duplicate check of the
    label-taking Ranking constructor is never reached."""
    def refuse(labels):
        raise AssertionError("duplicate check reached")

    monkeypatch.setattr(ranking_module, "_check_distinct", refuse)
    grid = (0.0, 1.0, 1.5, 2.0, 9.0, 10.0)
    for jobs in (1, 2, 4):
        result = sweep(karate, grid, jobs=jobs)
        tables = (*result.score_tables, score_all(karate, 0.5))
        rankings = (*result.rankings, rank(tables[-1]))
        for table in tables:
            assert table.labels is karate.labels
            assert isinstance(table.scores, array) and table.scores.typecode == "d"
        for ranking in rankings:
            assert ranking.labels is karate.labels
            assert isinstance(ranking.order, array) and ranking.order.typecode == "q"
        for relaxed_tau in (None, 0.05):
            report = detect_threshold(result, relaxed_tau=relaxed_tau)
            assert report.stable_ranking.labels is karate.labels
            assert refine_threshold(karate, result, report, relaxed_tau) is not None
    for command in ("rank --q 1", "sweep --grid 0,1,2", "threshold --refine",
                    "threshold --refine --relaxed-tau 0.05", "states"):
        for form in ("csv", "json"):
            argv = [*command.split(), "--input", str(karate_edges_path()), "--format", form]
            assert main([*argv, "--output", str(tmp_path / "out")]) == 0


def test_score_all_matches_pointwise(karate):
    table = score_all(karate, 0.0)
    assert table.scores == array("d", karate.degrees)


def test_sweep_rejects_bad_grids(karate):
    with pytest.raises(ValueError):
        sweep(karate, ())
    with pytest.raises(ValueError):
        sweep(karate, (1.0, 1.0))
    with pytest.raises(ValueError):
        sweep(karate, (2.0, 1.0))
    with pytest.raises(ValueError):
        sweep(karate, (-1.0, 0.0))
    with pytest.raises(ValueError):
        sweep(karate, (0.0, math.nan))


def test_sweep_parallel_equals_serial(karate):
    """Forked workers give the serial result for any worker count, more
    workers than grid points included, and the serial result is what
    score_all and rank give point by point."""
    rng = random.Random(300)
    edges = {tuple(sorted(rng.sample(range(300), 2))) for _ in range(900)}
    seeded = Graph.from_edge_labels((str(u), str(v)) for u, v in sorted(edges))
    grid = parse_grid("0:2:0.5")
    for graph in (karate, seeded):
        serial = sweep(graph, grid, jobs=1)
        tables = tuple(score_all(graph, q) for q in grid)
        assert serial == SweepResult(grid, tables, tuple(map(rank, tables)))
        for jobs in (2, 3, len(grid) + 5):
            assert sweep(graph, grid, jobs=jobs) == serial


def test_sweep_builds_shares_and_label_order_before_forking(monkeypatch):
    """The graph's ego shares and its label order exist before the
    workers fork, so that each inherits them rather than building them."""
    graph = load_edge_list("a b\nb c\nc d\n")
    ranking_module._label_order.cache_clear()
    forked, real = [], ranking_module.forked_map

    def forking(fn, items, jobs):
        built = "_ego_shares" in graph.__dict__
        forked.append((built, ranking_module._label_order.cache_info().currsize))
        return real(fn, items, jobs)

    monkeypatch.setattr(ranking_module, "forked_map", forking)
    sweep(graph, (0.5, 1.0), jobs=2)
    assert forked == [(True, 1)]


def test_sweep_of_graphs_with_fewer_than_two_nodes():
    for labels in ((), ("a",)):
        graph = Graph(labels=labels, adjacency=((),) * len(labels))
        result = sweep(graph, (0.0, 1.0), jobs=2)
        assert result.rankings == (Ranking(labels),) * 2
        assert [tuple(t.scores) for t in result.score_tables] == [(0.0,) * len(labels)] * 2


def test_sweep_rejects_jobs_below_one(karate):
    with pytest.raises(ValueError, match="jobs"):
        sweep(karate, (0.0, 1.0), jobs=0)


def test_failed_sweep_worker_raises_and_is_reaped(karate, monkeypatch):
    real = ranking_module.score_all

    def failing(graph, q):
        if q == 1.0:  # item 1 of (0, 1, 2): forked worker 1's with jobs=2
            raise RuntimeError("boom")
        return real(graph, q)

    monkeypatch.setattr(ranking_module, "score_all", failing)
    with pytest.raises(ChildProcessError, match="worker 1 failed on item 1: RuntimeError: boom"):
        sweep(karate, (0.0, 1.0, 2.0), jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left to wait for


def test_threshold_all_identical_starts_at_first_point():
    order = ("a", "b", "c")
    result = _fake_sweep((0.0, 1.0, 2.0), [order, order, order])
    report = detect_threshold(result)
    assert report.p_value == 0.0
    assert report.suffix_length == 3
    assert report.stable_ranking == Ranking(order)


def test_threshold_suffix_rule_picks_fourth_point():
    base = ("a", "b", "c")
    orders = [("c", "b", "a"), ("b", "a", "c"), ("a", "c", "b"), base, base]
    report = detect_threshold(_fake_sweep((0.0, 0.5, 1.0, 1.5, 2.0), orders))
    assert report.p_value == 1.5
    assert report.suffix_length == 2


def test_threshold_single_final_point_never_counts():
    orders = [("a", "b"), ("b", "a")]
    report = detect_threshold(_fake_sweep((0.0, 1.0), orders))
    assert report.p_value is None
    assert report.stable_ranking is None
    assert report.suffix_length == 1


def test_threshold_requires_two_grid_points():
    with pytest.raises(ValueError):
        detect_threshold(_fake_sweep((1.0,), [("a", "b")]))


class _FromTopOnly:
    """Rankings that can be read only through ``reversed()``; counts the
    rankings pulled."""

    def __init__(self, rankings):
        self._rankings, self.pulled = rankings, 0

    def __reversed__(self):
        for ranking in reversed(self._rankings):
            self.pulled += 1
            yield ranking


@pytest.mark.parametrize("relaxed_tau", (None, 0.05), ids=["exact", "relaxed"])
def test_detection_reads_the_rankings_once_from_the_top(karate, relaxed_tau):
    """Detection asks the rankings for ``reversed()`` alone, and pulls the
    stable suffix and at most the one ranking below it."""
    order = ("a", "b", "c")
    results = [
        sweep(karate, default_grid()),
        sweep(karate, (0.0, 5.0, 10.0)),  # no stable suffix
        _fake_sweep((0.0, 1.0, 2.0), [order] * 3),  # stable throughout
    ]
    for result in results:
        from_top = _FromTopOnly(result.rankings)
        report = detect_threshold(
            SweepResult(grid=result.grid, score_tables=(), rankings=from_top),
            relaxed_tau=relaxed_tau,
        )
        assert report == detect_threshold(result, relaxed_tau=relaxed_tau)
        assert from_top.pulled <= report.suffix_length + 1


def test_threshold_relaxed_tolerates_sporadic_adjacent_swaps():
    base = tuple(str(i) for i in range(30))
    orders = [
        tuple(reversed(base)),  # far from stable
        base,
        _swap(base, 0),  # single adjacent swap: tau = 433/435
        _swap(base, 10),
        base,
    ]
    grid = (0.0, 1.0, 2.0, 3.0, 4.0)
    exact = detect_threshold(_fake_sweep(grid, orders))
    assert exact.p_value is None
    # two swaps apart (tau = 431/435) exceeds the 0.005 budget, one does not
    relaxed = detect_threshold(_fake_sweep(grid, orders), relaxed_tau=0.005)
    assert relaxed.p_value == 3.0
    assert relaxed.suffix_length == 2
    looser = detect_threshold(_fake_sweep(grid, orders), relaxed_tau=0.01)
    assert looser.p_value == 1.0
    assert looser.suffix_length == 4


def test_threshold_relaxed_tau_bounds():
    result = _fake_sweep((0.0, 1.0), [("a", "b"), ("a", "b")])
    for bad in (0.0, -0.01, 0.051, 1.0):
        with pytest.raises(ValueError):
            detect_threshold(result, relaxed_tau=bad)


def _exact_tau(n, discordant):
    """Kendall tau of two orders of n >= 2 ids ``discordant`` pairs apart,
    as an exact fraction."""
    total = n * (n - 1) // 2
    return Fraction(total - 2 * discordant, total)


def _drifting_orders(rng, n, length):
    """Up to three adjacent swaps between grid points, none most often, and
    now and then a reshuffled run."""
    order = [str(i) for i in range(n)]
    rng.shuffle(order)
    orders = []
    for _ in range(length):
        if rng.random() < 0.1:
            i, j = sorted(rng.sample(range(n + 1), 2))
            segment = order[i:j]
            rng.shuffle(segment)
            order[i:j] = segment
        else:
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
                i = rng.randrange(n - 1)
                order[i], order[i + 1] = order[i + 1], order[i]
        orders.append(tuple(order))
    return orders


@pytest.mark.parametrize("relaxed_tau", (0.05, 0.01, 0.005, 1e-17))
def test_relaxed_detection_equals_all_pairs_rule(relaxed_tau):
    # 1e-17 allows no discordant pair at these n: identical rankings agree
    # and differing ones do not, as in exact mode.
    rng = random.Random(11)
    suffix_lengths = set()
    for n in range(2, 61):
        for _ in range(3):
            orders = _drifting_orders(rng, n, rng.randint(2, 16))
            for shared in (True, False):
                result = _fake_sweep(range(len(orders)), orders, shared)
                report = detect_threshold(result, relaxed_tau=relaxed_tau)
                p_value, stable, length = reference.detect(result.grid, orders, relaxed_tau)
                expected = ThresholdReport(p_value, stable and Ranking(stable), length)
                assert report == expected, (n, orders)
            suffix_lengths.add(report.suffix_length)
    assert len(suffix_lengths) >= 6


def _with_inversions(n, discordant):
    """A permutation of range(n) with exactly ``discordant`` inversions."""
    remaining = list(range(n))
    order = []
    for i in range(n):
        # the element taken has ``skip`` smaller ones left after it
        skip = min(discordant, n - 1 - i)
        order.append(remaining.pop(skip))
        discordant -= skip
    return order


def test_discordant_pairs_across_blocks():
    # Five runs: the odd one carries past the first two merge levels.
    n = 4 * _BLOCK + 17
    total = n * (n - 1) // 2
    assert _discordant_pairs(list(range(n))) == 0
    assert _discordant_pairs(list(range(n))[::-1]) == total
    rng = random.Random(17)
    near = list(range(n))
    for _ in range(300):  # adjacent swaps, some across block edges
        i = rng.choice((rng.randrange(n - 1), rng.randrange(1, 5) * _BLOCK - 1))
        near[i], near[i + 1] = near[i + 1], near[i]
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    for order in (near, shuffled, shuffled[::-1]):
        assert _discordant_pairs(order) == reference.discordant(order, range(n))
    for discordant in (0, 1, total // 3, total - 1, total):
        assert _discordant_pairs(_with_inversions(n, discordant)) == discordant
    assert reference.discordant(_with_inversions(n, total // 3), range(n)) == total // 3


@pytest.mark.parametrize("relaxed_tau", (0.05, 0.03, 0.01, 0.005, 1e-3, 1e-17))
def test_discordant_limit_is_the_exact_boundary(relaxed_tau):
    floor = 1 - Fraction(repr(relaxed_tau))

    def passes(n, discordant):
        return _exact_tau(n, discordant) >= floor

    limits = {}
    for n in (*range(2, 301), 50_000):
        limit = limits[n] = _discordant_limit(n, relaxed_tau)
        assert 0 <= limit < n * (n - 1) // 2
        assert passes(n, limit) and not passes(n, limit + 1), n
    for n in (2, 8, 13, 25, 60, 300):
        limit = limits[n]
        assert passes(n, _discordant_pairs(_with_inversions(n, limit)))
        assert not passes(n, _discordant_pairs(_with_inversions(n, limit + 1)))
    assert _discordant_limit(1, relaxed_tau) == _discordant_limit(0, relaxed_tau) == 0


def test_discordant_limit_reaches_tau_exactly_at_the_tolerance():
    # 114 pairs among 96 labels give tau 1 - 228/4560 = 0.95 exactly, and
    # 1,249,875 among 10,000 give 1 - 2,499,750/49,995,000 = 0.95.
    assert _discordant_limit(96, 0.05) == 114
    assert _discordant_limit(10_000, 0.05) == 1_249_875
    assert _discordant_limit(10_000, 0.01) == 249_975
    stable = tuple(str(i) for i in range(96))
    for discordant, suffix_length in ((114, 2), (115, 1)):
        apart = tuple(str(i) for i in _with_inversions(96, discordant))
        result = _fake_sweep((0.0, 1.0), [apart, stable])
        report = detect_threshold(result, relaxed_tau=0.05)
        assert report.suffix_length == suffix_length, discordant


def test_relaxed_detection_counts_grow_linearly(monkeypatch):
    counted = []
    count = ranking_module._discordant_pairs

    def counting(order):
        counted.append(len(order))
        return count(order)

    monkeypatch.setattr(ranking_module, "_discordant_pairs", counting)
    rng = random.Random(5)
    orders = [tuple(str(i) for i in range(200))]
    for _ in range(59):
        orders.append(_swap(orders[-1], rng.randrange(199)))
    # 59 swaps at most leave tau >= 1 - 118/19900, inside the 0.05 budget
    report = detect_threshold(_fake_sweep(range(60), orders), relaxed_tau=0.05)
    assert report.suffix_length == 60
    # the all-pairs rule counts 59 * 60 / 2 = 1,770 pairs
    assert len(counted) <= 2 * 60


def _counting(monkeypatch, name):
    """Replace ``ranking_module.name`` by a wrapper that records each call."""
    calls, real = [], getattr(ranking_module, name)

    def counted(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(ranking_module, name, counted)
    return calls


def test_exact_detection_never_counts(karate, monkeypatch):
    cycle = load_edge_list("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
    results = [sweep(karate, default_grid()), sweep(cycle, default_grid())]
    counted = [_counting(monkeypatch, name) for name in ("_discordant_pairs", "_positions")]
    assert detect_threshold(results[0]).p_value == 8.5
    report = detect_threshold(results[1])
    assert (report.p_value, report.suffix_length) == (0.0, 43)
    assert counted == [[], []]


def test_relaxed_detection_counts_only_neighbours_that_differ(monkeypatch):
    base = tuple(str(i) for i in range(30))
    # From the top: base three times, one swap three times, base three
    # times, then the reversal: three neighbours differ.
    orders = [tuple(reversed(base))] + [base] * 3 + [_swap(base, 0)] * 3 + [base] * 3
    result = _fake_sweep(range(len(orders)), orders)
    counts, positions = (
        _counting(monkeypatch, name) for name in ("_discordant_pairs", "_positions")
    )
    report = detect_threshold(result, relaxed_tau=0.05)
    assert (report.p_value, report.suffix_length) == (1.0, 9)
    assert len(positions) == len(counts) == 3


def test_relaxed_detection_agrees_identical_rankings_below_any_count(tmp_path, capsys):
    # An 8-node cycle ranks alike at every q, and 1e-17 allows no
    # discordant pair among 8 labels: identical rankings agree uncounted.
    assert _discordant_limit(8, 1e-17) == 0
    path = tmp_path / "cycle.edges"
    path.write_text("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)))
    printed = []
    for extra in ([], ["--relaxed-tau", "1e-17"]):
        assert main(["threshold", "--input", str(path), *extra]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[1].splitlines()[1] == "p_value,0.0"


def _complete_graph_k5():
    return load_edge_list(
        "\n".join(f"{u} {v}" for u, v in itertools.combinations("12345", 2))
    )


def test_refine_at_first_grid_point_returns_it():
    g = _complete_graph_k5()
    result = sweep(g, (0.0, 1.0, 2.0))
    report = detect_threshold(result)
    assert report.p_value == 0.0
    assert refine_threshold(g, result, report) == 0.0


def test_refine_without_threshold_returns_none():
    g = load_edge_list("a b\n")
    result = _fake_sweep((0.0, 1.0), [("a", "b"), ("b", "a")])
    report = detect_threshold(result)
    assert refine_threshold(g, result, report) is None


def test_refine_rejects_a_bad_tolerance_with_nothing_to_bisect():
    # p_value 0.05 lies above the first grid point, within REFINE_RESOLUTION
    # of it, so no midpoint is scored; the tolerance is refused all the same.
    result = _fake_sweep((0.0, 0.05, 0.1), [("a", "b"), ("b", "a"), ("b", "a")])
    report = detect_threshold(result)
    assert report.p_value == 0.05
    with pytest.raises(ValueError, match="relaxed tau"):
        refine_threshold(None, result, report, relaxed_tau=0.5)


def test_refine_refuses_a_report_from_another_grid(karate):
    report = detect_threshold(sweep(karate, default_grid()))
    assert report.p_value == 8.5
    with pytest.raises(ValueError, match="p_value 8.5 is not a point of the grid"):
        refine_threshold(karate, sweep(karate, (0.0, 1.0, 2.0)), report)


@pytest.mark.parametrize("case", ["lower-neighbour", "no-threshold", "first-point"])
def test_refine_checks_the_tolerance_on_every_path(karate, case):
    graph, grid = {
        "lower-neighbour": (karate, (8.0, 8.5, 9.0)),
        "no-threshold": (karate, (0.0, 5.0, 10.0)),
        "first-point": (_complete_graph_k5(), (0.0, 1.0, 2.0)),
    }[case]
    result = sweep(graph, grid)
    report = detect_threshold(result)
    assert (report.p_value is None) == (case == "no-threshold")
    assert (report.p_value == grid[0]) == (case == "first-point")
    with pytest.raises(ValueError, match="relaxed tau"):
        refine_threshold(graph, result, report, relaxed_tau=0.2)


def test_refine_narrows_between_grid_points(karate):
    # coarse grid: stability is only known somewhere inside (0, 9]
    result = sweep(karate, (0.0, 9.0, 10.0))
    report = detect_threshold(result)
    assert report.p_value == 9.0
    refined = refine_threshold(karate, result, report)
    assert refined < 9.0
    assert rank(score_all(karate, refined)) == report.stable_ranking


def test_refine_relaxed_accepts_exactly_the_tau_floor(monkeypatch):
    # Bisection candidates on either side of the 0.01 budget at n = 30:
    # 2 discordant pairs give tau 431/435, 3 give 429/435.
    stable = Ranking(tuple(str(i) for i in range(30)))
    at_limit, over = (
        Ranking(tuple(str(i) for i in _with_inversions(30, d))) for d in (2, 3)
    )
    tau = [_kendall_tau(r.over(stable.labels).order, stable.order) for r in (at_limit, over)]
    assert tau[0] >= 1.0 - 0.01 > tau[1]
    orders = [tuple(reversed(stable.ordered_labels))] + [stable.ordered_labels] * 2
    result = _fake_sweep((0.0, 1.0, 2.0), orders)
    report = detect_threshold(result, relaxed_tau=0.01)
    assert report.p_value == 1.0
    monkeypatch.setattr(ranking_module, "score_all", lambda graph, q: q)
    monkeypatch.setattr(
        ranking_module, "rank", lambda q: at_limit if q >= 0.3 else over
    )
    # midpoints 0.5, 0.25, 0.375, 0.3125: stable exactly from 0.3 on
    assert refine_threshold(None, result, report, relaxed_tau=0.01) == 0.3125


def test_extending_grid_never_lowers_p_value(karate):
    base = default_grid()
    extended = base + (11.0, 12.0, 15.0, 20.0)
    p_base = detect_threshold(sweep(karate, base)).p_value
    p_ext = detect_threshold(sweep(karate, extended)).p_value
    assert p_ext >= p_base


def test_compare_random_permutations_match_pair_enumeration():
    rng = random.Random(3)
    identity_taus = []
    for n in range(2, 61):
        labels = [str(i) for i in range(n)]
        a, b = labels[:], labels[:]
        rng.shuffle(a)
        rng.shuffle(b)
        for other in (a[:], a[::-1], b):
            got = compare_rankings(Ranking(tuple(a)), Ranking(tuple(other))).kendall_tau
            assert got == reference.kendall_tau(a, other), (n, other)
            if other == a:
                identity_taus.append(got)
    # Identical rankings read just below 1 at some n (5, 6, 10, ...), and
    # compare output bytes depend on matching that float exactly.
    assert 0.9999999999999999 in identity_taus


def test_compare_overlap_caps_at_node_count():
    a = Ranking(("1", "2", "3"))
    b = Ranking(("3", "2", "1"))
    result = compare_rankings(a, b)
    # top-5 and top-10 both degrade to top-3 here
    assert result.top_k_overlap == {5: 1.0, 10: 1.0}


def test_compare_single_node_tau_convention():
    ranking = Ranking(("a",))
    assert compare_rankings(ranking, ranking).kendall_tau == 1.0


def test_compare_rejects_empty_rankings():
    with pytest.raises(ValueError, match="rankings are empty"):
        compare_rankings(Ranking(()), Ranking(()))


def test_compare_rejects_mismatched_label_sets():
    with pytest.raises(ValueError, match="b, c"):
        compare_rankings(Ranking(("a", "b")), Ranking(("a", "c")))


def test_parse_grid_default_has_43_points():
    grid = default_grid()
    assert grid == parse_grid(DEFAULT_GRID_SPEC)
    assert len(grid) == 43
    assert grid[0] == 0.0
    assert grid[-1] == 10.0
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # segment boundaries: 0..2 by 0.1, 2.2..4 by 0.2, 4.5..10 by 0.5
    assert grid[1] == 0.1
    assert 2.0 in grid and 2.2 in grid and 2.1 not in grid
    assert 4.5 in grid and 4.25 not in grid


def test_parse_grid_values_and_ranges():
    assert parse_grid("1") == (1.0,)
    assert parse_grid("0,0.5,2") == (0.0, 0.5, 2.0)
    assert parse_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    # endpoint excluded when the step does not land on it
    assert parse_grid("0:1:0.3") == (0.0, 0.3, 0.6, 0.9)
    assert parse_grid("0,0.5:1.5:0.5,9") == (0.0, 0.5, 1.0, 1.5, 9.0)


@pytest.mark.parametrize("spec", ["-0,1", "-0:1:0.5"])
def test_parse_grid_reads_minus_zero_as_zero(spec):
    assert repr(parse_grid(spec)[0]) == "0.0"  # -0.0 == 0.0, but its repr differs


def test_parse_grid_rejects_malformed_specs():
    for bad in ("", "abc", "1:2", "1:2:0", "1:2:-1", "2,1", "1,1", "0:1:0.5:2"):
        with pytest.raises(ValueError):
            parse_grid(bad)
    # non-finite range bounds (the infinite ranges that never end are run
    # in a capped child below)
    for bad in ("0:nan:1", "nan:1:1", "0:1:nan", "0:1:inf"):
        with pytest.raises(ValueError, match="bad grid segment"):
            parse_grid(bad)


def _parse_grid_in_capped_child(spec):
    """What parse_grid(spec) prints, returned or raised as ValueError, then
    whether it allocated under 1 MB; run in a child with a time limit and
    a 1 GB address-space cap, so that a loop that never ends cannot
    exhaust memory."""
    code = (
        "import resource, tracemalloc; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from lsentropy import parse_grid\n"
        "tracemalloc.start()\n"
        f"try:\n    print(parse_grid({spec!r}))\n"
        "except ValueError as exc:\n    print(exc)\n"
        "print(tracemalloc.get_traced_memory()[1] < 1 << 20)"
    )
    src = str(Path(lsentropy.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("spec", ["0:inf:1", "-inf:1:1"])
def test_parse_grid_rejects_infinite_range_promptly(spec):
    # A range that never reaches its stop must be refused, not walked.
    assert f"bad grid segment {spec!r}" in _parse_grid_in_capped_child(spec)


@pytest.mark.parametrize(
    "spec, points",
    [
        ("0:10:1e-9", "10000000001"),
        ("0:1e20:1e-20", "over 10**28"),
        ("0:1:1e-1000000", "over 10**28"),
    ],
)
def test_parse_grid_refuses_an_oversized_grid_before_expanding_it(spec, points):
    assert _parse_grid_in_capped_child(spec) == (
        f"q grid would hold {points} points; at most 1000000 are allowed\nTrue\n"
    )


def test_parse_grid_ends_a_range_whose_step_rounds_away():
    # 1e30 + 1 rounds back to 1e30 in the 28-digit decimal context, so
    # stepping until the value passes stop would never end.
    assert _parse_grid_in_capped_child("1e30:1e30:1") == "(1e+30,)\nTrue\n"


def test_parse_grid_bounds_the_points_of_all_segments(monkeypatch):
    monkeypatch.setattr(ranking_module, "MAX_GRID_POINTS", 5)
    assert parse_grid("0:3:1,4") == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert parse_grid("0:4.9:1") == (0.0, 1.0, 2.0, 3.0, 4.0)
    for spec in ("0:3:1,4,5", "0:5:1", "0,1,2,3,4,5"):
        with pytest.raises(ValueError, match="would hold 6 points; at most 5"):
            parse_grid(spec)
    # an empty range counts no points
    assert parse_grid("0:3:1,9:8:1,4") == (0.0, 1.0, 2.0, 3.0, 4.0)
