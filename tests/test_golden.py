"""Output bytes of benchmark-sized runs against the digests perfbench pins.

The karate digests that ``perfbench/tests`` checks come from a 34-node
graph, whose ego shares rarely coincide, and run threshold detection in
exact mode only. The sweep-er graph (ER, 10k nodes, 40k edges) gives the
share table of ``entropy.ego_share_vector`` 1,774 distinct values for
89,999 shares, and the CSV emitter 430k rows. The threshold-pa graph
(preferential attachment, 10k nodes, m = 4) runs ``threshold --refine
--relaxed-tau 0.05`` over a 14-point relaxed suffix and its bisection.
The rank-compare graph (ER, 50k nodes, 200k edges) ranks at q = 0 and
q = 1 and compares the two CSVs, a Kendall count over 50k labels.
"""
import sys
from pathlib import Path

from lsentropy.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
import golden  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _assert_seed_0_matches_golden_digest(tmp_path, name):
    workload = WORKLOADS[name]
    graph = tmp_path / "graph.edges"
    graph.write_text(corpus.edge_list_text(workload.edges(0)), encoding="utf-8")
    for argv in workload.argv(str(graph), str(tmp_path)):
        assert main(argv) == 0
    pinned = golden.load()[name]["0"]
    for output in workload.outputs:
        assert golden.digest(tmp_path / output) == pinned[output], output


def test_sweep_er_seed_0_matches_golden_digest(tmp_path):
    _assert_seed_0_matches_golden_digest(tmp_path, "sweep-er")


def test_threshold_pa_seed_0_matches_golden_digest(tmp_path):
    _assert_seed_0_matches_golden_digest(tmp_path, "threshold-pa")


def test_rank_compare_seed_0_matches_golden_digest(tmp_path):
    _assert_seed_0_matches_golden_digest(tmp_path, "rank-compare")
