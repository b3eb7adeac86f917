"""Output bytes of a benchmark-sized sweep against the digest perfbench pins.

The karate digests that ``perfbench/tests`` checks come from a 34-node
graph, whose ego shares rarely coincide; the sweep-er graph (ER, 10k
nodes, 40k edges) gives the share table of ``entropy.ego_share_vector``
1,774 distinct values for 89,999 shares, and the CSV emitter 430k rows.
"""
import sys
from pathlib import Path

from lsentropy.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402
import golden  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_sweep_er_seed_0_matches_golden_digest(tmp_path):
    workload = WORKLOADS["sweep-er"]
    graph = tmp_path / "graph.edges"
    graph.write_text(corpus.edge_list_text(workload.edges(0)), encoding="utf-8")
    (argv,) = workload.argv(str(graph), str(tmp_path))
    assert main(argv) == 0
    (name,) = workload.outputs
    assert golden.digest(tmp_path / name) == golden.load()["sweep-er"]["0"][name]
