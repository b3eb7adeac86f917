"""The benchmark's traced runner against the library it wraps.

``perfbench/traced_cli.py`` replaces names in ``lsentropy.cli`` with timed
wrappers and probes ``Graph(labels=, adjacency=)`` and
``entropy.local_degree_distribution`` after the run. ``perfbench/tests``
never starts it, so a renamed or deleted hook would break ``--trace 1``
unseen. Each case runs it in a subprocess, on karate or on a 12-node
cycle, and checks its exit status, its output bytes against an untraced
run, and its span names.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsentropy
from lsentropy import karate_edges_path
from lsentropy.cli import main

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "threshold": (
        ["threshold", "--refine", "--relaxed-tau", "0.05", "--input", "{karate}"],
        {
            "graph.load", "ranking.sweep", "entropy.score", "ranking.rank",
            "ranking.detect_relaxed", "ranking.refine", "graph.validate",
            "entropy.share", "ranking.detect_exact", "ranking.compare",
        },
    ),
    # Every ranking of the cycle is the same, so threshold scores the whole
    # 5-point grid, and the probe detects over the block scored last, which
    # must hold 2 points or more.
    "threshold-cycle": (
        ["threshold", "--grid", "6:10:1", "--jobs", "2", "--input", "{cycle}"],
        {
            "graph.load", "ranking.sweep", "entropy.score", "ranking.rank",
            "ranking.detect_exact", "ranking.detect_relaxed", "ranking.refine",
            "ranking.compare", "graph.validate", "entropy.share",
        },
    ),
    "sweep": (
        ["sweep", "--input", "{karate}"],
        {
            "ranking.sweep", "entropy.score", "ranking.rank", "ranking.detect_exact",
            "ranking.detect_relaxed", "ranking.compare", "ranking.refine",
            "graph.validate", "entropy.share",
        },
    ),
    "rank": (
        ["rank", "--q", "0", "--input", "{karate}"],
        {"graph.load", "entropy.score", "ranking.rank", "graph.validate", "entropy.share"},
    ),
    "compare": (
        ["compare", "{rank}", "{rank}"],
        {"ranking.compare", "ranking.detect_exact", "ranking.detect_relaxed", "ranking.refine"},
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    karate = folder / "karate.edges"
    karate.write_text(karate_edges_path().read_text(encoding="utf-8"), encoding="utf-8")
    cycle = folder / "cycle.edges"
    cycle.write_text("".join(f"{i} {(i + 1) % 12}\n" for i in range(12)))
    rank = folder / "rank.csv"
    assert main(["rank", "--q", "0", "--input", str(karate), "--output", str(rank)]) == 0
    return {"karate": str(karate), "cycle": str(cycle), "rank": str(rank)}


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_run_matches_untraced_and_records_spans(command, inputs, tmp_path):
    template, expected_spans = CASES[command]
    argv = [arg.format(**inputs) for arg in template]
    untraced, traced, spans = (tmp_path / n for n in ("untraced", "traced", "spans.json"))
    assert main([*argv, "--output", str(untraced)]) == 0
    src = str(Path(lsentropy.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
            str(spans), "hooks", *argv, "--output", str(traced),
        ],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert traced.read_bytes() == untraced.read_bytes()
    names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
    assert expected_spans <= names, sorted(expected_spans - names)
