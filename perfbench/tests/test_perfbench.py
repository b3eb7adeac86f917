"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A four-node graph, ranked once: enough to exercise the golden check.
TINY = Workload(
    name="tiny",
    edges=lambda seed: [(0, 1), (1, 2), (2, 0), (2, 3)],
    calls=(("rank", "--q", "0", "--input", "{graph}", "--output", "{out}/rank0.csv"),),
    outputs=("rank0.csv",),
    check=lambda reference, run_dir: None,
    q_points=lambda run_dir: 1,
)


def flip_one_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def test_same_seed_gives_identical_graph_files():
    for workload in WORKLOADS.values():
        first = corpus.edge_list_text(workload.edges(7))
        assert first == corpus.edge_list_text(workload.edges(7))
        assert first != corpus.edge_list_text(workload.edges(8))


def test_one_byte_output_change_fails_golden_check(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    assert run.enter_root()
    assert run.karate_failures() == (10, 0)
    karate = Path(run.WORK, "karate", "threshold.json")
    flip_one_byte(karate)
    assert golden.digest(karate) != golden.load()["karate"]["threshold.json"]

    inputs = run.prepare(TINY, 0)
    good = run.execute(TINY, inputs)
    assert good.ok
    monkeypatch.setattr(golden, "load", lambda: {"tiny": {"0": good.digests}})
    assert run.count_failures(TINY, inputs, [good]) == 0
    output = Path(inputs.out, "rank0.csv")
    flip_one_byte(output)
    changed = run.Execution(good.wall, good.peak_rss_kb, True, {"rank0.csv": golden.digest(output)})
    assert run.count_failures(TINY, inputs, [good, changed]) == 1


def test_metric_and_workload_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [*WORKLOADS, *run.END_TO_END, *run.PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_self_time_subtracts_child_coverage():
    tree = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps its sibling
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert spans.self_times(tree) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
