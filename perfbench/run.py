"""Seeded benchmark of the ``lse`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every ``lse`` call runs as ``python -m lsentropy.cli`` with ``src`` on
the path, in a fresh process, one at a time, with the default ``--jobs 1``.
Graphs come from ``corpus.py`` and ``--seed``; the program only sees the
edge-list files. Work files go to ``perfbench/.work``.

``--trace 0`` measures end to end, untraced, for S seconds, and prints
setup_s, wall_s, peak_rss_mb and node_q_per_s. ``--trace 1`` alternates
untraced and traced executions of the workload for S seconds and prints
the per-layer metrics; its spans go to ``perfbench/.work/<run>/trace.json``.

Every execution's output bytes are compared with golden.json when it
holds the seed. For any other seed they are compared with each other,
and the last execution's files are checked against the reference in
check.py. The karate digests in golden.json are checked in this process.
A failed call or a mismatch counts as a failed operation. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import corpus
import golden
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Relative to ROOT, which is the working directory of the benchmark and
# of every process it starts.
WORK = "perfbench/.work"
SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys, lsentropy\n"
    "with open(sys.argv[1], encoding='utf-8') as handle:\n"
    "    lsentropy.load_edge_list(handle)\n"
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "node_q_per_s": "1/s",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "graph.load_s": "s",
    "graph.validate_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.input_bytes": "count",
    "entropy.share_s": "s",
    "entropy.score_s": "s",
    "entropy.terms": "count",
    "entropy.ns_per_term": "ns",
    "entropy.share_reuse": "ratio",
    "ranking.rank_s": "s",
    "ranking.detect_exact_s": "s",
    "ranking.detect_relaxed_s": "s",
    "ranking.tau_call_s": "s",
    "ranking.relaxed_suffix_len": "count",
    "ranking.refine_s": "s",
    "ranking.refine_steps": "count",
    "ranking.pool_speedup": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Inputs:
    seed: int
    graph: str
    out: str
    edges: list
    nodes: int


@dataclass
class Child:
    wall: float
    stderr: str
    spans: str | None


@dataclass
class Execution:
    wall: float
    peak_rss_kb: int
    ok: bool
    digests: dict
    children: list[Child] = field(default_factory=list)


def spawn(argv: list[str], stderr_path: str) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB).

    ``os.wait4`` gives the child's own peak RSS; RUSAGE_CHILDREN would give
    the maximum over every child so far."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def prepare(workload, seed: int) -> Inputs:
    out = f"{WORK}/{workload.name}-{seed}"
    os.makedirs(out, exist_ok=True)
    edges = workload.edges(seed)
    graph = f"{out}/graph.edges"
    Path(graph).write_text(corpus.edge_list_text(edges), encoding="utf-8")
    nodes = len({x for edge in edges for x in edge})
    return Inputs(seed=seed, graph=graph, out=out, edges=edges, nodes=nodes)


def execute(workload, inputs: Inputs, run_id: str | None = None) -> Execution:
    """One execution of the workload's lse calls; traced when run_id is set."""
    for name in workload.outputs:
        Path(inputs.out, name).unlink(missing_ok=True)
    children, peak, ok = [], 0, True
    start = time.perf_counter()
    for k, argv in enumerate(workload.argv(inputs.graph, inputs.out)):
        stderr = f"{inputs.out}/stderr-{k}.txt"
        if run_id is None:
            span_file = None
            command = [sys.executable, "-m", "lsentropy.cli", *argv]
        else:
            span_file = f"{inputs.out}/spans-{k}.json"
            command = [
                sys.executable, "-X", "importtime", "perfbench/traced_cli.py",
                span_file, run_id, *argv,
            ]
        wall, status, rss = spawn(command, stderr)
        children.append(Child(wall, stderr, span_file))
        peak = max(peak, rss)
        if status != 0:
            ok = False
            print(f"error: lse {' '.join(argv)} exited {status}", file=sys.stderr)
            break
    wall = time.perf_counter() - start
    digests = {
        name: golden.digest(path)
        for name in workload.outputs
        if (path := Path(inputs.out, name)).exists()
    }
    return Execution(wall, peak, ok and len(digests) == len(workload.outputs), digests, children)


def count_failures(workload, inputs: Inputs, executions: list[Execution]) -> int:
    """Executions that failed, or whose output bytes are not the expected ones.

    Expected bytes are golden.json's for this seed (they passed the
    reference check when recorded). For any other seed they are the last
    execution's, whose files are still on disk and must pass the reference
    check; if that fails, or left no output, every execution fails.
    """
    expected = golden.load().get(workload.name, {}).get(str(inputs.seed))
    if expected is None:
        last = executions[-1]
        try:
            check.require(last.ok, "the last execution failed")
            workload.check(check.Reference(inputs.edges), Path(inputs.out))
        except check.CheckFailed as exc:
            print(f"error: {workload.name} output check: {exc}", file=sys.stderr)
            return len(executions)
        expected = last.digests
    return sum(not (e.ok and e.digests == expected) for e in executions)


def karate_digests() -> dict:
    """Digest of each karate output, run in this process (None on failure)."""
    from lsentropy import cli

    out = f"{WORK}/karate"
    os.makedirs(out, exist_ok=True)
    digests = {}
    for name, argv in golden.karate_calls(out):
        Path(out, name).unlink(missing_ok=True)
        status = cli.main(argv)
        digests[name] = golden.digest(Path(out, name)) if status == 0 else None
    return digests


def karate_failures() -> tuple[int, int]:
    expected = golden.load()["karate"]
    actual = karate_digests()
    failed = [name for name in expected if actual.get(name) != expected[name]]
    for name in failed:
        print(f"error: karate {name} differs from golden.json", file=sys.stderr)
    return len(expected), len(failed)


def end_to_end(workload, inputs: Inputs, seconds: float):
    setup = []
    for k in range(SETUP_REPEATS):
        wall, status, _ = spawn(
            [sys.executable, "-c", SETUP_CODE, inputs.graph], f"{inputs.out}/setup-{k}.txt"
        )
        if status != 0:
            sys.exit(f"error: importing lsentropy and loading {inputs.graph} failed")
        setup.append(wall)
    executions = []
    start = time.perf_counter()
    while not executions or time.perf_counter() - start < seconds:
        executions.append(execute(workload, inputs))
    walls = [e.wall for e in executions]
    wall = statistics.median(walls)
    q_points = workload.q_points(Path(inputs.out)) if executions[-1].ok else 0
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(e.peak_rss_kb for e in executions) / 1024.0,
        "node_q_per_s": inputs.nodes * q_points / wall,
    }
    notes = [
        f"wall_s samples: {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s)",
        f"setup_s samples: {len(setup)} ({', '.join(f'{w:.3f}' for w in setup)} s)",
        f"node_q_per_s: {inputs.nodes} nodes x {q_points} q points per execution",
    ]
    return metrics, executions, notes


def pool_speedup(seed: int) -> float:
    """sweep(jobs=1) time over sweep(jobs=2) time on the sweep-er graph."""
    from lsentropy import default_grid, load_edge_list, sweep

    graph = load_edge_list(corpus.edge_list_text(WORKLOADS["sweep-er"].edges(seed)))
    times = []
    for jobs in (1, 2):
        start = time.perf_counter()
        sweep(graph, default_grid(), jobs=jobs)
        times.append(time.perf_counter() - start)
    return times[0] / times[1]


def merged_spans(traced: Execution) -> tuple[list[dict], float, float, float]:
    """All spans of a traced execution with ids made unique, plus its import
    times and its wall time without the probes."""
    merged, import_total, import_scipy, wall = [], 0.0, 0.0, 0.0
    for child in traced.children:
        with open(child.spans, encoding="utf-8") as handle:
            child_spans = json.load(handle)["spans"]
        offset = len(merged)
        for s in child_spans:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
        merged += child_spans
        total, scipy = spans.importtime_seconds(
            Path(child.stderr).read_text(encoding="utf-8"), "lsentropy", "scipy"
        )
        import_total += total
        import_scipy += scipy
        probes = sum(spans.duration(s) for s in child_spans if s["name"] == "probe")
        wall += child.wall - probes
    return merged, import_total, import_scipy, wall


def layer_metrics(workload, inputs, plain: Execution, traced: Execution, speedup: float):
    all_spans, import_total, import_scipy, traced_wall = merged_spans(traced)
    by_id = {s["id"]: s for s in all_spans}

    def lineage(s):
        while s is not None:
            yield s
            s = by_id.get(s["parent"])

    def root(s):
        return list(lineage(s))[-1]["name"]

    replay = [s for s in all_spans if root(s) == "cli.main"]
    probed = [s for s in all_spans if root(s) == "probe"]

    def chosen(name):
        """The invocation's own calls to ``name``, else the probe's."""
        return [s for s in replay if s["name"] == name] or [
            s for s in probed if s["name"] == name
        ]

    def total(name):
        return sum(spans.duration(s) for s in chosen(name))

    loads = chosen("graph.load")
    scores = [s for s in replay if s["name"] == "entropy.score"]
    refine_ids = {s["id"] for s in chosen("ranking.refine")}
    refine_steps = sum(
        1
        for s in all_spans
        if s["name"] == "entropy.score"
        and any(a["id"] in refine_ids for a in lineage(s))
    )
    mains = [s for s in all_spans if s["name"] == "cli.main"]
    self_time = spans.self_times(all_spans)
    terms = sum(s["terms"] for s in scores)
    score_s = total("entropy.score")
    return {
        "import.total_s": import_total,
        "import.scipy_s": import_scipy,
        "graph.load_s": total("graph.load"),
        "graph.validate_s": total("graph.validate"),
        "graph.nodes": loads[-1]["nodes"],
        "graph.edges": loads[-1]["edges"],
        "graph.input_bytes": os.path.getsize(inputs.graph),
        "entropy.share_s": total("entropy.share"),
        "entropy.score_s": score_s,
        "entropy.terms": terms,
        "entropy.ns_per_term": score_s / terms * 1e9,
        "entropy.share_reuse": len(loads) / len(scores),
        "ranking.rank_s": total("ranking.rank"),
        "ranking.detect_exact_s": total("ranking.detect_exact"),
        "ranking.detect_relaxed_s": total("ranking.detect_relaxed"),
        "ranking.tau_call_s": total("ranking.compare"),
        "ranking.relaxed_suffix_len": chosen("ranking.detect_relaxed")[-1]["suffix_length"],
        "ranking.refine_s": total("ranking.refine"),
        "ranking.refine_steps": refine_steps,
        "ranking.pool_speedup": speedup,
        "cli.self_s": sum(self_time[s["id"]] for s in mains),
        "cli.output_bytes": sum(
            os.path.getsize(Path(inputs.out, name)) for name in workload.outputs
        ),
        "trace.unattributed_s": traced_wall
        - import_total
        - sum(spans.duration(s) for s in mains),
        "trace.overhead_s": traced_wall - plain.wall,
    }, all_spans


def per_layer(workload, inputs: Inputs, seconds: float):
    start = time.perf_counter()
    speedup = pool_speedup(inputs.seed)
    passes, executions, trace = [], [], []
    while not passes or time.perf_counter() - start < seconds:
        run_id = f"{workload.name}:{inputs.seed}:{len(passes)}"
        plain = execute(workload, inputs)
        traced = execute(workload, inputs, run_id=run_id)
        executions += [plain, traced]
        if not (plain.ok and traced.ok):
            break
        metrics, pass_spans = layer_metrics(workload, inputs, plain, traced, speedup)
        passes.append(metrics)
        for s in pass_spans:
            parent = None if s["parent"] is None else f"{run_id}/{s['parent']}"
            trace.append(dict(s, id=f"{run_id}/{s['id']}", parent=parent))
    trace_path = f"{inputs.out}/trace.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    if not passes:
        return {}, executions, ["no traced execution succeeded"]
    metrics = {
        name: passes[0][name] if unit == "count" else statistics.median(p[name] for p in passes)
        for name, unit in PER_LAYER.items()
    }
    notes = [f"traced passes: {len(passes)}", f"spans: {len(trace)} written to {trace_path}"]
    return metrics, executions, notes


def enter_root() -> bool:
    """Work from the repository root, with its lsentropy importable here."""
    if not (SRC / "lsentropy" / "cli.py").is_file():
        print(f"error: no lsentropy source under {SRC}", file=sys.stderr)
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not enter_root():
        return 2
    workload = WORKLOADS[args.workload]
    inputs = prepare(workload, args.seed)
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    metrics, executions, notes = measure(workload, inputs, args.seconds)

    failed = count_failures(workload, inputs, executions)
    karate_attempted, karate_failed = karate_failures()
    attempted = len(executions) + karate_attempted
    failed += karate_failed
    for line in notes:
        print(f"{workload.name}: {line}")
    for name, value in metrics.items():
        print(f"{workload.name}: {name} = {value} {units[name]}")
    print(f"{workload.name}: error_rate = {failed / attempted} ({failed}/{attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0 and len(metrics) == len(units),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
