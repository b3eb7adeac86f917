"""Mutation testing of ``src/`` by this suite, standard library only.

Each mutant is one exact text replacement in one ``src/`` file. The
harness copies the repository, without ``.git``, ``perfbench/.work`` and
caches, to a temporary directory once; for each mutant it writes the
replacement, runs ``python -m pytest`` there (differential and golden
tests first, ``tests/test_mutants.py`` left out) with the copy's ``src``
as the only ``PYTHONPATH`` entry, and puts the file back. It prints one
JSON record per mutant: ``killed``, ``survived`` or ``timeout``, and the
first failing test (every one with ``--matrix``, which drops ``-x`` and
ends with one summary record, see ``summary``). A full run first checks
that the copy passes unmutated. The exit status is 1 when it does not,
or when a mutant survives or times out that is not marked equivalent:
one no input can tell from ``src/``, with the reason.
Usage is in README's Tests section.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Address space of each suite run, so a mutant that allocates without end
# fails with MemoryError instead of taking the host's memory.
MEMORY_BYTES = 4 << 30

# Seconds a suite run may take; the suite itself takes about 20 on 2 cores.
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # under src/lsentropy
    original: str
    replacement: str
    equivalent: str | None = None  # why no input can tell it from src/


_m = Mutant


MUTANTS = [
    # Recorded by hand on copies of the tree before this harness existed.
    _m("ranked-from-top-block-one-short", "cli.py",
       "self._grid[lo : lo + 2]", "self._grid[lo : lo + 2 - (lo > 0)]"),
    _m("within-limit-no-bound-update", "ranking.py", "upper[i] += step", "upper[i] += 0"),
    _m("within-limit-recount-against-limit-plus-one", "ranking.py",
       "for j in order])\n            if upper[i] > limit:",
       "for j in order])\n            if upper[i] > limit + 1:"),
    _m("csv-row-rank-and-entropy-swapped", "cli.py",
       '"%%s,%%s,%%.6f,%d\\n"', '"%%s,%%s,%d,%%.6f\\n"'),
    _m("json-row-rank-and-entropy-swapped", "cli.py",
       '("%%s", "%%s", "%%r", "%d")', '("%%s", "%%s", "%d", "%%r")'),
    _m("rank-column-read-in-reverse", "cli.py",
       "map(by_rank.__getitem__, ranks)", "map(by_rank.__getitem__, ranks[::-1])"),
    _m("tau-total-minus-d", "ranking.py",
       "tau = (total - 2 * discordant)", "tau = (total - discordant)"),
    _m("label-lists-quote-none", "cli.py",
       'csv.writer(_Echo(), lineterminator="")',
       'csv.writer(_Echo(), lineterminator="", quoting=csv.QUOTE_NONE, escapechar="\\\\")'),
    _m("reading-keeps-byte-order-mark", "cli.py", 'encoding="utf-8-sig"', 'encoding="utf-8"'),
    _m("reading-ends-lines-at-lf-only", "cli.py",
       "newline: str | None = None)", 'newline: str | None = "\\n")'),
    _m("comment-only-a-bare-hash", "graph.py",
       'tokens[0].startswith("#")', 'tokens[0] == "#"'),
    _m("reading-newline-empty", "cli.py",
       "newline: str | None = None)", 'newline: str | None = "")',
       equivalent="text mode still ends a line at LF, CRLF or a lone CR and only keeps"
       " the ending in the line, which str.split() drops, so every edge list reads alike"),
    # ranking.py: comparisons, bounds, counts, min/max.
    _m("int-label-length-exclusive", "ranking.py",
       "len(label) <= _MAX_INT_LABEL", "len(label) < _MAX_INT_LABEL"),
    _m("rank-ascending", "ranking.py",
       "__getitem__, reverse=True", "__getitem__, reverse=False"),
    _m("grid-refuses-zero", "ranking.py",
       "if not math.isfinite(q) or q < 0.0:", "if not math.isfinite(q) or q <= 0.0:"),
    _m("grid-allows-a-repeated-point", "ranking.py", "if not a < b:", "if not a <= b:"),
    _m("sweep-accepts-zero-jobs", "ranking.py", "    if jobs < 1:", "    if jobs < 0:"),
    _m("detection-needs-three-points", "ranking.py", "if len(grid) < 2:", "if len(grid) < 3:"),
    _m("one-point-suffix-counts", "ranking.py",
       "if suffix_length >= 2:", "if suffix_length >= 1:"),
    _m("p-value-one-point-late", "ranking.py",
       "p_value=result.grid[-suffix_length],", "p_value=result.grid[-suffix_length + 1],"),
    _m("limit-of-one-allows-none", "ranking.py", "if limit < 1:", "if limit < 2:"),
    _m("step-at-limit-refused", "ranking.py", "if step > limit:", "if step >= limit:"),
    _m("bound-starts-at-one", "ranking.py", "upper.append(0)", "upper.append(1)",
       equivalent="a bound only decides when a count is redone exactly; one too high"
       " recounts more often and decides alike"),
    _m("insertion-count-plus-one", "ranking.py",
       "discordant += i - at", "discordant += i - at + 1"),
    _m("merge-below-off-by-one", "ranking.py",
       "len(right) * (len(right) - 1) // 2", "len(right) * (len(right) + 1) // 2"),
    _m("odd-run-carries-the-first", "ranking.py",
       "merged.append(runs[-1])", "merged.append(runs[0])"),
    _m("tau-of-two-is-one", "ranking.py",
       "    if n < 2:\n        return 1.0", "    if n < 3:\n        return 1.0"),
    _m("tau-clamp-min-max-swapped", "ranking.py",
       "return min(1.0, max(-1.0, tau))", "return max(1.0, min(-1.0, tau))"),
    _m("relaxed-tau-maximum-refused", "ranking.py",
       "if not 0.0 < relaxed_tau <= MAX_RELAXED_TAU:\n        raise ValueError(\n",
       "if not 0.0 < relaxed_tau < MAX_RELAXED_TAU:\n        raise ValueError(\n"),
    _m("limit-counts-n-plus-one", "ranking.py",
       "(n * (n - 1) // 2) / 2)", "(n * (n + 1) // 2) / 2)"),
    _m("overlap-over-max-of-k-and-n", "ranking.py",
       "capped = min(k, n)", "capped = max(k, n)"),
    _m("grid-accepts-zero-step", "ranking.py", "if step <= 0:", "if step < 0:"),
    _m("grid-counts-one-more", "ranking.py",
       "to_integral_value(ROUND_FLOOR) + 1", "to_integral_value(ROUND_FLOOR) + 2"),
    _m("grid-cap-inclusive", "ranking.py",
       "if total > MAX_GRID_POINTS:", "if total >= MAX_GRID_POINTS:"),
    _m("refine-resolution-inclusive", "ranking.py",
       "while hi - lo > REFINE_RESOLUTION:", "while hi - lo >= REFINE_RESOLUTION:"),
    _m("refine-skips-the-second-point", "ranking.py",
       "    if index == 0:\n        return report.p_value",
       "    if index <= 1:\n        return report.p_value"),
    _m("top-k-min", "ranking.py", "self.order[: max(0, k)]", "self.order[: min(0, k)]"),
    _m("eleven-differing-labels", "ranking.py", "difference[:10]", "difference[:11]"),
    # cli.py
    _m("q-zero-refused", "cli.py", "args.q >= 0.0", "args.q > 0.0"),
    _m("relaxed-tau-zero-passed-on", "cli.py",
       "not 0.0 < relaxed_tau <= MAX_RELAXED_TAU", "not 0.0 <= relaxed_tau <= MAX_RELAXED_TAU"),
    _m("jobs-zero-passed-on", "cli.py",
       "if jobs is not None and jobs < 1:", "if jobs is not None and jobs < 0:"),
    _m("job-count-max", "cli.py", "min(requested, cpus)", "max(requested, cpus)"),
    _m("ranked-from-top-stride-three", "cli.py",
       "range(0, len(self._grid), 2)", "range(0, len(self._grid), 3)"),
    _m("table-template-one-row-short", "cli.py",
       "range(1, graph.node_count + 1)", "range(1, graph.node_count)"),
    _m("json-separator-from-the-third-block", "cli.py", "templates[k > 0]", "templates[k > 1]"),
    _m("stable-top-nine", "cli.py", "stable_ranking.top(10)", "stable_ranking.top(9)"),
    _m("rank-file-one-rank-more", "cli.py",
       "range(1, len(rows))))", "range(1, len(rows) + 1)))"),
    _m("states-row-extra-cells-accepted", "cli.py", "if len(row) != 2:", "if len(row) < 2:"),
    _m("negative-rank-malformed", "cli.py",
       'r.removeprefix("-").isdecimal()', "r.isdecimal()"),
    _m("self-loop-warning-inverted", "cli.py",
       "if graph.self_loops_dropped:", "if not graph.self_loops_dropped:"),
    _m("broken-pipe-status-140", "cli.py", "return 141", "return 140"),
    # graph.py
    _m("self-loops-counted-twice", "graph.py", "dropped += 1", "dropped += 2"),
    _m("duplicates-counted-one-more", "graph.py",
       "len(ends) // 2 - sum(graph.degrees) // 2", "len(ends) // 2 - sum(graph.degrees) // 2 + 1"),
    _m("neighbour-range-inclusive", "graph.py",
       "if not 0 <= j < len(self.labels):", "if not 0 <= j <= len(self.labels):"),
    _m("one-label-line-passes", "graph.py", "if len(tokens) != 2:", "if len(tokens) > 2:"),
    _m("line-numbers-from-zero", "graph.py",
       "enumerate(lines, start=1)", "enumerate(lines, start=0)"),
    _m("asymmetry-reported-at-max", "graph.py",
       "k = min(set(incoming)", "k = max(set(incoming)"),
    _m("edge-count-plus-one", "graph.py",
       "return sum(self.degrees) // 2", "return sum(self.degrees) // 2 + 1"),
    # entropy.py
    _m("entropic-index-zero-refused", "entropy.py",
       "if not math.isfinite(q) or q < 0.0:", "if not math.isfinite(q) or q <= 0.0:"),
    _m("zero-share-accepted", "entropy.py", "x <= 0.0", "x < 0.0"),
    _m("node-range-inclusive", "entropy.py",
       "if not 0 <= node < graph.node_count:", "if not 0 <= node <= graph.node_count:"),
    _m("degree-shortcut-at-one", "entropy.py", "if q == 0.0:", "if q == 1.0:"),
    _m("ego-size-plus-one", "entropy.py",
       "groups.append((degree + 1,", "groups.append((degree + 2,"),
    _m("isolated-counts-leaves", "entropy.py",
       "isolated = degrees.count(0)", "isolated = degrees.count(1)"),
    _m("tsallis-denominator-negated", "entropy.py", "repeat(q - 1.0)", "repeat(1.0 - q)"),
    _m("one-point-entropy-keeps-minus-zero", "entropy.py",
       "return entropy + 0.0", "return entropy - 0.0"),
    _m("shannon-band-exclusive", "entropy.py",
       "abs(q - 1.0) <= Q_ONE_TOLERANCE", "abs(q - 1.0) < Q_ONE_TOLERANCE",
       equivalent="q - 1.0 is exact near 1, a multiple of 2**-53, and the double 1e-9 is"
       " not, so |q - 1| never equals the tolerance"),
    # _workers.py
    _m("item-to-next-worker", "_workers.py", "w = k % workers", "w = (k + 1) % workers"),
    _m("worker-one-runs-here", "_workers.py",
       "yield fn(item) if w == 0 else", "yield fn(item) if w == 1 else"),
    _m("error-str-read-as-a-result", "_workers.py",
       "if isinstance(result, str):", "if isinstance(result, BaseException):"),
    _m("early-end-read-as-empty", "_workers.py",
       'raise ChildProcessError(f"worker {worker} ended before sending item {k}") from None',
       'return b""'),
    _m("children-left-unreaped", "_workers.py",
       "for pid in pids:\n            os.waitpid(pid, 0)",
       "for pid in ():\n            os.waitpid(pid, 0)"),
    # Speed paths, and rules whose deletion once failed no test.
    _m("over-reindexes-its-own-labels", "ranking.py",
       "if self.labels is labels or self.labels == labels:\n            return self\n        ",
       ""),
    _m("sweep-forks-before-ego-shares", "ranking.py",
       "    graph._ego_shares  # built here, before the fork, for the workers to inherit\n", ""),
    _m("sweep-forks-before-label-order", "ranking.py", "    _label_order(labels)\n", ""),
    _m("scores-skip-the-q-check", "entropy.py",
       "    q = _checked_entropic_index(q)\n    if q == 0.0:", "    if q == 0.0:"),
    _m("empty-vector-check-deleted", "entropy.py",
       '    if not p:\n        raise ValueError("probability vector is empty")\n', ""),
    _m("field-size-limit-left-raised", "cli.py",
       "    finally:\n        csv.field_size_limit(limit)", "    finally:\n        pass"),
    _m("no-affinity-call-one-cpu", "cli.py", "cpus = os.cpu_count() or 1", "cpus = 1"),
]

# Differential and golden tests kill most mutants, so they run first.
FIRST = ["tests/test_differential.py", "tests/test_golden.py"]


def suite_files(tree: Path) -> list[str]:
    found = sorted(
        path.relative_to(tree).as_posix()
        for pattern in ("tests/test_*.py", "perfbench/tests/test_*.py")
        for path in tree.glob(pattern)
    )
    rest = [name for name in found if name not in FIRST and name != "tests/test_mutants.py"]
    return FIRST + rest


def failures(output: str) -> list[str]:
    """Test ids of pytest's short summary lines (``-rfE``)."""
    ids = []
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            ids.append(rest.split(" - ", 1)[0])
    return ids


def suite_env(tree: Path) -> dict:
    """The environment that imports ``tree``'s ``src`` alone."""
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def collect(tree: Path) -> list[str]:
    """The test functions of the suite in ``tree``, parameter ids dropped."""
    command = [sys.executable, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [*command, *suite_files(tree)], cwd=tree, env=suite_env(tree), text=True,
        capture_output=True,
    )
    return list(dict.fromkeys(line.split("[")[0] for line in proc.stdout.splitlines()
                              if "::" in line))


def summary(records: list[dict], functions: list[str]) -> dict:
    """The record ``--matrix`` ends with: mutants by outcome, seconds of
    suite runs, and for each test function (of ``functions`` and those
    that failed) the mutants that no other test function kills."""
    counts = dict.fromkeys(("killed", "survived", "equivalent", "timeout"), 0)
    sole_kills = {function: [] for function in functions}
    for record in records:
        status = record["status"]
        counts["equivalent" if status != "killed" and record["equivalent"] else status] += 1
        killers = {test.split("[")[0] for test in record["failures"]}
        for function in killers:
            sole_kills.setdefault(function, [])
        if len(killers) == 1:
            sole_kills[killers.pop()].append(record["mutant"])
    seconds = round(sum(record["seconds"] for record in records), 1)
    return {"summary": counts, "seconds": seconds, "sole_kills": sole_kills}


def run_suite(tree: Path, matrix: bool) -> tuple[str, list[str]]:
    """("passed" | "failed" | "timeout", failing test ids) of the suite in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider"]
    command += [] if matrix else ["-x"]
    proc = subprocess.Popen(
        [*command, *suite_files(tree)], cwd=tree, env=suite_env(tree), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES,) * 2),
    )
    try:
        output, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and whatever it started
        proc.communicate()
        return "timeout", []
    if proc.returncode not in (0, 1, 2):  # 2: a collection error, under -x
        raise SystemExit(f"pytest exited {proc.returncode} in {tree}:\n{output}")
    return ("passed" if proc.returncode == 0 else "failed"), failures(output)


def run(mutant: Mutant, tree: Path, matrix: bool) -> dict:
    target = tree / "src" / "lsentropy" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.original) != 1:
        raise SystemExit(f"{mutant.name}: its text does not occur exactly once in {mutant.path}")
    target.write_text(text.replace(mutant.original, mutant.replacement), encoding="utf-8")
    start = time.monotonic()
    try:
        outcome, failed = run_suite(tree, matrix)
    finally:
        target.write_text(text, encoding="utf-8")
    status = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
    record = {
        "mutant": mutant.name,
        "file": f"src/lsentropy/{mutant.path}",
        "status": status,
        "first_failure": failed[0] if failed else None,
        "seconds": round(time.monotonic() - start, 1),
        "equivalent": mutant.equivalent,
    }
    if matrix:
        record["failures"] = failed
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    parser.add_argument(
        "--matrix", action="store_true", help="no -x; list every failing test, then a summary"
    )
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = set(args.only or ()) - by_name.keys()
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [by_name[name] for name in args.only] if args.only else MUTANTS
    ignored = shutil.ignore_patterns(".git", ".work", "__pycache__", ".pytest_cache", "*.egg-info")
    escaped = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=ignored)
        if not args.only:
            outcome, failed = run_suite(tree, matrix=False)
            record = {"mutant": None, "status": outcome, "first_failure": (failed or [None])[0]}
            print(json.dumps(record), flush=True)
            if outcome != "passed":
                return 1
        records = []
        for mutant in chosen:
            record = run(mutant, tree, args.matrix)
            records.append(record)
            print(json.dumps(record, ensure_ascii=False), flush=True)
            escaped += record["status"] != "killed" and not mutant.equivalent
        if args.matrix:
            print(json.dumps(summary(records, collect(tree)), ensure_ascii=False), flush=True)
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
