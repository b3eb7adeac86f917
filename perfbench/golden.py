"""Golden sha256 digests of output bytes.

golden.json holds the digests of every workload's output files for the
seeds listed there, and of all five subcommands on the bundled karate
graph in CSV and JSON. They were recorded at commit b6ce5d0,
so a refactor can prove its output byte-identical. To record them again
(only when an output change is intended):

    python3 perfbench/golden.py SEED...
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
KARATE = "src/lsentropy/data/karate.edges"


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def karate_calls(out_dir: str) -> list[tuple[str, list[str]]]:
    """(output file, lse arguments) for each subcommand and format, in an
    order where compare's inputs already exist. Paths are relative to the
    repository root, because JSON output echoes them."""
    calls = []
    for fmt in ("csv", "json"):
        for command, extra in (
            ("rank", ["--q", "1", "--input", KARATE]),
            ("sweep", ["--input", KARATE]),
            ("threshold", ["--refine", "--input", KARATE]),
            ("states", ["--input", KARATE]),
            (
                "compare",
                [f"{out_dir}/rank.csv", f"{out_dir}/states.csv", "--state-b", "stable"],
            ),
        ):
            name = f"{command}.{fmt}"
            calls.append(
                (name, [command, *extra, "--format", fmt, "--output", f"{out_dir}/{name}"])
            )
    return calls


def record(seeds: list[int]) -> None:
    import run

    if not run.enter_root():
        sys.exit(2)
    table = load() if GOLDEN_PATH.exists() else {}
    table["karate"] = run.karate_digests()
    for name, workload in run.WORKLOADS.items():
        per_seed = table.setdefault(name, {})
        for seed in seeds:
            inputs = run.prepare(workload, seed)
            execution = run.execute(workload, inputs)
            if not execution.ok:
                sys.exit(f"{name} seed {seed}: lse failed")
            per_seed[str(seed)] = execution.digests
            print(f"{name} seed {seed}: recorded", flush=True)
        table[name] = dict(sorted(per_seed.items(), key=lambda kv: int(kv[0])))
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record([int(s) for s in sys.argv[1:]])
