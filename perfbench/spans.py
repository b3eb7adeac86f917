"""In-memory spans, self time, and ``python -X importtime`` parsing.

A span is one timed call at a layer boundary: name, start, end, parent
span id and run id. Spans stay in a list and are written out once, when
the traced process ends.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name, note=None):
        """``fn`` with a span around each call. ``name`` may be a function of
        the call's arguments; ``note(span, result, *args, **kwargs)`` may add
        counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(record, result, *args, **kwargs)
                return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans}, handle)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = duration(s) - covered
    return result


def importtime_seconds(stderr_text: str, package: str, dependency: str) -> tuple[float, float]:
    """Cumulative import time of ``package`` and of the outermost imports of
    ``dependency`` (it and its submodules), from ``-X importtime`` output."""
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[1].strip().isdigit():
            continue  # the column header
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1]) * 1e-6))

    def belongs(name: str, top: str) -> bool:
        return name == top or name.startswith(top + ".")

    total = dep = 0.0
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before parents; walking backwards visits
    # every parent before its children.
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == package and not ancestors:
            total += cumulative
        if belongs(name, dependency) and not any(
            belongs(a, dependency) for _, a in ancestors
        ):
            dep += cumulative
        ancestors.append((depth, name))
    return total, dep
