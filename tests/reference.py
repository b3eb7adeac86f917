"""A plain reference model of the five ``lse`` subcommands.

Each command function returns the bytes ``lse`` writes for it. The model
reads an edge-list file by README's input rules, builds the graph with
``load_edge_list`` and scores each node with the per-node
``local_structure_entropy``; it restates everything else by its
definition, with none of the implementation's shortcuts: one ``sorted``
per q, a full sweep of the grid, detection and refine from pairwise
counts, Kendall tau from an O(n^2) count, and ``csv.writer`` and one
``json.dumps`` over whole rows. ``REFUSALS`` holds every input ``lse``
refuses, with its exit status and the one ``error:`` line it writes.
"""
import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from lsentropy import load_edge_list, local_structure_entropy

DEFAULT_GRID = "0:2:0.1,2.2:4:0.2,4.5:10:0.5"
REFINE_RESOLUTION = 0.1
STATES = ("q0", "q1", "stable")


def label_key(label):
    """README's tie rule: a label of at most 640 characters that ``int()``
    accepts sorts as that integer, ahead of every other label; labels of
    equal integer value, and all the others, ascend by their strings."""
    if len(label) <= 640:
        try:
            return (0, int(label), label)
        except ValueError:
            pass
    return (1, 0, label)


def grid_points(spec):
    """The q values of a grid spec: each ``start:stop:step`` range in exact
    decimal steps up to ``stop``; ``-0`` reads as 0.0."""
    points = []
    for segment in spec.split(","):
        parts = [Decimal(part) for part in segment.split(":")]
        start, stop, step = parts if len(parts) == 3 else (parts[0], parts[0], 1)
        k = 0
        while start + k * step <= stop:
            points.append(float(start + k * step) + 0.0)
            k += 1
    return points


def load(path):
    """README's input format, restated: UTF-8, a leading byte-order mark
    dropped, lines ending at LF, CRLF or CR, blank lines and lines whose
    first label starts with ``#`` skipped; ``load_edge_list`` builds the
    graph from the other lines' label pairs, one LF line each."""
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8").removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    pairs = [line.split() for line in lines]
    edges = [pair for pair in pairs if pair and not pair[0].startswith("#")]
    return load_edge_list("".join(f"{u} {v}\n" for u, v in edges))


@lru_cache(maxsize=4096)
def table(graph, q):
    """(label, degree, entropy) of every node, most influential first:
    descending entropy, ties by ``label_key``."""
    rows = [
        (label, graph.degrees[i], local_structure_entropy(graph, i, q))
        for i, label in enumerate(graph.labels)
    ]
    return sorted(rows, key=lambda row: (-row[2], label_key(row[0])))


def ranking(graph, q):
    return [row[0] for row in table(graph, q)]


def discordant(a, b):
    """Label pairs that rankings ``a`` and ``b`` order oppositely, counted
    pair by pair."""
    place = {label: i for i, label in enumerate(b)}
    return sum(place[x] > place[y] for i, x in enumerate(a) for y in a[i + 1 :])


def limit(n, relaxed_tau):
    """Discordant pairs two stable rankings may hold: 0 in exact mode, else
    the most whose tau, 1 - 4c / (n(n-1)), reaches 1 - T, with T read as the
    decimal it prints as."""
    if relaxed_tau is None:
        return 0
    return math.floor(Fraction(repr(relaxed_tau)) * n * (n - 1) / 4)


def detect(graph, grid, relaxed_tau):
    """(p_value, stable ranking, suffix length): the longest suffix of the
    grid's rankings whose every pair is within the limit."""
    rankings = [ranking(graph, q) for q in grid]
    most = limit(len(rankings[-1]), relaxed_tau)
    start = len(grid) - 1
    while start > 0 and all(
        discordant(rankings[start - 1], later) <= most for later in rankings[start:]
    ):
        start -= 1
    if start == len(grid) - 1:
        return None, None, 1
    return grid[start], rankings[-1], len(grid) - start


def refine(graph, grid, relaxed_tau, p_value, stable):
    """Bisect from the grid point below p_value to p_value, keeping ``hi``
    at a q whose ranking is within the limit of the stable one."""
    if p_value is None:
        return None
    index = grid.index(p_value)
    if index == 0:
        return p_value
    lo, hi = grid[index - 1], p_value
    while hi - lo > REFINE_RESOLUTION:
        mid = (lo + hi) / 2.0
        if discordant(ranking(graph, mid), stable) <= limit(len(stable), relaxed_tau):
            hi = mid
        else:
            lo = mid
    return hi


def states_orders(path, grid_spec, relaxed_tau):
    graph = load(path)
    _, stable, _ = detect(graph, grid_points(grid_spec), relaxed_tau)
    return {"q0": ranking(graph, 0.0), "q1": ranking(graph, 1.0), "stable": stable}


def _csv(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _line(labels):
    """A label list as one CSV line, the cell that holds it."""
    return _csv([labels])[:-1]


def _emit(command, config, header, rows, fields):
    """CSV of ``header`` and ``rows``, or JSON of the echoed ``config`` and
    ``fields``, as UTF-8 bytes."""
    if config["format"] == "csv":
        return _csv([header, *rows]).encode()
    payload = {"command": command, "config": {"command": command, **config}, **fields}
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode()


def _table(command, config, header, blocks):
    """A table: ``blocks`` of (q, rows by rank) under a four-cell header."""
    records = []
    for q, rows in blocks:
        for position, (label, degree, entropy) in enumerate(rows, start=1):
            cells = (q, label) if header[0] == "q" else (label, degree)
            records.append(dict(zip(header, (*cells, entropy, position))))
    rows = [(a, b, f"{e:.6f}", r) for a, b, e, r in map(dict.values, records)]
    return _emit(command, config, header, rows, {"rows": records})


def rank(path, q, fmt):
    q = float(q) + 0.0
    config = {"input": path, "format": fmt, "q": q}
    blocks = [(q, table(load(path), q))]
    return _table("rank", config, ("label", "degree", "entropy", "rank"), blocks)


def sweep(path, grid_spec, fmt):
    graph = load(path)
    blocks = [(q, table(graph, q)) for q in grid_points(grid_spec)]
    config = {"input": path, "format": fmt, "grid": grid_spec}
    return _table("sweep", config, ("q", "label", "entropy", "rank"), blocks)


def threshold(path, grid_spec, relaxed_tau, do_refine, fmt):
    graph, grid = load(path), grid_points(grid_spec)
    p_value, stable, suffix_length = detect(graph, grid, relaxed_tau)
    top10 = stable[:10] if stable else None
    fields = {"p_value": p_value, "suffix_length": suffix_length, "stable_top10": top10}
    rows = [("p_value", "null" if p_value is None else p_value)]
    if do_refine:
        refined = refine(graph, grid, relaxed_tau, p_value, stable)
        fields["refined_p_value"] = refined
        rows.append(("refined_p_value", "null" if refined is None else refined))
    rows.append(("suffix_length", suffix_length))
    rows.append(("stable_top10", _line(top10) if top10 else "null"))
    config = {
        "input": path, "format": fmt, "grid": grid_spec,
        "refine": do_refine, "relaxed_tau": relaxed_tau,
    }
    return _emit("threshold", config, ("field", "value"), rows, fields)


def states(path, grid_spec, relaxed_tau, fmt):
    orders = states_orders(path, grid_spec, relaxed_tau)
    rows = [(f"Order_{s}", _line(orders[s]) if orders[s] else "none") for s in STATES]
    fields = {f"order_{s}": orders[s] for s in STATES}
    config = {"input": path, "format": fmt, "grid": grid_spec, "relaxed_tau": relaxed_tau}
    return _emit("states", config, ("state", "order"), rows, fields)


def compare(a, b, config):
    """``lse compare`` of rankings ``a`` and ``b``, the label lists its two
    files hold; ``config`` echoes its arguments in the CLI's order."""
    n = len(a)
    total = n * (n - 1) // 2
    tau = (total - 2 * discordant(a, b)) / math.sqrt(total) / math.sqrt(total)
    fields = {"kendall_tau": min(1.0, max(-1.0, tau))}
    for k in (5, 10):
        top = min(k, n)
        fields[f"top{k}_overlap"] = len(set(a[:top]) & set(b[:top])) / top
    return _emit("compare", config, tuple(fields), [fields.values()], fields)


class Refusal(NamedTuple):
    """An input ``lse`` refuses: ``files`` (name to bytes) are written to a
    fresh directory, ``{dir}`` in ``argv`` and ``line`` reads as that
    directory, and the run exits ``status`` with no output and no file
    written. ``line`` is stderr's one line, or for argparse's status 2 the
    line after its usage."""

    files: dict
    argv: tuple
    status: int
    line: str


_RANKS = b"label,degree,entropy,rank\n"
_OK = {"ok.csv": _RANKS + b"x,1,0.5,1\ndupe,1,0.5,2\n"}
_T = "--input {dir}/t.edges"  # a triangle
_ABSENT = "--input {dir}/absent.edges"


def _row(argv, line, files=None):
    """``lse argv``, split at spaces, refused with ``line``: status 2 when
    argparse refuses it, that is when ``line`` starts with "lse"."""
    files = {"t.edges": b"1 2\n2 3\n3 1\n"} if files is None else files
    return Refusal(files, tuple(argv.split(" ")), 1 + line.startswith("lse"), line)


def _input(argv, text, message):
    """``lse argv`` on ``{dir}/in.edges`` holding ``text``."""
    return _row(f"{argv} --input {{dir}}/in.edges", f"error: {{dir}}/in.edges: {message}",
                {"in.edges": text})


def _compare(text, message, options="", name="f.csv", ok=None):
    """``compare`` of file ``name`` holding ``text`` with itself, or with
    ``ok.csv``, a good rank file, read ``ok`` ("first" or "second")."""
    pair = {None: (name, name), "first": ("ok.csv", name), "second": (name, "ok.csv")}[ok]
    argv = " ".join(["compare", *(f"{{dir}}/{file}" for file in pair), options]).rstrip()
    return _row(argv, f"error: {{dir}}/{name}: {message}", {name: text, **(_OK if ok else {})})


_COMMANDS = ("sweep", "threshold", "states")
_Q = "error: --q must be finite and >= 0"
_TAU = "error: --relaxed-tau must lie in (0, 0.05]"
_JOBS = "error: --jobs must be >= 1"
_SEGMENT = "error: bad grid segment '{}'; expected a value or start:stop:step"
_NOT_UTF8 = "not UTF-8 text (byte 0xff: invalid start byte)"
_BAD_RANKS = {
    "repeated-and-negative": (7, 7, -3), "repeated": (1, 1, 2), "past-n": (1, 2, 4),
    "zero": (0, 1, 2), "shifted": (2, 3, 4),
    # lse rank writes no leading zero; int() of the long one depends on
    # the int-string limit.
    "leading-zero": (1, "02", 3), "700-zeros": ("0" * 700 + "1", 2, 3),
}
_BAD_RANK_ROWS = {
    "three-cells": "b,1,0.5", "five-cells": "b,1,1.0,2,extra", "non-integer-rank": "b,1,0.5,two",
    # Spellings of 2 that int() reads and lse rank never writes.
    "plus-sign": "b,1,0.5,+2", "leading-space": "b,1,0.5, 2", "underscore": "b,1,0.5,0_2",
    "arabic-indic-digit": "b,1,0.5,٢",
}
_STATES_TWICE = b'state,order\nOrder_q0,"a,b,c"\nOrder_q1,"a,b,c"\nOrder_q0,"c,b,a"\n'

# Every refusal, keyed "group/case" or by a case alone; ``test_cli.py``
# runs each group, and each case alone, under one test of that name.
REFUSALS = {
    "negative-q": _row(f"rank {_T} --q -1", _Q),
    "lse/q-nan": _row(f"rank {_T} --q nan", _Q),
    "lse/q-inf": _row(f"rank {_T} --q inf", _Q),
    "lse/q-not-a-number": _row(
        f"rank {_T} --q x", "lse rank: error: argument --q: invalid float value: 'x'"
    ),
    # argparse reads a separate spec that starts with "-" as an option.
    **{
        f"grid-with-minus/{c}": _row(
            f"{c} {_T} --grid -0:1:0.5", f"lse {c}: error: argument --grid: expected one argument"
        )
        for c in _COMMANDS
    },
    "bad-grid": _row(
        f"sweep {_T} --grid 2,1 --output {{dir}}/out.csv",
        "error: grid must be strictly increasing (2.0 !< 1.0)",
    ),
    "non-finite-grid": _row(f"sweep {_T} --grid 0:nan:1", _SEGMENT.format("0:nan:1")),
    "lse/grid-infinite": _row(f"sweep {_T} --grid 0:inf:1", _SEGMENT.format("0:inf:1")),
    "lse/grid-of-two-parts": _row(f"sweep {_T} --grid 0:1", _SEGMENT.format("0:1")),
    "lse/grid-negative-point": _row(
        f"sweep {_T} --grid=-1,0", "error: grid values must be finite and >= 0, got -1.0"
    ),
    "lse/grid-zero-step": _row(
        f"threshold {_T} --grid 0:1:0", "error: grid step must be positive in '0:1:0'"
    ),
    # Grids refused before the missing input file is read.
    **{
        f"grid-step/{c}": _row(
            f"{c} {_ABSENT} --grid 0:1:-1", "error: grid step must be positive in '0:1:-1'", {}
        )
        for c in _COMMANDS
    },
    # One point per segment past MAX_GRID_POINTS.
    **{
        f"oversized-grid/{c}": _row(
            f"{c} {_ABSENT} --grid 0:1000000:1,2000000",
            "error: q grid would hold 1000002 points; at most 1000000 are allowed", {},
        )
        for c in _COMMANDS
    },
    **{
        f"short-grid/{c}": _row(
            f"{c} {_ABSENT} --grid 5",
            "error: threshold detection needs a sweep of >= 2 grid points", {},
        )
        for c in ("states", "threshold")
    },
    "relaxed-tau-out-of-range": _row(f"threshold {_T} --relaxed-tau 0.2", _TAU),
    "lse/relaxed-tau-zero": _row(f"threshold {_T} --relaxed-tau 0", _TAU),
    "lse/relaxed-tau-negative": _row(f"threshold {_T} --relaxed-tau=-0.05", _TAU),
    "lse/relaxed-tau-nan": _row(f"states {_T} --relaxed-tau nan", _TAU),
    "lse/relaxed-tau-past-max": _row(f"states {_T} --relaxed-tau 0.06", _TAU),
    "lse/relaxed-tau-not-a-number": _row(
        f"threshold {_T} --relaxed-tau x",
        "lse threshold: error: argument --relaxed-tau: invalid float value: 'x'",
    ),
    "jobs-zero": _row(f"sweep {_T} --jobs 0", _JOBS),
    "lse/jobs-negative": _row(f"sweep {_T} --jobs -1", _JOBS),
    "lse/jobs-not-an-integer": _row(
        f"sweep {_T} --jobs x", "lse sweep: error: argument --jobs: invalid int value: 'x'"
    ),
    # Only sweep takes --jobs.
    **{
        f"lse/jobs-for-{c}": _row(
            f"{c} {_T} --jobs 2", "lse: error: unrecognized arguments: --jobs 2"
        )
        for c in ("threshold", "states")
    },
    "missing-input": _row(
        f"rank {_ABSENT} --q 1",
        "error: [Errno 2] No such file or directory: '{dir}/absent.edges'", {},
    ),
    "empty-input": _input("sweep", b"# no data\n", "no edges found in input"),
    "lse/input-of-no-bytes": _input("rank --q 1", b"", "no edges found in input"),
    "lse/input-of-self-loops": _input("states", b"a a\n", "no edges found in input"),
    "malformed-input": _input(
        "rank --q 1", b"a b\na b c\n", "line 2: expected 2 labels, found 3: 'a b c'"
    ),
    "lse/input-line-of-one-label": _input(
        "threshold", b"a b\r\nc\r\n", "line 2: expected 2 labels, found 1: 'c'"
    ),
    # A byte that does not decode is reported against the file holding it.
    "not-utf8/rank": _input("rank --q 1", b"1 2\n2 \xff3\n", _NOT_UTF8),
    "not-utf8/compare": _compare(
        _RANKS + b"\xff,1,0.500000,1\n", _NOT_UTF8, name="bad.csv", ok="first"
    ),
    "not-utf8/compare-states": _compare(
        b'state,order\nOrder_q0,"1,\xff"\n', _NOT_UTF8, name="bad.csv", ok="second"
    ),
    **{
        f"rank-column/{case}": _compare(
            _RANKS + "".join(f"{label},1,0.5,{r}\n" for label, r in zip("abc", ranks)).encode(),
            "rank column does not hold 1..3 once each",
        )
        for case, ranks in _BAD_RANKS.items()
    },
    **{
        f"rank-row/{case}": _compare(
            _RANKS + f"a,1,0.5,1\n{row}\n".encode(), "malformed ranking row"
        )
        for case, row in _BAD_RANK_ROWS.items()
    },
    # A states row holds its header's 2 fields; the second Order_q0 of the
    # first would otherwise hide a repeated state.
    "states-row/one-cell": _compare(
        b'state,order\nOrder_q0,"a,b"\nOrder_q0\n', "malformed states row"
    ),
    "states-row/three-cells": _compare(b'state,order\nOrder_q0,"a,b",c\n', "malformed states row"),
    **{
        f"state-twice/{s}": _compare(
            _STATES_TWICE, "state 'Order_q0' appears twice", f"--state-a {s} --state-b {s}"
        )
        for s in ("q0", "q1")
    },
    "missing-state": _compare(b'state,order\nOrder_q1,"a,b"\n', "missing row 'Order_q0'"),
    "no-stable-state": _compare(
        b'state,order\nOrder_q0,"b,a"\nOrder_q1,"b,a"\nOrder_stable,none\n',
        "no stable ordering was detected in this file", "--state-a stable",
    ),
    "empty-ranking/empty-file": _compare(b"", "empty CSV"),
    "empty-ranking/header-only-rank": _compare(_RANKS, "the ranking is empty"),
    "empty-ranking/empty-states-cell": _compare(
        b'state,order\nOrder_q0,""\nOrder_q1,a\n', "the ranking is empty"
    ),
    "unknown-header": _compare(
        b"foo,bar\n1,2\n", "unrecognized header 'foo,bar'; expected rank or states CSV"
    ),
    **{
        f"duplicate-label/{case}": _compare(
            text, "ranking contains duplicate labels, first 'dupe'", name="dup.csv", ok=ok
        )
        for case, text, ok in (
            ("rank-second", _RANKS + b"x,1,0,1\ndupe,1,0,2\ndupe,1,0,3\n", "first"),
            ("states-first", b'state,order\nOrder_q0,"x,dupe,dupe"\n', "second"),
        )
    },
    # Labels 1-6 against 7-12: the first 10 that differ are listed.
    "label-mismatch": _row(
        "compare {dir}/a.csv {dir}/b.csv",
        "error: rankings cover different label sets; differing labels: "
        + ", ".join(map(str, range(1, 11))),
        {
            name: _RANKS + b"".join(b"%d,1,0.5,%d\n" % (first + r, r + 1) for r in range(6))
            for name, first in (("a.csv", 1), ("b.csv", 7))
        },
    ),
    "lse/compare-missing-file": _row(
        "compare {dir}/ok.csv {dir}/absent.csv",
        "error: [Errno 2] No such file or directory: '{dir}/absent.csv'", _OK,
    ),
}
