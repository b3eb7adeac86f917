"""A plain reference model of the five ``lse`` subcommands.

Each command function returns the bytes ``lse`` writes for it. The model
reads an edge-list file by README's input rules, builds the graph with
``load_edge_list`` and scores each node with the per-node
``local_structure_entropy``; it restates everything else by its
definition, with none of the implementation's shortcuts: one ``sorted``
per q, a full sweep of the grid, detection and refine from all-pairs
discordant counts, each a Fenwick-tree count rather than an O(n^2) pair
loop, and ``csv.writer`` and one ``json.dumps`` over whole rows. The
library tests check the discordant count, Kendall tau and relaxed
detection against these same functions. ``REFUSALS`` holds every input
``lse`` refuses, with its exit status and the one ``error:`` line it
writes; ``CASES`` holds fixed inputs whose bytes ``lse`` must write as
the model does.
"""
import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from lsentropy import karate_edges_path, load_edge_list, local_structure_entropy

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
    """Label pairs that rankings ``a`` and ``b`` order oppositely, one
    Fenwick-tree query per label of ``a``: how many labels before it in
    ``a`` come after it in ``b``."""
    place = {label: i for i, label in enumerate(b)}
    tree = [0] * (len(a) + 1)
    count = 0
    for seen, label in enumerate(a):
        i = place[label] + 1
        while i:  # earlier labels at or before it in b
            count -= tree[i]
            i -= i & -i
        count += seen
        i = place[label] + 1
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return count


def kendall_tau(a, b):
    """Kendall tau of rankings ``a`` and ``b`` by tau-b's float expression,
    clamped to [-1, 1]; identical rankings read just below 1 at some n,
    and rankings of fewer than two labels read 1.0."""
    if len(a) < 2:
        return 1.0
    total = len(a) * (len(a) - 1) // 2
    tau = (total - 2 * discordant(a, b)) / math.sqrt(total) / math.sqrt(total)
    return min(1.0, max(-1.0, tau))


def limit(n, relaxed_tau):
    """Discordant pairs two stable rankings may hold: 0 in exact mode, else
    the most whose tau, 1 - 4c / (n(n-1)), reaches 1 - T, with T read as the
    decimal it prints as."""
    if relaxed_tau is None:
        return 0
    return math.floor(Fraction(repr(relaxed_tau)) * n * (n - 1) / 4)


def detect(grid, rankings, relaxed_tau):
    """(p_value, stable ranking, suffix length): the longest suffix of the
    rankings at the ``grid`` points whose every pair is within the limit."""
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
    graph, grid = load(path), grid_points(grid_spec)
    _, stable, _ = detect(grid, [ranking(graph, q) for q in grid], relaxed_tau)
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
    p_value, stable, suffix_length = detect(grid, [ranking(graph, q) for q in grid], relaxed_tau)
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
    fields = {"kendall_tau": kendall_tau(a, b)}
    for k in (5, 10):
        top = min(k, len(a))
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


_TRIANGLE = {"t.edges": b"1 2\n2 3\n3 1\n"}
_RANKS = b"label,degree,entropy,rank\n"
_OK = {"ok.csv": _RANKS + b"x,1,0.5,1\ndupe,1,0.5,2\n"}
_T = "--input {dir}/t.edges"  # a triangle
_ABSENT = "--input {dir}/absent.edges"


def _row(argv, line, files=None):
    """``lse argv``, split at spaces, refused with ``line``: status 2 when
    argparse refuses it, that is when ``line`` starts with "lse"."""
    files = _TRIANGLE if files is None else files
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

# Every refusal, keyed "family/case" or by a case alone; ``test_cli.py``
# runs each row once: a family under a test of its own, with the case as
# the test id, any other row under ``test_lse_refuses``, with its key.
REFUSALS = {
    "negative-q": _row(f"rank {_T} --q -1", _Q),
    "q-nan": _row(f"rank {_T} --q nan", _Q),
    "q-inf": _row(f"rank {_T} --q inf", _Q),
    "q-not-a-number": _row(
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
    "grid-infinite": _row(f"sweep {_T} --grid 0:inf:1", _SEGMENT.format("0:inf:1")),
    "grid-of-two-parts": _row(f"sweep {_T} --grid 0:1", _SEGMENT.format("0:1")),
    "grid-negative-point": _row(
        f"sweep {_T} --grid=-1,0", "error: grid values must be finite and >= 0, got -1.0"
    ),
    "grid-zero-step": _row(
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
    "relaxed-tau-zero": _row(f"threshold {_T} --relaxed-tau 0", _TAU),
    "relaxed-tau-negative": _row(f"threshold {_T} --relaxed-tau=-0.05", _TAU),
    "relaxed-tau-nan": _row(f"states {_T} --relaxed-tau nan", _TAU),
    "relaxed-tau-past-max": _row(f"states {_T} --relaxed-tau 0.06", _TAU),
    "relaxed-tau-not-a-number": _row(
        f"threshold {_T} --relaxed-tau x",
        "lse threshold: error: argument --relaxed-tau: invalid float value: 'x'",
    ),
    "jobs-zero": _row(f"sweep {_T} --jobs 0", _JOBS),
    "jobs-negative": _row(f"sweep {_T} --jobs -1", _JOBS),
    "jobs-not-an-integer": _row(
        f"sweep {_T} --jobs x", "lse sweep: error: argument --jobs: invalid int value: 'x'"
    ),
    # Only sweep takes --jobs.
    **{
        f"jobs-for-{c}": _row(
            f"{c} {_T} --jobs 2", "lse: error: unrecognized arguments: --jobs 2"
        )
        for c in ("threshold", "states")
    },
    "missing-input": _row(
        f"rank {_ABSENT} --q 1",
        "error: [Errno 2] No such file or directory: '{dir}/absent.edges'", {},
    ),
    "empty-input": _input("sweep", b"# no data\n", "no edges found in input"),
    "input-of-no-bytes": _input("rank --q 1", b"", "no edges found in input"),
    "input-of-self-loops": _input("states", b"a a\n", "no edges found in input"),
    "malformed-input": _input(
        "rank --q 1", b"a b\na b c\n", "line 2: expected 2 labels, found 3: 'a b c'"
    ),
    "input-line-of-one-label": _input(
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
    "compare-missing-file": _row(
        "compare {dir}/ok.csv {dir}/absent.csv",
        "error: [Errno 2] No such file or directory: '{dir}/absent.csv'", _OK,
    ),
}


class Case(NamedTuple):
    """A run ``lse`` completes: ``files`` (name to bytes) are written to a
    fresh directory, ``{dir}`` in ``argv`` reads as that directory, and the
    run writes the model's bytes with nothing on stderr."""

    files: dict
    argv: tuple


_KARATE = karate_edges_path().read_bytes()
_K5 = "".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)).encode()


def _case(argv, edges=None):
    """``lse argv``, split at spaces, with ``--input`` the triangle
    ``{dir}/t.edges``, or ``{dir}/in.edges`` holding ``edges``."""
    if edges is None:
        return Case(_TRIANGLE, tuple(f"{argv} {_T}".split(" ")))
    return Case({"in.edges": edges}, tuple(f"{argv} --input {{dir}}/in.edges".split(" ")))


# Fixed inputs, keyed "family/case" or by a case alone; ``test_cli.py``
# checks each once against the model's bytes: a family under a test of its
# own, with the case as the test id, any other row under
# ``test_lse_writes_the_model_bytes``, with its key.
CASES = {
    "rank-triangle": _case("rank --q 1"),
    # -0 reads as 0.0, in the echoed q and in every grid point.
    "rank-minus-zero/csv": _case("rank --q -0"),
    "rank-minus-zero/json": _case("rank --q -0 --format json"),
    "sweep-minus-zero/-0,1": _case("sweep --grid=-0,1"),
    "sweep-minus-zero/-0:1:0.5": _case("sweep --grid=-0:1:0.5 --format json"),
    "sweep-karate": _case("sweep", _KARATE),
    "sweep-karate-q0-q1": _case("sweep --grid 0,1", _KARATE),
    "sweep-single-edge": _case("sweep --grid 0,1,2", b"a b\n"),
    # The JSON config echoes no --jobs.
    **{
        f"sweep-json-jobs-{jobs}": _case(f"sweep --grid 0,1 --format json --jobs {jobs}", _KARATE)
        for jobs in (1, 2)
    },
    "threshold-k5": _case("threshold", _K5),
    "threshold-star": _case("threshold", b"".join(b"c l%d\n" % i for i in range(6))),
    "threshold-undetected": _case("threshold --grid 0,5,10", _KARATE),
    "threshold-refine": _case("threshold --refine", _KARATE),
    "threshold-relaxed": _case("threshold --relaxed-tau 0.05", _KARATE),
    "states-path": _case("states --grid 0,1,2", b"a b\nb c\n"),
    "states-k5": _case("states --grid 0,1,2", _K5),
    # Exact detection finds 2 and 3 apart; T = 0.05 takes them as one.
    "states-off-grid/exact": _case("states --grid 2,3", _KARATE),
    "states-off-grid/relaxed": _case("states --grid 2,3 --relaxed-tau 0.05", _KARATE),
    # On this grid exact detection finds no stable suffix; T = 0.05 does.
    "states-to-8-exact": _case("states --grid 0:8:0.5", _KARATE),
    "states-to-8-relaxed": _case("states --grid 0:8:0.5 --relaxed-tau 0.05", _KARATE),
    "states-to-8-relaxed-json": _case(
        "states --grid 0:8:0.5 --relaxed-tau 0.05 --format json", _KARATE
    ),
    # A leading UTF-8 byte-order mark is not part of the first label.
    "byte-order-mark/rank": _case("rank --q 1", b"\xef\xbb\xbf" + _KARATE),
    "byte-order-mark/threshold": _case("threshold", b"\xef\xbb\xbf" + _KARATE),
}
