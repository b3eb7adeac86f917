"""A plain reference model of the five ``lse`` subcommands.

Each command function returns the bytes ``lse`` writes for it. The model
reads an edge-list file by README's input rules, builds the graph with
``load_edge_list`` and scores each node with the per-node
``local_structure_entropy``; it restates everything else by its
definition, with none of the implementation's shortcuts: one ``sorted``
per q, a full sweep of the grid, detection and refine from pairwise
counts, Kendall tau from an O(n^2) count, and ``csv.writer`` and one
``json.dumps`` over whole rows.
"""
import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

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
