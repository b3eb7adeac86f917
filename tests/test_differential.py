"""The whole CLI against the reference model, on seeded random cases.

Each seed draws a graph, a grid and options. Every subcommand run on them,
in both formats, must write the bytes ``reference`` computes, and
``compare`` run on the files that ``rank`` and ``states`` wrote must give
the model's bytes for the rankings those files hold. The draws use
``random.Random`` at fixed seeds; a longer seed range may be run by hand
by widening ``SEEDS``.
"""
import random
from decimal import Decimal
from pathlib import Path

import pytest

import reference
from lsentropy.cli import main

SEEDS = range(24)

# Label pieces that a CSV quoter, a % template, a JSON string, a
# byte-order-mark check or the integer tie rule could misread. U+1D7D5 is a
# digit outside the BMP, U+0667 an Arabic-Indic one.
PIECES = ['"', ",", "%", "%s", "'", "\\", "a\ufeffb", "\U0001d7d5", "07", "7", "+7"]
PIECES += ["\u0667", "-3", "1_0", "x"]
# Past the integer rule's 640 characters, and at it.
LONG_LABELS = ["1" * 641, "0" * 639 + "7"]


def draw_labels(rng, n):
    labels = {}
    while len(labels) < n:
        if rng.random() < 0.05:
            labels[rng.choice(LONG_LABELS)] = None
        else:
            labels["".join(rng.choices(PIECES, k=rng.randint(1, 3)))] = None
    return list(labels)


def draw_edge_list(rng, n, ring):
    """``n`` nodes, each on an edge, with some edges repeated either way and
    some self-loops. In a ring every ego is alike, so labels break every tie.
    The file may start with a byte-order mark; its lines end in LF, CRLF or
    a lone CR, separate labels by spaces or tabs, and have blank and ``#``
    lines between them, a ``#`` line holding two labels among them."""
    labels = draw_labels(rng, n)
    if ring:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        pairs = [(i, rng.randrange(i)) for i in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    pairs += [(j, i) for i, j in rng.sample(pairs, min(3, len(pairs)))]
    pairs += [(i, i) for i in rng.sample(range(n), rng.randint(0, 2))]
    rng.shuffle(pairs)
    ends = rng.choice([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])
    lines = []
    for i, j in pairs:
        if rng.random() < 0.1:
            skipped = ["", " \t", "#", f"# {labels[j]}", f"#{labels[i]} {labels[j]}"]
            lines.append(rng.choice(skipped))
        lines.append(labels[i] + rng.choice([" ", "\t", " \t ", "  "]) + labels[j])
    bom = "\ufeff" if rng.random() < 0.3 else ""
    return bom + "".join(line + rng.choice(ends) for line in lines)


def draw_grid(rng, kind):
    """A grid spec by ``kind``: 0, None for the default grid; 1, exactly 2
    points; 2, values and ranges from ``-0``; 3, values and ranges."""
    if kind == 0:
        return None
    at = Decimal(rng.choice(["0", "0.5", "1", "3"]) if kind == 3 else "0")
    step = Decimal(rng.choice(["0.1", "0.25", "0.5", "1", "2"]))
    if kind == 1:
        return rng.choice([f"{at}:{at + step}:{step}", f"{at},{at + step}"])
    segments = []
    for _ in range(rng.randint(1, 3)):
        stop = at + step * rng.randint(0, 12) + rng.choice([0, Decimal("0.05")])
        segments.append(f"{at}:{stop}:{step}" if rng.random() < 0.8 else f"{at}")
        at = stop + Decimal(rng.choice(["0.05", "0.5", "1.5"]))
        step = Decimal(rng.choice(["0.1", "0.25", "0.5", "1", "2"]))
    spec = ("-" if kind == 2 else "") + ",".join(segments)
    return spec if len(reference.grid_points(spec)) >= 2 else draw_grid(rng, kind)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_writes_the_reference_bytes(seed, tmp_path, capsys, jobs_as_requested):
    rng = random.Random(seed)
    # Below 10 nodes relaxed detection allows no discordant pair, so one
    # seed in five draws a small graph.
    n = rng.randint(2, 9) if seed % 5 == 2 else rng.randint(10, 40)
    path = str(tmp_path / "graph.edges")
    Path(path).write_bytes(draw_edge_list(rng, n, ring=seed % 5 == 4).encode())
    spec = draw_grid(rng, kind=seed % 4)
    grid_args = [f"--grid={spec}"] if spec else []  # "=" lets a spec start with "-"
    spec = spec or reference.DEFAULT_GRID
    tau = rng.choice([None, None, "0.05", "0.05", "0.03", "0.01"])
    relaxed_args = ["--relaxed-tau", tau] if tau else []
    tau = tau and float(tau)
    refine = rng.random() < 0.5
    jobs = ["--jobs", str(rng.randint(1, 3))]  # only sweep takes --jobs
    q = rng.choice(["-0", "0", "1", "1.5", "3", str(rng.choice(reference.grid_points(spec)))])
    commands = {
        "rank": (["rank", "--q", q], lambda fmt: reference.rank(path, q, fmt)),
        "sweep": (["sweep", *grid_args, *jobs], lambda fmt: reference.sweep(path, spec, fmt)),
        "threshold": (
            ["threshold", *grid_args, *relaxed_args, *["--refine"] * refine],
            lambda fmt: reference.threshold(path, spec, tau, refine, fmt),
        ),
        "states": (
            ["states", *grid_args, *relaxed_args],
            lambda fmt: reference.states(path, spec, tau, fmt),
        ),
    }
    case = f"seed {seed}, grid {spec!r}, tau {tau}, {jobs}"
    for fmt in ("json", "csv"):  # the CSV files stay for compare
        for name, (argv, model) in commands.items():
            out = tmp_path / f"{name}.csv"
            code = main([*argv, "--input", path, "--format", fmt, "--output", str(out)])
            assert code == 0, (case, argv, capsys.readouterr().err)
            assert out.read_bytes() == model(fmt), (case, argv, fmt)

    orders = reference.states_orders(path, spec, tau)
    rank_order = reference.ranking(reference.load(path), float(q))
    # A rank file ignores its --state option, so any state is drawn for it.
    sides = [("rank.csv", rng.choice(reference.STATES), rank_order)]
    sides += [("states.csv", state, orders[state]) for state in reference.STATES if orders[state]]
    for fmt in ("csv", "json"):
        (file_a, state_a, a), (file_b, state_b, b) = rng.choice(sides), rng.choice(sides)
        inputs = {"input_a": str(tmp_path / file_a), "input_b": str(tmp_path / file_b)}
        config = {**inputs, "state_a": state_a, "state_b": state_b, "format": fmt}
        out = tmp_path / "compare.out"
        argv = ["compare", *inputs.values(), "--state-a", state_a, "--state-b", state_b]
        code = main([*argv, "--format", fmt, "--output", str(out)])
        assert code == 0, (case, argv, capsys.readouterr().err)
        assert out.read_bytes() == reference.compare(a, b, config), (case, argv, fmt)
