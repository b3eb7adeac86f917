"""Seeded graph corpus, standard library only.

Both generators are driven by ``random.Random(seed)`` alone, so one seed
gives byte-identical edge-list files on every platform and Python
version that keeps the ``random`` module's documented reproducibility.
Labels are the decimal node ids; edges are written in generation order.
"""
from __future__ import annotations

import random


def erdos_renyi(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """G(n, m): ``m`` distinct undirected edges drawn uniformly, no self-loops."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v))
    return edges


def preferential_attachment(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Barabasi-Albert graph: each new node links to ``m`` distinct existing
    nodes chosen with probability proportional to degree, starting from a
    clique on ``m + 1`` nodes."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    # One entry per edge endpoint: a uniform draw is degree-proportional.
    endpoints = [x for edge in edges for x in edge]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(endpoints))
        for u in sorted(targets):
            edges.append((v, u))
            endpoints += (v, u)
    return edges


def edge_list_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)
