"""Immutable undirected simple graphs.

Graphs are loaded from plain-text edge lists (two whitespace-separated
labels per line, ``#`` comments). Labels are interned to dense 0-based
ids in first-appearance order; all public output is reported in terms of
the original labels. Graphs are treated as simple, unweighted and
undirected: duplicate edges collapse and self-loops are dropped (with a
count kept for diagnostics).
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable


class EdgeListParseError(ValueError):
    """A malformed edge-list line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyGraphError(ValueError):
    """The edge-list source contained no usable edges."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over densely numbered nodes.

    Attributes:
        labels: original string label of each node, indexed by node id.
        adjacency: per-node sorted tuple of neighbour ids; symmetric,
            free of self-loops and duplicates.
        degrees: per-node neighbour count, derived from adjacency.
        self_loops_dropped: how many self-loop lines were discarded
            during ingestion (diagnostic only, excluded from equality).

    Instances are immutable after construction and safe to share across
    threads and worker processes.
    """

    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    self_loops_dropped: int = field(default=0, compare=False)
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.labels) != len(self.adjacency):
            raise ValueError("labels and adjacency lengths differ")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("node labels must be unique")
        # reverse[j] lists the nodes that list j; scanning i in ascending
        # order leaves it sorted, so symmetry is reverse[j] == adjacency[j].
        reverse: list[list[int]] = [[] for _ in self.labels]
        for i, neighbours in enumerate(self.adjacency):
            if tuple(sorted(neighbours)) != neighbours:
                raise ValueError(f"adjacency of node {i} is not sorted")
            if len(set(neighbours)) != len(neighbours):
                raise ValueError(f"adjacency of node {i} has duplicates")
            for j in neighbours:
                if not 0 <= j < len(self.labels):
                    raise ValueError(f"neighbour id {j} out of range")
                if j == i:
                    raise ValueError(f"self-loop at node {i}")
                reverse[j].append(i)
        for j, incoming in enumerate(reverse):
            if tuple(incoming) != self.adjacency[j]:
                k = min(set(incoming).symmetric_difference(self.adjacency[j]))
                i, j = (k, j) if k in incoming else (j, k)
                raise ValueError(f"adjacency is not symmetric: {i}->{j}")
        object.__setattr__(
            self, "degrees", tuple(len(n) for n in self.adjacency)
        )

    @cached_property
    def _ego_shares(self) -> tuple[array, array]:
        """``entropy.ego_share_vector(self)``, built on first use so that
        loading a graph does not pay for it."""
        from .entropy import ego_share_vector  # entropy imports this module

        return ego_share_vector(self)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @classmethod
    def from_edge_labels(
        cls, pairs: Iterable[tuple[str, str]], self_loops_dropped: int = 0
    ) -> "Graph":
        """Build a graph from labelled edges, interning labels by first appearance.

        Self-loop pairs are dropped (and counted); duplicate edges in either
        orientation collapse. Raises EmptyGraphError if no edge survives.
        """
        ids: dict[str, int] = {}
        edges: set[tuple[int, int]] = set()
        dropped = self_loops_dropped
        for a, b in pairs:
            if a == b:
                dropped += 1
                continue
            u = ids.setdefault(a, len(ids))
            v = ids.setdefault(b, len(ids))
            edges.add((min(u, v), max(u, v)))
        if not edges:
            raise EmptyGraphError("no edges found in input")
        neighbours: list[list[int]] = [[] for _ in range(len(ids))]
        for u, v in edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        return cls(
            labels=tuple(ids),
            adjacency=tuple(tuple(sorted(n)) for n in neighbours),
            self_loops_dropped=dropped,
        )


def load_edge_list(source: str | IO[str]) -> Graph:
    """Parse a whitespace-delimited edge list into a Graph.

    Args:
        source: text or a readable text stream. Each non-blank line that
            does not start with '#' must hold exactly two labels.

    Raises:
        EdgeListParseError: a line does not hold exactly two labels.
        EmptyGraphError: no edges remain after dropping self-loops.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    pairs: list[tuple[str, str]] = []
    self_loops = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected 2 labels, found {len(tokens)}: {line!r}", line_number
            )
        if tokens[0] == tokens[1]:
            # Counted here so the label is never interned: a dropped
            # self-loop must not leave an isolated node behind.
            self_loops += 1
            continue
        pairs.append((tokens[0], tokens[1]))
    return Graph.from_edge_labels(pairs, self_loops_dropped=self_loops)


def to_edge_list(graph: Graph) -> str:
    """Serialize a graph to its canonical edge-list text.

    The line order re-interns labels in the graph's id order, so
    ``load_edge_list(to_edge_list(g)) == g`` for any graph built by
    first-appearance interning. Graphs with isolated nodes have no
    edge-list representation and raise ValueError.
    """
    n = graph.node_count
    introduced = [False] * n
    emitted: set[tuple[int, int]] = set()
    lines: list[str] = []

    def emit(u: int, v: int) -> None:
        emitted.add((min(u, v), max(u, v)))
        lines.append(f"{graph.labels[u]} {graph.labels[v]}")

    for k in range(n):
        if introduced[k]:
            continue
        prior = [m for m in graph.adjacency[k] if introduced[m]]
        if prior:
            emit(prior[0], k)
        elif k + 1 in graph.adjacency[k]:
            emit(k, k + 1)
            introduced[k + 1] = True
        else:
            raise ValueError(
                f"node {graph.labels[k]!r} cannot be reached in label order; "
                "the graph has no canonical edge-list form"
            )
        introduced[k] = True

    for u in range(n):
        for v in graph.adjacency[u]:
            if u < v and (u, v) not in emitted:
                lines.append(f"{graph.labels[u]} {graph.labels[v]}")
    return "\n".join(lines) + "\n"

