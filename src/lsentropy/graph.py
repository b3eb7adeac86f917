"""Immutable undirected simple graphs.

Graphs are loaded from plain-text edge lists (two whitespace-separated
labels per line, ``#`` comments). Labels are interned to dense 0-based
ids in first-appearance order; all public output is reported in terms of
the original labels. Graphs are treated as simple, unweighted and
undirected: duplicate edges collapse and self-loops are dropped (with a
count kept for diagnostics). A graph is checked once, where it enters:
graphs from ``load_edge_list`` or ``Graph.from_edge_labels`` are valid by
construction, and ``Graph(labels=, adjacency=)`` checks what it is given.
"""
from __future__ import annotations

import io
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import IO, Iterable, Iterator


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
        duplicate_edges_collapsed: how many edge lines repeated an edge
            already read, in either orientation, and were collapsed into
            it during ingestion; self-loops are not counted here
            (diagnostic only, excluded from equality).

    Instances are immutable after construction and safe to share across
    threads and worker processes. ``Graph(labels=, adjacency=)`` takes
    only those two, stores them as tuples, checks them and raises
    ValueError on any violation of the above; its two counters read 0.
    Graphs built by ``load_edge_list`` or ``from_edge_labels`` are valid
    by construction and skip those checks.
    """

    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    self_loops_dropped: int = field(default=0, init=False, compare=False)
    duplicate_edges_collapsed: int = field(default=0, init=False, compare=False)
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "adjacency", tuple(map(tuple, self.adjacency)))
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
    def _ego_shares(self) -> tuple[array, int, tuple, array]:
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
    def from_edge_labels(cls, pairs: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from labelled edges, interning labels by first appearance.

        Self-loop pairs are dropped (and counted) before their label is
        interned, so a loop-only label never becomes a node; duplicate
        edges in either orientation collapse. The result is not re-checked:
        its labels are unique and its adjacency sorted, symmetric and
        loop-free by construction. The dropped loops and collapsed
        duplicates are counted in ``self_loops_dropped`` and
        ``duplicate_edges_collapsed``. Raises EmptyGraphError if no edge
        survives.
        """
        # A new label takes the next id as it is first seen, so the keys
        # are in id order.
        ids: defaultdict[str, int] = defaultdict(count().__next__)
        ends: list[int] = []  # the two endpoint ids of each edge, in turn
        dropped = 0
        for a, b in pairs:
            if a == b:
                dropped += 1
                continue
            ends.append(ids[a])
            ends.append(ids[b])
        if not ends:
            raise EmptyGraphError("no edges found in input")
        neighbours: list[list[int]] = [[] for _ in range(len(ids))]
        for u, v in zip(ends[::2], ends[1::2]):
            neighbours[u].append(v)
            neighbours[v].append(u)
        adjacency = tuple(tuple(sorted(set(n))) for n in neighbours)
        # Skips __post_init__: what it checks holds by construction here.
        graph = object.__new__(cls)
        object.__setattr__(graph, "labels", tuple(ids))
        object.__setattr__(graph, "adjacency", adjacency)
        object.__setattr__(graph, "self_loops_dropped", dropped)
        object.__setattr__(graph, "degrees", tuple(map(len, adjacency)))
        object.__setattr__(
            graph, "duplicate_edges_collapsed", len(ends) // 2 - sum(graph.degrees) // 2
        )
        return graph


def load_edge_list(source: str | IO[str]) -> Graph:
    """Parse a whitespace-delimited edge list into a Graph.

    Args:
        source: text or a readable text stream. Text is read as a file
            opened in text mode reads it: a line ends only at '\\n',
            '\\r\\n' or '\\r'. Each non-blank line that does not start
            with '#' must hold exactly two labels.

    Raises:
        EdgeListParseError: a line does not hold exactly two labels.
        EmptyGraphError: no edges remain after dropping self-loops.
    """
    return Graph.from_edge_labels(_label_pairs(source))


def _label_pairs(source: str | IO[str]) -> Iterator[tuple[str, str]]:
    """Yield the two labels of each edge line, self-loops included."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    for line_number, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected 2 labels, found {len(tokens)}: {line.strip()!r}",
                line_number,
            )
        yield tokens[0], tokens[1]
