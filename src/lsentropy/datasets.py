"""Bundled reference network.

Ships the Zachary karate club (34 nodes, 78 edges, 1-based labels), the
standard benchmark for influence rankings. Other networks are supplied
by the user as edge-list files.
"""
from __future__ import annotations

from importlib.resources import files

from .graph import Graph, load_edge_list


def karate_edges_path():
    """Traversable pointing at the bundled karate club edge list."""
    return files("lsentropy") / "data" / "karate.edges"


def load_karate() -> Graph:
    """Load the karate club network."""
    return load_edge_list(karate_edges_path().read_text(encoding="utf-8"))
