"""Tsallis entropy and the local structure entropy of a node.

The local structure entropy of node i is the entropy of the degree-share
distribution over its ego network: each member j (the centre included)
contributes p_j = degree(j) / total_degree, with degrees taken from the
full graph. The classical measure uses Shannon entropy; the generalized
form replaces it with the Tsallis entropy

    S_q(p) = (1 - sum_j p_j^q) / (q - 1),

which recovers Shannon as q -> 1 and degree centrality at q = 0
(an ego network of d+1 members scores exactly d).
"""
from __future__ import annotations

import math
import operator
from array import array
from collections import defaultdict
from itertools import count, islice
from typing import Callable, Iterable

from .graph import Graph

# |q - 1| at or below this uses the Shannon branch; the generic formula
# suffers catastrophic cancellation as q -> 1.
Q_ONE_TOLERANCE = 1e-9

# Absolute slack allowed on sum(p) == 1.
PROB_SUM_TOLERANCE = 1e-12


def _checked_entropic_index(q: float) -> float:
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise ValueError(f"entropic index must be finite and >= 0, got {q!r}")
    return q


def _checked_distribution(probs: Iterable[float]) -> tuple[float, ...]:
    p = tuple(float(x) for x in probs)
    if not p:
        raise ValueError("probability vector is empty")
    for x in p:
        if not math.isfinite(x) or x <= 0.0:
            raise ValueError(f"probabilities must lie in (0, 1], got {x!r}")
    total = math.fsum(p)
    if abs(total - 1.0) > PROB_SUM_TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def tsallis_entropy(probs: Iterable[float], q: float) -> float:
    """Tsallis entropy S_q of a discrete distribution, in nats.

    For |q - 1| <= Q_ONE_TOLERANCE this is the Shannon entropy
    -sum(p ln p); otherwise (1 - sum(p^q)) / (q - 1). Non-negative and
    non-increasing in q for q >= 0. At q = 0 the value is exactly N - 1
    for a distribution of N entries.

    Raises:
        ValueError: entries outside (0, 1], sum off 1 beyond tolerance,
            or q negative/non-finite.
    """
    term, entropy = _tsallis_at(_checked_entropic_index(q))
    return entropy(math.fsum(map(term, _checked_distribution(probs))))


def _tsallis_at(q: float) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """S_q as ``(term, entropy)``: S_q(p) is ``entropy(fsum(map(term, p)))``
    for an already checked distribution p."""
    # fsum keeps the accumulation exactly rounded, so the sum does not
    # depend on the order of the terms; long hub distributions would
    # otherwise drift.
    if abs(q - 1.0) <= Q_ONE_TOLERANCE:
        return (lambda x: x * math.log(x)), operator.neg
    return (lambda x: x**q), (lambda s: (1.0 - s) / (q - 1.0))


def local_degree_distribution(graph: Graph, node: int) -> tuple[float, ...]:
    """Degree shares over the ego network of ``node``.

    The ego network is the node plus its neighbours. Entries follow
    member node id; each share is the member's full-graph degree over the
    ego total, evaluated as a single float division of exact integers.

    Raises:
        ValueError: ``node`` is out of range or isolated (degree 0).
    """
    if not 0 <= node < graph.node_count:
        raise ValueError(
            f"node id {node} out of range [0, {graph.node_count})"
        )
    if graph.degrees[node] == 0:
        raise ValueError(
            f"node {graph.labels[node]!r} is isolated and has no "
            "degree distribution"
        )
    degrees = [graph.degrees[m] for m in sorted((node, *graph.adjacency[node]))]
    total = sum(degrees)
    return tuple(d / total for d in degrees)


def local_structure_entropy(graph: Graph, node: int, q: float) -> float:
    """Tsallis entropy of the node's ego degree distribution.

    Isolated nodes score 0 at every q, ranking them least influential.
    """
    q = _checked_entropic_index(q)
    if not 0 <= node < graph.node_count:
        raise ValueError(
            f"node id {node} out of range [0, {graph.node_count})"
        )
    if graph.degrees[node] == 0:
        return 0.0
    return tsallis_entropy(local_degree_distribution(graph, node), q)


def local_structure_entropies(graph: Graph, q: float) -> array:
    """``local_structure_entropy`` of every node, in node-id order, as an
    ``array('d')``.

    The ego shares are built once per graph, on the first call. Each q
    then evaluates its term once per distinct share and sums, per node,
    the terms of the node's shares: every term is the same libm value as
    scoring node by node, and fsum is correctly rounded, so the scores
    are bit-identical to it.
    """
    term, entropy = _tsallis_at(_checked_entropic_index(q))
    values, index, bounds = graph._ego_shares
    table = list(map(term, values))
    terms = map(table.__getitem__, index)
    return array("d", [
        entropy(math.fsum(islice(terms, b - a))) if a < b else 0.0
        for a, b in zip(bounds, bounds[1:])
    ])


def ego_share_vector(graph: Graph) -> tuple[array, array, array]:
    """Every ego degree share, interned by its float value.

    Returns ``(values, index, bounds)``: ``values`` holds each distinct
    share once, and node i's shares are ``values[k]`` for k in
    ``index[bounds[i]:bounds[i + 1]]``, the centre's first; an isolated
    node's slice is empty. Graph caches the result. Each share is the
    same single division d / total as in ``local_degree_distribution``,
    and needs no ``_checked_distribution``: 1 <= d <= total, so it lies
    in (0, 1], and the exact sum of the correctly rounded quotients lies
    within 2**-53 of 1, far inside PROB_SUM_TOLERANCE.
    """
    degrees = graph.degrees
    # A new share takes the next id as it is first seen, so the keys are
    # in id order.
    ids: defaultdict[float, int] = defaultdict(count().__next__)
    index = array("q")
    bounds = array("q", [0])
    for node, neighbours in enumerate(graph.adjacency):
        if neighbours:
            ego = [degrees[node], *map(degrees.__getitem__, neighbours)]
            total = sum(ego)
            index.extend(map(ids.__getitem__, [d / total for d in ego]))
        bounds.append(len(index))
    return array("d", ids), index, bounds
