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
from array import array
from typing import Callable, Iterable, Sequence

from .graph import Graph, ego_network

# |q - 1| at or below this uses the Shannon branch; the generic formula
# suffers catastrophic cancellation as q -> 1.
Q_ONE_TOLERANCE = 1e-9

# Absolute slack allowed on sum(p) == 1.
PROB_SUM_TOLERANCE = 1e-12


def q_log(x: float, q: float) -> float:
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1) / (1 - q).

    Defined for x > 0 and any finite q; continuous in q, with the
    natural logarithm recovered at q = 1.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise ValueError(f"q_log requires x > 0, got {x!r}")
    if not math.isfinite(q):
        raise ValueError(f"entropic index must be finite, got {q!r}")
    if abs(q - 1.0) <= Q_ONE_TOLERANCE:
        return math.log(x)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


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
    q = _checked_entropic_index(q)
    return _tsallis_at(q)(_checked_distribution(probs))


def _tsallis_at(q: float) -> Callable[[Sequence[float]], float]:
    """S_q as a function of an already checked distribution."""
    # fsum keeps the accumulation exactly rounded; long hub distributions
    # would otherwise drift.
    if abs(q - 1.0) <= Q_ONE_TOLERANCE:
        return lambda p: -math.fsum([x * math.log(x) for x in p])
    return lambda p: (1.0 - math.fsum([x**q for x in p])) / (q - 1.0)


def local_degree_distribution(graph: Graph, node: int) -> tuple[float, ...]:
    """Degree shares over the ego network of ``node``.

    Entry order follows EgoNetwork.members (sorted by node id); each
    share is the member's full-graph degree over the ego total, evaluated
    as a single float division of exact integers.

    Raises:
        ValueError: ``node`` is isolated (degree 0) or out of range.
    """
    ego = ego_network(graph, node)
    if graph.degrees[node] == 0:
        raise ValueError(
            f"node {graph.labels[node]!r} is isolated and has no "
            "degree distribution"
        )
    total = sum(ego.member_degrees)
    return tuple(d / total for d in ego.member_degrees)


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


def local_structure_entropies(graph: Graph, q: float) -> tuple[float, ...]:
    """``local_structure_entropy`` of every node, in node-id order.

    The ego shares are built and checked once per graph, on the first
    call, and every later q reuses them; the scores are bit-identical to
    scoring node by node.
    """
    entropy = _tsallis_at(_checked_entropic_index(q))
    flat, bounds = graph._ego_shares
    return tuple(
        entropy(flat[a:b]) if a < b else 0.0 for a, b in zip(bounds, bounds[1:])
    )


def ego_share_vector(graph: Graph) -> tuple[array, array]:
    """All ego degree shares in one flat array, plus per-node bounds.

    Node i's shares are ``flat[bounds[i]:bounds[i + 1]]``, checked once
    here; an isolated node's slice is empty. Graph caches the result.
    """
    flat = array("d")
    bounds = array("q", [0])
    for node, degree in enumerate(graph.degrees):
        if degree:
            flat.extend(_checked_distribution(local_degree_distribution(graph, node)))
        bounds.append(len(flat))
    return flat, bounds


def shannon_local_structure_entropy(graph: Graph, node: int) -> float:
    """Classical (q = 1) local structure entropy."""
    return local_structure_entropy(graph, node, 1.0)
