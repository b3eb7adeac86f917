"""Tsallis entropy and the local structure entropy of a node.

The local structure entropy of node i is the entropy of the degree-share
distribution over its ego network: each member j (the centre included)
contributes p_j = degree(j) / total_degree, with degrees taken from the
full graph. The classical measure uses Shannon entropy; the generalized
form replaces it with the Tsallis entropy

    S_q(p) = (1 - sum_j p_j^q) / (q - 1),

which recovers Shannon as q -> 1 and degree centrality at q = 0
(an ego network of d+1 members scores exactly d).

``local_structure_entropies`` scores every node at one q from the
graph's shares, laid out once by ego size (``ego_share_vector``): one
libm call per distinct share, then one C-level gather and run of fsums
per ego-size group, with the same bits as scoring node by node.
"""
from __future__ import annotations

import math
from array import array
from collections import defaultdict
from functools import partial
from itertools import chain, count, groupby, islice, repeat
from operator import itemgetter, mul, neg, sub, truediv
from typing import Callable, Iterable, Iterator

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
    terms, entropies = _tsallis_at(_checked_entropic_index(q))
    [entropy] = entropies([math.fsum(terms(_checked_distribution(probs)))])
    return entropy


def _tsallis_at(q: float) -> tuple[
    Callable[[Iterable[float]], Iterator[float]],
    Callable[[Iterable[float]], Iterator[float]],
]:
    """S_q as ``(terms, entropies)``: ``terms(p)`` maps each share of a
    checked distribution p, a sequence, to its term, and
    ``entropies(sums)`` maps the fsum of each distribution's terms to
    S_q, with no Python-level call per element."""
    # fsum keeps the accumulation exactly rounded, so the sum does not
    # depend on the order of the terms; long hub distributions would
    # otherwise drift.
    if abs(q - 1.0) <= Q_ONE_TOLERANCE:
        return (lambda p: map(mul, p, map(math.log, p))), partial(map, neg)
    return (
        lambda p: map(pow, p, repeat(q)),
        lambda sums: map(truediv, map(sub, repeat(1.0), sums), repeat(q - 1.0)),
    )


def local_degree_distribution(graph: Graph, node: int) -> tuple[float, ...]:
    """Degree shares over the ego network of ``node``.

    The ego network is the node plus its neighbours. Entries follow
    member node id; each share is the member's full-graph degree over the
    ego total, evaluated as a single float division of exact integers.

    Raises:
        ValueError: ``node`` is out of range or isolated (degree 0).
    """
    shares = _ego_distribution(graph, node)
    if not shares:
        raise ValueError(
            f"node {graph.labels[node]!r} is isolated and has no "
            "degree distribution"
        )
    return shares


def _ego_distribution(graph: Graph, node: int) -> tuple[float, ...]:
    """``local_degree_distribution``, but () for an isolated ``node``."""
    if not 0 <= node < graph.node_count:
        raise ValueError(f"node id {node} out of range [0, {graph.node_count})")
    if graph.degrees[node] == 0:
        return ()
    degrees = [graph.degrees[m] for m in sorted((node, *graph.adjacency[node]))]
    total = sum(degrees)
    return tuple(d / total for d in degrees)


def local_structure_entropy(graph: Graph, node: int, q: float) -> float:
    """Tsallis entropy of the node's ego degree distribution.

    Isolated nodes score 0 at every q, ranking them least influential.
    The library's own shares skip ``tsallis_entropy``'s distribution check.
    """
    terms, entropies = _tsallis_at(_checked_entropic_index(q))
    shares = _ego_distribution(graph, node)
    if not shares:
        return 0.0
    [entropy] = entropies([math.fsum(terms(shares))])
    return entropy


def local_structure_entropies(graph: Graph, q: float) -> array:
    """``local_structure_entropy`` of every node, in node-id order, as an
    ``array('d')``.

    At q = 0 a score is the node's degree, which the formula gives
    exactly there, so no shares are built. Otherwise each q evaluates its
    term once per distinct share of ``ego_share_vector`` (built on the
    first call) and fsums each node's run of terms in C-level iterators,
    one ego-size group at a time. The terms are the libm values of
    scoring node by node and fsum is correctly rounded, so the scores
    are bit-identical to it.
    """
    q = _checked_entropic_index(q)
    if q == 0.0:
        return array("d", map(float, graph.degrees))
    terms, entropies = _tsallis_at(q)
    values, isolated, groups, places = graph._ego_shares
    table = list(terms(values))
    # One group's gathered terms are alive at a time, never the whole graph's.
    sums = chain.from_iterable(
        map(math.fsum, zip(*repeat(iter(get(table)), k))) for k, get in groups
    )
    laid_out = [*repeat(0.0, isolated), *entropies(sums)]
    return array("d", map(laid_out.__getitem__, places))


def ego_share_vector(
    graph: Graph,
) -> tuple[array, int, tuple[tuple[int, Callable], ...], array]:
    """Every ego degree share, interned by its float value and laid out
    by ego size.

    Returns ``(values, isolated, groups, places)``. ``values`` holds each
    distinct share once. The layout orders the nodes stably by degree:
    first the ``isolated`` degree-0 nodes, then one group per degree d,
    ascending, whose ``(k, get)`` in ``groups`` gives its ego size
    k = d + 1 and an ``operator.itemgetter`` over the ids of its shares,
    k per node in the layout's order, the centre's first. So
    ``get(values)`` is the group's shares. ``places[i]`` is node i's
    position in the layout. Graph caches the result. Each share is the
    same single division d / total as in ``local_degree_distribution``,
    and needs no ``_checked_distribution``: 1 <= d <= total, so it lies
    in (0, 1], and the exact sum of the correctly rounded quotients lies
    within 2**-53 of 1, far inside PROB_SUM_TOLERANCE.
    """
    degrees, adjacency = graph.degrees, graph.adjacency
    # A new share takes the next id as it is first seen, so the keys are
    # in id order. The getters hold the dict's own id objects, not copies.
    ids: defaultdict[float, int] = defaultdict(count().__next__)

    def ego_ids(node: int) -> Iterator[int]:
        ego = [degrees[node], *map(degrees.__getitem__, adjacency[node])]
        total = sum(ego)
        return map(ids.__getitem__, [d / total for d in ego])

    layout = array("q", sorted(range(graph.node_count), key=degrees.__getitem__))
    # places inverts layout: node i sits at layout[places[i]].
    places = array("q", sorted(range(graph.node_count), key=layout.__getitem__))
    isolated = degrees.count(0)
    groups = []
    for degree, nodes in groupby(islice(layout, isolated, None), degrees.__getitem__):
        share_ids = tuple(chain.from_iterable(map(ego_ids, nodes)))
        # k >= 2 ids, so the getter returns a tuple; it keeps share_ids
        # itself as its items, not a copy.
        groups.append((degree + 1, itemgetter(*share_ids)))
    return array("d", ids), isolated, tuple(groups), places
