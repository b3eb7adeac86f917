"""Nonextensive local structure entropy for node influence in networks.

Computes the Tsallis-generalized entropy of each node's ego-network
degree shares, ranks nodes by it across a grid of entropic indices q,
and detects the threshold q beyond which the ranking stops changing.
"""
from .datasets import karate_edges_path, load_karate
from .entropy import (
    PROB_SUM_TOLERANCE,
    Q_ONE_TOLERANCE,
    local_degree_distribution,
    local_structure_entropy,
    tsallis_entropy,
)
from .graph import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    load_edge_list,
)
from .ranking import (
    DEFAULT_GRID_SPEC,
    MAX_RELAXED_TAU,
    Ranking,
    RankingComparison,
    ScoreTable,
    SweepResult,
    ThresholdReport,
    compare_rankings,
    default_grid,
    detect_threshold,
    label_sort_key,
    parse_grid,
    rank,
    refine_threshold,
    score_all,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GRID_SPEC",
    "EdgeListParseError",
    "EmptyGraphError",
    "Graph",
    "MAX_RELAXED_TAU",
    "PROB_SUM_TOLERANCE",
    "Q_ONE_TOLERANCE",
    "Ranking",
    "RankingComparison",
    "ScoreTable",
    "SweepResult",
    "ThresholdReport",
    "compare_rankings",
    "default_grid",
    "detect_threshold",
    "karate_edges_path",
    "label_sort_key",
    "load_edge_list",
    "load_karate",
    "local_degree_distribution",
    "local_structure_entropy",
    "parse_grid",
    "rank",
    "refine_threshold",
    "score_all",
    "sweep",
    "tsallis_entropy",
]
