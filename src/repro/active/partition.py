"""Graph partitioning-based selection (Algorithm 2).

Computing the reachable set of every candidate with bounded-depth path search
(the brute-force step of Algorithm 1) dominates the selection cost.  The
partitioning algorithm first groups element pairs so that, for every pair, at
most a ``1 − ρ`` fraction of its outgoing edge power stays inside its own
group; the estimated inference power is then computed on the much smaller
quotient graph (partitions as super-nodes), and the greedy selection of
Algorithm 1 runs with that estimate.  Theorem 6.2 gives the resulting
``ρ^μ (1 − 1/e)`` approximation guarantee.

Partitioning works on the alignment graph's integer edge arrays: node ids
index ``graph.entity_pairs`` and relation ids ``graph.relation_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.inference.alignment_graph import AlignmentGraph
from repro.inference.pairs import ElementPair
from repro.inference.power import InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

logger = get_logger(__name__)


@dataclass(frozen=True)
class PartitionSelectionConfig:
    """Parameters of Algorithm 2."""

    rho: float = 0.9
    max_partitions: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.max_partitions < 1:
            raise ValueError("max_partitions must be >= 1")


def _edge_powers(graph: AlignmentGraph, estimator: InferencePowerEstimator) -> np.ndarray:
    """Every edge's power in CSR order, computed in ``graph.edges`` order (the
    order in which the estimator's sampled tail solves draw from its RNG)."""
    return np.array([estimator.edge_power(edge) for edge in graph.edges])[graph.edge_index]


def partition_pool(
    graph: AlignmentGraph,
    estimator: InferencePowerEstimator,
    config: PartitionSelectionConfig | None = None,
) -> np.ndarray:
    """Split entity pairs into groups following Algorithm 2's refinement loop.

    Returns the partition id of every entity pair, aligned with
    ``graph.entity_pairs``.  Pairs with no edges keep partition 0.

    A pass splits every partition in which some member keeps more than
    ``1 − ρ`` of its out-edge power inside: the members with an inner out-edge
    labelled by the relation pair of most inner power (the first met on a tie)
    move to a new partition.  A pass reads the partitions as they stood when
    it began, so all of them are refined at once; new ids follow each split
    partition's first member, up to ``max_partitions``.
    """
    config = config or PartitionSelectionConfig()
    num_nodes, num_relations = len(graph.entity_pairs), len(graph.relation_pairs)
    source, relation, target = graph.source, graph.relation, graph.target
    # every edge carries the best power among the edges joining its endpoints
    _, link = np.unique(source * num_nodes + target, return_inverse=True)
    best = np.zeros(link.size)
    np.maximum.at(best, link, _edge_powers(graph, estimator))
    power = best[link]

    part = np.zeros(num_nodes, dtype=np.int64)
    num_partitions = 1
    while num_partitions < config.max_partitions:
        inner = part[source] == part[target]
        inner_power = np.bincount(source[inner], power[inner], minlength=num_nodes)
        outer_power = np.bincount(source[~inner], power[~inner], minlength=num_nodes)
        total = inner_power + outer_power
        ratio = np.divide(outer_power, total, out=np.ones(num_nodes), where=total > 0)
        worst_ratio = np.ones(num_partitions)
        np.minimum.at(worst_ratio, part, ratio)

        # inner power per (partition, relation pair), summed in CSR order
        inner_source, inner_relation = source[inner], relation[inner]
        inner_part = part[inner_source]
        keys, first, slot = np.unique(
            inner_part * num_relations + inner_relation, return_index=True, return_inverse=True
        )
        relation_power = np.bincount(slot, power[inner], minlength=keys.size)
        key_part = keys // num_relations
        order = np.lexsort((first, -relation_power, key_part))
        heads = order[np.unique(key_part[order], return_index=True)[1]]
        split_relation = np.full(num_partitions, -1)
        split_relation[key_part[heads]] = keys[heads] % num_relations
        split_relation[worst_ratio >= config.rho] = -1

        moved = np.unique(inner_source[inner_relation == split_relation[inner_part]])
        splits = np.flatnonzero(
            (split_relation >= 0)
            & (np.bincount(part[moved], minlength=num_partitions) < np.bincount(part))
        )
        if not splits.size:
            break
        first_member = np.unique(part, return_index=True)[1]
        splits = splits[np.argsort(first_member[splits])][: config.max_partitions - num_partitions]
        new_id = np.arange(num_partitions)
        new_id[splits] = num_partitions + np.arange(splits.size)
        part[moved] = new_id[part[moved]]
        num_partitions += splits.size
    logger.debug("partitioned %d entity pairs into %d groups", num_nodes, num_partitions)
    return part


def _quotient_reach(
    graph: AlignmentGraph, part: np.ndarray, power: np.ndarray
) -> list[list[tuple[int, float]]]:
    """Maximum edge power between partitions (the quotient graph).

    Row ``p`` lists ``(partition, power)`` for every partition an edge leaves
    ``p`` for, in the order ``graph.edges`` first does so; ``power`` is in CSR
    order.
    """
    num_partitions = int(part.max(initial=0)) + 1
    source_part, target_part = part[graph.source], part[graph.target]
    cross = source_part != target_part
    link = source_part[cross] * num_partitions + target_part[cross]
    best = np.zeros(num_partitions * num_partitions)
    np.maximum.at(best, link, power[cross])
    first_edge = np.full(best.size, graph.num_edges())
    np.minimum.at(first_edge, link, graph.edge_index[cross])
    quotient: list[list[tuple[int, float]]] = [[] for _ in range(num_partitions)]
    linked = np.flatnonzero(best)
    for key in linked[np.argsort(first_edge[linked])].tolist():
        quotient[key // num_partitions].append((key % num_partitions, float(best[key])))
    return quotient


def partition_select(
    candidates: list[ElementPair],
    probabilities: dict[ElementPair, float],
    graph: AlignmentGraph,
    estimator: InferencePowerEstimator,
    selection_config: GreedySelectionConfig | None = None,
    partition_config: PartitionSelectionConfig | None = None,
    rng: RandomState = None,
) -> list[ElementPair]:
    """Algorithm 2: partition the pool, then run the greedy selection on estimates.

    The estimated reach of a candidate assigns each reachable partition the
    best path power on the quotient graph, and every member of that partition
    inherits it; schema pairs keep their exact (cheap) gradient-based reach.
    """
    selection_config = selection_config or GreedySelectionConfig()
    partition_config = partition_config or PartitionSelectionConfig()
    part = partition_pool(graph, estimator, partition_config)
    power = _edge_powers(graph, estimator)
    quotient = _quotient_reach(graph, part, power)
    members: list[list[ElementPair]] = [[] for _ in quotient]
    for pair, pid in zip(graph.entity_pairs, part.tolist()):
        members[pid].append(pair)
    node_of = {pair: node for node, pair in enumerate(graph.entity_pairs)}
    offsets = np.searchsorted(graph.source, np.arange(len(graph.entity_pairs) + 1)).tolist()
    edge_part, power = part[graph.target].tolist(), power.tolist()
    max_hops, min_power = estimator.config.max_hops, estimator.config.min_power

    def estimated_reach(candidate: ElementPair) -> dict[ElementPair, float]:
        if candidate.kind is not ElementKind.ENTITY:
            return estimator.reachable_power(candidate)
        # first hop: actual edges out of the candidate
        partition_power: dict[int, float] = {}
        node = node_of.get(candidate)
        if node is not None:
            for e in range(offsets[node], offsets[node + 1]):
                if power[e] > partition_power.get(edge_part[e], 0.0):
                    partition_power[edge_part[e]] = power[e]
        # further hops on the quotient graph (multiplicative attenuation)
        frontier = dict(partition_power)
        for _ in range(max_hops - 1):
            next_frontier: dict[int, float] = {}
            for pid, value in frontier.items():
                for neighbor, edge_power in quotient[pid]:
                    reached = value * edge_power
                    if reached > partition_power.get(neighbor, 0.0) and reached > min_power:
                        partition_power[neighbor] = reached
                        next_frontier[neighbor] = reached
            if not next_frontier:
                break
            frontier = next_frontier
        reach: dict[ElementPair, float] = {}
        for pid, value in partition_power.items():
            for member in members[pid]:
                if member != candidate:
                    reach[member] = value
        # schema pairs are cheap to reach exactly
        for target, value in estimator.entity_to_class_power(candidate).items():
            reach[target] = max(reach.get(target, 0.0), value)
        for target, value in estimator.entity_to_relation_power(candidate).items():
            reach[target] = max(reach.get(target, 0.0), value)
        return reach

    return greedy_select(candidates, probabilities, estimated_reach, selection_config, rng)
