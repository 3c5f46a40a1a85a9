"""Inference power estimation (Sect. 5.2).

The estimator works on NumPy snapshots of the trained joint alignment model
(entity/relation output matrices, mapping matrices, dangling-entity weights
and mean embeddings) and on the alignment graph of the pool.

Path-based power between entity pairs uses per-edge costs

``cost(edge) = ||A_ent·r̃ − r̃'|| + d + d'``

where ``(r̃, d)`` come from each embedding model's tail solver (exact for
TransE, sampled otherwise, Eqs. 13–14).  Path costs are accumulated additively
along at most ``μ`` hops, which upper-bounds the paper's path difference
``D`` (triangle inequality) and therefore lower-bounds — i.e. conservatively
estimates — the inference power ``I = 1/(1 + D)``.

Gradient-based power for class and relation pairs (Eqs. 21–22) is computed in
closed form through the mean-embedding channel of the schema similarities.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.alignment.model import JointAlignmentModel
from repro.inference.alignment_graph import AlignmentEdge, AlignmentGraph
from repro.inference.pairs import ElementPair
from repro.kg.elements import ElementKind
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class InferencePowerConfig:
    """Knobs of the inference power measurement."""

    max_hops: int = 3
    power_threshold: float = 0.8
    solver_samples: int = 3
    solver_steps: int = 15
    min_power: float = 0.05

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if not 0.0 <= self.power_threshold <= 1.0:
            raise ValueError("power_threshold must be in [0, 1]")
        if not 0.0 <= self.min_power <= 1.0:
            raise ValueError("min_power must be in [0, 1]")


def _cosine_gradient(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``cos(a, b)`` with respect to ``a`` and ``b``."""
    norm_a = max(float(np.linalg.norm(a)), 1e-12)
    norm_b = max(float(np.linalg.norm(b)), 1e-12)
    cos = float(np.dot(a, b)) / (norm_a * norm_b)
    grad_a = b / (norm_a * norm_b) - cos * a / (norm_a**2)
    grad_b = a / (norm_a * norm_b) - cos * b / (norm_b**2)
    return grad_a, grad_b


class InferencePowerEstimator:
    """Estimates ``I(q' | q)`` and aggregate inference power over a pool."""

    def __init__(
        self,
        model: JointAlignmentModel,
        graph: AlignmentGraph,
        config: InferencePowerConfig | None = None,
        rng: RandomState = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config or InferencePowerConfig()
        self.rng = ensure_rng(rng)
        # Snapshot arrays are read through the model's SimilarityEngine (the
        # single access point for cached NumPy state) instead of being copied
        # field by field into the estimator; the snapshot itself is built from
        # the embedding models' cached forward session, so constructing an
        # estimator never re-runs a model forward.
        self._snap = model.similarity.snapshot
        self._map_entity = model.map_entity.data
        self._tail_cache_1: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
        self._tail_cache_2: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
        self._edge_power_cache: dict[tuple, float] = {}
        self._source_power_cache: dict[ElementPair, dict[ElementPair, float]] = {}

    # ----------------------------------------------------------- edge costs
    def _tail_solution(self, side: int, head_idx: int, relation_idx: int) -> tuple[np.ndarray, float]:
        """``(translation, bound)`` of one tail solve; side-1 translations are
        cached pre-mapped through ``A_ent`` so the per-edge cost below is a
        plain vector subtraction instead of a matrix-vector product."""
        cache = self._tail_cache_1 if side == 1 else self._tail_cache_2
        key = (head_idx, relation_idx)
        if key in cache:
            return cache[key]
        snap = self._snap
        if side == 1:
            model, entities, relations = self.model.model1, snap.entity_matrix_1, snap.relation_matrix_1
        else:
            model, entities, relations = self.model.model2, snap.entity_matrix_2, snap.relation_matrix_2
        solution = model.solve_tail(
            entities[head_idx],
            relations[relation_idx],
            entities,
            num_samples=self.config.solver_samples,
            num_steps=self.config.solver_steps,
            rng=self.rng,
        )
        translation = solution.translation
        if side == 1:
            translation = self._map_entity.T @ translation
        result = (translation, solution.bound)
        cache[key] = result
        return result

    def edge_cost(self, edge: AlignmentEdge, zero_relation_difference: bool = False) -> float:
        """The bound ``||A_ent·r̃ − r̃'|| + d + d'`` for one alignment-graph edge.

        ``zero_relation_difference`` implements Eq. 20: when the relation pair
        itself is labelled as a match, the relation difference term vanishes.
        """
        mapped_translation_1, bound_1 = self._tail_solution(1, edge.source.left, edge.relation.left)
        translation_2, bound_2 = self._tail_solution(2, edge.source.right, edge.relation.right)
        if zero_relation_difference:
            relation_difference = 0.0
        else:
            relation_difference = float(np.linalg.norm(mapped_translation_1 - translation_2))
        return relation_difference + bound_1 + bound_2

    def edge_power(self, edge: AlignmentEdge, zero_relation_difference: bool = False) -> float:
        """``I(target | source)`` through one edge: ``1 / (1 + cost)``."""
        key = (edge.source, edge.relation, edge.target, zero_relation_difference)
        if key not in self._edge_power_cache:
            cost = self.edge_cost(edge, zero_relation_difference)
            self._edge_power_cache[key] = 1.0 / (1.0 + cost)
        return self._edge_power_cache[key]

    # --------------------------------------------------- entity → entity pairs
    def entity_path_power(self, source: ElementPair) -> dict[ElementPair, float]:
        """Best-path inference power from an entity pair to reachable entity pairs.

        Depth-limited Dijkstra over additive edge costs (≤ ``max_hops`` hops);
        results below ``min_power`` are dropped.
        """
        if source.kind is not ElementKind.ENTITY:
            raise ValueError("entity_path_power expects an entity pair")
        if source in self._source_power_cache:
            return self._source_power_cache[source]
        best_cost: dict[ElementPair, float] = {source: 0.0}
        heap: list[tuple[float, int, ElementPair]] = [(0.0, 0, source)]
        max_cost = (1.0 / max(self.config.min_power, 1e-6)) - 1.0
        while heap:
            cost, hops, node = heapq.heappop(heap)
            if cost > best_cost.get(node, float("inf")):
                continue
            if hops >= self.config.max_hops:
                continue
            for edge in self.graph.out_edges.get(node, []):
                new_cost = cost + (1.0 / self.edge_power(edge) - 1.0)
                if new_cost > max_cost:
                    continue
                if new_cost < best_cost.get(edge.target, float("inf")):
                    best_cost[edge.target] = new_cost
                    heapq.heappush(heap, (new_cost, hops + 1, edge.target))
        powers = {
            node: 1.0 / (1.0 + cost)
            for node, cost in best_cost.items()
            if node != source and 1.0 / (1.0 + cost) >= self.config.min_power
        }
        self._source_power_cache[source] = powers
        return powers

    # -------------------------------------------------- relation → entity pairs
    def relation_to_entity_power(self, source: ElementPair) -> dict[ElementPair, float]:
        """Eq. 20: power of a relation pair over entity pairs reachable through it."""
        if source.kind is not ElementKind.RELATION:
            raise ValueError("relation_to_entity_power expects a relation pair")
        powers: dict[ElementPair, float] = {}
        for edge in self.graph.edges_by_relation_pair.get(source, []):
            power = self.edge_power(edge, zero_relation_difference=True)
            if power < self.config.min_power:
                continue
            if power > powers.get(edge.target, 0.0):
                powers[edge.target] = power
        return powers

    # ------------------------------------------------------ entity → class pairs
    def entity_to_class_power(self, source: ElementPair) -> dict[ElementPair, float]:
        """Eq. 21: gradient of the class similarity with respect to the entity pair."""
        if source.kind is not ElementKind.ENTITY:
            raise ValueError("entity_to_class_power expects an entity pair")
        powers: dict[ElementPair, float] = {}
        if not self.model.use_mean_embeddings:
            return powers
        for c_pair in self.graph.classes_of_entity_pair.get(source, []):
            left_members = self.model.kg1.entities_of_class(c_pair.left)
            right_members = self.model.kg2.entities_of_class(c_pair.right)
            weight_sum_1 = float(np.sum(self._snap.weights_1[left_members])) if left_members else 0.0
            weight_sum_2 = float(np.sum(self._snap.weights_2[right_members])) if right_members else 0.0
            if weight_sum_1 < 1e-9 or weight_sum_2 < 1e-9:
                continue
            a = self._map_entity.T @ self._snap.mean_classes_1[c_pair.left]
            b = self._snap.mean_classes_2[c_pair.right]
            grad_a, grad_b = _cosine_gradient(a, b)
            grad_left = (self._snap.weights_1[source.left] / weight_sum_1) * (self._map_entity @ grad_a)
            grad_right = (self._snap.weights_2[source.right] / weight_sum_2) * grad_b
            power = float(np.sqrt(np.sum(grad_left**2) + np.sum(grad_right**2)))
            if power >= self.config.min_power:
                powers[c_pair] = min(power, 1.0)
        return powers

    # --------------------------------------------------- entity → relation pairs
    def entity_to_relation_power(self, source: ElementPair) -> dict[ElementPair, float]:
        """Eq. 22: gradient of the relation similarity via edges incident to the pair."""
        if source.kind is not ElementKind.ENTITY:
            raise ValueError("entity_to_relation_power expects an entity pair")
        powers: dict[ElementPair, float] = {}
        if not self.model.use_mean_embeddings:
            return powers
        for edge in self.graph.out_edges.get(source, []):
            r_pair = edge.relation
            triples_1 = self.model.kg1.triples_of_relation(r_pair.left)
            triples_2 = self.model.kg2.triples_of_relation(r_pair.right)
            if triples_1.size == 0 or triples_2.size == 0:
                continue
            weight_sum_1 = float(
                np.sum(np.minimum(self._snap.weights_1[triples_1[:, 0]], self._snap.weights_1[triples_1[:, 2]]))
            )
            weight_sum_2 = float(
                np.sum(np.minimum(self._snap.weights_2[triples_2[:, 0]], self._snap.weights_2[triples_2[:, 2]]))
            )
            if weight_sum_1 < 1e-9 or weight_sum_2 < 1e-9:
                continue
            a = self._map_entity.T @ self._snap.mean_relations_1[r_pair.left]
            b = self._snap.mean_relations_2[r_pair.right]
            grad_a, grad_b = _cosine_gradient(a, b)
            weight_left = min(self._snap.weights_1[edge.source.left], self._snap.weights_1[edge.target.left])
            weight_right = min(self._snap.weights_2[edge.source.right], self._snap.weights_2[edge.target.right])
            grad_left = (weight_left / weight_sum_1) * (self._map_entity @ grad_a)
            grad_right = (weight_right / weight_sum_2) * grad_b
            power = float(np.sqrt(np.sum(grad_left**2) + np.sum(grad_right**2)))
            if power >= self.config.min_power:
                if power > powers.get(r_pair, 0.0):
                    powers[r_pair] = min(power, 1.0)
        return powers

    # --------------------------------------------------------------- aggregates
    def reachable_power(self, source: ElementPair) -> dict[ElementPair, float]:
        """``I(q' | q)`` for every pair ``q'`` the source can influence."""
        if source.kind is ElementKind.ENTITY:
            powers = dict(self.entity_path_power(source))
            for target, value in self.entity_to_class_power(source).items():
                powers[target] = max(powers.get(target, 0.0), value)
            for target, value in self.entity_to_relation_power(source).items():
                powers[target] = max(powers.get(target, 0.0), value)
            return powers
        if source.kind is ElementKind.RELATION:
            return self.relation_to_entity_power(source)
        # Class pairs do not propagate inference power in the paper's model.
        return {}

    def power_to_pool(self, source: ElementPair) -> float:
        """``I(P | q)`` of Eq. 23 for a singleton labelled set ``{q}``."""
        threshold = self.config.power_threshold
        return float(
            sum(value for value in self.reachable_power(source).values() if value > threshold)
        )

    def power_from_labelled(self, labelled: list[ElementPair]) -> dict[ElementPair, float]:
        """``I(q' | L+) = max_{q ∈ L+} I(q' | q)`` for every reachable pair."""
        combined: dict[ElementPair, float] = {}
        for source in labelled:
            for target, value in self.reachable_power(source).items():
                if value > combined.get(target, 0.0):
                    combined[target] = value
        return combined

    def overall_power(self, labelled: list[ElementPair]) -> float:
        """``I(P | L+)`` of Eq. 23."""
        threshold = self.config.power_threshold
        combined = self.power_from_labelled(labelled)
        return float(sum(value for value in combined.values() if value > threshold))

    def inferred_pairs(self, labelled: list[ElementPair]) -> list[tuple[ElementPair, float]]:
        """Unlabelled pairs whose inference power from ``L+`` exceeds the threshold."""
        labelled_set = set(labelled)
        combined = self.power_from_labelled(labelled)
        return [
            (pair, value)
            for pair, value in sorted(combined.items(), key=lambda item: -item[1])
            if value > self.config.power_threshold and pair not in labelled_set
        ]


def inference_accuracy(
    estimator: InferencePowerEstimator,
    labelled_matches: list[ElementPair],
    gold: dict[ElementKind, set[tuple[int, int]]],
) -> float | None:
    """The Table 6 metric: fraction of inferred element pairs that are true matches.

    ``None`` when nothing is inferred: an empty set has no accuracy.
    """
    inferred = estimator.inferred_pairs(labelled_matches)
    if not inferred:
        return None
    correct = sum(1 for pair, _ in inferred if (pair.left, pair.right) in gold.get(pair.kind, set()))
    return correct / len(inferred)
