"""Tests for inference power measurement and batch active learning."""

from collections import defaultdict

import numpy as np
import pytest

from repro.active import (
    ActiveLearningConfig,
    ElementPairPool,
    GreedySelectionConfig,
    Oracle,
    PartitionSelectionConfig,
    PoolConfig,
    RandomStrategy,
    build_pool,
    create_strategy,
    greedy_select,
    partition_pool,
    partition_select,
    STRATEGY_REGISTRY,
)
from repro.active import partition as partition_module
from repro.active.selection import expected_overall_power
from repro.inference import (
    ElementPair,
    InferencePowerConfig,
    InferencePowerEstimator,
    build_alignment_graph,
)
from repro.inference.pairs import class_pair, entity_pair, relation_pair
from repro.inference.power import inference_accuracy
from repro.kg.elements import ElementKind, Triple
from repro.kg.graph import KnowledgeGraph


@pytest.fixture(scope="module")
def inference_setup(fitted_pipeline):
    pipeline = fitted_pipeline
    pool = build_pool(pipeline.model, PoolConfig(top_n=15))
    graph, estimator = pipeline.build_inference_estimator(pool)
    return pipeline, pool, graph, estimator


class TestElementPair:
    def test_hashable_and_ordered(self):
        a, b = entity_pair(1, 2), entity_pair(1, 3)
        assert a < b
        assert len({a, b, entity_pair(1, 2)}) == 2

    def test_kind_constructors(self):
        assert relation_pair(0, 1).kind is ElementKind.RELATION
        assert class_pair(0, 1).kind is ElementKind.CLASS


class TestAlignmentGraph:
    def test_build_graph_from_tiny_pair(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        assert len(graph.entity_pairs) == len(entity_pool)
        assert graph.num_edges() > 0
        # every edge endpoint is in the pool
        for edge in graph.edges:
            assert (edge.source.left, edge.source.right) in entity_pool
            assert (edge.target.left, edge.target.right) in entity_pool

    def test_class_membership_links(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        assert len(graph.classes_of_entity_pair) > 0
        for e_pair, c_pairs in graph.classes_of_entity_pair.items():
            for c_pair in c_pairs:
                assert c_pair.left in tiny_pair.kg1.classes_of(e_pair.left)
                assert c_pair.right in tiny_pair.kg2.classes_of(e_pair.right)

    def test_out_edges_index_every_edge_by_source(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        for edge in graph.edges:
            assert edge in graph.out_edges[edge.source]
        assert sum(len(edges) for edges in graph.out_edges.values()) == graph.num_edges()

    def test_edge_arrays_are_csr_ordered(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        csr = [
            (graph.entity_pairs.index(pair), edge)
            for pair in graph.entity_pairs
            for edge in graph.out_edges.get(pair, [])
        ]
        assert graph.source.tolist() == [node for node, _ in csr]
        assert [graph.edges[i] for i in graph.edge_index.tolist()] == [edge for _, edge in csr]
        for node, rel, tgt, (_, edge) in zip(graph.source, graph.relation, graph.target, csr):
            assert graph.entity_pairs[node] == edge.source
            assert graph.relation_pairs[rel] == edge.relation
            assert graph.entity_pairs[tgt] == edge.target

    def test_empty_pool_gives_empty_graph(self, tiny_pair):
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, set())
        assert graph.num_edges() == 0


class TestInferencePower:
    def test_edge_power_in_unit_interval(self, inference_setup):
        _, _, graph, estimator = inference_setup
        assert graph.num_edges() > 0
        for edge in graph.edges[:20]:
            power = estimator.edge_power(edge)
            assert 0.0 < power <= 1.0

    def test_zeroing_relation_difference_never_decreases_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        for edge in graph.edges[:20]:
            assert estimator.edge_power(edge, True) >= estimator.edge_power(edge) - 1e-12

    def test_path_power_reaches_neighbors(self, inference_setup):
        _, _, graph, estimator = inference_setup
        source = next(pair for pair in graph.entity_pairs if graph.out_edges.get(pair))
        powers = estimator.entity_path_power(source)
        assert powers
        assert all(0.0 < value <= 1.0 for value in powers.values())

    def test_reachable_power_entity_includes_schema_pairs(self, inference_setup):
        _, _, graph, estimator = inference_setup
        source = next(pair for pair in graph.entity_pairs if graph.out_edges.get(pair))
        reach = estimator.reachable_power(source)
        kinds = {pair.kind for pair in reach}
        assert ElementKind.ENTITY in kinds

    def test_relation_pair_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        relation_pairs_with_edges = [p for p in graph.relation_pairs if graph.edges_by_relation_pair.get(p)]
        assert relation_pairs_with_edges
        powers = estimator.relation_to_entity_power(relation_pairs_with_edges[0])
        assert all(value <= 1.0 for value in powers.values())

    def test_class_pair_has_no_outgoing_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        assert estimator.reachable_power(graph.class_pairs[0]) == {}

    def test_overall_power_is_monotone_in_labels(self, inference_setup):
        pipeline, _, graph, estimator = inference_setup
        labelled = [
            ElementPair(ElementKind.ENTITY, left, right)
            for left, right in pipeline.trainer.labels.matches[ElementKind.ENTITY][:10]
        ]
        assert estimator.overall_power(labelled[:2]) <= estimator.overall_power(labelled) + 1e-9

    def test_inference_accuracy_bounds(self, inference_setup):
        pipeline, _, _, estimator = inference_setup
        labelled = [
            ElementPair(ElementKind.ENTITY, left, right)
            for left, right in pipeline.trainer.labels.matches[ElementKind.ENTITY]
        ]
        gold = {
            ElementKind.ENTITY: {tuple(r) for r in pipeline.pair.entity_match_ids().tolist()},
            ElementKind.RELATION: {tuple(r) for r in pipeline.pair.relation_match_ids().tolist()},
            ElementKind.CLASS: {tuple(r) for r in pipeline.pair.class_match_ids().tolist()},
        }
        accuracy = inference_accuracy(estimator, labelled, gold)
        assert 0.0 <= accuracy <= 1.0

    def test_inference_accuracy_is_none_without_inferred_pairs(self, inference_setup):
        _, _, _, estimator = inference_setup
        assert estimator.inferred_pairs([]) == []
        assert inference_accuracy(estimator, [], {ElementKind.ENTITY: {(0, 0)}}) is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InferencePowerConfig(max_hops=0)
        with pytest.raises(ValueError):
            InferencePowerConfig(power_threshold=2.0)


class TestPool:
    def test_pool_contains_all_schema_pairs(self, inference_setup):
        pipeline, pool, _, _ = inference_setup
        assert len(pool.relation_pairs) == pipeline.kg1.num_relations * pipeline.kg2.num_relations
        assert len(pool.class_pairs) == pipeline.kg1.num_classes * pipeline.kg2.num_classes

    def test_pool_recall_monotone_in_n(self, fitted_pipeline):
        gold = {
            (fitted_pipeline.kg1.entity_id(a), fitted_pipeline.kg2.entity_id(b))
            for a, b in fitted_pipeline.pair.entity_alignment.pairs
        }
        small = build_pool(fitted_pipeline.model, PoolConfig(top_n=5)).recall_of_matches(gold)
        large = build_pool(fitted_pipeline.model, PoolConfig(top_n=40)).recall_of_matches(gold)
        assert large >= small

    def test_pool_membership_and_len(self, inference_setup):
        _, pool, _, _ = inference_setup
        assert len(pool) == len(pool.all_pairs)
        assert pool.entity_pairs[0] in pool

    def test_pool_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(top_n=0)


class TestOracle:
    def test_oracle_answers_from_gold(self, tiny_pair):
        oracle = Oracle(tiny_pair)
        gold = tiny_pair.entity_match_ids()[0]
        assert oracle.label(entity_pair(int(gold[0]), int(gold[1])))
        assert not oracle.label(entity_pair(int(gold[0]), (int(gold[1]) + 1) % tiny_pair.kg2.num_entities))
        assert oracle.questions_asked == 2

    def test_label_batch_preserves_order(self, tiny_pair):
        oracle = Oracle(tiny_pair)
        pairs = [entity_pair(0, 0), entity_pair(0, 1)]
        answers = oracle.label_batch(pairs)
        assert [pair for pair, _ in answers] == pairs


class TestSelection:
    def test_greedy_select_batch_size_and_uniqueness(self):
        candidates = [entity_pair(i, i) for i in range(20)]
        probabilities = {pair: 0.5 for pair in candidates}
        def reach(q):
            return {entity_pair(q.left + 100, q.right + 100): 0.9}
        batch = greedy_select(candidates, probabilities, reach,
                              GreedySelectionConfig(batch_size=5), rng=0)
        assert len(batch) == 5
        assert len(set(batch)) == 5

    def test_greedy_prefers_high_probability_high_power(self):
        strong = entity_pair(0, 0)
        weak = entity_pair(1, 1)
        probabilities = {strong: 0.9, weak: 0.1}
        reach = {
            strong: {entity_pair(10, 10): 0.95, entity_pair(11, 11): 0.95},
            weak: {entity_pair(12, 12): 0.85},
        }
        batch = greedy_select([weak, strong], probabilities, lambda q: reach[q],
                              GreedySelectionConfig(batch_size=1), rng=0)
        assert batch == [strong]

    def test_greedy_avoids_redundant_coverage(self):
        a, b, c = entity_pair(0, 0), entity_pair(1, 1), entity_pair(2, 2)
        shared_target = entity_pair(10, 10)
        other_target = entity_pair(20, 20)
        probabilities = {a: 0.9, b: 0.9, c: 0.9}
        reach = {a: {shared_target: 0.95}, b: {shared_target: 0.95}, c: {other_target: 0.9}}
        batch = greedy_select([a, b, c], probabilities, lambda q: reach[q],
                              GreedySelectionConfig(batch_size=2, num_samples=32), rng=0)
        assert c in batch

    def test_expected_overall_power_nonnegative(self):
        pairs = [entity_pair(0, 0)]
        value = expected_overall_power(pairs, {pairs[0]: 0.8},
                                       lambda q: {entity_pair(5, 5): 0.9}, power_threshold=0.5)
        assert value >= 0.0

    def test_empty_candidates(self):
        assert greedy_select([], {}, lambda q: {}, GreedySelectionConfig(batch_size=3)) == []

    def test_selection_config_validation(self):
        with pytest.raises(ValueError):
            GreedySelectionConfig(batch_size=0)


# ---------------------------------------------------------------------------
# Reference oracle: the dict-based Algorithm 2 that the integer-id code
# replaced, kept verbatim so the new code is held to identical partitions,
# estimated reach (values and insertion order) and batches.
def _reference_partition_pool(graph, estimator, config):
    edge_power = {}
    for edge in graph.edges:
        power = estimator.edge_power(edge)
        key = (edge.source, edge.target)
        if power > edge_power.get(key, 0.0):
            edge_power[key] = power

    partition_of = {pair: 0 for pair in graph.entity_pairs}
    num_partitions = 1
    changed = True
    while changed and num_partitions < config.max_partitions:
        changed = False
        members = defaultdict(list)
        for pair, pid in partition_of.items():
            members[pid].append(pair)
        for pid, pairs in list(members.items()):
            if len(pairs) <= 1:
                continue
            pair_set = set(pairs)
            worst_ratio = 1.0
            for pair in pairs:
                inner = outer = 0.0
                for edge in graph.out_edges.get(pair, []):
                    power = edge_power.get((edge.source, edge.target), 0.0)
                    if edge.target in pair_set:
                        inner += power
                    else:
                        outer += power
                total = inner + outer
                if total > 0:
                    worst_ratio = min(worst_ratio, outer / total)
            if worst_ratio >= config.rho:
                continue
            relation_power = defaultdict(float)
            for pair in pairs:
                for edge in graph.out_edges.get(pair, []):
                    if edge.target in pair_set:
                        relation_power[edge.relation] += edge_power.get(
                            (edge.source, edge.target), 0.0
                        )
            if not relation_power:
                continue
            split_relation = max(relation_power.items(), key=lambda item: item[1])[0]
            moved = {
                edge.source
                for pair in pairs
                for edge in graph.out_edges.get(pair, [])
                if edge.relation == split_relation and edge.target in pair_set
            }
            if not moved or len(moved) == len(pairs):
                continue
            for pair in moved:
                partition_of[pair] = num_partitions
            num_partitions += 1
            changed = True
            if num_partitions >= config.max_partitions:
                break
    return partition_of


def _reference_quotient_reach(graph, estimator, partition_of):
    quotient = defaultdict(dict)
    for edge in graph.edges:
        src = partition_of.get(edge.source)
        dst = partition_of.get(edge.target)
        if src is None or dst is None or src == dst:
            continue
        power = estimator.edge_power(edge)
        if power > quotient[src].get(dst, 0.0):
            quotient[src][dst] = power
    return quotient


def _reference_estimated_reach(graph, estimator, config):
    partition_of = _reference_partition_pool(graph, estimator, config)
    quotient = _reference_quotient_reach(graph, estimator, partition_of)
    members = defaultdict(list)
    for pair, pid in partition_of.items():
        members[pid].append(pair)

    def estimated_reach(candidate):
        if candidate.kind is not ElementKind.ENTITY:
            return estimator.reachable_power(candidate)
        partition_power = {}
        for edge in graph.out_edges.get(candidate, []):
            pid = partition_of.get(edge.target)
            if pid is None:
                continue
            power = estimator.edge_power(edge)
            if power > partition_power.get(pid, 0.0):
                partition_power[pid] = power
        frontier = dict(partition_power)
        for _ in range(estimator.config.max_hops - 1):
            next_frontier = {}
            for pid, power in frontier.items():
                for neighbor, edge_power in quotient.get(pid, {}).items():
                    value = power * edge_power
                    if value > partition_power.get(neighbor, 0.0) and value > estimator.config.min_power:
                        partition_power[neighbor] = value
                        next_frontier[neighbor] = value
            if not next_frontier:
                break
            frontier = next_frontier
        reach = {}
        for pid, power in partition_power.items():
            for member in members.get(pid, []):
                if member != candidate:
                    reach[member] = power
        for target, value in estimator.entity_to_class_power(candidate).items():
            reach[target] = max(reach.get(target, 0.0), value)
        for target, value in estimator.entity_to_relation_power(candidate).items():
            reach[target] = max(reach.get(target, 0.0), value)
        return reach

    return partition_of, estimated_reach


def _assert_partition_parity(graph, estimator, candidates, probabilities, config, monkeypatch):
    """Integer-id Algorithm 2 == the reference: ids, reach dicts in order, batch."""
    reference_of, reference_reach = _reference_estimated_reach(graph, estimator, config)
    partition_of = partition_pool(graph, estimator, config)
    assert partition_of.tolist() == [reference_of[pair] for pair in graph.entity_pairs]

    selection_config = GreedySelectionConfig(batch_size=8, power_threshold=0.5, candidate_limit=150)
    captured = []

    def capturing_greedy(candidates, probabilities, reach, config, rng):
        captured.append(reach)
        return greedy_select(candidates, probabilities, reach, config, rng)

    monkeypatch.setattr(partition_module, "greedy_select", capturing_greedy)
    batch = partition_select(
        candidates, probabilities, graph, estimator,
        selection_config=selection_config, partition_config=config, rng=0,
    )
    for candidate in graph.entity_pairs:
        assert list(captured[0](candidate).items()) == list(reference_reach(candidate).items())
    reference_batch = greedy_select(candidates, probabilities, reference_reach, selection_config, rng=0)
    assert batch == reference_batch
    return partition_of


class _FixedPowerEstimator:
    """Edge power keyed by (KG1 source entity, KG1 relation); no schema reach."""

    def __init__(self, powers):
        self.powers = powers
        self.config = InferencePowerConfig(max_hops=3, power_threshold=0.1)

    def edge_power(self, edge):
        return self.powers[(edge.source.left, edge.relation.left)]

    def reachable_power(self, source):
        return {}

    def entity_to_class_power(self, source):
        return {}

    def entity_to_relation_power(self, source):
        return {}


class TestPartitioning:
    def test_partition_pool_assigns_every_entity_pair(self, inference_setup):
        _, _, graph, estimator = inference_setup
        config = PartitionSelectionConfig(rho=0.9)
        partition_of = partition_pool(graph, estimator, config)
        assert partition_of.shape == (len(graph.entity_pairs),)
        assert partition_of.min() == 0
        assert set(partition_of.tolist()) == set(range(int(partition_of.max()) + 1))
        assert partition_of.max() < config.max_partitions

    # 10 is where the fixture's pool stops in the middle of a pass
    @pytest.mark.parametrize("max_partitions", [3, 10, 200])
    @pytest.mark.parametrize("rho", [0.95, 0.9, 0.8])
    def test_matches_dict_reference(self, inference_setup, rho, max_partitions, monkeypatch):
        _, pool, graph, estimator = inference_setup
        rng = np.random.default_rng(0)
        candidates = pool.all_pairs
        probabilities = {pair: float(rng.random()) for pair in candidates}
        config = PartitionSelectionConfig(rho=rho, max_partitions=max_partitions)
        partition_of = _assert_partition_parity(
            graph, estimator, candidates, probabilities, config, monkeypatch
        )
        assert partition_of.max() + 1 <= max_partitions

    def test_hand_built_graph_pins_tie_break_and_split_order(self, monkeypatch):
        # a --q--> b and a --p--> b are parallel edges; both contribute the
        # pair's best power 0.5, so p and q tie at 0.75 in the first pass.  q
        # is met first (a's first out-edge) although p has the lower id, so
        # {a, e} split off as partition 1.  In the second pass partitions 1
        # (first member a) and 0 (first member b) both split; 1 comes first
        # in node order and takes id 2.  f has no edges and stays in 0.
        entities = ["a", "b", "c", "d", "e", "f"]
        triples = [Triple("a", "q", "b"), Triple("a", "p", "b"),
                   Triple("c", "p", "d"), Triple("e", "q", "a")]
        kg = KnowledgeGraph("side", entities=entities, relations=["p", "q"], triples=triples)
        graph = build_alignment_graph(kg, kg, {(i, i) for i in range(6)}, {(0, 0), (1, 1)})
        assert graph.source.tolist() == [0, 0, 2, 4]
        assert graph.relation.tolist() == [1, 0, 0, 1]
        assert graph.target.tolist() == [1, 1, 3, 0]
        estimator = _FixedPowerEstimator({(0, 1): 0.5, (0, 0): 0.3, (2, 0): 0.25, (4, 1): 0.25})

        expected = {2: [1, 0, 0, 0, 1, 0], 3: [1, 0, 0, 0, 2, 0], 200: [1, 0, 3, 0, 2, 0]}
        candidates = graph.entity_pairs
        probabilities = {pair: 0.1 * (i + 1) for i, pair in enumerate(candidates)}
        for max_partitions, partitions in expected.items():
            config = PartitionSelectionConfig(rho=0.9, max_partitions=max_partitions)
            partition_of = _assert_partition_parity(
                graph, estimator, candidates, probabilities, config, monkeypatch
            )
            assert partition_of.tolist() == partitions

    def test_partition_select_returns_batch(self, inference_setup):
        pipeline, pool, graph, estimator = inference_setup
        candidates = pool.all_pairs[:200]
        probabilities = {pair: 0.5 for pair in candidates}
        batch = partition_select(
            candidates, probabilities, graph, estimator,
            selection_config=GreedySelectionConfig(batch_size=5, candidate_limit=100),
            partition_config=PartitionSelectionConfig(rho=0.9),
            rng=0,
        )
        assert 0 < len(batch) <= 5

    def test_partition_config_validation(self):
        with pytest.raises(ValueError):
            PartitionSelectionConfig(rho=0.0)


class TestStrategies:
    def test_registry_contains_paper_strategies(self):
        assert set(STRATEGY_REGISTRY) == {
            "random", "degree", "pagerank", "uncertainty", "activeea", "daakg"
        }

    def test_create_strategy_unknown(self):
        with pytest.raises(KeyError):
            create_strategy("nope")

    def test_daakg_strategy_algorithm_validation(self):
        with pytest.raises(ValueError):
            create_strategy("daakg", algorithm="bogus")

    @pytest.mark.parametrize("name", ["random", "degree", "pagerank", "uncertainty", "activeea"])
    def test_simple_strategies_return_unique_unlabelled_pairs(self, name, fitted_pipeline):
        from repro.active.strategies import SelectionState

        pool = build_pool(fitted_pipeline.model, PoolConfig(top_n=10))
        unlabelled = pool.all_pairs
        probabilities = {pair: 0.5 for pair in unlabelled}
        state = SelectionState(
            pool=pool, unlabelled=unlabelled, probabilities=probabilities,
            model=fitted_pipeline.model, rng=np.random.default_rng(0),
        )
        batch = create_strategy(name).select(state, 7)
        assert len(batch) == 7
        assert len(set(batch)) == 7
        assert all(pair in unlabelled for pair in batch)


class TestActiveLoop:
    def test_loop_runs_and_improves_labels(self, fitted_pipeline):
        loop = fitted_pipeline.active_learning(
            strategy=RandomStrategy(),
            config=ActiveLearningConfig(
                batch_size=10, num_batches=2, fine_tune_epochs=2,
                pool=PoolConfig(top_n=10),
                inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
            ),
        )
        records = loop.run()
        assert len(records) == 2
        assert records[1].labels_used > records[0].labels_used
        assert records[0].labels_used == 10
        for record in records:
            assert 0.0 <= record.entity_scores.hits_at_1 <= 1.0

    def test_loop_config_validation(self):
        with pytest.raises(ValueError):
            ActiveLearningConfig(batch_size=0)
