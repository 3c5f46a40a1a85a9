"""The online AlignmentService: queries, caching, swap, fold-in."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.kg.elements import ElementKind
from repro.serving import AlignmentService, ServingError
from repro.updates import KGDelta


@pytest.fixture(scope="module")
def service(fitted_pipeline):
    return AlignmentService.from_pipeline(fitted_pipeline)


@pytest.fixture(scope="module")
def entity_matrix(fitted_pipeline):
    return fitted_pipeline.model.entity_similarity_matrix().copy()


@pytest.fixture(scope="module")
def value_tol(fitted_pipeline) -> float:
    """Tolerance when comparing served values against the full matrix.

    The dense backend serves slices of the very matrix being compared
    against, so equality is exact.  The sharded backend recomputes each
    served value from factored tiles, whose BLAS reductions can differ from
    the materialised matrix in the last ulp.
    """
    return 0.0 if fitted_pipeline.model.similarity.backend_name == "dense" else 1e-12


# ------------------------------------------------------------------- queries
def test_top_k_matches_engine_matrix(service, fitted_pipeline, entity_matrix, value_tol):
    uris = list(fitted_pipeline.kg1.entities[:4])
    results = service.top_k_alignments(uris, k=5)
    for uri, ranked in zip(uris, results):
        row = entity_matrix[fitted_pipeline.kg1.entity_id(uri)]
        assert len(ranked) == 5
        assert ranked[0][1] == pytest.approx(row.max(), abs=value_tol)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(name in fitted_pipeline.kg2.entity_index for name, _ in ranked)


def test_score_pairs_matches_engine_matrix(service, fitted_pipeline, entity_matrix, value_tol):
    pairs = [
        (fitted_pipeline.kg1.entities[i], fitted_pipeline.kg2.entities[j])
        for i, j in ((0, 0), (1, 3), (5, 2))
    ]
    scores = service.score_pairs(pairs)
    for (left, right), score in zip(pairs, scores):
        i = fitted_pipeline.kg1.entity_id(left)
        j = fitted_pipeline.kg2.entity_id(right)
        assert score == pytest.approx(entity_matrix[i, j], abs=value_tol)


def test_pair_probabilities_match_full_matrix(service, fitted_pipeline, entity_matrix):
    expected = fitted_pipeline.calibrator.probability_matrix(
        entity_matrix, ElementKind.ENTITY
    )
    pairs = [(fitted_pipeline.kg1.entities[2], fitted_pipeline.kg2.entities[7])]
    probabilities = service.pair_probabilities(pairs)
    np.testing.assert_allclose(probabilities[0], expected[2, 7], rtol=0, atol=1e-12)


def test_unknown_uri_raises(service):
    with pytest.raises(ServingError, match="unknown KG1 entity"):
        service.top_k_alignments(["definitely-not-an-entity"], k=3)


# -------------------------------------------------------------------- caching
def test_lru_cache_hits_on_repeat(fitted_pipeline):
    service = AlignmentService.from_pipeline(fitted_pipeline)
    uris = list(fitted_pipeline.kg1.entities[:3])
    service.top_k_alignments(uris, k=4)
    assert service.stats.cache_hits == 0
    first = service.top_k_alignments(uris, k=4)
    assert service.stats.cache_hits == 3
    assert first == service.top_k_alignments(uris, k=4)


def test_cache_eviction_respects_capacity(fitted_pipeline):
    service = AlignmentService.from_pipeline(fitted_pipeline, cache_size=2)
    uris = list(fitted_pipeline.kg1.entities[:5])
    service.top_k_alignments(uris, k=3)
    assert len(service._cache) == 2


# -------------------------------------------------------------------- tokens
def test_in_memory_tokens_are_unique_per_snapshot(fitted_pipeline):
    a = AlignmentService.from_pipeline(fitted_pipeline)
    b = AlignmentService.from_pipeline(fitted_pipeline)
    assert a.state_token != b.state_token  # same pipeline, distinct snapshots


# ------------------------------------------------------------------- hot swap
def test_hot_swap_from_checkpoint(fitted_pipeline, tmp_path, value_tol):
    service = AlignmentService.from_pipeline(fitted_pipeline)
    token_before = service.state_token
    fitted_pipeline.save(tmp_path / "snap")
    token_after = service.hot_swap(tmp_path / "snap")
    assert token_after == service.state_token != token_before
    assert token_after.startswith("ckpt-")
    assert service.stats.swaps == 1
    # the swapped state serves the same frozen matrices
    uri = fitted_pipeline.kg1.entities[0]
    matrix = fitted_pipeline.model.entity_similarity_matrix()
    assert service.top_k_alignments([uri], k=1)[0][0][1] == pytest.approx(
        matrix[0].max(), abs=value_tol
    )


# -------------------------------------------------------------------- fold-in
def _clone_triples(kg, victim: int, new_name: str, limit: int = 6):
    triples = [
        (new_name, kg.relations[r], kg.entities[t]) for r, t in kg.out_edges(victim)[:limit]
    ]
    triples += [
        (kg.entities[h], kg.relations[r], new_name) for r, h in kg.in_edges(victim)[:limit]
    ]
    return triples


def test_fold_in_appends_column_and_scores_like_clone(fitted_pipeline, entity_matrix, value_tol):
    service = AlignmentService.from_pipeline(fitted_pipeline)
    kg2 = fitted_pipeline.kg2
    victim = max(range(kg2.num_entities), key=kg2.entity_degree)
    token_before = service.state_token
    n_before = service.num_entities(2)
    report = service.apply_delta(
        KGDelta.single_entity("folded:new", _clone_triples(kg2, victim, "folded:new"))
    )[0]
    assert service.num_entities(2) == n_before + 1
    assert report.index == n_before
    assert service.state_token != token_before
    assert service.stats.folds == 1
    # the clone of the best-matched entity should itself score well for the
    # same KG1 partner (embedding channel only, so not identical)
    partner = int(np.argmax(entity_matrix[:, victim]))
    partner_name = fitted_pipeline.kg1.entities[partner]
    clone_score = service.score_pairs([(partner_name, "folded:new")])[0]
    assert clone_score > 0.25
    # existing entities are untouched
    assert service.score_pairs([(partner_name, kg2.entities[victim])])[0] == pytest.approx(
        entity_matrix[partner, victim], abs=value_tol
    )


def test_fold_in_side_1_appends_row(fitted_pipeline):
    service = AlignmentService.from_pipeline(fitted_pipeline)
    kg1 = fitted_pipeline.kg1
    victim = max(range(kg1.num_entities), key=kg1.entity_degree)
    service.apply_delta(
        KGDelta.single_entity(
            "folded:left", _clone_triples(kg1, victim, "folded:left"), side=1
        )
    )
    ranked = service.top_k_alignments(["folded:left"], k=3)[0]
    assert len(ranked) == 3
    assert all(np.isfinite(score) for _, score in ranked)


def test_fold_in_cache_isolation(fitted_pipeline):
    # results cached before a fold-in must not be served for the new state
    service = AlignmentService.from_pipeline(fitted_pipeline)
    kg2 = fitted_pipeline.kg2
    uri = fitted_pipeline.kg1.entities[0]
    service.top_k_alignments([uri], k=2)
    victim = max(range(kg2.num_entities), key=kg2.entity_degree)
    service.apply_delta(
        KGDelta.single_entity("folded:iso", _clone_triples(kg2, victim, "folded:iso"))
    )
    hits_before = service.stats.cache_hits
    service.top_k_alignments([uri], k=2)
    assert service.stats.cache_hits == hits_before  # token changed → cache miss


# ---------------------------------------------------------------- threading
def test_concurrent_queries_keep_exact_counters(fitted_pipeline):
    """Hammer the direct query API from many threads.

    The stats counters are lock-exact, so the totals must come out *equal*
    (not approximately equal — a lost ``+=`` update is exactly the bug the
    per-counter lock exists to prevent), and the LRU cache must respect its
    capacity under concurrent eviction.
    """
    service = AlignmentService.from_pipeline(fitted_pipeline, cache_size=16)
    kg1, kg2 = fitted_pipeline.kg1, fitted_pipeline.kg2
    uris = list(kg1.entities)
    threads, errors = [], []
    rounds, batch = 40, 8

    def hammer(offset: int) -> None:
        try:
            for round_index in range(rounds):
                base = (offset * rounds + round_index) % len(uris)
                chunk = [uris[(base + j) % len(uris)] for j in range(batch)]
                service.top_k_alignments(chunk, k=3)
                service.score_pairs([(chunk[0], kg2.entities[base % kg2.num_entities])])
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    for offset in range(6):
        threads.append(threading.Thread(target=hammer, args=(offset,)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    # 6 threads x 40 rounds x (8 top-k uris + 1 score pair), counted exactly
    assert service.stats.queries == 6 * rounds * (batch + 1)
    assert len(service._cache) <= 16


def test_fold_in_rejects_bad_input(fitted_pipeline):
    service = AlignmentService.from_pipeline(fitted_pipeline)
    kg2 = fitted_pipeline.kg2
    existing = kg2.entities[0]
    with pytest.raises(ServingError, match="at least one"):
        service.apply_delta(KGDelta.single_entity("x", []))
    with pytest.raises(ServingError, match="already exists"):
        service.apply_delta(
            KGDelta.single_entity(existing, [("a", kg2.relations[0], existing)])
        )
    with pytest.raises(ServingError, match="unknown side-2 relation"):
        service.apply_delta(
            KGDelta.single_entity("x", [("x", "no-such-relation", existing)])
        )
    with pytest.raises(ServingError, match="must connect"):
        service.apply_delta(
            KGDelta.single_entity("x", [("ghost", kg2.relations[0], "phantom")])
        )
