"""Table 6: accuracy of the inference power measurement.

For each base embedding model, takes the labelled training matches, computes
the element pairs whose inference power from those labels exceeds the
threshold κ, and measures which fraction of them are true matches.  The
paper's shape: the measurement is accurate (≳0.75), and TransE — whose tail
bound is exact — is the most accurate, with the sampled-bound models behind.

A model that infers no pair above κ has no accuracy: its headline is ``null``
(not ``0.0``) and ``detail`` records how many pairs each model inferred.
"""

import time

import pytest

from conftest import BENCH_DATASETS, fitted_daakg, print_table, record_bench
from repro.inference.pairs import ElementPair
from repro.inference.power import inference_accuracy
from repro.kg.elements import ElementKind

MODELS = ["transe", "rotate", "compgcn"]

_RESULTS: dict[str, float | None] = {}
_INFERRED: dict[str, int] = {}


def _accuracy(base_model: str) -> float | None:
    if base_model in _RESULTS:
        return _RESULTS[base_model]
    start = time.perf_counter()
    pipeline = fitted_daakg(BENCH_DATASETS[0], base_model)
    pool = pipeline.build_pool()
    graph, estimator = pipeline.build_inference_estimator(pool)
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
    elapsed = time.perf_counter() - start
    _RESULTS[base_model] = accuracy
    _INFERRED[base_model] = len(estimator.inferred_pairs(labelled))
    record_bench(
        "table6",
        wall_time_seconds=elapsed,
        headline={f"{base_model}:accuracy": None if accuracy is None else round(accuracy, 4)},
        detail={f"{base_model}:inferred": _INFERRED[base_model]},
    )
    return accuracy


@pytest.mark.parametrize("base_model", MODELS)
def test_table6_inference_accuracy(benchmark, base_model):
    accuracy = benchmark.pedantic(lambda: _accuracy(base_model), rounds=1, iterations=1)
    print_table(
        f"Table 6: inference power accuracy ({BENCH_DATASETS[0]})",
        ["Model", "Accuracy"],
        [[base_model, "no inferred pairs" if accuracy is None else f"{accuracy:.3f}"]],
    )
    if accuracy is None:
        assert _INFERRED[base_model] == 0
    else:
        assert _INFERRED[base_model] > 0
        assert 0.0 <= accuracy <= 1.0


def test_table6_transe_bound_is_competitive():
    """TransE's exact bound should be at least as accurate as CompGCN's sampled bound.

    TransE must infer something; when CompGCN infers nothing there is no
    CompGCN accuracy to compare against, and TransE's measured one stands.
    """
    transe, compgcn = _accuracy("transe"), _accuracy("compgcn")
    assert transe is not None, "TransE inferred no pair above the threshold"
    if compgcn is not None:
        assert transe >= compgcn - 0.1
