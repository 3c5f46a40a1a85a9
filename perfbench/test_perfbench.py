"""Tests of the benchmark itself: span arithmetic, wrapping, determinism, checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402
from repro.inference.pairs import class_pair, entity_pair  # noqa: E402
from repro.kg.elements import ElementKind  # noqa: E402
from tracing import Span, Tracer, layer_totals, self_times  # noqa: E402


# ---------------------------------------------------------------- span arithmetic
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 1),
        Span(2, 1, "a", 1.0, 4.0, 1),
        Span(3, 1, "b", 3.0, 6.0, 1),  # overlaps a: [3, 4] must count once
        Span(4, 1, "c", 8.0, 12.0, 1),  # runs past its parent: clipped to [8, 10]
        Span(5, 2, "d", 2.0, 3.0, 1),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    totals = layer_totals(spans + [Span(6, None, "a", 20.0, 21.5, 2)])
    assert totals["a"].calls == 2
    assert totals["a"].self_s == pytest.approx(3.5)


def test_spans_nest_per_thread_and_record_parents():
    tracer = Tracer()
    inner = tracer.wrap(lambda: "x", "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    assert outer() == "xx"
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["outer"]
    assert root.parent is None
    assert [s.parent for s in by_name["inner"]] == [root.id, root.id]


# -------------------------------------------------------------------- wrapping
def test_wrapper_returns_the_same_object_and_propagates_errors():
    tracer = Tracer()
    sentinel = object()
    assert tracer.wrap(lambda: sentinel, "f")() is sentinel

    def boom():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "g")()
    assert [s.name for s in tracer.spans] == ["f", "g"]


def test_wrapped_entry_points_return_what_the_unwrapped_ones_return():
    from repro import DAAKG, make_benchmark
    import repro.alignment.evaluation as evaluation
    from repro.serving import AlignmentService

    pipeline = DAAKG(make_benchmark("D-W", scale=0.1, seed=0), workloads.quick_config("transe"))
    pipeline.fit()
    service = AlignmentService.from_pipeline(pipeline, cache_size=0)
    uris = list(pipeline.dataset.kg1.entities[:8])
    pairs = list(zip(uris, pipeline.dataset.kg2.entities[:8]))
    original = evaluation.evaluate_alignment_from_engine

    expected = (pipeline.evaluate(), service.top_k_alignments(uris, 5), service.score_pairs(pairs))
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert evaluation.evaluate_alignment_from_engine is not original
        got = (pipeline.evaluate(), service.top_k_alignments(uris, 5), service.score_pairs(pairs))
    finally:
        tracer.uninstall()
    assert evaluation.evaluate_alignment_from_engine is original
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert np.array_equal(got[2], expected[2])
    names = {span.name for span in tracer.spans}
    assert {"pipeline.evaluate", "alignment.evaluate", "serving.top_k", "serving.score"} <= names


# ----------------------------------------------------------------- determinism
def test_request_streams_are_deterministic_per_seed():
    kg1 = [f"a{i}" for i in range(50)]
    kg2 = [f"b{i}" for i in range(40)]

    def queries(seed):
        stream = loadgen.RequestMix(seed, kg1, kg2).stream(1, 500.0, 2.0)
        return stream, [(offset, stream.query(i)) for i, offset in enumerate(stream.offsets)]

    first, listed = queries(7)
    assert queries(7)[1] == listed
    assert queries(8)[1] != listed
    assert 800 < len(first) < 1200
    assert np.all((first.offsets >= 0.0) & (first.offsets < 2.0))
    assert 0.65 < first.top_k.mean() < 0.85


def test_churn_deltas_are_deterministic_per_seed():
    def deltas(seed):
        writer = workloads.ChurnWriter(None, "unused", seed, ["e1", "e2", "e3"], ["r1", "r2"])
        return [writer._delta(f"n{i}") for i in range(5)]

    assert deltas(3) == deltas(3)
    assert deltas(3) != deltas(4)


def test_workload_dataset_is_deterministic():
    from repro import make_benchmark

    a = make_benchmark(workloads.DATASET, scale=workloads.SCALE, seed=workloads.DATA_SEED)
    b = make_benchmark(workloads.DATASET, scale=workloads.SCALE, seed=workloads.DATA_SEED)
    assert a.kg1.entities == b.kg1.entities and a.kg2.entities == b.kg2.entities
    assert a.test_entity_pairs == b.test_entity_pairs


# --------------------------------------------------------- correctness checks
class FakeFrontend:
    """Answers each submission at once, with ``corrupt`` applied to chosen answers."""

    def __init__(self, reference: loadgen.Reference, corrupt=None, shed_at=()):
        self.reference = reference
        self.corrupt = corrupt or {}
        self.shed_at = set(shed_at)
        self.submitted = 0

    def _answer(self, op, args):
        i = self.submitted
        self.submitted += 1
        if i in self.shed_at:
            raise BufferError("shed")
        value = self.reference.expected(i, op, args)
        value = self.corrupt.get(i, lambda v: v)(value)
        return types.SimpleNamespace(value=value, error=None, completed_at=1.0 + i, ready=True)

    def submit_top_k(self, uri, k):
        return self._answer("topk", (uri, k))

    def submit_score(self, left, right):
        return self._answer("score", (left, right))

    def wait(self, ticket, timeout):
        pass

    def drain(self, timeout):
        return True


class DirectService:
    """A stand-in for a direct service: scores are ``len(left) + len(right)``."""

    def top_k_alignments(self, uris, k):
        return [[(f"{uri}-m{j}", float(k - j)) for j in range(k)] for uri in uris]

    def score_pairs(self, pairs):
        return np.array([len(a) + len(b) for a, b in pairs], dtype=float)


def _stream(n=40):
    """``n`` requests, all due at once."""
    mix = loadgen.RequestMix(1, [f"a{i}" for i in range(30)], [f"bb{i}" for i in range(20)])
    stream = mix.stream(0, 1e6, 1.0)
    return loadgen.Stream(mix, np.zeros(n), stream.top_k[:n], stream.left[:n], stream.right[:n])


def test_drive_checks_every_answer_against_the_reference():
    stream = _stream()
    reference = loadgen.Reference.compute(DirectService(), stream)
    phase = loadgen.drive(FakeFrontend(reference), stream, reference, BufferError)
    assert phase.ok.all() and np.all(np.isfinite(phase.latency))
    top_k = [i for i in range(len(stream)) if stream.top_k[i]]
    scores = [i for i in range(len(stream)) if not stream.top_k[i]]
    corrupt = {
        top_k[0]: lambda v: v[:-1] + [(v[-1][0], v[-1][1] + 1e-9)],
        top_k[1]: lambda v: list(reversed(v)),
        scores[0]: lambda v: v + 1e-12,
    }
    phase = loadgen.drive(
        FakeFrontend(reference, corrupt, shed_at=[scores[1]]), stream, reference, BufferError
    )
    assert sorted(np.flatnonzero(phase.status == loadgen.WRONG)) == sorted(corrupt)
    assert list(np.flatnonzero(phase.status == loadgen.SHED)) == [scores[1]]
    assert np.isinf(phase.latency[sorted(corrupt) + [scores[1]]]).all()


def test_top_k_check_is_tie_aware_and_rejects_corruption():
    matrix = np.array([[0.1, 0.9, 0.5, 0.9], [0.3, 0.2, 0.1, 0.0]])
    left = {"p": 0, "q": 1}
    right = {"w": 0, "x": 1, "y": 2, "z": 3}
    good = {"p": [("x", 0.9), ("z", 0.9)], "q": [("w", 0.3), ("x", 0.2)]}
    tie_swapped = {"p": [("z", 0.9), ("x", 0.9)]}
    assert checks.top_k_rows_match_matrix(good, matrix, left, right, 2) == []
    assert checks.top_k_rows_match_matrix(tie_swapped, matrix, left, right, 2) == []
    corrupted = [
        {"p": [("x", 0.9), ("y", 0.5)]},  # skips a larger value
        {"p": [("x", 0.9), ("x", 0.9)]},  # repeats a name
        {"p": [("x", 0.9), ("y", 0.9)]},  # right scores, wrong name
        {"q": [("x", 0.2), ("w", 0.3)]},  # not descending
        {"q": [("w", 0.3)]},  # too short
    ]
    for answer in corrupted:
        assert checks.top_k_rows_match_matrix(answer, matrix, left, right, 2), answer


def test_score_check_rejects_corruption():
    matrix = np.array([[0.25, 0.75]])
    assert checks.scores_match_matrix({("p", "y"): 0.75}, matrix, {"p": 0}, {"x": 0, "y": 1}) == []
    assert checks.scores_match_matrix({("p", "y"): 0.7}, matrix, {"p": 0}, {"x": 0, "y": 1})


def test_h1_check_recomputes_tie_aware_h1_and_rejects_corruption():
    matrix = np.array([[0.9, 0.1, 0.2], [0.5, 0.5, 0.1], [0.1, 0.2, 0.8]])
    gold = np.array([[0, 0], [1, 1], [2, 1]])  # hit, tie (rank 1.5), miss
    assert checks.hits_at_1(matrix, gold) == 1 / 3
    assert checks.h1_matches_matrix(1 / 3, matrix, gold) == []
    assert checks.h1_matches_matrix(2 / 3, matrix, gold)


def test_h1_check_agrees_with_the_programs_evaluation():
    from repro.alignment.evaluation import evaluate_alignment

    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 4, size=(30, 20)).astype(float)  # many ties
    gold = np.stack([np.arange(20), rng.permutation(20)], axis=1)
    assert checks.hits_at_1(matrix, gold) == evaluate_alignment(matrix, gold).hits_at_1


def test_batch_check_rejects_each_kind_of_invalid_batch():
    from repro.active.pool import ElementPairPool

    pool = ElementPairPool(
        entity_pairs=[entity_pair(i, i) for i in range(5)], class_pairs=[class_pair(0, 0)]
    )
    labelled = {kind: set() for kind in ElementKind}
    labelled[ElementKind.ENTITY] = {(4, 4)}
    good = [entity_pair(0, 0), entity_pair(1, 1), class_pair(0, 0)]
    assert checks.batch_is_valid(good, pool, labelled, 3) == []
    assert checks.batch_is_valid(good[:2], pool, labelled, 3)
    assert checks.batch_is_valid([good[0], good[0], good[1]], pool, labelled, 3)
    assert checks.batch_is_valid([good[0], good[1], entity_pair(7, 7)], pool, labelled, 3)
    assert checks.batch_is_valid([good[0], good[1], entity_pair(4, 4)], pool, labelled, 3)


def test_output_comparison_rejects_a_changed_output():
    untraced = {"entity_h1": 0.25, "batches": [[["entity", 1, 2]]]}
    assert checks.same_outputs(untraced, dict(untraced)) == []
    assert checks.same_outputs(untraced, {**untraced, "entity_h1": 0.5})
    assert checks.same_outputs(untraced, {**untraced, "batches": [[["entity", 1, 3]]]})
    assert checks.same_outputs(untraced, {"entity_h1": 0.25})


def _phase(due, completed, status=None, stream=None):
    due = np.asarray(due, dtype=float)
    n = len(due)
    status = np.zeros(n, dtype=np.int8) if status is None else np.asarray(status, dtype=np.int8)
    stream = stream or _stream(n)
    return loadgen.Phase(stream, due, due.copy(), np.asarray(completed, dtype=float), status)


def test_latency_limit_counts_failures_as_misses():
    due = np.arange(100.0)
    assert workloads._meets_limit(_phase(due, due + 0.001))
    shed = np.zeros(100)
    shed[-1] = loadgen.SHED
    assert not workloads._meets_limit(_phase(due, due + 0.001, shed))
    assert loadgen.quantile(_phase(due, due + 0.001, shed).latency, 1.0) == float("inf")
    backlog = due + np.where(due >= 90, 0.05, 0.001)  # only the last tenth is slow
    assert not workloads._meets_limit(_phase(due, backlog))


def test_queue_wait_is_latency_minus_the_answering_batch_compute():
    mix = loadgen.RequestMix(1, ["a0", "a1"], ["b0", "b1"])
    stream = loadgen.Stream(
        mix, np.zeros(3), np.array([True, False, True]), np.array([0, 1, 0]), np.array([-1, 1, -1])
    )
    tracer = Tracer()
    # requests 0 and 1 are answered in one batch by two calls in [1.0, 1.5];
    # request 2 (same key as 0) was shed, so the later call answers nobody
    calls = [
        ("serving.top_k", 1.0, 1.2, [("a0", loadgen.TOP_K)]),
        ("serving.score", 1.2, 1.5, [("a1", "b1")]),
        ("serving.top_k", 3.0, 3.1, [("a0", loadgen.TOP_K)]),
    ]
    tracer.spans += [
        Span(tracer.new_id(), None, name, start, end, 9, {"items": len(k), "_keys": k})
        for name, start, end, k in calls
    ]
    phase = _phase([0.5, 0.6, 2.0], [1.5, 1.5, 3.1], [0, 0, loadgen.SHED], stream)
    waits = layers.attribute_requests(tracer, [phase])
    assert waits == pytest.approx([500.0, 400.0])
    assert tracer.spans[0].attrs["request_ids"] == [0]
    assert tracer.spans[1].attrs["request_ids"] == [1]
    assert "request_ids" not in tracer.spans[2].attrs
    requests = [s for s in tracer.spans if s.name == "serving.request"]
    assert [s.attrs["request_id"] for s in requests] == [0, 1, 2]
    assert "answered_by" not in requests[2].attrs


# ---------------------------------------------------------------- the manifest
def test_manifest_lists_the_metrics_every_workload_reports():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(run.PER_LAYER)
    # a run with no spans and no layer figures still reports every per-layer
    # total (as 0); only the tracing overhead is added by the run itself
    empty = workloads.Outcome()
    metrics, detail = layers.per_layer(Tracer(), empty)
    assert set(metrics) | {"trace.overhead_frac"} == set(run.PER_LAYER)
    assert all(value == 0 for value, _ in metrics.values())
    assert detail == {}
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())


# -------------------------------------------------------------------- the CLI
def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
