"""Per-layer metrics: which entry points the traced run wraps, and what they yield.

Each wrapped public entry point becomes a span name; a layer's ``*_s`` metric
is the summed self time of its spans, so nested layers (``fit`` →
``alignment.train`` → ``autograd.backward``) are not counted twice.

Every workload reports every per-layer metric, and each is a total: seconds,
calls or items summed over the run.  A layer the workload never entered
reports 0, which is exact, because its entry point is wrapped and was not
called.  Means, ratios and quantiles have no value without samples, so they
are detail figures, printed only when the run has samples for them.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

import loadgen
from tracing import LayerTotals, Span, Tracer, layer_totals

# (per-layer metric, span name) pairs reported as summed self time
SELF_SECONDS = (
    ("datasets.generate_s", "datasets.generate"),
    ("embedding.pretrain_s", "embedding.pretrain"),
    ("alignment.train_s", "alignment.train"),
    ("autograd.backward_s", "autograd.backward"),
    ("nn.step_s", "nn.step"),
    ("alignment.evaluate_s", "alignment.evaluate"),
    ("alignment.fine_tune_s", "alignment.fine_tune"),
    ("active.pool_s", "active.pool"),
    ("inference.graph_s", "inference.graph"),
    ("active.partition_pool_s", "active.partition_pool"),
    ("active.partition_select_s", "active.partition_select"),
    ("active.greedy_s", "active.greedy"),
    ("inference.reach_s", "inference.reach"),
    ("persistence.swap_s", "persistence.swap"),
    ("updates.fold_s", "updates.fold"),
)
# (per-layer metric, span name) pairs reported as a number of calls
CALLS = (
    ("autograd.backward_calls", "autograd.backward"),
    ("nn.step_calls", "nn.step"),
    ("inference.reach_calls", "inference.reach"),
    ("persistence.swaps", "persistence.swap"),
    ("updates.folds", "updates.fold"),
)
# counts the workloads take from the program's own counters and stats
COUNTERS = (
    "runtime.similarity_hits",
    "runtime.similarity_misses",
    "runtime.similarity_rebuilds",
    "active.batch_matches",
    "serving.deadline_flushes",
    "serving.cache_hits",
    "serving.shed",
    "serving.peak_queue_depth",
)
COMPUTE_SPANS = ("serving.top_k", "serving.score")


def _top_k_keys(args, kwargs, result) -> dict:
    uris = args[1]
    k = args[2] if len(args) > 2 else kwargs.get("k", 10)
    return {"items": len(uris), "_keys": [(uri, k) for uri in uris]}


def _score_keys(args, kwargs, result) -> dict:
    return {"items": len(args[1]), "_keys": list(args[1])}


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points; ``tracer.uninstall()`` undoes it."""
    import repro.active.partition as partition
    import repro.active.pool as pool
    import repro.active.selection as selection
    import repro.alignment.evaluation as evaluation
    import repro.datasets.benchmark as benchmark
    import repro.inference.alignment_graph as alignment_graph
    from repro.active.loop import ActiveLearningLoop
    from repro.alignment.trainer import JointAlignmentTrainer
    from repro.autograd.tensor import Tensor
    from repro.core.daakg import DAAKG
    from repro.embedding.trainer import KGEmbeddingTrainer
    from repro.inference.power import InferencePowerEstimator
    from repro.nn.optim import SGD, Adam
    from repro.serving import AlignmentService

    tracer.patch_function(benchmark, "make_benchmark", "datasets.generate")
    tracer.patch_method(DAAKG, "fit", "pipeline.fit")
    tracer.patch_method(DAAKG, "evaluate", "pipeline.evaluate")
    tracer.patch_method(DAAKG, "save", "persistence.save")
    tracer.patch_method(KGEmbeddingTrainer, "train", "embedding.pretrain")
    tracer.patch_method(JointAlignmentTrainer, "train", "alignment.train")
    tracer.patch_method(JointAlignmentTrainer, "fine_tune", "alignment.fine_tune")
    tracer.patch_method(Tensor, "backward", "autograd.backward")
    tracer.patch_method(Adam, "step", "nn.step")
    tracer.patch_method(SGD, "step", "nn.step")
    tracer.patch_function(evaluation, "evaluate_alignment_from_engine", "alignment.evaluate")
    tracer.patch_method(ActiveLearningLoop, "run", "active.round")
    tracer.patch_function(pool, "build_pool", "active.pool")
    tracer.patch_function(
        alignment_graph,
        "build_alignment_graph",
        "inference.graph",
        lambda args, kwargs, graph: {"edges": graph.num_edges()},
    )
    tracer.patch_function(partition, "partition_pool", "active.partition_pool")
    tracer.patch_function(
        partition,
        "partition_select",
        "active.partition_select",
        lambda args, kwargs, result: {"candidates": len(args[0])},
    )
    tracer.patch_function(selection, "greedy_select", "active.greedy")
    tracer.patch_method(InferencePowerEstimator, "reachable_power", "inference.reach")
    tracer.patch_method(AlignmentService, "top_k_alignments", "serving.top_k", _top_k_keys)
    tracer.patch_method(AlignmentService, "score_pairs", "serving.score", _score_keys)
    tracer.patch_method(AlignmentService, "hot_swap", "persistence.swap")
    tracer.patch_method(AlignmentService, "apply_delta", "updates.fold")


def attribute_requests(tracer: Tracer, phases) -> list[float]:
    """Link each answered request to the compute call that answered it.

    A request is answered by the service call that received its key, started
    after it was submitted and ended before it completed (the latest such
    call).  Requests resolved together share one completion timestamp; their
    batch's compute is the sum of the distinct calls that answered them.
    Adds one ``serving.request`` span per request (``request_id`` numbers the
    requests of all ``phases`` in order) and records the request ids on each
    compute span.  Returns each answered request's queue wait in ms: its
    latency minus its batch's compute.
    """
    by_key: dict[tuple, list[tuple[float, float, Span]]] = defaultdict(list)
    for span in tracer.spans:
        if span.name in COMPUTE_SPANS:
            op = "topk" if span.name == "serving.top_k" else "score"
            for key in span.attrs["_keys"]:
                by_key[(op, key)].append((span.start, span.end, span))
    starts = {}
    for key, calls in by_key.items():
        calls.sort(key=lambda call: call[0])
        starts[key] = [call[0] for call in calls]

    requests = []  # (request id, phase, index, key, answering span or None)
    for phase in phases:
        for i in range(len(phase)):
            key = phase.stream.query(i)
            best = None
            if phase.ok[i]:
                calls = by_key.get(key, [])
                completed = phase.completed[i]
                position = bisect.bisect_left(starts.get(key, []), phase.submitted[i])
                while position < len(calls) and calls[position][0] <= completed:
                    start, end, span = calls[position]
                    if end <= completed and (best is None or end > best.end):
                        best = span
                    position += 1
            if best is not None:
                best.attrs.setdefault("request_ids", []).append(len(requests))
            requests.append((len(requests), phase, i, key, best))

    batches: dict[float, dict[int, float]] = defaultdict(dict)
    for _, phase, i, _, span in requests:
        if span is not None:
            batches[phase.completed[i]][span.id] = span.duration
    waits = []
    for request_id, phase, i, (op, _), span in requests:
        attrs = {"request_id": request_id, "op": op, "status": int(phase.status[i])}
        end = phase.due[i]
        if span is not None:
            end = phase.completed[i]
            wait = end - phase.due[i] - sum(batches[end].values())
            waits.append(wait * 1e3)
            attrs.update(answered_by=span.id, queue_wait_ms=wait * 1e3)
        start = float(phase.due[i])
        tracer.spans.append(
            Span(tracer.new_id(), None, "serving.request", start, float(end), 0, attrs)
        )
    return waits


def per_layer(tracer: Tracer, outcome) -> tuple[dict, dict]:
    """The per-layer metrics, and the detail figures the run has samples for."""
    waits = attribute_requests(tracer, outcome.phases)
    totals = layer_totals(tracer.spans)
    absent = LayerTotals()
    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in SELF_SECONDS:
        metrics[metric] = (totals.get(name, absent).self_s, "s")
    for metric, name in CALLS:
        metrics[metric] = (totals.get(name, absent).calls, "count")
    for metric in COUNTERS:
        metrics[metric] = outcome.layer.get(metric, (0, "count"))

    def attr_sum(name: str, attr: str) -> int:
        return sum(s.attrs[attr] for s in tracer.spans if s.name == name and attr in s.attrs)

    metrics["inference.graph_edges"] = (attr_sum("inference.graph", "edges"), "count")
    metrics["active.candidates"] = (attr_sum("active.partition_select", "candidates"), "count")
    compute = [s for s in tracer.spans if s.name in COMPUTE_SPANS]
    metrics["serving.batch_calls"] = (len(compute), "count")
    metrics["serving.batch_items"] = (sum(s.attrs["items"] for s in compute), "count")
    seconds = sum(totals.get(name, absent).self_s for name in COMPUTE_SPANS)
    metrics["serving.compute_s"] = (seconds, "s")
    metrics["serving.queue_wait_s"] = (sum(waits) / 1e3, "s")

    detail: dict[str, tuple[float, str]] = {}
    if compute:
        items = metrics["serving.batch_items"][0]
        detail["serving.batch_size_mean"] = (items / len(compute), "count")
    if waits:
        detail["serving.queue_wait_ms.p50"] = (loadgen.quantile(waits, 0.5), "ms")
        detail["serving.queue_wait_ms.p99"] = (loadgen.quantile(waits, 0.99), "ms")
    swaps = [s.duration * 1e3 for s in tracer.spans if s.name == "persistence.swap"]
    if swaps:
        detail["persistence.swap_ms"] = (statistics.median(swaps), "ms")
    return metrics, detail
