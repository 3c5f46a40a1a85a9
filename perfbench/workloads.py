"""The benchmark's workloads: ``fit``, ``active``, ``serve`` and ``serve-churn``.

Each workload sets up from scratch (``setup_s`` is the median over several
set-ups), measures for about ``seconds`` seconds, checks its outputs against
references computed in the same run and returns an :class:`Outcome`.

Every workload reports the same end-to-end metrics, each being what a user
of that workload waits for or gets:

- ``setup_s``: the median set-up (generation, fit and, for the serving
  workloads, evaluation, checkpoint save and frontend start);
- ``latency_ms``: on ``fit`` the median ``DAAKG.fit()``; on ``active`` the
  median labelling round; on ``serve`` the request p50 at 200/s; on
  ``serve-churn`` the request p50 at 2000/s beside the writer.  Request
  latency runs from the request's due time;
- ``entity_h1``: test-split entity H@1 after the fit, after the last round,
  or of the served model.

Every workload trains on one fixed D-W instance (dataset and model seed 0,
as the figure benchmarks under ``benchmarks/`` do): this implementation's
entity H@1 ranges from 0.07 to 0.37 across dataset and model seeds, so a
seed-dependent H@1 could not be gated.  The workload seed drives the serving
workloads' request streams and the churn writer's deltas.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import loadgen
from repro import DAAKG, DAAKGConfig, KGDelta, make_benchmark, obs, serve
from repro.active import ActiveLearningConfig, create_strategy
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.kg.pair import SplitRatios
from repro.serving import AlignmentService, BackpressureError
from tracing import paused

DATASET = "D-W"
SCALE = 0.4
DATA_SEED = 0

ACTIVE_ROUNDS = 4
ACTIVE_BATCH = 30
ACTIVE_FINE_TUNE_EPOCHS = 8
# 20 candidates per entity (~1.2 s a round on a 2-vCPU VM) rather than 30
# (~4 s): a run then holds a dozen rounds instead of four, and the
# partition selection still dominates the round
ACTIVE_POOL_TOP_N = 20

SERVING_SETUPS = 3
LATENCY_LIMIT_MS = 25.0  # the frontend's default request deadline
LADDER_START = 8000.0
LADDER_CAP = 256000.0
LADDER_STEP_S = 1.0
LADDER_WALK = 6
FOLD_INTERVAL_S = 0.05
SWAP_INTERVAL_S = 1.0
P99_WINDOW = 2000

clock = time.perf_counter


def quick_config(base_model: str) -> DAAKGConfig:
    """The figure benchmarks' configuration (``benchmarks/conftest.py``)."""
    return DAAKGConfig(
        base_model=base_model,
        pretrain=EmbeddingTrainingConfig(epochs=6),
        alignment=AlignmentTrainingConfig(
            rounds=3,
            epochs_per_round=15,
            num_negatives=8,
            embedding_batches_per_round=3,
            embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=50),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=DATA_SEED,
    )


@dataclass
class Outcome:
    """What one pass of a workload measured, produced and got wrong."""

    # the end-to-end metrics (every workload reports the same names)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    # the workload's own figures behind them, printed but not gated
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    # per-layer figures measured outside the spans (obs counters, frontend stats)
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # the fixed-rate serving phases (loadgen.Phase), for queue-wait attribution
    phases: list = field(default_factory=list)


class CacheCounters:
    """Similarity-cache counters ``repro.obs`` emits, summed over measured phases.

    They read zero unless collection is enabled, which only the traced pass does.
    """

    NAMES = ("hits", "misses", "rebuilds")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.NAMES, 0.0)

    @classmethod
    def read(cls) -> dict[str, float]:
        values = dict.fromkeys(cls.NAMES, 0.0)
        for counter in obs.snapshot()["counters"].values():
            prefix, _, kind = counter["name"].rpartition(".")
            if prefix == "similarity.cache" and kind in values:
                values[kind] += counter["value"]
        return values

    @contextlib.contextmanager
    def measuring(self):
        before = self.read()
        try:
            yield
        finally:
            after = self.read()
            for name in self.NAMES:
                self.totals[name] += after[name] - before[name]

    def report(self, out: "Outcome") -> None:
        for name in self.NAMES:
            out.layer[f"runtime.similarity_{name}"] = (self.totals[name], "count")
        lookups = self.totals["hits"] + self.totals["misses"]
        if lookups:
            out.detail["runtime.similarity_hit_ratio"] = (self.totals["hits"] / lookups, "ratio")


def _repeat(seconds: float, repeats: int | None, minimum: int, body) -> None:
    """Run ``body`` ``repeats`` times, or while the next run still fits in ``seconds``."""
    started = clock()
    durations: list[float] = []
    while True:
        if repeats is not None:
            if len(durations) >= repeats:
                return
        elif len(durations) >= minimum and (
            clock() - started + statistics.fmean(durations) > seconds
        ):
            return
        t0 = clock()
        body()
        durations.append(clock() - t0)


def _warm(timings: list[float]) -> list[float]:
    """``timings`` without the first, which warms the process up."""
    return timings[1:]


def _test_gold(pipeline: DAAKG) -> np.ndarray:
    return pipeline.pair.entity_match_ids(pipeline.pair.test_entity_pairs)


# ------------------------------------------------------------------------ fit
def run_fit(seed: int, seconds: float, workdir: str, tracer=None, repeats=None) -> Outcome:
    out = Outcome()
    setups, fits, h1s = [], [], []
    counters = CacheCounters()

    def iteration() -> None:
        t0 = clock()
        pair = make_benchmark(DATASET, scale=SCALE, seed=DATA_SEED)
        pipeline = DAAKG(pair, quick_config("compgcn"))
        setups.append(clock() - t0)
        gc.collect()
        with counters.measuring():
            t0 = clock()
            pipeline.fit()
            fits.append(clock() - t0)
            h1 = pipeline.evaluate()["entity"].hits_at_1
        with paused(tracer):
            problems = checks.h1_matches_matrix(
                h1, pipeline.model.entity_similarity_matrix(), _test_gold(pipeline)
            )
        out.errors += problems
        out.failed += bool(problems)
        h1s.append(h1)

    _repeat(seconds, repeats, 3, iteration)
    fits = _warm(fits)
    if len(set(h1s)) > 1:
        out.errors.append(f"identical fits gave different entity H@1: {h1s}")
    out.attempted = len(h1s)
    out.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms": (statistics.median(fits) * 1e3, "ms"),
        "entity_h1": (h1s[0], "ratio"),
    }
    out.detail["fit_s"] = (statistics.median(fits), "s")
    out.outputs = {"entity_h1": h1s[0]}
    counters.report(out)
    return out


# --------------------------------------------------------------------- active
def run_active(seed: int, seconds: float, workdir: str, tracer=None, repeats=None) -> Outcome:
    out = Outcome()
    setups, rounds, matches, picked, h1s, campaigns = [], [], [], [], [], []
    counters = CacheCounters()

    def campaign() -> None:
        t0 = clock()
        pair = make_benchmark(
            DATASET,
            scale=SCALE,
            split=SplitRatios(train=0.05, valid=0.05, test=0.9),
            seed=DATA_SEED,
        )
        config = quick_config("transe")
        pipeline = DAAKG(pair, config)
        pipeline.fit()
        setups.append(clock() - t0)
        loop = pipeline.active_learning(
            strategy=create_strategy("daakg", algorithm="partition"),
            config=ActiveLearningConfig(
                batch_size=ACTIVE_BATCH,
                num_batches=ACTIVE_ROUNDS,
                fine_tune_epochs=ACTIVE_FINE_TUNE_EPOCHS,
                pool=PoolConfig(top_n=ACTIVE_POOL_TOP_N),
                inference=config.inference,
            ),
        )
        gc.collect()
        for _ in range(ACTIVE_ROUNDS):
            labels = loop.trainer.labels
            before = {kind: set(labels.labelled_pairs(kind)) for kind in ElementKind}
            with counters.measuring():
                t0 = clock()
                loop.run(max_batches=1)
                rounds.append(clock() - t0)
            selected = loop.records[-1].selected
            with paused(tracer):
                problems = checks.batch_is_valid(selected, loop.pool(), before, ACTIVE_BATCH)
            out.errors += problems
            out.failed += bool(problems)
            matches.append(sum((p.left, p.right) in loop.oracle.gold_set(p.kind) for p in selected))
            picked.append(len(selected))
        h1 = loop.records[-1].entity_scores.hits_at_1
        with paused(tracer):
            out.errors += checks.h1_matches_matrix(
                h1, pipeline.model.entity_similarity_matrix(), _test_gold(pipeline)
            )
        h1s.append(h1)
        campaigns.append([[list(p.key()) for p in r.selected] for r in loop.records])

    _repeat(seconds, repeats, 2, campaign)
    if len(set(h1s)) > 1 or any(c != campaigns[0] for c in campaigns):
        out.errors.append("identical campaigns selected different batches or reached different H@1")
    out.attempted = len(rounds)
    round_s = statistics.median(_warm(rounds))
    out.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms": (round_s * 1e3, "ms"),
        "entity_h1": (h1s[0], "ratio"),
    }
    out.detail["round_s"] = (round_s, "s")
    out.outputs = {"entity_h1": h1s[0], "batches": campaigns[0]}
    out.layer["active.batch_matches"] = (sum(matches), "count")
    out.detail["active.batch_match_frac"] = (sum(matches) / sum(picked), "ratio")
    counters.report(out)
    return out


# -------------------------------------------------------------------- serving
@dataclass
class Serving:
    """A started frontend and what its answers are checked against.

    The fitted pipeline itself is not kept, so the benchmark holds little of
    the heap beyond what the serving process holds: collector pauses walk
    that heap, and they are part of the measured latency.
    """

    frontend: object
    reference: AlignmentService  # cache-less, over the same snapshot
    matrix: np.ndarray  # entity similarity matrix, for the numpy cross-check
    left_index: dict
    right_index: dict
    kg1_entities: list
    kg2_entities: list
    kg1_relations: list


def _set_up_serving(
    out: Outcome, repeats: int | None, tracer, checkpoint: str | None = None
) -> Serving:
    """Fit, evaluate and serve ``repeats`` (default :data:`SERVING_SETUPS`) times; keep the last.

    ``entity_h1`` is the served model's test-split H@1, recomputed with numpy.
    """
    times, h1s = [], []
    for i in range(repeats or SERVING_SETUPS):
        if i:
            frontend.stop()
        t0 = clock()
        pair = make_benchmark(DATASET, scale=SCALE, seed=DATA_SEED)
        pipeline = DAAKG(pair, quick_config("transe"))
        pipeline.fit()
        h1s.append(pipeline.evaluate()["entity"].hits_at_1)
        if checkpoint is not None:
            pipeline.save(checkpoint)
        frontend = serve(pipeline, frontend=True)
        times.append(clock() - t0)
    if len(set(h1s)) > 1:
        out.errors.append(f"identical fits gave different entity H@1: {h1s}")
    with paused(tracer):
        out.errors += checks.h1_matches_matrix(
            h1s[0], pipeline.model.entity_similarity_matrix(), _test_gold(pipeline)
        )
    out.metrics["setup_s"] = (statistics.median(times), "s")
    out.metrics["entity_h1"] = (h1s[0], "ratio")
    return Serving(
        frontend,
        AlignmentService.from_pipeline(pipeline, cache_size=0),
        pipeline.model.entity_similarity_matrix().copy(),
        pipeline.kg1.entity_index,
        pipeline.kg2.entity_index,
        list(pair.kg1.entities),
        list(pair.kg2.entities),
        list(pair.kg1.relations),
    )


def _reference(service: AlignmentService, stream, tracer) -> loadgen.Reference:
    with paused(tracer):
        return loadgen.Reference.compute(service, stream)


def _drive(frontend, stream, reference: loadgen.Reference) -> loadgen.Phase:
    gc.collect()
    return loadgen.drive(frontend, stream, reference, BackpressureError)


def _p50_ms(phase: loadgen.Phase) -> float:
    return loadgen.quantile(phase.latency, 0.5) * 1e3


def _windows(phase: loadgen.Phase) -> list[np.ndarray]:
    """Latencies in consecutive windows of :data:`P99_WINDOW` requests (at least one)."""
    return np.array_split(phase.latency, max(1, len(phase) // P99_WINDOW))


def _p99_ms(phase: loadgen.Phase) -> float:
    """Median of the p99s of consecutive windows of :data:`P99_WINDOW` requests.

    At 2000/s a window is one second, so on ``serve-churn`` each holds one
    hot swap; the median keeps an unlucky window (a collector pause meeting
    a swap, or the hypervisor descheduling a vCPU) from setting the figure.
    Each window's p99 still has 20 samples beyond it.
    """
    return statistics.median(loadgen.quantile(w, 0.99) for w in _windows(phase)) * 1e3


def _meets_limit(phase: loadgen.Phase) -> bool:
    """No shed, failed or wrong request, p99 within the limit, no growing backlog.

    p99 is :func:`_p99_ms`.  A backlog that still grows when the step ends
    delays most requests of its last window, so that window's median must
    meet the limit too.
    """
    if not len(phase) or not phase.ok.all():
        return False
    last = _windows(phase)[-1]
    return (
        _p99_ms(phase) <= LATENCY_LIMIT_MS
        and loadgen.quantile(last, 0.5) * 1e3 <= LATENCY_LIMIT_MS
    )


def _throughput(phase: loadgen.Phase) -> float:
    """Answered requests per second, from the first due time to the last answer."""
    return int(phase.ok.sum()) / (np.nanmax(phase.completed) - phase.due[0])


def _ladder(frontend, mix, reference_service, tracer) -> tuple[float, list]:
    """The highest rate that meets :func:`_meets_limit`, as a staircase estimate.

    Near capacity a one-second step passes or fails by chance, so a single
    bisection lands anywhere in a wide band.  Instead the rate doubles from
    :data:`LADDER_START` until a step fails, then walks :data:`LADDER_WALK`
    steps from between the last two rates, up 10% after a pass and down 20%
    after a failure; such a walk settles where about two steps in three
    pass.  The result is the median answered rate of its passing steps.
    """
    steps: list[loadgen.Phase] = []

    def step(rate: float) -> loadgen.Phase | None:
        stream = mix.stream(100 + len(steps), rate, max(LADDER_STEP_S, 1000.0 / rate))
        phase = _drive(frontend, stream, _reference(reference_service, stream, tracer))
        steps.append(phase)
        return phase if _meets_limit(phase) else None

    passed, rate = 0.0, LADDER_START
    while rate <= LADDER_CAP and step(rate) is not None:
        passed, rate = rate, rate * 2
    # start the walk between the last passing and the first failing rate
    rate = (passed * rate) ** 0.5 if passed else rate / 1.2
    passing = []
    for _ in range(LADDER_WALK):
        phase = step(rate)
        if phase is not None:
            passing.append(_throughput(phase))
        rate = rate * 1.1 if phase is not None else rate / 1.2
    return (statistics.median(passing) if passing else 0.0), steps


def _account(out: Outcome, phases, count_shed: bool = True) -> None:
    """Attempts and failures; every wrong answer is also a correctness error."""
    for phase in phases:
        shed = phase.count(loadgen.SHED)
        out.attempted += len(phase) - (0 if count_shed else shed)
        out.failed += int(np.sum(~phase.ok)) - (0 if count_shed else shed)
        wrong = phase.count(loadgen.WRONG)
        if wrong:
            out.errors.append(f"{wrong} of {len(phase)} answers differ from the direct service")


def _check_samples(out: Outcome, serving: Serving, phases) -> None:
    """A sample of answers against numpy over the similarity matrix."""
    top_k, scores = {}, {}
    for phase in phases:
        for (op, args), value in phase.samples.items():
            if op == "topk":
                top_k[args[0]] = value
            else:
                scores[args] = value
    matrix, left, right = serving.matrix, serving.left_index, serving.right_index
    out.errors += checks.top_k_rows_match_matrix(top_k, matrix, left, right, loadgen.TOP_K)
    out.errors += checks.scores_match_matrix(scores, matrix, left, right)


def _frontend_layers(out: Outcome, frontend, phases) -> None:
    stats = frontend.stats()
    deadline = stats["flush_reasons"]["deadline"]
    flushes = sum(stats["flush_reasons"].values())
    if flushes:
        out.detail["serving.flush_deadline_frac"] = (deadline / flushes, "ratio")
    out.layer["serving.deadline_flushes"] = (deadline, "count")
    out.layer["serving.cache_hits"] = (frontend.service.stats.cache_hits, "count")
    out.detail["serving.cache_hit_ratio"] = (
        frontend.service.metrics()["cache_hit_ratio"],
        "ratio",
    )
    out.layer["serving.shed"] = (stats["shed_total"], "count")
    out.layer["serving.peak_queue_depth"] = (stats["peak_queue_depth"], "count")
    late = np.concatenate([phase.late for phase in phases])
    out.detail["loadgen.late_ms.p99"] = (loadgen.quantile(late, 0.99) * 1e3, "ms")


def run_serve(seed: int, seconds: float, workdir: str, tracer=None, repeats=None) -> Outcome:
    out = Outcome()
    serving = _set_up_serving(out, repeats, tracer)
    frontend = serving.frontend
    mix = loadgen.RequestMix(seed, serving.kg1_entities, serving.kg2_entities)
    counters = CacheCounters()
    try:
        with counters.measuring():
            stream = mix.stream(0, 200.0, 0.7 * seconds)
            expected200 = _reference(serving.reference, stream, tracer)
            r200 = _drive(frontend, stream, expected200)
            stream = mix.stream(1, 2000.0, 0.3 * seconds)
            expected2000 = _reference(serving.reference, stream, tracer)
            r2000 = _drive(frontend, stream, expected2000)
            # capacity depends on how much CPU the host grants, so it is
            # too unsteady to gate; the traced run measures it as a detail
            ladder = []
            if tracer is not None:
                max_qps, ladder = _ladder(frontend, mix, serving.reference, tracer)
                out.detail["max_qps"] = (max_qps, "req/s")
        _frontend_layers(out, frontend, [r200, r2000])
    finally:
        frontend.stop()
    _account(out, [r200, r2000])
    # ladder steps past capacity shed by design; what they admitted still counts
    _account(out, ladder, count_shed=False)
    with paused(tracer):
        _check_samples(out, serving, [r200, r2000] + ladder)
    # the batching policy's linger sets the p50 at 200/s; reads at 2000/s
    # are gated on serve-churn
    out.metrics["latency_ms"] = (_p50_ms(r200), "ms")
    out.detail["p50_ms.r200"] = (_p50_ms(r200), "ms")
    out.detail["p50_ms.r2000"] = (_p50_ms(r2000), "ms")
    # the 1% tails follow the host's scheduling jitter too closely to gate
    out.detail["p99_ms.r200"] = (_p99_ms(r200), "ms")
    out.detail["p99_ms.r2000"] = (_p99_ms(r2000), "ms")
    # answers equal their reference (checked above), so equal references
    # mean the traced and untraced runs answered identically
    out.outputs = {
        "reference.r200": expected200.digest(),
        "reference.r2000": expected2000.digest(),
    }
    out.phases = [r200, r2000]
    counters.report(out)
    return out


class ChurnWriter(threading.Thread):
    """Folds one new KG1 entity every ~50 ms and hot-swaps once a second."""

    def __init__(self, service, checkpoint: str, seed: int, entities, relations) -> None:
        super().__init__(name="perfbench-churn-writer", daemon=True)
        self.service = service
        self.checkpoint = checkpoint
        self.rng = np.random.default_rng([seed, 2])
        self.entities = list(entities)
        self.relations = list(relations)
        self.fold_s: list[float] = []
        self.swap_tokens: set[str] = set()
        self.errors: list[str] = []
        self.attempted = 0
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=60.0)
        if self.is_alive():
            raise RuntimeError("churn writer did not stop")

    def _delta(self, name: str) -> KGDelta:
        e1, e2 = self.rng.choice(len(self.entities), size=2, replace=False)
        r1, r2 = self.rng.choice(len(self.relations), size=2)
        triples = [
            (name, self.relations[r1], self.entities[e1]),
            (self.entities[e2], self.relations[r2], name),
        ]
        return KGDelta.single_entity(name, triples, side=1)

    def _fold(self, index: int) -> None:
        name = f"perfbench:fold-{index}"
        delta = self._delta(name)
        before = self.service.num_entities(1)
        t0 = clock()
        reports = self.service.apply_delta(delta)
        self.fold_s.append(clock() - t0)
        if [r.name for r in reports] != [name] or self.service.num_entities(1) != before + 1:
            raise RuntimeError(f"fold of {name!r} did not add exactly that entity")

    def _swap(self, base_entities: int) -> None:
        self.swap_tokens.add(self.service.hot_swap(self.checkpoint))
        if self.service.num_entities(1) != base_entities or len(self.swap_tokens) != 1:
            raise RuntimeError("hot swap to the checkpoint did not restore its state")

    def run(self) -> None:
        start = clock()
        base_entities = self.service.num_entities(1)
        folds = 0
        next_swap = start + SWAP_INTERVAL_S
        while True:
            next_fold = start + (folds + 1) * FOLD_INTERVAL_S
            swap = next_swap <= next_fold
            due = next_swap if swap else next_fold
            if self._halt.wait(max(due - clock(), 0.0)):
                return
            self.attempted += 1
            try:
                if swap:
                    next_swap += SWAP_INTERVAL_S
                    self._swap(base_entities)
                else:
                    folds += 1
                    self._fold(folds)
            except Exception as exc:  # a failed write is a counted failure, not a crash
                self.errors.append(f"{'swap' if swap else 'fold'} failed: {exc!r}")


def _checkpoint_agrees(checkpoint: str, stream, expected: loadgen.Reference, tracer) -> bool:
    """Hot swaps restore the checkpoint, so its answers must be the pipeline's."""
    restored = AlignmentService.from_checkpoint(checkpoint, cache_size=0)
    return _reference(restored, stream, tracer) == expected


def run_serve_churn(seed: int, seconds: float, workdir: str, tracer=None, repeats=None) -> Outcome:
    out = Outcome()
    checkpoint = f"{workdir}/checkpoint"
    serving = _set_up_serving(out, repeats, tracer, checkpoint)
    frontend = serving.frontend
    mix = loadgen.RequestMix(seed, serving.kg1_entities, serving.kg2_entities)
    stream = mix.stream(1, 2000.0, seconds)
    expected = _reference(serving.reference, stream, tracer)
    with paused(tracer):
        if not _checkpoint_agrees(checkpoint, stream, expected, tracer):
            out.errors.append("the checkpoint's snapshot answers differently from the pipeline's")
    writer = ChurnWriter(
        frontend.service, checkpoint, seed, serving.kg1_entities, serving.kg1_relations
    )
    counters = CacheCounters()
    try:
        gc.collect()
        with counters.measuring():
            writer.start()
            try:
                reads = loadgen.drive(frontend, stream, expected, BackpressureError)
            finally:
                writer.stop()
        _frontend_layers(out, frontend, [reads])
    finally:
        frontend.stop()
    _account(out, [reads])
    out.attempted += writer.attempted
    out.failed += len(writer.errors)
    out.errors += writer.errors[: checks.MAX_REPORTED]
    if not writer.fold_s:
        out.errors.append("the churn writer folded nothing")
    with paused(tracer):
        _check_samples(out, serving, [reads])
    out.metrics["latency_ms"] = (_p50_ms(reads), "ms")
    out.detail["p50_ms.r2000"] = (_p50_ms(reads), "ms")
    out.detail["fold_ms"] = (statistics.median(writer.fold_s or [np.inf]) * 1e3, "ms")
    out.detail["p99_ms.r2000"] = (_p99_ms(reads), "ms")
    out.outputs = {"reference.r2000": expected.digest()}
    out.phases = [reads]
    counters.report(out)
    return out


WORKLOADS = {
    "fit": run_fit,
    "active": run_active,
    "serve": run_serve,
    "serve-churn": run_serve_churn,
}
