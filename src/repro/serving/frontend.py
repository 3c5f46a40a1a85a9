"""Concurrent serving front end: admission control + deadline-aware batching.

:class:`ServingFrontend` is the one request batcher of :mod:`repro.serving`:
a thread-pool dispatcher in front of an :class:`AlignmentService` that lets
many concurrent callers share the batching win without driving it
themselves.  Callers admit single queries with ``submit_*`` and get a
:class:`Ticket`; workers group the queued tickets into the service's
vectorised ``top_k_alignments`` / ``score_pairs`` calls.

* **Bounded admission queue with explicit backpressure** — ``submit_*``
  appends to a deque whose depth is capped at
  :attr:`FrontendConfig.max_queue_depth`; once full, requests are *shed* with
  a typed :class:`BackpressureError` instead of growing the queue (and the
  latency of everything behind it) without bound.  Load-shedding is a
  first-class outcome: the caller sees a structured error carrying the
  observed depth and limit, and every shed increments
  ``frontend.shed.total``.  Malformed queries (``k < 1``, a non-positive
  deadline) are rejected at admission with ``ValueError``, so they never
  reach — or fail — a batch.
* **Deadline-aware batching** — every request carries a latency deadline
  (per-call override of :attr:`FrontendConfig.default_deadline_ms`).  Worker
  threads flush a batch when it reaches ``max_batch`` *or* when the oldest
  queued request has spent half its deadline budget waiting, whichever comes
  first — under heavy load batches fill instantly (throughput mode), under
  light load a lone request waits at most deadline/2 (latency mode), leaving
  the other half of the budget for the gather itself.
* **Per-ticket error isolation** — a batch is answered in groups (one per
  top-k ``k``, one for all pair scores).  A group whose vectorised call
  raises :class:`ServingError` (e.g. one unknown URI) is re-answered one
  ticket at a time, so a bad query fails only its own ticket.  Each
  ticket's ``completed_at`` is stamped before it is marked ready, as soon
  as its group is answered.
* **Lock-free snapshot fan-out** — workers call the service's query methods
  directly; each call reads the frozen-snapshot reference once and runs on
  immutable arrays, so concurrent batches never contend on serving state
  (only the service's fine-grained cache/stats locks are ever taken).  This
  is what makes hot-swap under load safe: an in-flight batch finishes against
  the snapshot it started with while the next batch sees the new one.
* **Telemetry through the existing registry** — all series publish into
  ``service.obs`` (so ``service.metrics()["snapshot"]`` and the Prometheus
  exposition pick them up with no new plumbing): ``frontend.requests.total``
  per op, ``frontend.shed.total``, ``frontend.queue.depth`` /
  ``frontend.queue.peak_depth`` gauges, ``frontend.batch.size`` and
  end-to-end ``frontend.request.seconds`` histograms, and per-reason
  ``frontend.flushes.total`` (``full`` / ``deadline`` / ``drain``).

The event-loop flavour of the same design is deliberately *not* asyncio:
the query kernels are synchronous numpy and the callers in this repo (tests,
benches, examples) are thread-based; a thread-pool dispatcher serves both
without forcing an event loop onto every caller.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

from repro.obs.registry import DEFAULT_BATCH_BUCKETS, DEFAULT_LATENCY_BUCKETS
from repro.serving.service import AlignmentService, ServingError
from repro.utils.logging import get_logger

logger = get_logger(__name__)

WORKERS_ENV = "REPRO_SERVING_WORKERS"
QUEUE_DEPTH_ENV = "REPRO_SERVING_QUEUE_DEPTH"
MAX_BATCH_ENV = "REPRO_SERVING_MAX_BATCH"
DEADLINE_MS_ENV = "REPRO_SERVING_DEADLINE_MS"


class BackpressureError(ServingError):
    """Typed admission rejection: the queue is at its depth limit.

    Raised by ``submit_*`` the moment the request would exceed
    ``max_queue_depth`` — the request is *shed*, never enqueued.  Carries the
    observed ``depth`` and configured ``limit`` so callers can implement
    retry-after or report saturation upstream.
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(f"admission queue full ({depth}/{limit}); request shed")
        self.depth = depth
        self.limit = limit


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else fallback


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else fallback


@dataclass
class Ticket:
    """One admitted query; ``result()`` waits for a worker to resolve it.

    Carries the dispatcher that admitted it, its deadline and its submit /
    complete timestamps.  ``completed_at`` is written before ``ready``, so a
    ready ticket always has its completion time.
    """

    op: str
    args: tuple
    dispatcher: "ServingFrontend"
    deadline_s: float = 0.0
    submitted_at: float = 0.0
    completed_at: float = 0.0
    ready: bool = False
    value: object = None
    error: Exception | None = None

    def result(self, timeout: float | None = None):
        if not self.ready:
            self.dispatcher.wait(self, timeout)
        if self.error is not None:
            raise self.error
        return self.value


@dataclass(frozen=True)
class FrontendConfig:
    """Dispatcher knobs; ``REPRO_SERVING_*`` environment overrides win."""

    num_workers: int = 2
    max_queue_depth: int = 1024
    max_batch: int = 64
    default_deadline_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0")


def resolve_frontend_config(configured: FrontendConfig | None = None) -> FrontendConfig:
    """Effective dispatcher knobs: env overrides first, then config, then defaults.

    Mirrors ``resolve_backend_name`` / ``resolve_workers`` — each
    ``REPRO_SERVING_*`` variable wins over the configured value, field by
    field.
    """
    base = configured if configured is not None else FrontendConfig()
    return replace(
        base,
        num_workers=_env_int(WORKERS_ENV, base.num_workers),
        max_queue_depth=_env_int(QUEUE_DEPTH_ENV, base.max_queue_depth),
        max_batch=_env_int(MAX_BATCH_ENV, base.max_batch),
        default_deadline_ms=_env_float(DEADLINE_MS_ENV, base.default_deadline_ms),
    )


class ServingFrontend:
    """A thread-pool dispatcher in front of one :class:`AlignmentService`.

    Usage::

        frontend = ServingFrontend(service, FrontendConfig(num_workers=4))
        with frontend:                       # start() .. stop(drain=True)
            ticket = frontend.submit_top_k("dbp:Berlin", k=5, deadline_ms=20)
            ...
            ticket.result()                  # waits on the flush loop

    Tickets admitted before :meth:`start` wait in the queue until the
    workers run.
    """

    def __init__(
        self,
        service: AlignmentService,
        config: FrontendConfig | None = None,
        resolve_env: bool = True,
    ) -> None:
        self.service = service
        self.config = resolve_frontend_config(config) if resolve_env else (
            config or FrontendConfig()
        )
        self._queue: deque[Ticket] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._done = threading.Condition(threading.Lock())
        self._workers: list[threading.Thread] = []
        self._stop = False
        self._draining = False
        self._in_flight = 0
        self._peak_depth = 0
        obs = service.obs
        self._submit_counters = {
            op: obs.counter("frontend.requests.total", op=op)
            for op in ("topk", "score")
        }
        self._shed_counter = obs.counter("frontend.shed.total")
        self._depth_gauge = obs.gauge("frontend.queue.depth")
        self._peak_depth_gauge = obs.gauge("frontend.queue.peak_depth")
        self._batch_hist = obs.histogram("frontend.batch.size", buckets=DEFAULT_BATCH_BUCKETS)
        self._lat_hist = obs.histogram(
            "frontend.request.seconds", buckets=DEFAULT_LATENCY_BUCKETS
        )
        self._flush_reasons = {
            reason: obs.counter("frontend.flushes.total", reason=reason)
            for reason in ("full", "deadline", "drain")
        }

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "ServingFrontend":
        """Launch the worker pool (idempotent)."""
        if self._workers:
            return self
        self._stop = False
        for index in range(self.config.num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serving-frontend-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        logger.info(
            "serving frontend started: %d workers, queue depth %d, batch %d",
            self.config.num_workers, self.config.max_queue_depth, self.config.max_batch,
        )
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the workers; ``drain`` answers queued work first.

        With ``drain=False`` every still-queued ticket fails with a
        :class:`ServingError` — a stopped frontend never strands a waiter.
        """
        if drain and self._workers:
            self.drain(timeout=timeout)
        with self._not_empty:
            self._stop = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._not_empty.notify_all()
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._workers = []
        if leftovers:
            error = ServingError("serving frontend stopped before resolving this ticket")
            completed = time.perf_counter()
            for ticket in leftovers:
                ticket.error = error
                ticket.completed_at = completed
                ticket.ready = True
            with self._done:
                self._done.notify_all()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until queue and in-flight batches are empty; True on success.

        Draining flushes partial batches immediately (reason ``drain``)
        instead of waiting out their deadline budgets.
        """
        with self._not_empty:
            self._draining = True
            self._not_empty.notify_all()
        try:
            with self._done:
                return self._done.wait_for(
                    lambda: not self._queue and self._in_flight == 0, timeout
                )
        finally:
            self._draining = False

    # ------------------------------------------------------------------ submit
    def submit_top_k(self, uri: str, k: int = 10, deadline_ms: float | None = None) -> Ticket:
        """Admit one top-k query; sheds with :class:`BackpressureError` when full."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._submit("topk", (uri, k), deadline_ms)

    def submit_score(
        self, left: str, right: str, deadline_ms: float | None = None
    ) -> Ticket:
        """Admit one pair-score query; sheds with :class:`BackpressureError` when full."""
        return self._submit("score", (left, right), deadline_ms)

    def _submit(self, op: str, args: tuple, deadline_ms: float | None) -> Ticket:
        deadline_s = (
            deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        ) / 1e3
        if deadline_s <= 0:
            raise ValueError("deadline_ms must be > 0")
        ticket = Ticket(
            op,
            args,
            dispatcher=self,
            deadline_s=deadline_s,
            submitted_at=time.perf_counter(),
        )
        with self._not_empty:
            depth = len(self._queue)
            if depth >= self.config.max_queue_depth:
                self._shed_counter.inc()
                raise BackpressureError(depth, self.config.max_queue_depth)
            self._queue.append(ticket)
            if depth + 1 > self._peak_depth:
                self._peak_depth = depth + 1
            self._not_empty.notify()
        self._submit_counters[op].inc()
        return ticket

    @property
    def depth(self) -> int:
        """Current admission-queue depth (in-flight batches not included)."""
        return len(self._queue)

    def wait(self, ticket: Ticket, timeout: float | None = None) -> None:
        """Block until a worker resolves ``ticket`` (used by ``Ticket.result``)."""
        with self._done:
            if not self._done.wait_for(lambda: ticket.ready, timeout):
                raise TimeoutError("ticket not resolved within timeout")

    # ------------------------------------------------------------- flush loop
    def _worker_loop(self) -> None:
        while True:
            with self._not_empty:
                while True:
                    if self._stop:
                        return
                    batch, reason = self._take_batch_locked()
                    if batch is not None:
                        break
                    self._not_empty.wait(self._wait_timeout_locked())
                self._in_flight += 1
                self._depth_gauge.set(len(self._queue))
            try:
                self._resolve_batch(batch, reason)
            finally:
                with self._lock:
                    self._in_flight -= 1
                with self._done:
                    self._done.notify_all()

    def _take_batch_locked(self) -> tuple[list[Ticket] | None, str | None]:
        """Pop a batch if a flush condition holds (called with the lock held)."""
        queue = self._queue
        if not queue:
            return None, None
        max_batch = self.config.max_batch
        if len(queue) >= max_batch:
            reason = "full"
        elif self._draining:
            reason = "drain"
        elif (
            time.perf_counter() - queue[0].submitted_at
            >= 0.5 * queue[0].deadline_s
        ):
            reason = "deadline"
        else:
            return None, None
        size = min(len(queue), max_batch)
        return [queue.popleft() for _ in range(size)], reason

    def _wait_timeout_locked(self) -> float | None:
        """Sleep until the oldest request's half-deadline (None when idle)."""
        if not self._queue:
            return None
        oldest = self._queue[0]
        remaining = oldest.submitted_at + 0.5 * oldest.deadline_s - time.perf_counter()
        # clamp below: a just-expired deadline re-checks immediately via
        # _take_batch_locked, so a tiny positive floor only avoids busy-spin
        return max(remaining, 0.0005)

    def _resolve_batch(self, batch: list[Ticket], reason: str) -> None:
        self._flush_reasons[reason].inc()
        self._batch_hist.observe(len(batch))
        service = self.service
        by_k: dict[int, list[Ticket]] = {}
        score_tickets: list[Ticket] = []
        for ticket in batch:
            if ticket.op == "topk":
                by_k.setdefault(ticket.args[1], []).append(ticket)
            else:
                score_tickets.append(ticket)
        try:
            for k, tickets in by_k.items():
                self._resolve_group(
                    tickets,
                    lambda ts, k=k: service.top_k_alignments([t.args[0] for t in ts], k),
                )
            if score_tickets:
                self._resolve_group(
                    score_tickets,
                    lambda ts: [float(v) for v in service.score_pairs([t.args for t in ts])],
                )
        except Exception as exc:  # defensive: never strand a waiting caller
            logger.exception("serving batch failed; failing its unresolved tickets")
            unresolved = [ticket for ticket in batch if not ticket.ready]
            for ticket in unresolved:
                ticket.error = exc
            self._complete(unresolved)

    def _resolve_group(
        self, tickets: list[Ticket], answer_batch: Callable[[list[Ticket]], list]
    ) -> None:
        """Answer one same-shape group with one vectorised call.

        On a :class:`ServingError` the group is re-answered one ticket at a
        time, so a bad query (e.g. an unknown URI) fails only its own ticket.
        """
        try:
            answers = answer_batch(tickets)
        except ServingError:
            # isolate the offender: re-run one ticket at a time
            for ticket in tickets:
                try:
                    ticket.value = answer_batch([ticket])[0]
                except ServingError as exc:
                    ticket.error = exc
                self._complete([ticket])
            return
        for ticket, answer in zip(tickets, answers):
            ticket.value = answer
        self._complete(tickets)

    def _complete(self, tickets: list[Ticket]) -> None:
        """Stamp ``completed_at`` and observe latency, then mark ready."""
        completed = time.perf_counter()
        observe = self._lat_hist.observe
        for ticket in tickets:
            ticket.completed_at = completed
            observe(completed - ticket.submitted_at)
            ticket.ready = True

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Dispatcher health: depth, sheds, batch counts, latency quantiles.

        Latencies are end-to-end (admission to resolution) from the
        ``frontend.request.seconds`` histogram — queue wait included, which
        is what an external caller actually experiences.
        """
        self._depth_gauge.set(len(self._queue))
        self._peak_depth_gauge.set(self._peak_depth)
        submitted = sum(int(c.value) for c in self._submit_counters.values())
        flushes = {name: int(c.value) for name, c in self._flush_reasons.items()}
        return {
            "workers": len(self._workers),
            "queue_depth": len(self._queue),
            "peak_queue_depth": self._peak_depth,
            "max_queue_depth": self.config.max_queue_depth,
            "submitted_total": submitted,
            "shed_total": int(self._shed_counter.value),
            "resolved_total": self._lat_hist.count,
            "dispatched_batches": sum(flushes.values()),
            "flush_reasons": flushes,
            "p50_latency_ms": self._lat_hist.quantile(0.5) * 1e3,
            "p99_latency_ms": self._lat_hist.quantile(0.99) * 1e3,
        }
