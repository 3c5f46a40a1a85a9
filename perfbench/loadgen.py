"""Open-loop request generation for the serving workloads.

Requests arrive as a Poisson process at a fixed rate, independent of how fast
the server answers (independent users, not callers that wait for a reply).
The mix is 3/4 top-k queries over Zipf-popular KG1 entities, which the
service's LRU cache absorbs, and 1/4 pair scores over uniformly random pairs,
a working set far larger than that cache.  One thread submits every request
and times it from the moment it was due, so a stall also counts against the
requests queued behind it; how late the generator itself ran is recorded.

The generator checks each answer against a reference computed before the
phase and keeps only numbers per request.  Holding every ticket and answer
until the phase ends would grow the heap the garbage collector walks, and
lengthen its pauses, by far more than the program's own allocations do.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

TOP_K = 10
TOP_K_SHARE = 0.75
ZIPF_EXPONENT = 1.0
HARVEST_EVERY = 64
SAMPLE = 64

OK, SHED, ERROR, WRONG = 0, 1, 2, 3


class RequestMix:
    """Seeded query streams over one KG pair's entity names."""

    def __init__(self, seed: int, kg1_names: list[str], kg2_names: list[str]) -> None:
        self.seed = seed
        self.kg1 = list(kg1_names)
        self.kg2 = list(kg2_names)
        rng = np.random.default_rng([seed, 0])
        # which entities are popular is part of the workload seed
        self.popular = rng.permutation(len(self.kg1))
        weights = 1.0 / np.arange(1, len(self.kg1) + 1) ** ZIPF_EXPONENT
        self.weights = weights / weights.sum()

    def stream(self, phase: int, rate: float, duration: float) -> "Stream":
        """Poisson arrivals at ``rate``/s for ``duration`` s; phase ``phase``'s own RNG."""
        rng = np.random.default_rng([self.seed, 1, phase])
        expected = int(rate * duration)
        gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected**0.5) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < duration]
        count = len(offsets)
        top_k = rng.random(count) < TOP_K_SHARE
        popular = self.popular[rng.choice(len(self.kg1), size=count, p=self.weights)]
        left = np.where(top_k, popular, rng.integers(len(self.kg1), size=count))
        right = np.where(top_k, -1, rng.integers(len(self.kg2), size=count))
        return Stream(self, offsets, top_k, left, right)


@dataclass
class Stream:
    """A phase's queries as arrays: due offsets (s), op, and entity indices."""

    mix: RequestMix
    offsets: np.ndarray
    top_k: np.ndarray  # True: top-k of KG1 entity ``left``; False: score (left, right)
    left: np.ndarray
    right: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    def query(self, i: int) -> tuple[str, tuple]:
        """``("topk", (uri, k))`` or ``("score", (left uri, right uri))``."""
        if self.top_k[i]:
            return "topk", (self.mix.kg1[self.left[i]], TOP_K)
        return "score", (self.mix.kg1[self.left[i]], self.mix.kg2[self.right[i]])


@dataclass
class Reference:
    """Expected answers for one stream from a direct service."""

    top_k: dict  # (uri, k) -> answer
    scores: list  # per request; None for top-k requests

    @classmethod
    def compute(cls, service, stream: Stream) -> "Reference":
        queries = [stream.query(i) for i in range(len(stream))]
        keys = sorted({args for op, args in queries if op == "topk"})
        answers = service.top_k_alignments([uri for uri, _ in keys], TOP_K) if keys else []
        pairs = [args for op, args in queries if op == "score"]
        values = iter(service.score_pairs(pairs).tolist() if pairs else [])
        scores = [next(values) if op == "score" else None for op, _ in queries]
        return cls(dict(zip(keys, answers)), scores)

    def expected(self, i: int, op: str, args: tuple):
        return self.top_k[args] if op == "topk" else self.scores[i]

    def digest(self) -> str:
        return hashlib.sha256(repr((sorted(self.top_k.items()), self.scores)).encode()).hexdigest()


@dataclass
class Phase:
    """Per-request outcome of one driven stream (times are ``perf_counter`` values)."""

    stream: Stream
    due: np.ndarray
    submitted: np.ndarray
    completed: np.ndarray
    status: np.ndarray
    # a few answers kept for the numpy cross-check: (op, args) -> value
    samples: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.due)

    @property
    def ok(self) -> np.ndarray:
        return self.status == OK

    @property
    def latency(self) -> np.ndarray:
        """Due time to answer, in seconds; infinite for a shed, failed or wrong request."""
        return np.where(self.ok, self.completed - self.due, np.inf)

    @property
    def late(self) -> np.ndarray:
        return self.submitted - self.due

    def count(self, status: int) -> int:
        return int(np.sum(self.status == status))


def drive(frontend, stream: Stream, reference: Reference, shed_error: type) -> Phase:
    """Submit ``stream`` on its schedule from the calling thread and check every answer."""
    n = len(stream)
    phase = Phase(
        stream,
        due=np.empty(n),
        submitted=np.empty(n),
        completed=np.full(n, np.nan),
        status=np.full(n, OK, dtype=np.int8),
    )
    pending: list[tuple[int, object]] = []
    next_harvest = HARVEST_EVERY

    def harvest(pending):
        waiting = []
        for i, ticket in pending:
            # completed_at is written after the ticket is marked ready
            if not ticket.completed_at:
                waiting.append((i, ticket))
                continue
            phase.completed[i] = ticket.completed_at
            op, args = stream.query(i)
            if ticket.error is not None:
                phase.status[i] = ERROR
            elif ticket.value != reference.expected(i, op, args):
                phase.status[i] = WRONG
            elif len(phase.samples) < SAMPLE:
                phase.samples.setdefault((op, args), ticket.value)
        return waiting

    clock = time.perf_counter
    start = clock() + 0.002
    for i in range(n):
        op, args = stream.query(i)
        due = start + stream.offsets[i]
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        phase.due[i] = due
        phase.submitted[i] = clock()
        try:
            if op == "topk":
                ticket = frontend.submit_top_k(args[0], k=args[1])
            else:
                ticket = frontend.submit_score(args[0], args[1])
        except shed_error:
            phase.status[i] = SHED
            continue
        pending.append((i, ticket))
        # amortised: past capacity hundreds of tickets wait at once
        if len(pending) >= next_harvest:
            pending = harvest(pending)
            next_harvest = len(pending) + HARVEST_EVERY
    for _, ticket in pending:
        frontend.wait(ticket, 30.0)
    # drain() returns only once no batch is in flight, so every timestamp is written
    if not frontend.drain(30.0):
        raise TimeoutError("serving frontend did not drain")
    if harvest(pending):
        raise RuntimeError("a resolved ticket has no completion time")
    return phase


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (no interpolation, so infinite values stay infinite)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("quantile of no samples")
    return float(np.quantile(values, q, method="inverted_cdf"))
