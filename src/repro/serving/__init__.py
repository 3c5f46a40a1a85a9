"""Online serving of alignment queries from frozen pipeline snapshots.

:class:`AlignmentService` loads a checkpoint (or wraps a fitted pipeline) and
answers vectorised ``top_k_alignments`` / ``score_pairs`` queries from the
cached similarity matrices, with a state-token-keyed LRU result cache,
atomic hot-swap to newer checkpoints, and incremental fold-in of new
entities (``apply_delta``) without recomputing the full similarity state.

:class:`ServingFrontend` is the one request batcher: a concurrent dispatcher
in front of a service with a bounded admission queue and typed load-shedding
(:class:`BackpressureError`), deadline-aware batch flushing into the
service's vectorised calls, and a worker pool fanning read-only snapshot
queries out without a global lock — measured as a saturation curve under
open-loop load (``benchmarks/bench_serving_throughput.py``).

:func:`serve` is the unified entry point: hand it a pipeline, a campaign, a
snapshot or a checkpoint path and get back a service (or a started frontend).
"""

from repro.serving.entry import serve
from repro.serving.frontend import (
    BackpressureError,
    FrontendConfig,
    ServingFrontend,
    Ticket,
    resolve_frontend_config,
)
from repro.serving.service import (
    AlignmentService,
    FoldInReport,
    ServiceStats,
    ServingError,
    ServingSnapshot,
)

__all__ = [
    "AlignmentService",
    "BackpressureError",
    "FoldInReport",
    "FrontendConfig",
    "ServiceStats",
    "ServingError",
    "ServingFrontend",
    "ServingSnapshot",
    "Ticket",
    "resolve_frontend_config",
    "serve",
]
