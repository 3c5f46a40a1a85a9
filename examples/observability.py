"""Observability end-to-end: metrics, traces, and fleet telemetry.

Enables ``repro.obs``, runs a small partition-parallel campaign on the
process executor, and shows everything the instrumentation produced:

1. the merged metrics snapshot — trainer step timings, similarity cache
   hits and per-piece executor lifecycle, folded across the
   worker-process boundary exactly (fixed-bucket histograms sum per slot),
2. the Prometheus text exposition a scraper would collect,
3. the span trace (nested spans with monotonic durations) as JSONL,
4. the served model's own request histogram via ``AlignmentService.metrics()``.

Run with::

    python examples/observability.py

Artifacts (``metrics.prom``, ``metrics.jsonl``, ``trace.jsonl``) are written
to a temp directory; set ``REPRO_OBS_DIR`` instead to export them from any
run without code changes.
"""

import tempfile
from pathlib import Path

import repro.obs as obs
from repro import DAAKGConfig, PartitionConfig, PartitionedCampaign, make_benchmark
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.serving import AlignmentService
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    obs.enable()  # equivalently: export REPRO_OBS=1

    # 1. A small partitioned campaign on the process executor — each worker
    #    collects its own piece-scoped metrics and trace, serialized into the
    #    piece's checkpoint directory and folded back into this process.
    pair = make_benchmark("D-W", scale=0.2, seed=0)
    config = DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=3),
        alignment=AlignmentTrainingConfig(
            rounds=1,
            epochs_per_round=8,
            num_negatives=5,
            embedding_batches_per_round=2,
            embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=20),
        partition=PartitionConfig(num_partitions=2, workers=2, executor="process"),
        seed=0,
    )
    campaign = PartitionedCampaign(
        pair,
        config,
        strategy="uncertainty",
        active_config=ActiveLearningConfig(batch_size=10, num_batches=2, fine_tune_epochs=5),
    )
    campaign.run()

    # 2. The merged registry now covers the driver AND every worker piece.
    snap = obs.snapshot()
    print(f"\n=== merged metrics ({len(campaign.piece_obs)} pieces folded) ===")
    for key in sorted(snap["counters"]):
        print(f"  {key} = {snap['counters'][key]['value']:g}")
    step_hist = next(
        (entry for k, entry in snap["histograms"].items() if k.startswith("trainer.step")),
        None,
    )
    if step_hist is not None:
        print(f"  trainer.step.seconds: count={step_hist['count']} sum={step_hist['sum']:.3f}s")

    # 3. Prometheus exposition + JSONL artifacts.
    workdir = Path(tempfile.mkdtemp(prefix="daakg-obs-"))
    paths = obs.export_artifacts(workdir)
    print("\n=== Prometheus exposition (first 20 lines) ===")
    prom = Path(paths["metrics.prom"]).read_text().splitlines()
    print("\n".join(prom[:20]))
    print(f"... ({len(prom)} lines total)")
    print("\n=== trace ===")
    events = obs.events()
    print(f"{len(events)} events; executor lifecycle:")
    for event in events:
        if event["name"].startswith("executor.piece"):
            print(f"  {event['name']:<26} pid={event['pid']} attrs={event['attrs']}")
    print(f"artifacts written to {workdir}")

    # 4. Serving telemetry comes from the service's own always-on registry.
    service = AlignmentService.from_campaign(campaign)
    uris = list(campaign.dataset.kg1.entities[:25])
    service.top_k_alignments(uris, k=5)
    service.top_k_alignments(uris, k=5)  # second pass hits the LRU
    metrics = service.metrics()
    print("\n=== service.metrics() ===")
    for key in ("requests_total", "qps", "p50_latency_ms", "p99_latency_ms", "cache_hit_ratio"):
        value = metrics[key]
        print(f"  {key} = {value:.4g}" if isinstance(value, float) else f"  {key} = {value}")


if __name__ == "__main__":
    main()
