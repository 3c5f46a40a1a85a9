"""The repository benchmark: one workload per run, from a seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit --seed 0 --seconds 25 --trace 0

Workloads: ``fit``, ``active``, ``serve`` and ``serve-churn`` (see
``workloads.py`` and the ``why`` of each in ``BENCHMARK.json``).  With
``--trace 0`` the run measures the end-to-end metrics untraced.  With
``--trace 1`` it runs the workload once untraced and once with spans around
the program's public entry points (``layers.py``), reports the per-layer
metrics and the tracing overhead, checks that both passes produced the same
outputs, and writes the spans to ``.perfbench_out/``.

Every workload reports the same metrics, the ones ``BENCHMARK.json`` lists:
``setup_s``, ``latency_ms`` and ``entity_h1`` untraced (``workloads.py``
defines ``latency_ms`` for each workload), the per-layer totals traced
(``layers.py``).  The workload's own figures behind them (``fit_s``,
``p50_ms.r200``, ``fold_ms``, queue-wait quantiles, ...) are printed as
detail lines.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any ``REPRO_*`` environment variable is removed first, so the
program runs with its defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# a failed request misses every latency limit; JSON has no infinity
INFINITE_MS = 1e9

# iterations per pass of a traced run
TRACE_REPEATS = 2

# the metric names of BENCHMARK.json, which every workload reports
END_TO_END = ("setup_s", "latency_ms", "entity_h1")
PER_LAYER = (
    "datasets.generate_s",
    "embedding.pretrain_s",
    "alignment.train_s",
    "autograd.backward_s",
    "autograd.backward_calls",
    "nn.step_s",
    "nn.step_calls",
    "alignment.evaluate_s",
    "alignment.fine_tune_s",
    "runtime.similarity_hits",
    "runtime.similarity_misses",
    "runtime.similarity_rebuilds",
    "active.pool_s",
    "inference.graph_s",
    "inference.graph_edges",
    "active.partition_pool_s",
    "active.partition_select_s",
    "active.greedy_s",
    "inference.reach_s",
    "inference.reach_calls",
    "active.candidates",
    "active.batch_matches",
    "serving.batch_calls",
    "serving.batch_items",
    "serving.compute_s",
    "serving.queue_wait_s",
    "serving.deadline_flushes",
    "serving.cache_hits",
    "serving.shed",
    "serving.peak_queue_depth",
    "persistence.swap_s",
    "persistence.swaps",
    "updates.fold_s",
    "updates.folds",
    "trace.overhead_frac",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["fit", "active", "serve", "serve-churn"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _finite(value: float) -> float:
    return value if math.isfinite(value) else INFINITE_MS


def run(args: argparse.Namespace) -> dict:
    import checks
    import layers
    import workloads
    from repro import obs
    from tracing import Tracer, write_trace

    measure = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if not args.trace:
            outcome = measure(args.seed, args.seconds, workdir)
            return {
                "errors": outcome.errors,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
                "detail": outcome.detail,
            }
        # both passes repeat the workload's iteration (a fit, a campaign, a
        # set-up) a fixed number of times, so the per-layer totals describe a
        # fixed amount of work; the first fit or round warms the process up
        # and is not timed, so the two passes compare warm timings
        untraced = measure(args.seed, args.seconds, workdir, repeats=TRACE_REPEATS)
        tracer = Tracer()
        layers.install(tracer)
        try:
            with obs.scoped():
                traced = measure(
                    args.seed, args.seconds, workdir, tracer=tracer, repeats=TRACE_REPEATS
                )
        finally:
            tracer.uninstall()
        metrics, detail = layers.per_layer(tracer, traced)
        base = untraced.metrics["latency_ms"][0]
        metrics["trace.overhead_frac"] = (traced.metrics["latency_ms"][0] / base - 1.0, "ratio")
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        write_trace(
            path,
            tracer.spans,
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
        )
        print(f"trace: {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        return {
            "errors": untraced.errors
            + traced.errors
            + checks.same_outputs(untraced.outputs, traced.outputs),
            "attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed,
            "metrics": metrics,
            "detail": {**traced.detail, **detail},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: the program's source is missing ({src})", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, src)

    result = run(args)
    expected = PER_LAYER if args.trace else END_TO_END
    if set(result["metrics"]) != set(expected):
        raise RuntimeError(
            f"the run measured {sorted(result['metrics'])}, the manifest lists {sorted(expected)}"
        )
    for problem in result["errors"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(result["detail"].items()):
        print(f"  {name} = {value:.6g} {unit}  (detail, not in the result line)")
    metrics = {
        name: {"value": _finite(float(value)), "unit": unit}
        for name, (value, unit) in sorted(result["metrics"].items())
    }
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not result["errors"],
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
