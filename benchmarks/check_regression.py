#!/usr/bin/env python
"""Benchmark regression wall: diff fresh ``BENCH_*.json`` against baselines.

CI produces every ``BENCH_<name>.json`` artifact on each run; this script
compares them headline-by-headline against the committed baselines and fails
(exit code 1) when:

* total ``wall_time_seconds`` regresses by more than ``--max-wall-ratio``
  (default 1.2, i.e. >20% slower) — tiny baselines below
  ``--min-wall-seconds`` are exempt, their noise exceeds any honest signal;
* any ``recall*`` headline metric drops **at all** — recall is a pure
  function of seeded data and deterministic code, so a drop is a change in
  what the code retrieves, never noise, and it gates with no epsilon;
* any other *accuracy-like* headline metric (H@1/MRR/F1/precision/speedup/
  power/…, where higher is better) drops by more than
  ``--accuracy-epsilon``;
* a boolean headline invariant flips from true to false.

A fresh artifact with no committed baseline (e.g. a PR that adds a new
benchmark) is tolerated with a loud WARN rather than a failure — commit the
fresh artifact to adopt it.

Time-like headline metrics (``*_seconds``, ``*_mb``, latencies) are reported
for context but only the benchmark's total wall time gates, keeping the wall
strict on correctness and honest about machine-speed noise.  Artifacts whose
``scale`` / ``datasets`` / ``executor`` stamps differ from the baseline
**fail** — the numbers would not be comparable, and silently skipping would
let a PR dodge the wall by changing the benchmark's configuration;
regenerate and commit the baseline instead.  (Baselines written before the
``executor`` stamp existed are compared without it.)

A markdown summary is always written (``--markdown -`` for stdout; CI
appends it to ``$GITHUB_STEP_SUMMARY``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

# Recall headlines gate strictly: they are deterministic (seeded data, exact
# kernels), so any drop is a real change in what the code retrieves, not
# noise.
RECALL_FLOOR_MARKERS = ("recall",)
ACCURACY_MARKERS = (
    "h@", "h1", "h10", "hits", "mrr", "f1", "precision", "accuracy",
    "power", "identical",
)
# Performance ratios (higher is better) depend on machine speed, so they get
# the same relative budget as wall-clock rather than the accuracy epsilon.
PERF_RATIO_MARKERS = ("speedup", "qps", "reduction")
TIME_MARKERS = ("seconds", "_s", "ms", "p50", "p99", "latency", "mb", "growth")


def classify(key: str) -> str:
    lowered = key.lower()
    # signed differences (e.g. h1_delta = merged - monolithic) have no
    # higher-is-better direction; the producing benchmark bounds |delta|
    if "delta" in lowered:
        return "informational"
    if any(marker in lowered for marker in RECALL_FLOOR_MARKERS):
        return "recall_floor"
    if any(marker in lowered for marker in ACCURACY_MARKERS):
        return "higher_better"
    if any(marker in lowered for marker in PERF_RATIO_MARKERS):
        return "perf_ratio"
    if any(marker in lowered for marker in TIME_MARKERS):
        return "time_like"
    return "informational"


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _host_summary(entry: dict) -> str:
    """One-line host stamp for the report, tolerant of pre-stamp artifacts."""
    host = entry.get("host")
    if not isinstance(host, dict):
        return "(unstamped)"
    cpus = host.get("cpu_count", "?")
    machine = host.get("machine", "?")
    return f"{cpus} cpus / {machine}"


def compare_artifact(name: str, baseline: dict, fresh: dict, args) -> tuple[list, list]:
    """Returns (markdown rows, failure strings) for one benchmark."""
    rows: list[list[str]] = []
    failures: list[str] = []

    if baseline.get("scale") != fresh.get("scale") or baseline.get("datasets") != fresh.get(
        "datasets"
    ):
        # a mismatch means the benchmark's configuration changed under the
        # baseline; skipping here would let a regressing PR bypass the wall
        # by also touching the scale stamp, so it fails until the baseline
        # is regenerated at the new configuration
        rows.append(
            [
                name,
                "(config)",
                f"scale={baseline.get('scale')}",
                f"scale={fresh.get('scale')}",
                "",
                "FAIL: scale/datasets changed — regenerate the baseline",
            ]
        )
        failures.append(
            f"{name}: benchmark scale/datasets differ from the committed baseline "
            "(regenerate and commit BENCH_*.json)"
        )
        return rows, failures

    # wall-clock is only comparable between runs on the same campaign
    # executor backend; tolerate baselines predating the stamp
    base_executor = baseline.get("executor")
    fresh_executor = fresh.get("executor")
    if (
        base_executor is not None
        and fresh_executor is not None
        and base_executor != fresh_executor
    ):
        rows.append(
            [
                name,
                "(config)",
                f"executor={base_executor}",
                f"executor={fresh_executor}",
                "",
                "FAIL: executor changed — regenerate the baseline",
            ]
        )
        failures.append(
            f"{name}: campaign executor differs from the committed baseline "
            f"({base_executor!r} vs {fresh_executor!r}); wall-clock is not "
            "comparable — regenerate and commit BENCH_*.json"
        )
        return rows, failures

    # host context (cpu count, platform) is printed but never gates: it
    # explains wall-clock drift between machines, it does not excuse it.
    # Baselines predating the stamp simply show "(unstamped)".
    base_host = _host_summary(baseline)
    fresh_host = _host_summary(fresh)
    if base_host != fresh_host:
        rows.append([name, "(host)", base_host, fresh_host, "", "info: hosts differ"])

    base_wall = float(baseline.get("wall_time_seconds", 0.0))
    fresh_wall = float(fresh.get("wall_time_seconds", 0.0))
    if base_wall >= args.min_wall_seconds:
        ratio = fresh_wall / base_wall if base_wall > 0 else 1.0
        status = "ok"
        if ratio > args.max_wall_ratio:
            status = f"FAIL: {ratio:.2f}x > {args.max_wall_ratio:.2f}x budget"
            failures.append(
                f"{name}: wall time regressed {base_wall:.2f}s -> {fresh_wall:.2f}s "
                f"({ratio:.2f}x)"
            )
        rows.append(
            [
                name,
                "wall_time_seconds",
                f"{base_wall:.2f}",
                f"{fresh_wall:.2f}",
                f"{ratio:.2f}x",
                status,
            ]
        )
    else:
        rows.append(
            [
                name,
                "wall_time_seconds",
                f"{base_wall:.2f}",
                f"{fresh_wall:.2f}",
                "",
                "ok (below gating floor)",
            ]
        )

    base_head = baseline.get("headline", {})
    fresh_head = fresh.get("headline", {})
    for key in sorted(base_head):
        if key not in fresh_head:
            rows.append([name, key, str(base_head[key]), "(missing)", "", "FAIL: metric gone"])
            failures.append(f"{name}: headline metric {key!r} disappeared")
            continue
        base_value, fresh_value = base_head[key], fresh_head[key]
        kind = classify(key)
        if isinstance(base_value, bool) or isinstance(fresh_value, bool):
            status = "ok"
            if bool(base_value) and not bool(fresh_value):
                status = "FAIL: invariant flipped"
                failures.append(f"{name}: boolean invariant {key!r} flipped to false")
            rows.append([name, key, str(base_value), str(fresh_value), "", status])
            continue
        if not isinstance(base_value, (int, float)) or not isinstance(
            fresh_value, (int, float)
        ):
            rows.append([name, key, str(base_value), str(fresh_value), "", "info"])
            continue
        delta = float(fresh_value) - float(base_value)
        if kind == "recall_floor":
            status = "ok"
            if delta < 0:
                status = "FAIL: recall dropped (strict floor)"
                failures.append(
                    f"{name}: {key} dropped {base_value} -> {fresh_value} "
                    "(recall metrics gate strictly: any drop fails)"
                )
            rows.append([name, key, str(base_value), str(fresh_value), f"{delta:+.4g}", status])
        elif kind == "higher_better":
            status = "ok"
            if delta < -args.accuracy_epsilon:
                status = "FAIL: accuracy regression"
                failures.append(
                    f"{name}: {key} regressed {base_value} -> {fresh_value} ({delta:+.4f})"
                )
            rows.append([name, key, str(base_value), str(fresh_value), f"{delta:+.4g}", status])
        elif kind == "perf_ratio":
            status = "ok"
            floor = float(base_value) / args.max_wall_ratio
            if float(base_value) > 0 and float(fresh_value) < floor:
                status = f"FAIL: dropped beyond 1/{args.max_wall_ratio:.2f} budget"
                failures.append(
                    f"{name}: {key} dropped {base_value} -> {fresh_value} "
                    f"(beyond the {args.max_wall_ratio:.2f}x relative budget)"
                )
            rows.append([name, key, str(base_value), str(fresh_value), f"{delta:+.4g}", status])
        else:
            rows.append([name, key, str(base_value), str(fresh_value), f"{delta:+.4g}", "info"])
    return rows, failures


def render_markdown(rows: list[list[str]], failures: list[str]) -> str:
    lines = ["## Benchmark regression wall", ""]
    if failures:
        lines.append(f"**{len(failures)} regression(s) detected:**")
        lines.extend(f"- {failure}" for failure in failures)
    else:
        lines.append("All benchmarks within budget.")
    lines += [
        "",
        "| benchmark | metric | baseline | fresh | delta | status |",
        "|---|---|---|---|---|---|",
    ]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default="bench-baseline", help="directory of committed artifacts"
    )
    parser.add_argument("--fresh", default=".", help="directory of freshly produced artifacts")
    parser.add_argument("--max-wall-ratio", type=float, default=1.2)
    parser.add_argument("--min-wall-seconds", type=float, default=0.5)
    parser.add_argument("--accuracy-epsilon", type=float, default=1e-6)
    parser.add_argument("--markdown", default="-", help="markdown summary path ('-' = stdout)")
    args = parser.parse_args(argv)

    baselines = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not baselines:
        print(f"no baseline artifacts under {args.baseline!r}", file=sys.stderr)
        return 2

    all_rows: list[list[str]] = []
    all_failures: list[str] = []
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)[len("BENCH_") : -len(".json")]
        fresh_path = os.path.join(args.fresh, os.path.basename(baseline_path))
        if not os.path.isfile(fresh_path):
            all_rows.append([name, "(artifact)", "present", "missing", "", "FAIL: not produced"])
            all_failures.append(f"{name}: fresh artifact missing ({fresh_path})")
            continue
        rows, failures = compare_artifact(name, load(baseline_path), load(fresh_path), args)
        all_rows.extend(rows)
        all_failures.extend(failures)

    # a fresh artifact without a committed baseline is ungated — surface it
    # loudly so the wall grows with the benchmark suite instead of silently
    # excluding newcomers (commit the fresh artifact to adopt it as baseline)
    known = {os.path.basename(path) for path in baselines}
    for fresh_path in sorted(glob.glob(os.path.join(args.fresh, "BENCH_*.json"))):
        basename = os.path.basename(fresh_path)
        if basename not in known:
            name = basename[len("BENCH_") : -len(".json")]
            all_rows.append(
                [name, "(artifact)", "missing", "present", "", "WARN: no baseline committed"]
            )

    markdown = render_markdown(all_rows, all_failures)
    if args.markdown == "-":
        print(markdown)
    else:
        with open(args.markdown, "a", encoding="utf-8") as handle:
            handle.write(markdown)
        print(markdown)
    return 1 if all_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
