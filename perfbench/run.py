"""Whole-pipeline benchmark of the MetaSeg reproduction, with a traced mode.

Run from the repository root::

    python3 perfbench/run.py --workload score_stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs half the time untraced and half traced, and reports the per-layer
metrics (plus the tracing overhead) and writes a Chrome trace under
``perfbench/out/``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable table and an ``info`` record (environment, input sizes,
sample counts).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: How many times set-up runs per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The metrics and their units, as ``BENCHMARK.json`` lists them: name -> unit.
_SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

#: Per-layer metric -> (span name, aggregate) read from the traced spans.
SPAN_METRICS = {
    "segmentation.network.calls": ("segmentation.network", "calls"),
    "segmentation.network.busy_s": ("segmentation.network", "busy_s"),
    "utils.validation.busy_s": ("utils.validation", "busy_s"),
    "core.heatmaps.busy_s": ("core.heatmaps", "busy_s"),
    "core.heatmaps.bytes": ("core.heatmaps", "bytes"),
    "core.segments.calls": ("core.segments", "calls"),
    "core.segments.busy_s": ("core.segments", "busy_s"),
    "core.segments.segments": ("core.segments", "segments"),
    "core.segments.iou_busy_s": ("core.segments.iou", "busy_s"),
    "core.metrics.busy_s": ("core.metrics", "busy_s"),
    "timedynamic.tracking.busy_s": ("timedynamic.tracking", "busy_s"),
    "timedynamic.time_series.busy_s": ("timedynamic.time_series", "busy_s"),
    "models.tree.fits": ("models.tree.fit", "calls"),
    "models.tree.fit_s": ("models.tree.fit", "span_s"),
    "models.tree.predict_s": ("models.tree.predict", "span_s"),
    "models.logistic.fits": ("models.logistic.fit", "calls"),
    "models.logistic.fit_s": ("models.logistic.fit", "span_s"),
    "models.logistic.iterations": ("models.logistic.fit", "iterations"),
    "core.meta_classification.score_s": ("core.meta_classification", "span_s"),
    "core.meta_regression.score_s": ("core.meta_regression", "span_s"),
    "serve.protocol.busy_s": ("serve.protocol", "busy_s"),
    "serve.protocol.bytes": ("serve.protocol", "bytes"),
    "api.fitted.busy_s": ("api.fitted", "busy_s"),
    "store.get_s": ("store.get", "span_s"),
    "store.put_s": ("store.put", "span_s"),
}

SHARD_SPAN = re.compile(r"shard\d+")


def _import_library() -> None:
    """Put ``src/`` on the path; exit 2 (no result line) without the library."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {REPO_ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def layer_metrics(records, counters: Dict[str, float], extras: Dict[str, float],
                  n_ops: int, overhead: float) -> Dict[str, float]:
    """Per-layer metrics, per traced op, from spans, store counters and extras."""
    from layers import layer_totals

    totals = layer_totals(records)
    out = {
        name: totals.get(span, {}).get(aggregate, 0.0) / n_ops
        for name, (span, aggregate) in SPAN_METRICS.items()
    }
    lookups = counters["store.get.hits"] + counters["store.get.misses"]
    out["store.get_bytes"] = counters["store.get.bytes"] / n_ops
    out["store.put_bytes"] = counters["store.put.bytes"] / n_ops
    out["store.hit_ratio"] = counters["store.get.hits"] / lookups if lookups else 0.0
    fits = extras.get("fits_hits", 0.0) + extras.get("fits_misses", 0.0)
    out["store.fits.hit_ratio"] = extras.get("fits_hits", 0.0) / fits if fits else 0.0
    out["dispatch.frames"] = sum(
        totals.get(span, {}).get("frames", 0.0) for span in ("dispatch.send", "dispatch.recv")
    ) / n_ops
    out["dispatch.frame_bytes"] = sum(
        totals.get(span, {}).get("frame_bytes", 0.0)
        for span in ("dispatch.send", "dispatch.recv")
    ) / n_ops
    for name in ("retries", "worker_lost", "inline"):
        out[f"dispatch.{name}"] = extras.get(name, 0.0) / n_ops
    out["api.execution.shard_s"] = sum(
        float(record["duration_s"]) for record in records
        if SHARD_SPAN.fullmatch(str(record["name"])) and record.get("duration_s") is not None
    ) / n_ops
    execution = totals.get("api.execution", {})
    out["api.execution.wait_s"] = (
        execution.get("span_s", 0.0) - execution.get("cpu_s", 0.0)
    ) / n_ops
    out["sweep.cold_point_s"] = extras.get("cold_point_s", 0.0) / n_ops
    out["sweep.warm_point_s"] = extras.get("warm_point_s", 0.0) / n_ops
    out["bench.trace_overhead_frac"] = overhead
    return out


def _store_counters() -> Dict[str, float]:
    from repro.obs import METRICS

    counters = METRICS.snapshot()["counters"]
    names = ("store.get.hits", "store.get.misses", "store.get.bytes", "store.put.bytes")
    return {name: float(counters.get(name, 0)) for name in names}


def traced_phase(workload, seconds: float, trace_path: Path):
    """Closed loop with every layer hook installed; returns (phase, metrics inputs)."""
    from harness import run_closed_loop
    from layers import LayerProbe

    from repro.obs import trace_to_chrome, write_json

    probe = LayerProbe()
    extras: Dict[str, float] = {}

    def op():
        with probe.tracer.span("op", workload=workload.name):
            return workload.op(tracer=probe.tracer)

    def check(output) -> bool:
        for key, value in workload.extras(output).items():
            extras[key] = extras.get(key, 0.0) + float(value)
        return workload.check(output)

    before = _store_counters()
    with probe:
        phase = run_closed_loop(op, check, workload.frames_per_op, seconds)
    after = _store_counters()
    counters = {name: after[name] - before[name] for name in after}
    write_json(str(trace_path), trace_to_chrome(probe.tracer))
    return phase, probe.tracer.records(), counters, extras


def _table(rows: List[Tuple[str, float, str]]) -> List[str]:
    width = max(len(name) for name, _, _ in rows)
    return [f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()

    from harness import (environment, peak_rss_mb, percentile, result_line,
                         run_closed_loop, samples_beyond, tail_percentile, timed_setups)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload, setup_seconds = timed_setups(
            lambda: WORKLOADS[args.workload](args.seed, workdir), SETUP_REPEATS
        )
        info: Dict[str, object] = {
            "workload": args.workload,
            "seed": args.seed,
            "loop": "closed, one client",
            "environment": environment(),
            "setup_runs_s": setup_seconds,
        }
        if args.trace == 0:
            phase = run_closed_loop(workload.op, workload.check, workload.frames_per_op,
                                    args.seconds)
            auroc_value, r2_value = workload.quality()
            latencies_ms = [1e3 * value for value in phase.latencies_s]
            metrics = {
                "setup_s": statistics.median(setup_seconds),
                "frames_per_s": phase.frames_per_s,
                "latency_p50_ms": percentile(latencies_ms, 50),
                "peak_rss_mb": peak_rss_mb(),
                "test_auroc": auroc_value,
                "test_r2": r2_value,
            }
            units = END_TO_END
            p90 = tail_percentile(latencies_ms, 90)
            info["frames_per_s_overall"] = phase.overall_frames_per_s
            info["latency"] = {
                "samples": len(latencies_ms),
                "p90_ms": p90,
                "samples_beyond_p90": samples_beyond(len(latencies_ms), 90),
            }
            extra_rows = [("latency_p90_ms", p90, "ms")] if p90 is not None else []
        else:
            untraced = run_closed_loop(workload.op, workload.check, workload.frames_per_op,
                                       args.seconds / 2)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            phase, records, counters, extras = traced_phase(
                workload, args.seconds / 2, trace_path
            )
            phase.attempted += untraced.attempted
            phase.failed += untraced.failed
            phase.errors += untraced.errors
            overhead = (
                1.0 - phase.frames_per_s / untraced.frames_per_s
                if untraced.frames_per_s > 0 else 0.0
            )
            metrics = layer_metrics(records, counters, extras,
                                    max(1, len(phase.latencies_s)), overhead)
            units = PER_LAYER
            info["trace"] = {"chrome_trace": str(trace_path.relative_to(REPO_ROOT)),
                             "traced_ops": len(phase.latencies_s),
                             "traced_latency_p50_ms": 1e3 * percentile(phase.latencies_s, 50),
                             "untraced_ops": len(untraced.latencies_s)}
            extra_rows = []
        info["inputs"] = workload.inputs()
        l3_bytes = info["environment"]["l3_bytes"]
        for key in ("pool_bytes", "dump_bytes"):
            if key in info["inputs"] and l3_bytes:
                info["inputs"][f"{key[:-6]}_over_l3"] = info["inputs"][key] / l3_bytes
        info["failed_frac"] = phase.failed / phase.attempted
        if phase.errors:
            info["errors"] = sorted(set(phase.errors))[:5]
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [(name, metrics[name], units[name]) for name in units] + extra_rows
    rows.append(("failed_frac", info["failed_frac"], "ratio"))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={phase.attempted} failed={phase.failed}")
    print("\n".join(_table(rows)))
    print("info " + json.dumps(info, sort_keys=True, default=str))
    print(result_line(phase.failed == 0, phase.attempted, phase.failed,
                      {name: (metrics[name], units[name]) for name in units}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
