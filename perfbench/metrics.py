"""Metric definitions and their computation from one run's outcome.

``BENCHMARK.json`` fixes names, units, directions and bounds; its schema
has no room for more, so what each per-layer metric is expected to move
(the end-to-end metric and the workload) lives here, in
:data:`PER_LAYER_TARGETS`, for issues and reviews to cite by name.

Every end-to-end metric is defined on every workload (the output line
must carry all of them). End-to-end times and rates are in reference
seconds (``hostspeed.py``); per-layer times are wall seconds. Figures
that exist on one workload only, or that can read 0, are printed in the
human-readable report instead (:func:`report_only`): hit and miss
latency (serve), the failure ratio (its complement ``ok_ratio`` is
gated) and the cycle-simulator agreement figures, which are
deterministic model-vs-model checks rather than speeds (no hardware
reference exists, so they are not errors). So are the per-job latency
percentiles. A synth run completes 8-30 jobs: no sample lies beyond
p99, so ``latency_s_p99`` reads the slowest job (only ``serve-mixed``
has the ten samples beyond p99 a tail percentile needs), and the median
of a few jobs that cluster by model and margin jumps between clusters,
so ``latency_s_p50`` and ``synth_s_p50`` spread by 0.14 of their median
over ten runs of ``synth-ea`` where the means stay within 0.06. The
gated per-job times are therefore means: ``jobs_per_s`` (one over the
mean job latency), ``synth_s_mean`` and ``xval_s_mean``. The wall-clock
figures and the host-speed factor are reported beside the scaled ones.

The ``serve.*`` per-layer metrics come from the served requests of a
run: the closed loop on ``serve-mixed``, and on the synth workloads the
two requests of their served re-run check (one computed, one from the
store), so every layer is measured on every workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

PER_LAYER_TARGETS = {
    "weight_duplication.*": "synth_s_mean, jobs_per_s on synth-sa "
                            "(less on synth-ea)",
    "macro_partition.explore_s/_calls, score_population_s/_calls, "
    "genes_scored, executor.memo_hit_ratio": "synth_s_mean on synth-ea",
    "grid_eval.bounds_array_s, executor.tasks, executor.pruned_ratio":
        "synth_s_mean on synth-sa and synth-ea (expected <1%)",
    "macro_partition.score_s/_calls": "synth_s_mean (winner re-score, "
                                      "expected negligible)",
    "sim.cycle.*": "xval_s_mean on synth-sa and synth-ea",
    "serve.queue_wait_s_p50, serve.http_s_p50, serve.store_*, "
    "serve.hit_ratio, serve.hit_latency_s_p50":
        "latency_s_p50, latency_s_p99, jobs_per_s on serve-mixed "
        "(run by hand, not gated)",
    "serve.compute_s_p50, serve.miss_latency_s_p50":
        "latency_s_p99 on serve-mixed (the miss tail; run by hand)",
    "*.synth_share": "which stage dominates synth_s_mean on each workload",
    "harness.traced_jobs_per_s": "none: traced vs untraced jobs_per_s "
                                 "is the tracing overhead",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(values: List[float], q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile rank."""
    return len(values) - max(0, math.ceil(q * len(values))) if values else 0


def _geomean(values: List[float]) -> float:
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def wall_jobs_per_s(out) -> float:
    """Completed jobs per wall second of the window, less harness
    checks and calibration."""
    busy = out.window_s - out.check_s
    return len(out.latencies) / busy if busy > 0 else 0.0


def jobs_per_s(out) -> float:
    """Completed jobs per reference second."""
    return wall_jobs_per_s(out) / out.host_factor


def end_to_end(out) -> Dict[str, Tuple[float, str]]:
    scale = out.host_factor
    return {
        "setup_s": (out.import_s + out.setup_s * scale, "s"),
        "jobs_per_s": (jobs_per_s(out), "1/s"),
        # Means, not medians (see the module doc). xval_s holds one
        # mean-of-five time per design (see workloads._xval_seconds).
        "synth_s_mean": (
            statistics.mean(out.synth_s) * scale if out.synth_s else 0.0, "s"),
        "xval_s_mean": (
            statistics.mean(out.xval_s) * scale if out.xval_s else 0.0, "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "ok_ratio": ((out.attempted - out.failed) / out.attempted
                     if out.attempted else 0.0, "ratio"),
        "design_tops_per_watt_geomean": (
            _geomean([d["tops_per_watt"] for d in out.designs]), "TOPS/W"),
        "design_throughput_geomean": (
            _geomean([d["throughput"] for d in out.designs]), "img/s"),
    }


def report_only(out) -> Dict[str, Tuple[float, str]]:
    """Metrics printed for people, not gated (see the module doc)."""
    scale = out.host_factor
    rows = {
        "latency_s_p50": (_median(out.latencies) * scale, "s"),
        "latency_s_p99": (percentile(out.latencies, 0.99) * scale, "s"),
        "synth_s_p50": (_median(out.synth_s) * scale, "s"),
        "setup_s_import": (out.import_s, "s"),
        "setup_s_workload_wall": (out.setup_s, "s"),
        "wall_jobs_per_s": (wall_jobs_per_s(out), "1/s"),
        "wall_synth_s_p50": (_median(out.synth_s), "s"),
        "host_factor": (out.host_factor, "ratio"),
        "error_ratio": (out.failed / out.attempted if out.attempted else 0.0,
                        "ratio"),
        "xval_energy_dev_max": (
            max((x["energy_dev"] for x in out.xvals), default=0.0), "ratio"),
        "xval_throughput_dev_max": (
            max((x["throughput_dev"] for x in out.xvals), default=0.0),
            "ratio"),
        "xval_fail_ratio": (
            sum(not x["ok"] for x in out.xvals) / len(out.xvals)
            if out.xvals else 0.0, "ratio"),
    }
    if out.hit_latencies or out.miss_latencies:
        rows["hit_latency_s_p50"] = (_median(out.hit_latencies) * scale, "s")
        rows["miss_latency_s_p50"] = (_median(out.miss_latencies) * scale,
                                      "s")
    return rows


def per_layer(out) -> Dict[str, Tuple[float, str]]:
    calls, counts, seconds = out.layers or ({}, {}, {})
    store = out.store_totals or ({}, {}, {})
    reports = out.reports
    tasks = sum(r["ea_runs"] + r["pruned_tasks"] for r in reports)
    lookups = sum(r["cache_hits"] + r["ea_evaluations"] for r in reports)
    synth_total = sum(r["wall_seconds"] for r in reports)
    feasible_calls = calls.get("weight_duplication.is_feasible", 0)
    lower_s = seconds.get("sim.cycle.lower", 0.0)
    # Lowering runs lazily inside the engine's run: count it as
    # preparation, not replay.
    simulate_s = seconds.get("sim.cycle.simulate", 0.0) - lower_s
    spans = out.serve_spans
    served = len(out.hit_latencies) + len(out.miss_latencies)

    def share(span: str) -> float:
        return seconds.get(span, 0.0) / synth_total if synth_total else 0.0

    rows = {}
    for span in ("weight_duplication.top_candidates",
                 "weight_duplication.batch_energy",
                 "macro_partition.explore",
                 "macro_partition.score_population",
                 "macro_partition.score"):
        rows[f"{span}_s"] = (seconds.get(span, 0.0), "s")
        rows[f"{span}_calls"] = (calls.get(span, 0), "count")
    rows.update({
        "weight_duplication.neighbor_calls": (
            calls.get("weight_duplication.neighbor", 0), "count"),
        "weight_duplication.is_feasible_calls": (feasible_calls, "count"),
        "weight_duplication.feasible_ratio": (
            counts.get("weight_duplication.feasible", 0) / feasible_calls
            if feasible_calls else 0.0, "ratio"),
        "weight_duplication.synth_share": (
            share("weight_duplication.top_candidates"), "ratio"),
        "macro_partition.genes_scored": (
            counts.get("macro_partition.genes_scored", 0), "count"),
        "macro_partition.synth_share": (
            share("macro_partition.explore"), "ratio"),
        "executor.tasks": (tasks, "count"),
        "executor.pruned_ratio": (
            sum(r["pruned_tasks"] for r in reports) / tasks if tasks else 0.0,
            "ratio"),
        "executor.memo_hit_ratio": (
            sum(r["cache_hits"] for r in reports) / lookups
            if lookups else 0.0, "ratio"),
        "grid_eval.bounds_array_s": (
            seconds.get("grid_eval.bounds_array", 0.0), "s"),
        "sim.cycle.prepare_s": (
            seconds.get("sim.cycle.prepare", 0.0) + lower_s, "s"),
        "sim.cycle.simulate_s": (simulate_s, "s"),
        "sim.cycle.cycles_per_host_s": (
            counts.get("sim.cycle.cycles", 0) / simulate_s
            if simulate_s else 0.0, "cycles/s"),
        "sim.cycle.xval_energy_dev_max": (
            max((x["energy_dev"] for x in out.xvals), default=0.0), "ratio"),
        "sim.cycle.xval_fail_ratio": (
            sum(not x["ok"] for x in out.xvals) / len(out.xvals)
            if out.xvals else 0.0, "ratio"),
        "serve.queue_wait_s_p50": (_median(spans.get("queue_wait", [])), "s"),
        "serve.compute_s_p50": (_median(spans.get("compute", [])), "s"),
        "serve.http_s_p50": (_median(spans.get("http", [])), "s"),
        "serve.store_get_s": (store[2].get("serve.store_get", 0.0), "s"),
        "serve.store_get_calls": (store[0].get("serve.store_get", 0), "count"),
        "serve.store_put_s": (store[2].get("serve.store_put", 0.0), "s"),
        "serve.store_put_calls": (store[0].get("serve.store_put", 0), "count"),
        "serve.hit_ratio": (
            len(out.hit_latencies) / served if served else 0.0, "ratio"),
        "serve.hit_latency_s_p50": (_median(out.hit_latencies), "s"),
        "serve.miss_latency_s_p50": (_median(out.miss_latencies), "s"),
        "harness.traced_jobs_per_s": (jobs_per_s(out), "1/s"),
    })
    return rows


#: Per-layer counts that must repeat exactly for a fixed seed (they
#: cover only the designated jobs); ``check_trace.py`` compares them.
EXACT_COUNTS = (
    "weight_duplication.top_candidates_calls",
    "weight_duplication.batch_energy_calls",
    "weight_duplication.neighbor_calls",
    "weight_duplication.is_feasible_calls",
    "weight_duplication.feasible_ratio",
    "macro_partition.explore_calls",
    "macro_partition.score_population_calls",
    "macro_partition.genes_scored",
    "macro_partition.score_calls",
    "executor.tasks",
    "executor.pruned_ratio",
    "executor.memo_hit_ratio",
    "sim.cycle.xval_energy_dev_max",
    "sim.cycle.xval_fail_ratio",
)
