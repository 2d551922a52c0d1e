"""One workload in one fresh interpreter: rounds, optional trace, metrics.

Started by ``run.py`` (which sets the thread-count environment, the import
path and the scratch directory).  Prints one JSON object as its last line:
``attempted``, ``failed``, ``failures``, ``wall_s`` and every metric the
workload measured as ``{name: {"value", "unit"}}`` — the end-to-end ones
always, the per-layer ones after a traced round.  A metric of a layer the
workload does not exercise is absent.  Names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probes import (steal_ticks, traced_round, two_connection_ratio,
                    two_worker_scan_ratio)
from rounds import best_latencies, percentile, run_rounds
from spans import Tracer
from workloads import FULL, LENGTH, WORKLOADS, Sizes, build_stream

HERE = Path(__file__).resolve().parent
CONTRACT = HERE.parents[1] / "BENCHMARK.json"

#: Per-layer timings read off the trace: metric → (span, seconds-to-unit
#: factor, count to divide by).  The median over the span's occurrences.
SPAN_METRICS = {
    "timeseries.extract_us": ("timeseries.extract", 1e6, None),
    "query.parse_us": ("query.parse", 1e6, None),
    "query.plan_cold_us": ("query.plan_cold", 1e6, None),
    "query.plan_cached_us": ("query.plan_cached", 1e6, None),
    "index.range_ms": ("index.range_query", 1e3, None),
    "index.nearest_ms": ("index.nearest_neighbors", 1e3, None),
    "index.bulk_load_ms": ("index.bulk_load", 1e3, None),
    "index.insert_us": ("index.extend", 1e6, "rows"),
    "scan.range_ms": ("scan.range_query", 1e3, None),
    "scan.join_ms": ("scan.all_pairs", 1e3, None),
    "storage.wal_append_us": ("storage.wal_append", 1e6, None),
    "storage.checkpoint_ms": ("storage.checkpoint", 1e3, None),
    "storage.open_ms": ("storage.open", 1e3, None),
    "storage.first_query_ms": ("storage.first_query", 1e3, None),
    "server.encode_request_us": ("server.encode_request", 1e6, None),
    "server.decode_response_us": ("server.decode_response", 1e6, None),
    "server.rtt_ms": ("client.sql", 1e3, None),
    "server.ping_rtt_us": ("client.ping", 1e6, None),
}


def end_to_end(stream, result, sizes) -> dict[str, float]:
    """The gated metrics plus the ungated ``e2e.*`` ones, all from the
    untraced rounds, every time scaled to the calibration reference."""
    slow = result.slowdown

    def scaled(*, ranges: bool | None = None) -> list[float]:
        return [best / slow for best in best_latencies(stream, result, ranges=ranges)]

    everything = scaled()
    extras = result.extras
    metrics = {
        "setup_s": min(result.setup_s) / slow,
        "op_p50_ms": statistics.median(everything) * 1e3,
        "throughput_ops_s": len(everything) / sum(everything),
        "range_p50_ms": statistics.median(scaled(ranges=True)) * 1e3,
        "nonrange_p50_ms": statistics.median(scaled(ranges=False)) * 1e3,
        "e2e.op_p95_ms": percentile(everything, 0.95) * 1e3,
        "e2e.op_p99_ms": percentile(everything, 0.99) * 1e3,
        "machine.calib_ms": result.calibration_s * 1e3,
    }
    if stream.workload == "served-read":
        # The program is the server child; this process is only the caller.
        # The child's peak once it is ready is gated; what it grows to while
        # serving depends on how many executor threads a race in the pool
        # spawns (about 10 MB each), so that peak is reported beside the count.
        metrics["peak_rss_mb"] = statistics.median(
            extra["server_ready_rss_mb"] for extra in extras)
        metrics["server.peak_rss_mb"] = max(extra["server_peak_rss_mb"] for extra in extras)
        metrics["server.threads"] = max(extra["server_threads"] for extra in extras)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if stream.workload == "durable-rw":
        inserted = sum(len(op.rows) for op in stream.ops)
        user_bytes = (sizes.durable_rows + inserted) * LENGTH * 8
        metrics["e2e.reopen_s"] = min(extra["reopen_s"] for extra in extras) / slow
        metrics["e2e.stored_bytes_per_user_byte"] = extras[0]["stored_bytes"] / user_bytes
    return metrics


def per_layer(stream, result, sizes, scratch: str, tracer: Tracer) -> dict[str, float]:
    """Run the traced round and the diagnostics; reduce them to metrics."""
    traced = traced_round(stream, sizes, scratch, tracer)
    tracer.write(HERE / "out" / f"trace-{stream.workload}.jsonl")
    metrics = dict(traced["layer"])
    for name, (span, factor, per_count) in SPAN_METRICS.items():
        durations = tracer.durations_s(span, per_count)
        if durations:
            metrics[name] = statistics.median(durations) * factor
    extras = traced["extras"]
    if stream.workload == "durable-rw":
        inserted_bytes = sum(len(op.rows) for op in stream.ops) * LENGTH * 8
        metrics.update({
            "storage.wal_bytes_per_user_byte": extras["wal_bytes"] / inserted_bytes,
            "storage.wal_records": extras["wal_records"],
            "storage.wal_flushes": traced["fsyncs"],
            "storage.replayed_wal_records": extras["replayed_wal_records"],
            "storage.deserialized_indexes": extras["deserialized_indexes"],
        })
    if stream.workload == "served-read":
        metrics.update({
            "server.rejected": extras["rejected"],
            "server.client_retries": extras["client_retries"],
            "server.c2_throughput_ratio": two_connection_ratio(stream, sizes, scratch),
        })
    if stream.workload == "embedded-scan-join":
        metrics["parallel.w2_scan_ratio"] = two_worker_scan_ratio(stream)
    metrics["trace.overhead_share"] = traced["wall_s"] / min(result.round_wall_s)
    return metrics


def measure(workload: str, seed: int, trace: bool, scratch: str, sizes: Sizes = FULL) -> dict:
    """Run one workload and return its result object."""
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"]
             for metric in contract["end_to_end"] + contract["per_layer"]}
    started = time.perf_counter()
    steal_before = steal_ticks()
    stream = build_stream(workload, seed, sizes)
    result = run_rounds(stream, sizes, scratch)
    if result.failed == result.attempted:
        raise SystemExit(f"every op failed, first: {result.failures[0]}")
    metrics = end_to_end(stream, result, sizes)
    if trace:
        metrics.update(per_layer(stream, result, sizes, scratch, Tracer(workload)))
    steal_after = steal_ticks()
    ticks = steal_after[1] - steal_before[1]
    metrics["machine.steal_share"] = (steal_after[0] - steal_before[0]) / ticks if ticks else 0.0

    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    return {"workload": workload, "checksum": stream.checksum(),
            "attempted": result.attempted, "failed": result.failed,
            "failures": result.failures[:10], "plans": sorted(set(result.plans)),
            "rounds": sizes.rounds, "wall_s": time.perf_counter() - started,
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True,
                        help="an existing directory for temporary databases")
    arguments = parser.parse_args(argv)
    print(json.dumps(measure(arguments.workload, arguments.seed, bool(arguments.trace),
                             arguments.scratch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
