"""KERNELS — do the columnar kernels actually kill the per-record Python loop?

The columnar refactor replaced every per-record hot path (scan range
queries, k-index candidate verification, the self-join inner loop) with
blockwise NumPy kernels over the relation's
:class:`~repro.storage.columnar.ColumnarRecordStore`.  This benchmark keeps
the old per-record implementations alive *here* — as reference code, not as
an engine code path — and measures both sides on the evaluation's own
workload shapes:

* **naive-scan sweep** (Figures 8/9 shape): untransformed range queries at
  several radii, vectorized scan vs the per-record early-abandoning loop —
  the headline "kill the Python loop" number (``--check``: >= 5x);
* **Fig. 10/11 end-to-end**: index *and* scan range queries under the
  moving-average transformation — traversal included, so this is what a
  whole query actually costs (``--check``: >= 2x);
* **join sweep** (Table 1 shape): the self-join's quadratic inner loop,
  blockwise vs nested per-pair (reported; it rides the scan threshold);
* **index range probe**: per-query time of ``KIndex.range_query`` under the
  transformation — traversal plus verification, no reference side (recorded,
  so the trajectory shows what a traversal change did to the probe path);
* **identity**: every vectorized result is compared against the reference
  implementation — same ids *and* identical distances (``--check`` fails on
  any mismatch).

Each run appends its metrics to the machine-keyed, git-tracked
``BENCH_perf.json`` trajectory (see :mod:`repro.bench.recording`) —
committing the update is how a run becomes part of the shared baseline;
``--no-record`` measures without touching the file.  ``--check`` enforces
the fixed floors above (machine-keyed history is for inspecting drift, not
a gate — cross-machine timings are not comparable).  Runnable under
pytest-benchmark like the other ``bench_*`` files, or directly as a script
(the CI smoke job runs ``--check`` on a small workload and uploads the
resulting file as an artifact).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import pytest

from repro.bench.recording import record_run
from repro.bench.workloads import synthetic_workload
from repro.index.geometry import Rect
from repro.index.transformed import transformed_range_search
from repro.storage.columnar import transform_full_record
from repro.timeseries.transforms import moving_average_spectral

SCAN_SPEEDUP_FLOOR = 5.0
E2E_SPEEDUP_FLOOR = 2.0
#: Answer fractions the radius sweep targets.
SWEEP_FRACTIONS = (0.01, 0.05, 0.2)


# ----------------------------------------------------------------------
# reference implementations (the deleted per-record code paths, kept only
# as the benchmark's ground truth)
# ----------------------------------------------------------------------
def _reference_records(workload, transformation=None):
    """Per-record (coefficients, mean, std) tuples, transformed if asked."""
    store = workload.scan.store
    records = []
    for record_id in range(len(store)):
        record = store.full_record(record_id)
        if transformation is not None:
            record = transform_full_record(*record, transformation)
        records.append(record)
    return records


def _reference_distance(record, query_record, include_stats, limit=None):
    """The pre-columnar per-record distance: chunked early abandoning for
    pruning, the canonical full-sum formula for reported distances (the
    definition :func:`repro.timeseries.features.record_distance` fixes)."""
    coefficients, query_coefficients = record[0], query_record[0]
    common = min(coefficients.shape[0], query_coefficients.shape[0])
    if limit is not None:
        running = 0.0
        if include_stats:
            running += ((record[1] - query_record[1]) ** 2
                        + (record[2] - query_record[2]) ** 2)
            if running > limit:
                return None
        for start in range(0, common, 4):
            segment = (coefficients[start:start + 4]
                       - query_coefficients[start:start + 4])
            running += float(np.sum(np.abs(segment) ** 2))
            if running > limit:
                return None
    total = float(np.sum(np.abs(coefficients[:common]
                                - query_coefficients[:common]) ** 2))
    if include_stats:
        total += ((record[1] - query_record[1]) ** 2
                  + (record[2] - query_record[2]) ** 2)
    return float(np.sqrt(total))


def _reference_scan_range(workload, records, query, epsilon, transformation,
                          include_stats):
    features = workload.extractor.extract(query)
    query_record = (features.full_coefficients, features.mean, features.std)
    if transformation is not None:
        query_record = transform_full_record(*query_record, transformation)
    limit = float(epsilon) ** 2
    answers = []
    for series, record in zip(workload.data, records):
        distance = _reference_distance(record, query_record, include_stats, limit)
        if distance is not None and distance <= epsilon:
            answers.append((series, distance))
    answers.sort(key=lambda pair: pair[1])
    return answers


def _reference_index_range(workload, records, query, epsilon, transformation,
                           include_stats):
    """The pre-columnar index range query: the same tree traversal the
    vectorized path runs, followed by the old one-candidate-at-a-time exact
    verification loop."""
    index = workload.index
    linear, real_map = index._lower_transformation(transformation)  # noqa: SLF001
    features = workload.extractor.extract(query)
    query_record = (features.full_coefficients, features.mean, features.std)
    query_point = features.point
    if transformation is not None:
        query_record = transform_full_record(*query_record, transformation)
        query_point = index._transform_point(features.point, linear)  # noqa: SLF001
    low, high = index.space.search_rectangle(query_point, epsilon)
    candidates = transformed_range_search(
        index.tree, Rect(low, high), real_map,
        periodic_dims=index.space.periodic_dimension_mask())
    answers = []
    for record_id in candidates:
        distance = _reference_distance(records[record_id], query_record,
                                       include_stats)
        if distance <= epsilon:
            answers.append((index.store.series(record_id), distance))
    answers.sort(key=lambda pair: pair[1])
    return answers


def _reference_join(workload, records, epsilon, include_stats):
    limit = float(epsilon) ** 2
    pairs = []
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            distance = _reference_distance(records[i], records[j],
                                           include_stats, limit)
            if distance is not None and distance <= epsilon:
                pairs.append((workload.data[i], workload.data[j], distance))
    return pairs


def _radii(workload, transformation=None):
    result = workload.scan.range_query(workload.queries[0], float("inf"),
                                       transformation=transformation,
                                       early_abandon=False)
    distances = sorted(d for _, d in result.answers)
    return [distances[max(1, int(fraction * len(distances))) - 1] + 1e-9
            for fraction in SWEEP_FRACTIONS]


def _compare(vectorized, reference):
    """(identical ids, max absolute distance difference) of two answer lists."""
    ids_equal = [s.object_id for s, _ in vectorized] == \
        [s.object_id for s, _ in reference]
    if not ids_equal or len(vectorized) != len(reference):
        return False, float("inf")
    if not vectorized:
        return True, 0.0
    return True, max(abs(a - b) for (_, a), (_, b) in zip(vectorized, reference))


# ----------------------------------------------------------------------
# the measured suite
# ----------------------------------------------------------------------
def run_suite(num_series: int = 1200, length: int = 128,
              num_queries: int = 5, join_series: int = 250) -> dict:
    workload = synthetic_workload(num_series, length, seed=13)
    include_stats = workload.extractor.include_stats
    transformation = moving_average_spectral(length, min(20, length))
    queries = workload.queries[:num_queries] or workload.data[:1]
    metrics: dict = {"num_series": num_series, "length": length,
                     "num_queries": len(queries)}

    # -- naive-scan sweep (untransformed range queries) ------------------
    plain_records = _reference_records(workload)
    radii = _radii(workload)
    identical = True
    max_diff = 0.0
    started = time.perf_counter()
    vectorized_answers = [workload.scan.range_query(query, radius).answers
                          for radius in radii for query in queries]
    vec_seconds = time.perf_counter() - started
    started = time.perf_counter()
    reference_answers = [
        _reference_scan_range(workload, plain_records, query, radius, None,
                              include_stats)
        for radius in radii for query in queries]
    ref_seconds = time.perf_counter() - started
    for vectorized, reference in zip(vectorized_answers, reference_answers):
        same, diff = _compare(vectorized, reference)
        identical = identical and same
        max_diff = max(max_diff, diff)
    metrics["scan_vec_ms"] = 1000.0 * vec_seconds
    metrics["scan_ref_ms"] = 1000.0 * ref_seconds
    metrics["scan_speedup"] = ref_seconds / vec_seconds if vec_seconds else float("inf")

    # -- Fig. 10/11 end-to-end (index + scan, transformed) ---------------
    transformed_records = _reference_records(workload, transformation)
    radii_t = _radii(workload, transformation)
    started = time.perf_counter()
    vectorized_e2e = []
    for radius in radii_t:
        for query in queries:
            vectorized_e2e.append(workload.scan.range_query(
                query, radius, transformation=transformation).answers)
            vectorized_e2e.append(workload.index.range_query(
                query, radius, transformation=transformation).answers)
    vec_e2e = time.perf_counter() - started
    started = time.perf_counter()
    reference_e2e = []
    for radius in radii_t:
        for query in queries:
            reference_e2e.append(_reference_scan_range(
                workload, transformed_records, query, radius, transformation,
                include_stats))
            reference_e2e.append(_reference_index_range(
                workload, transformed_records, query, radius, transformation,
                include_stats))
    ref_e2e = time.perf_counter() - started
    for vectorized, reference in zip(vectorized_e2e, reference_e2e):
        same, diff = _compare(vectorized, reference)
        identical = identical and same
        max_diff = max(max_diff, diff)
    metrics["e2e_vec_ms"] = 1000.0 * vec_e2e
    metrics["e2e_ref_ms"] = 1000.0 * ref_e2e
    metrics["e2e_speedup"] = ref_e2e / vec_e2e if vec_e2e else float("inf")

    # -- join sweep (Table 1 shape, smaller relation) --------------------
    join_workload = synthetic_workload(min(join_series, num_series), length,
                                       seed=13)
    join_records = _reference_records(join_workload, transformation)
    # The middle sweep fraction: at the tightest radius both sides abandon
    # after the statistics terms and the comparison measures loop overhead
    # only; a moderate radius exercises the chunked refinement.
    join_radius = _radii(join_workload, transformation)[1]
    started = time.perf_counter()
    vectorized_pairs, _ = join_workload.scan.all_pairs(
        join_radius, transformation=transformation)
    vec_join = time.perf_counter() - started
    started = time.perf_counter()
    reference_pairs = _reference_join(join_workload, join_records, join_radius,
                                      include_stats)
    ref_join = time.perf_counter() - started
    pair_ids = {(a.object_id, b.object_id) for a, b, _ in vectorized_pairs}
    ref_pair_ids = {(a.object_id, b.object_id) for a, b, _ in reference_pairs}
    identical = identical and pair_ids == ref_pair_ids
    metrics["join_vec_ms"] = 1000.0 * vec_join
    metrics["join_ref_ms"] = 1000.0 * ref_join
    metrics["join_speedup"] = ref_join / vec_join if vec_join else float("inf")

    # -- index range probe (per-query ms, best of three passes) ----------
    probes = [(query, radius) for radius in radii_t for query in queries]
    passes = []
    for _ in range(3):
        started = time.perf_counter()
        for query, radius in probes:
            workload.index.range_query(query, radius, transformation=transformation)
        passes.append(time.perf_counter() - started)
    metrics["index_range_ms"] = 1000.0 * min(passes) / len(probes)

    metrics["identical"] = bool(identical)
    metrics["max_abs_diff"] = float(max_diff)
    return metrics


def check(metrics: dict) -> list[str]:
    """The hard assertions behind ``--check``; returns failure messages."""
    failures = []
    if metrics["scan_speedup"] < SCAN_SPEEDUP_FLOOR:
        failures.append(
            f"naive-scan sweep speedup {metrics['scan_speedup']:.1f}x is below "
            f"the {SCAN_SPEEDUP_FLOOR:.0f}x floor")
    if metrics["e2e_speedup"] < E2E_SPEEDUP_FLOOR:
        failures.append(
            f"Fig. 10/11 end-to-end speedup {metrics['e2e_speedup']:.1f}x is "
            f"below the {E2E_SPEEDUP_FLOOR:.0f}x floor")
    if not metrics["identical"]:
        failures.append("vectorized answers differ from the reference path")
    if metrics["max_abs_diff"] != 0.0:
        failures.append(
            f"vectorized distances differ from the reference path by up to "
            f"{metrics['max_abs_diff']:.3g} (expected identical)")
    return failures


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="vectorized-kernels")
def bench_vectorized_kernels(benchmark):
    metrics = benchmark(lambda: run_suite(400, 64, 3, join_series=120))
    assert not check(metrics)


# ----------------------------------------------------------------------
# script entry point (used by the CI smoke job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--series", type=int, default=1200,
                        help="relation size (default 1200)")
    parser.add_argument("--length", type=int, default=128,
                        help="series length (default 128)")
    parser.add_argument("--queries", type=int, default=5,
                        help="queries per radius (default 5)")
    parser.add_argument("--join-series", type=int, default=250,
                        help="relation size of the join sweep (default 250)")
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="trajectory file to append to "
                             "(default BENCH_perf.json)")
    parser.add_argument("--no-record", action="store_true",
                        help="measure only; do not touch the trajectory file")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the kernels beat the reference "
                             "loops by the recorded floors and answers are "
                             "identical")
    arguments = parser.parse_args(argv)
    if arguments.series < 50 or arguments.queries < 1 or arguments.length < 16:
        parser.error("--series >= 50, --queries >= 1, --length >= 16 required")
    metrics = run_suite(arguments.series, arguments.length, arguments.queries,
                        join_series=arguments.join_series)
    print(f"== vectorized kernels vs per-record reference "
          f"({metrics['num_series']} walks x {metrics['length']}, "
          f"{metrics['num_queries']} queries per radius) ==")
    for name in ("scan", "e2e", "join"):
        print(f"{name:>5}: vectorized {metrics[f'{name}_vec_ms']:8.2f} ms   "
              f"reference {metrics[f'{name}_ref_ms']:8.2f} ms   "
              f"speedup {metrics[f'{name}_speedup']:6.1f}x")
    print(f"index range probe under the transformation: "
          f"{metrics['index_range_ms']:.3f} ms/query")
    print(f"identical answers: {metrics['identical']}, "
          f"max |distance delta|: {metrics['max_abs_diff']:.3g}")
    if not arguments.no_record:
        record_run("vectorized_kernels", metrics, path=arguments.output)
        print(f"recorded under machine key in {arguments.output}")
    failures = check(metrics)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if arguments.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
