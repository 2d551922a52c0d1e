"""BATCH — batched query execution and STR bulk loading vs the one-at-a-time paths.

Two claims are measured:

* a prepared statement's ``run_many`` answers a batch of range queries at
  least 1.5x as fast as looping over single ``run`` calls (one shared descent
  and one verification kernel call for the whole batch; parsing and planning
  are amortised by the prepared statement on *both* sides, so the gap is pure
  batching).  A single probe runs the same level-synchronous kernel as a
  batch — it is a batch of one — so what batching saves is the per-probe
  numpy call overhead and the nodes that windows share.  Measured at the
  default shape, seven runs: looped 1 550-2 150 q/s, batched 3 520-4 950 q/s,
  1.97-3.15x (before the packed kernel: looped 660-1 330, batched
  2 390-3 610, 2.71-3.64x — the looped side gained more), so the former 2x
  floor now sits inside the run-to-run noise and is restated at 1.5x;
* the Sort-Tile-Recursive bulk loader produces a tree that needs no more
  node accesses per range query than the insert-built tree.

Runnable two ways: under pytest-benchmark like the other ``bench_*`` files,
or directly as a script (``python benchmarks/bench_batch_throughput.py``)
printing a summary table — the CI smoke job runs the script on a tiny
workload, and ``--check`` turns the two claims into hard assertions.
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.core.session import Session, connect
from repro.index.kindex import KIndex
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection

RANGE_TEXT = "SELECT FROM walks WHERE dist(series, $q) < {epsilon}"
#: ``--check``: run_many must beat the looped prepared statement by this much.
BATCH_SPEEDUP_FLOOR = 1.5


def _make_extractor() -> SeriesFeatureExtractor:
    return SeriesFeatureExtractor(num_coefficients=2, representation="polar")


def _make_session(data, *, bulk_load: bool, max_entries: int = 16,
                  answer_cache_size: int = 0) -> Session:
    """A session over one relation of ``data``; answer cache off by default
    so throughput numbers measure execution, not memoisation."""
    session = connect(answer_cache_size=answer_cache_size)
    build = KIndex.bulk_load if bulk_load else KIndex.build_by_insertion
    index = build(data, _make_extractor(), max_entries=max_entries)
    session.relation("walks").insert_many(data).with_index(index)
    return session


def _workload(num_series: int, length: int, num_queries: int):
    data = random_walk_collection(num_series, length, seed=17)
    return data, data[:num_queries]


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch_setup():
    data, queries = _workload(1500, 128, 64)
    session = _make_session(data, bulk_load=True)
    epsilon = 4.0
    prepared = session.prepare(RANGE_TEXT.format(epsilon=epsilon))
    bindings = [{"q": series} for series in queries]
    return prepared, bindings


@pytest.mark.benchmark(group="batch-throughput")
def bench_looped_run(benchmark, batch_setup):
    prepared, bindings = batch_setup
    benchmark(lambda: [prepared.run(binding) for binding in bindings])


@pytest.mark.benchmark(group="batch-throughput")
def bench_run_many(benchmark, batch_setup):
    prepared, bindings = batch_setup
    benchmark(lambda: prepared.run_many(bindings))


@pytest.mark.benchmark(group="bulk-load")
def bench_insert_build(benchmark):
    data, _ = _workload(800, 128, 1)
    benchmark(lambda: KIndex.build_by_insertion(data, _make_extractor(),
                                                max_entries=16))


@pytest.mark.benchmark(group="bulk-load")
def bench_str_bulk_build(benchmark):
    data, _ = _workload(800, 128, 1)
    benchmark(lambda: KIndex.bulk_load(data, _make_extractor(), max_entries=16))


# ----------------------------------------------------------------------
# script entry point (used by the CI smoke job)
# ----------------------------------------------------------------------
def _rate(seconds: float, count: int) -> float:
    return count / seconds if seconds > 0 else float("inf")


def run_comparison(num_series: int = 1500, length: int = 128,
                   num_queries: int = 64, epsilon: float = 4.0) -> dict:
    """Measure both claims and return the raw numbers."""
    data, queries = _workload(num_series, length, num_queries)
    text = RANGE_TEXT.format(epsilon=epsilon)
    bindings = [{"q": series} for series in queries]

    session = _make_session(data, bulk_load=True)
    prepared = session.prepare(text)
    # Warm both paths once (numpy dispatch, feature extraction code paths).
    prepared.run(bindings[0])
    prepared.run_many(bindings[:2])

    started = time.perf_counter()
    looped_outcomes = [prepared.run(binding) for binding in bindings]
    looped_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batched_outcomes = prepared.run_many(bindings)
    batched_seconds = time.perf_counter() - started
    planner_invocations = session.engine.planner.invocations

    mismatched = sum(
        1 for single, member in zip(looped_outcomes, batched_outcomes)
        if sorted(s.object_id for s, _ in single.answers)
        != sorted(s.object_id for s, _ in member.answers))

    cached_session = _make_session(data, bulk_load=True, answer_cache_size=1024)
    cached_prepared = cached_session.prepare(text)
    cached_prepared.run_many(bindings)
    started = time.perf_counter()
    cached_outcomes = cached_prepared.run_many(bindings)
    cached_seconds = time.perf_counter() - started

    insert_session = _make_session(data, bulk_load=False)
    insert_index = insert_session.database.index("walks")
    str_index = session.database.index("walks")
    insert_accesses = sum(
        insert_index.range_query(query, epsilon).statistics.node_accesses
        for query in queries) / len(queries)
    str_accesses = sum(
        str_index.range_query(query, epsilon).statistics.node_accesses
        for query in queries) / len(queries)

    return {
        "num_series": num_series,
        "num_queries": num_queries,
        "looped_qps": _rate(looped_seconds, len(bindings)),
        "batched_qps": _rate(batched_seconds, len(bindings)),
        "speedup": looped_seconds / batched_seconds if batched_seconds else float("inf"),
        "cached_qps": _rate(cached_seconds, len(bindings)),
        "cache_hits": all(outcome.from_cache for outcome in cached_outcomes),
        "planner_invocations": planner_invocations,
        "mismatched_answers": mismatched,
        "insert_accesses_per_query": insert_accesses,
        "str_accesses_per_query": str_accesses,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--series", type=int, default=1500,
                        help="relation size (default 1500)")
    parser.add_argument("--length", type=int, default=128,
                        help="series length (default 128)")
    parser.add_argument("--queries", type=int, default=64,
                        help="batch size (default 64)")
    parser.add_argument("--epsilon", type=float, default=4.0,
                        help="range threshold (default 4.0)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless batched >= {BATCH_SPEEDUP_FLOOR}x "
                             "looped and STR accesses <= insert accesses")
    arguments = parser.parse_args(argv)
    if arguments.queries < 1 or arguments.series < 1 or arguments.length < 2:
        parser.error("--series, --queries and --length must be positive "
                     "(length at least 2)")
    if arguments.queries > arguments.series:
        parser.error("--queries cannot exceed --series")
    if arguments.epsilon < 0:
        parser.error("--epsilon must be non-negative")
    numbers = run_comparison(arguments.series, arguments.length,
                             arguments.queries, arguments.epsilon)
    print(f"== batch throughput ({numbers['num_queries']} range queries over "
          f"{numbers['num_series']} series, prepared statement) ==")
    print(f"looped run          : {numbers['looped_qps']:10.1f} queries/s")
    print(f"run_many            : {numbers['batched_qps']:10.1f} queries/s "
          f"({numbers['speedup']:.2f}x)")
    print(f"run_many cached     : {numbers['cached_qps']:10.1f} queries/s "
          f"(all hits: {numbers['cache_hits']})")
    print(f"planner invocations : {numbers['planner_invocations']:10d} "
          f"(prepared: planned once per catalog state)")
    print(f"mismatched answers  : {numbers['mismatched_answers']}")
    print("== node accesses per range query ==")
    print(f"insert-built tree   : {numbers['insert_accesses_per_query']:10.2f}")
    print(f"STR bulk-loaded tree: {numbers['str_accesses_per_query']:10.2f}")
    if numbers["mismatched_answers"]:
        print("FAIL: batched answers diverge from looped answers", file=sys.stderr)
        return 1
    if arguments.check:
        ok = True
        if numbers["speedup"] < BATCH_SPEEDUP_FLOOR:
            print(f"FAIL: speedup {numbers['speedup']:.2f}x < "
                  f"{BATCH_SPEEDUP_FLOOR}x", file=sys.stderr)
            ok = False
        if numbers["str_accesses_per_query"] > numbers["insert_accesses_per_query"]:
            print("FAIL: STR tree needs more node accesses than insert-built",
                  file=sys.stderr)
            ok = False
        if not numbers["cache_hits"]:
            print("FAIL: repeated batch was not served from the answer cache",
                  file=sys.stderr)
            ok = False
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
