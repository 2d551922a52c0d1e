"""DURABILITY — does reopening a checkpointed store skip the rebuild work?

PR 8 makes the store durable: inserts and DDL are covered by a checksummed
write-ahead log, and :meth:`Session.checkpoint` persists columnar segments
plus serialized index pages so a reopen bulk-loads state instead of
recomputing it.  Two recovery paths exist and this benchmark races them on
the same logical state:

* **warm** — the directory was checkpointed: reopen maps the segments and
  deserializes index pages (``deserialized_indexes`` counts, no rebuild);
* **cold** — the process crashed before any checkpoint: reopen replays the
  WAL tail, re-running every insert and rebuilding every index from its
  logged spec (``cold_index_builds`` counts).

What ``--check`` (the CI durability job) enforces is what the warm path is
*for*, first of all in counts:

* the warm reopen replays **0** WAL records, deserializes every index and
  cold-builds none; the cold reopen replays the log and cold-builds;
* answers after *both* recovery paths are **bit-identical** (ids, answer
  bytes and exact float distances) to the pre-crash session's;
* the warm reopen is at least **3x** faster than the cold one.

The floor was 5x while the cold path replayed every insert as an R*-tree
descent with forced reinsertion (92x measured at 1000 walks).  A replayed
insert is now one block append to the index's unindexed tail, which made
the cold path ~10x faster: four runs on the development host read 6.5x,
8.5x, 10.3x and 10.5x — still above 5, but too close to it for a shared CI
machine, and keeping cold slow is not what the check is for.

Runnable under pytest-benchmark like the other ``bench_*`` files, or
directly as a script; the CI durability job runs the script with
``--check`` and archives the recorded trajectory.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

import pytest

import repro
from repro import KIndex
from repro.bench.recording import record_run
from repro.timeseries.generators import random_walk_collection

#: The ``--check`` floor: minimum warm-over-cold reopen speedup.
REOPEN_SPEEDUP_FLOOR = 3.0

RANGE_SQL = "SELECT FROM walks WHERE dist(series, $q) < 6.0"


def _fingerprint(outcome) -> tuple:
    """Exact content of a range result: answer bytes and float distances."""
    return tuple((series.object_id, series.values.tobytes(), float(distance))
                 for series, distance in outcome.answers)


def _time_reopen(source: str, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time in milliseconds for one full reopen.

    Each repeat recovers a pristine copy of ``source`` so WAL replay cost
    is paid every time, exactly as a restart after the same crash would.
    """
    best = float("inf")
    for attempt in range(repeats):
        copy = f"{source}-t{attempt}"
        shutil.copytree(source, copy)
        try:
            started = time.perf_counter()
            session = repro.connect(path=copy)
            elapsed = time.perf_counter() - started
            session.close()
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        best = min(best, elapsed)
    return 1000.0 * best


def run_suite(num_series: int = 1000, length: int = 64,
              num_queries: int = 3) -> dict:
    """Build identical checkpointed and crashed stores, race the reopens.

    Both stores run the same workload — index registered up front, then a
    stream of individually acknowledged inserts — and differ only in how
    they end: a clean checkpointed exit versus a crash with everything in
    the WAL tail.
    """
    data = random_walk_collection(num_series, length, seed=41)
    queries = data[:: max(1, len(data) // num_queries)][:num_queries]
    root = tempfile.mkdtemp(prefix="bench-durability-")
    warm = os.path.join(root, "warm")
    cold = os.path.join(root, "cold")
    try:
        reference = None
        for name, path in (("warm", warm), ("cold", cold)):
            session = repro.connect(path=path, wal_sync="always")
            handle = session.relation("walks").with_index(KIndex())
            for series in data:
                handle.insert(series)
            answers = [_fingerprint(session.sql(RANGE_SQL, q=query))
                       for query in queries]
            if reference is None:
                reference = answers
            assert answers == reference
            if name == "warm":
                session.checkpoint()
                session.close()
            else:
                del session  # crash: no checkpoint, no close

        warm_ms = _time_reopen(warm)
        cold_ms = _time_reopen(cold)

        results = {}
        for name, path in (("warm", warm), ("cold", cold)):
            session = repro.connect(path=path)
            results[name] = {
                "deserialized_indexes": session.database.deserialized_indexes,
                "cold_index_builds": session.database.cold_index_builds,
                "replayed_wal_records": session.database.replayed_wal_records,
                "identical": [_fingerprint(session.sql(RANGE_SQL, q=query))
                              for query in queries] == reference,
            }
            session.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "num_series": num_series, "length": length,
        "num_queries": len(queries),
        "warm_open_ms": round(warm_ms, 3),
        "cold_open_ms": round(cold_ms, 3),
        "reopen_speedup": round(cold_ms / max(warm_ms, 1e-9), 3),
        "warm_deserialized_indexes": results["warm"]["deserialized_indexes"],
        "warm_cold_index_builds": results["warm"]["cold_index_builds"],
        "warm_replayed_wal_records": results["warm"]["replayed_wal_records"],
        "cold_index_builds": results["cold"]["cold_index_builds"],
        "cold_replayed_wal_records": results["cold"]["replayed_wal_records"],
        "warm_identical": results["warm"]["identical"],
        "cold_identical": results["cold"]["identical"],
    }


def check(metrics: dict) -> list[str]:
    """The hard assertions behind ``--check``; returns failure messages."""
    failures = []
    for name in ("warm", "cold"):
        if not metrics[f"{name}_identical"]:
            failures.append(
                f"answers after the {name} reopen are not bit-identical to "
                "the pre-crash session's")
    if metrics["warm_deserialized_indexes"] < 1:
        failures.append("warm reopen deserialized no indexes — the "
                        "checkpoint did not persist them")
    if metrics["warm_cold_index_builds"] != 0:
        failures.append("warm reopen cold-built an index instead of "
                        "deserializing it")
    if metrics["warm_replayed_wal_records"] != 0:
        failures.append(
            f"warm reopen replayed {metrics['warm_replayed_wal_records']} WAL "
            "records — the checkpoint did not roll the log")
    if metrics["cold_index_builds"] < 1 or metrics["cold_replayed_wal_records"] < 1:
        failures.append("cold reopen did not exercise the WAL-replay "
                        "rebuild path this benchmark exists to race")
    if metrics["reopen_speedup"] < REOPEN_SPEEDUP_FLOOR:
        failures.append(
            f"warm reopen is only {metrics['reopen_speedup']:.2f}x faster "
            f"than the cold rebuild, below the {REOPEN_SPEEDUP_FLOOR}x floor")
    return failures


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="durability")
def bench_durability(benchmark):
    metrics = benchmark(lambda: run_suite(300, 64, 2))
    assert metrics["warm_identical"] and metrics["cold_identical"]


# ----------------------------------------------------------------------
# script entry point (used by the CI durability job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--series", type=int, default=1000,
                        help="relation size (default 1000)")
    parser.add_argument("--length", type=int, default=64,
                        help="series length (default 64)")
    parser.add_argument("--queries", type=int, default=3,
                        help="identity-check queries (default 3)")
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="trajectory file to append to "
                             "(default BENCH_perf.json)")
    parser.add_argument("--no-record", action="store_true",
                        help="measure only; do not touch the trajectory file")
    parser.add_argument("--check", action="store_true",
                        help="fail unless both recovery paths return "
                             "bit-identical answers, the warm one replays "
                             "nothing and rebuilds nothing, and it beats "
                             "the cold one by the recorded floor")
    arguments = parser.parse_args(argv)
    if arguments.series < 50 or arguments.queries < 1 or arguments.length < 16:
        parser.error("--series >= 50, --queries >= 1, --length >= 16 required")
    metrics = run_suite(arguments.series, arguments.length, arguments.queries)
    print(f"== durable reopen: serialized indexes vs cold rebuild "
          f"({metrics['num_series']} walks x {metrics['length']}) ==")
    print(f"  warm reopen (checkpointed): {metrics['warm_open_ms']:9.2f} ms  "
          f"(deserialized {metrics['warm_deserialized_indexes']} index(es), "
          f"replayed {metrics['warm_replayed_wal_records']} WAL records)")
    print(f"  cold reopen (WAL replay):   {metrics['cold_open_ms']:9.2f} ms  "
          f"(cold-built {metrics['cold_index_builds']} index(es), "
          f"replayed {metrics['cold_replayed_wal_records']} WAL records)")
    print(f"  speedup: {metrics['reopen_speedup']:.2f}x   "
          f"bit-identical: warm={metrics['warm_identical']} "
          f"cold={metrics['cold_identical']}")
    if not arguments.no_record:
        record_run("durability", metrics, path=arguments.output)
        print(f"recorded under machine key in {arguments.output}")
    failures = check(metrics)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if arguments.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
