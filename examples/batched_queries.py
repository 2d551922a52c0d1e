"""Batched execution: bulk-load an index, prepare once, run many bindings.

Run with::

    python examples/batched_queries.py

The script bulk-loads a relation of random-walk series with the
Sort-Tile-Recursive loader, prepares one parameterised range query, then
answers the same 32-binding workload three ways:

1. looping over ``prepared.run`` (one traversal per binding),
2. one ``prepared.run_many`` call (one shared, vectorised traversal),
3. ``run_many`` again with warm caches (answers served without touching
   the index at all),

verifying along the way that all three produce identical answers — and that
the planner ran exactly once for the whole workload (the prepared statement
re-plans only when the catalog changes).
"""

from __future__ import annotations

import time

import repro
from repro import KIndex, Q, SeriesFeatureExtractor, random_walk_collection

LENGTH = 128
NUM_SERIES = 800
NUM_QUERIES = 32
EPSILON = 4.0


def main() -> None:
    data = random_walk_collection(NUM_SERIES, LENGTH, seed=2026)
    extractor = SeriesFeatureExtractor(num_coefficients=2, representation="polar")

    # Bulk-load the index bottom-up instead of inserting one series at a time;
    # one chain creates the relation, loads it and registers the index.
    index = KIndex.bulk_load(data, extractor, max_entries=16)
    session = repro.connect()
    walks = session.relation("walks").insert_many(data).with_index(index)

    # The fluent builder compiles to the same AST the textual parser
    # produces — this is "SELECT FROM walks WHERE dist(series, $q) < 4.0".
    prepared = session.prepare(Q.from_("walks").within(EPSILON).of(Q.param("q")))
    bindings = [{"q": series} for series in data[:NUM_QUERIES]]

    summary = index.structure_summary()
    print(f"bulk-loaded {len(walks)} series; tree height "
          f"{summary['height']:.0f}, {summary['node_count']:.0f} nodes")
    print(f"prepared: {prepared.text}\n")

    started = time.perf_counter()
    looped = [prepared.run(binding) for binding in bindings]
    looped_seconds = time.perf_counter() - started
    # Drop the memoised answers (but not the plan) so run_many measures real
    # execution rather than answer-cache hits.
    session.answer_cache.clear()

    started = time.perf_counter()
    batched = prepared.run_many(bindings)
    batched_seconds = time.perf_counter() - started

    started = time.perf_counter()
    cached = prepared.run_many(bindings)
    cached_seconds = time.perf_counter() - started

    agree = all(
        sorted(s.object_id for s, _ in a.answers)
        == sorted(s.object_id for s, _ in b.answers)
        == sorted(s.object_id for s, _ in c.answers)
        for a, b, c in zip(looped, batched, cached))
    print(f"looped run     : {looped_seconds * 1000:7.1f} ms")
    print(f"run_many       : {batched_seconds * 1000:7.1f} ms "
          f"({looped_seconds / batched_seconds:.1f}x faster)")
    print(f"warm caches    : {cached_seconds * 1000:7.1f} ms "
          f"(from_cache: {all(o.from_cache for o in cached)})")
    print(f"all three agree: {agree}")
    print(f"planner ran    : {session.engine.planner.invocations} time(s) "
          f"for {3 * NUM_QUERIES} executions")
    print(f"plan cache     : {session.plan_cache}")
    print(f"answer cache   : {session.answer_cache}")

    # Mutating the relation invalidates cached answers automatically, and the
    # prepared statement transparently re-plans against the new catalog state.
    walks.insert(random_walk_collection(1, LENGTH, seed=7)[0])
    refreshed = prepared.run(bindings[0])
    print(f"after insert, served from cache: {refreshed.from_cache}")


if __name__ == "__main__":
    main()
