"""The traced round: spans around the end-to-end calls plus direct probes of
each layer's public functions with every op's own parameters.

Layers are measured from outside.  After an op has run end to end, the probe
calls the layer the plan used — ``KIndex.range_query``, ``SequentialScan
.all_pairs``, ``parse``, ``engine.plan``, ``encode_frame`` … — directly, under
its own span, and reads the counters the outcome carries.  Nothing here feeds
an end-to-end metric; those come from the untraced rounds.
"""

from __future__ import annotations

import contextlib
import os
import socket
import statistics
import threading
import time

import repro
from repro import (KIndex, Row, SequentialScan, SeriesFeatureExtractor, WriteAheadLog,
                   moving_average_spectral, parse_query)
from repro.server.protocol import encode_answer, encode_frame, encode_param, recv_frame
from repro.storage.durable.segments import encode_row

from programs import PROGRAMS, Served
from spans import Tracer
from workloads import (INDEX_COEFFICIENTS, LENGTH, MOVING_AVERAGE_WINDOW, Op, Sizes,
                       Stream)

#: How many distinct queries the cold-plan probe replans.
COLD_PLANS = 25
#: How many series the feature-extraction probe extracts.
EXTRACTIONS = 50
PINGS = 50


@contextlib.contextmanager
def counted_calls(module, name: str):
    """Count calls of ``module.name`` (here: ``os.fsync``, the device flush)."""
    original = getattr(module, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, counting)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def ratio(total: float, base: float) -> float | None:
    """``total / base``, or ``None`` — not measured — when nothing was counted."""
    return total / base if base else None


def measured(metrics: dict[str, float | None]) -> dict[str, float]:
    return {name: value for name, value in metrics.items() if value is not None}


class IndexProbe:
    """Direct calls into a ``KIndex`` with each op's own parameters, under
    spans; the counts are the direct call's own, in the paper's currency."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts = dict.fromkeys(("queries", "node_accesses", "leaf_accesses",
                                     "candidates", "answers", "record_fetches"), 0)

    def probe(self, index: KIndex, op: Op, transformation) -> None:
        query = op.params["q"]
        if op.family == "range":
            with self.tracer.span("index.range_query") as span:
                found = index.range_query(query, op.epsilon, transformation=transformation)
        else:
            with self.tracer.span("index.nearest_neighbors") as span:
                found = index.nearest_neighbors(query, op.k, transformation=transformation)
        work = found.statistics
        seen = {"queries": 1, "node_accesses": work.node_accesses,
                "leaf_accesses": work.leaf_node_accesses, "candidates": work.candidates,
                "answers": len(found.answers), "record_fetches": work.record_fetches}
        span["counts"].update(seen)
        for name, value in seen.items():
            self.counts[name] += value

    def metrics(self) -> dict[str, float | None]:
        counts = self.counts
        return {
            "index.node_accesses_per_query": ratio(counts["node_accesses"], counts["queries"]),
            "index.leaf_share": ratio(counts["leaf_accesses"], counts["node_accesses"]),
            "index.candidates_per_answer": ratio(counts["candidates"], counts["answers"]),
            "index.record_fetches_per_query":
                ratio(counts["record_fetches"], counts["queries"]),
        }


class InProcessProbes:
    """Layer probes for a program that holds its ``Session`` in this process."""

    def __init__(self, program, stream: Stream, tracer: Tracer) -> None:
        self.session = program.session
        self.stream = stream
        self.tracer = tracer
        self.durable = hasattr(self.session.database, "scan_backend")
        self.extractor = SeriesFeatureExtractor(INDEX_COEFFICIENTS)
        self.index_probe = IndexProbe(tracer)
        self.counts = dict.fromkeys(
            ("plans_index", "plans_scan", "plan_hits", "plan_lookups", "answer_hits",
             "scan_queries", "distances", "pages", "device_reads", "buffer_hits",
             "buffer_misses", "buffer_evictions"), 0)
        self.overhead_s: list[float] = []
        self._scans: dict[str, tuple[int, SequentialScan]] = {}
        self._scratch_index: KIndex | None = None
        self._scratch_log: WriteAheadLog | None = None
        self._plan_before = (0, 0)

    # -- around the end-to-end call ----------------------------------------
    def before(self, op: Op) -> None:
        stats = self.session.plan_cache.stats
        self._plan_before = (stats.hits, stats.misses)

    def after(self, op: Op, outcome, call_span: dict) -> None:
        if op.family == "insert":
            self._probe_insert(op)
            return
        counts, tracer = self.counts, self.tracer
        stats = self.session.plan_cache.stats
        counts["plan_hits"] += stats.hits - self._plan_before[0]
        counts["plan_lookups"] += (stats.hits + stats.misses) - sum(self._plan_before)
        counts["answer_hits"] += outcome.from_cache
        wall = (call_span["end_ns"] - call_span["start_ns"]) / 1e9
        self.overhead_s.append(wall - outcome.elapsed_seconds)
        with tracer.span("query.parse"):
            parse_query(op.text)
        with tracer.span("query.plan_cached"):
            self.session.engine.plan(op.text)
        plan = type(outcome.plan).__name__
        counts["plans_index"] += plan.startswith("Index")
        counts["plans_scan"] += plan.startswith("Scan")
        if outcome.from_cache:
            return
        work = outcome.statistics
        transformation = self.session.engine.transformation(op.transformation)
        query = op.params.get("q")
        if plan.startswith("Index"):
            index = self.session.database.indexes_on(op.relation)["default"]
            self.index_probe.probe(index, op, transformation)
        elif plan.startswith("Scan"):
            counts["scan_queries"] += 1
            counts["distances"] += work.postprocessed
            counts["pages"] += work.node_accesses
            scan = self._scan(op.relation)
            if op.family == "range":
                with tracer.span("scan.range_query", distances=work.postprocessed):
                    scan.range_query(query, op.epsilon, transformation=transformation)
            elif op.family == "join":
                with tracer.span("scan.all_pairs", distances=work.postprocessed):
                    scan.all_pairs(op.epsilon, transformation=transformation)
            elif op.family == "nearest":
                with tracer.span("scan.nearest_neighbors"):
                    scan.nearest_neighbors(query, op.k, transformation=transformation)

    def _scan(self, relation_name: str) -> SequentialScan:
        """A scan over the relation's shared store, built the way the
        executor builds its own (through the durable buffer pool when there
        is one) and rebuilt when the relation changed."""
        database = self.session.database
        version = database.relation(relation_name).version
        cached = self._scans.get(relation_name)
        if cached is not None and cached[0] == version:
            return cached[1]
        self._retire(relation_name)
        backend = database.scan_backend(relation_name) if self.durable else None
        scan = SequentialScan(store=database.columnar_store(relation_name),
                              **(backend or {}))
        self._scans[relation_name] = (version, scan)
        return scan

    def _retire(self, relation_name: str) -> None:
        """Fold a probe scan's buffer-pool and device counters into the totals."""
        cached = self._scans.pop(relation_name, None)
        if cached is None or cached[1].buffer is None:
            return
        pool = cached[1].buffer.stats
        self.counts["buffer_hits"] += pool.hits
        self.counts["buffer_misses"] += pool.misses
        self.counts["buffer_evictions"] += pool.evictions
        self.counts["device_reads"] += cached[1].buffer.store.stats.reads

    def _probe_insert(self, op: Op) -> None:
        tracer = self.tracer
        for row in op.rows[:4]:
            with tracer.span("timeseries.extract"):
                self.extractor.extract(row)
        if self._scratch_index is None:
            base = self.stream.catalog[0].data()
            self._scratch_index = KIndex.bulk_load(base, self.extractor)
        with tracer.span("index.extend", rows=len(op.rows)):
            self._scratch_index.extend(op.rows)
        if self.durable:
            if self._scratch_log is None:
                # Inside the database directory, so that whatever removes the
                # directory removes it; gone before the final checkpoint.
                self._scratch_log = WriteAheadLog(
                    os.path.join(self.session.database.path, "probe-scratch.log"))
            record = {"op": "insert", "relation": op.relation,
                      "rows": [encode_row(Row(row)) for row in op.rows]}
            with tracer.span("storage.wal_append", rows=len(op.rows)):
                self._scratch_log.append(record)

    # -- after the last op --------------------------------------------------
    def finalize(self) -> None:
        """Probes that would disturb the replay: cold plans (they clear the
        caches) and plain feature extraction."""
        tracer, session = self.tracer, self.session
        if self._scratch_log is not None:
            self._scratch_log.close()
            os.remove(self._scratch_log.path)
        for name in list(self._scans):
            self._retire(name)
        texts = list(dict.fromkeys(op.text for op in self.stream.ops if op.text))
        for text in texts[:COLD_PLANS]:
            session.clear_caches()
            with tracer.span("query.plan_cold"):
                session.engine.plan(text)
        for series in self.stream.catalog[0].data()[:EXTRACTIONS]:
            with tracer.span("timeseries.extract"):
                self.extractor.extract(series)

    def metrics(self) -> dict[str, float]:
        """Every layer metric this workload exercised; a layer that did no
        work is left out, not reported as zero."""
        counts = self.counts
        queries = sum(op.family != "insert" for op in self.stream.ops)
        pool_lookups = counts["buffer_hits"] + counts["buffer_misses"]
        return measured({
            "query.overhead_us": statistics.median(self.overhead_s) * 1e6,
            "query.plan_cache_hit_rate": ratio(counts["plan_hits"], counts["plan_lookups"]),
            "query.answer_cache_hit_rate": counts["answer_hits"] / queries,
            "query.plans_index": counts["plans_index"],
            "query.plans_scan": counts["plans_scan"],
            **self.index_probe.metrics(),
            "scan.distances_per_query": ratio(counts["distances"], counts["scan_queries"]),
            "scan.pages_per_query": ratio(counts["pages"], counts["scan_queries"]),
            "storage.buffer_hit_rate": ratio(counts["buffer_hits"], pool_lookups),
            "storage.buffer_evictions": counts["buffer_evictions"] if pool_lookups else None,
            "storage.device_reads_per_scan":
                ratio(counts["device_reads"], counts["scan_queries"]) if pool_lookups else None,
        })


class ServedProbes:
    """Wire probes: the codec on the op's real payloads, and what the server
    says it spent, against what the client waited.  The server's engine is in
    another process, so the index layer is probed on a twin of its k-index
    built here from the same data: same code, same counts."""

    def __init__(self, program: Served, stream: Stream, tracer: Tracer) -> None:
        self.client = program.client
        self.tracer = tracer
        self.index_probe = IndexProbe(tracer)
        data = stream.catalog[0].data()
        with tracer.span("index.bulk_load", rows=len(data)):
            self.index = KIndex.bulk_load(data, SeriesFeatureExtractor(INDEX_COEFFICIENTS))
        self.transformation = moving_average_spectral(LENGTH, MOVING_AVERAGE_WINDOW)
        self.request_bytes: list[int] = []
        self.response_bytes = 0
        self.answers = 0
        self.engine_s: list[float] = []
        self.overhead_s: list[float] = []
        self._near, self._far = socket.socketpair()

    def before(self, op: Op) -> None:
        with self.tracer.span("server.encode_request") as span:
            frame = encode_frame({
                "op": "sql", "query": op.text, "id": 1,
                "params": {name: encode_param(value)
                           for name, value in op.params.items()}})
        span["counts"]["bytes"] = len(frame)
        self.request_bytes.append(len(frame))

    def after(self, op: Op, outcome, call_span: dict) -> None:
        wall = (call_span["end_ns"] - call_span["start_ns"]) / 1e9
        self.engine_s.append(outcome.elapsed_ms / 1e3)
        self.overhead_s.append(wall - outcome.elapsed_ms / 1e3)
        call_span["counts"].update(engine_ms=outcome.elapsed_ms,
                                   answers=len(outcome.answers))
        frame = encode_frame({
            "id": 1, "ok": True, "epoch": outcome.epoch,
            "elapsed_ms": outcome.elapsed_ms, "from_cache": outcome.from_cache,
            "answers": [encode_answer(answer) for answer in outcome.answers]})
        self.response_bytes += len(frame)
        self.answers += len(outcome.answers)
        # The response is decoded the way the client decodes it: read from a
        # socket and checked, so the probe needs a socket holding the frame.
        sender = threading.Thread(target=self._near.sendall, args=(frame,))
        sender.start()
        with self.tracer.span("server.decode_response", bytes=len(frame)):
            recv_frame(self._far)
        sender.join()
        self.index_probe.probe(self.index, op,
                               self.transformation if op.transformation else None)

    def finalize(self) -> None:
        self._near.close()
        self._far.close()
        for _ in range(PINGS):
            with self.tracer.span("client.ping"):
                self.client.ping()

    def metrics(self) -> dict[str, float]:
        return measured({
            "server.request_bytes": statistics.median(self.request_bytes),
            "server.response_bytes_per_answer": ratio(self.response_bytes, self.answers),
            "server.engine_ms": statistics.median(self.engine_s) * 1e3,
            "server.overhead_ms": statistics.median(self.overhead_s) * 1e3,
            **self.index_probe.metrics(),
        })


def traced_round(stream: Stream, sizes: Sizes, scratch: str, tracer: Tracer) -> dict:
    """One extra round with every call wrapped in a span; returns the layer
    counts plus the round's wall time and ``finish()`` extras."""
    program = PROGRAMS[stream.workload](stream, sizes, scratch)
    started = time.perf_counter()
    try:
        with tracer.span("setup"):
            program.setup(tracer)
        with tracer.span("probes.setup"):
            probes = (ServedProbes if isinstance(program, Served) else InProcessProbes)(
                program, stream, tracer)
        with counted_calls(os, "fsync") as fsyncs:
            for op in stream.ops:
                tracer.op_id = op.op_id
                with tracer.span("op", family=op.family):
                    probes.before(op)
                    name = "relation.insert_many" if op.family == "insert" \
                        else program.call_name
                    with tracer.span(name) as call_span:
                        outcome = program.execute(op)
                    probes.after(op, outcome, call_span)
        tracer.op_id = None
        with tracer.span("probes"):
            probes.finalize()
        with tracer.span("finish"):
            extras = program.finish(tracer)
        wall = time.perf_counter() - started
    finally:
        program.close()
    extras.pop("reopen_signature", None)
    return {"wall_s": wall, "extras": extras, "fsyncs": fsyncs[0],
            "layer": probes.metrics()}


# ----------------------------------------------------------------------
# diagnostics: recorded, never gated
# ----------------------------------------------------------------------
def _replay_seconds(client_or_session, ops) -> float:
    started = time.perf_counter()
    for op in ops:
        client_or_session.sql(op.text, op.params)
    return time.perf_counter() - started


def two_connection_ratio(stream: Stream, sizes: Sizes, scratch: str) -> float:
    """ops/s with two connections ÷ ops/s with one, against a fresh server;
    the two phases replay disjoint halves of the stream so that neither is
    served from the answer cache."""
    program = Served(stream, sizes, scratch)
    try:
        program.setup()
        half = len(stream.ops) // 2
        quarter = half // 2
        single = half / _replay_seconds(program.client, stream.ops[:half])
        slices = (stream.ops[half:half + quarter], stream.ops[half + quarter:2 * half])
        clients = [program.client, repro.client.connect(program.client.address)]
        try:
            threads = [threading.Thread(target=_replay_seconds, args=pair)
                       for pair in zip(clients, slices)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            double = sum(map(len, slices)) / (time.perf_counter() - started)
        finally:
            clients[1].close()
    finally:
        program.close()
    return double / single


def two_worker_scan_ratio(stream: Stream) -> float:
    """Scan and join time at ``workers=2`` ÷ serial, answer cache off."""
    seconds = []
    for workers in (None, 2):
        session = repro.connect(workers=workers, answer_cache_size=0)
        for relation in stream.catalog:
            session.relation(relation.name).insert_many(relation.data())
        seconds.append(_replay_seconds(session, stream.ops[::4]))
        session.close()
    return seconds[1] / seconds[0]


def steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])

