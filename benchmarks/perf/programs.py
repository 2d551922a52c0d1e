"""The program under test, one fresh instance per round.

Each class drives the system only through its public entry points
(``repro.connect``, ``Session.sql``, ``RelationHandle.insert_many``,
``Session.checkpoint``, ``repro.serve``, ``repro.client.connect``) and has
the same four steps: ``setup`` (timed as ``setup_s``), ``execute`` (timed per
op), ``finish`` (what follows the last op) and ``close`` (untimed, safe on
every exit path).
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro import KIndex, SeriesFeatureExtractor, WriteAheadLog, moving_average_spectral
from repro.bench.harness import answer_digest

from spans import NULL
from workloads import (INDEX_COEFFICIENTS, LENGTH, MOVING_AVERAGE_WINDOW, TRANSFORMATION,
                       Op, Sizes, Stream)

HERE = Path(__file__).resolve().parent
#: A served round that takes longer than this has its server killed.
ROUND_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 30.0


def load_catalog(session: repro.Session, catalog, tracer=NULL) -> None:
    """Load, index and analyze every relation, then warm each plan family."""
    session.with_transformation(
        TRANSFORMATION, moving_average_spectral(LENGTH, MOVING_AVERAGE_WINDOW))
    for relation in catalog:
        data = relation.data()
        with tracer.span("relation.insert_many", rows=len(data)):
            handle = session.relation(relation.name).insert_many(data)
        if relation.indexed:
            with tracer.span("index.bulk_load", rows=len(data)):
                index = KIndex.bulk_load(data, SeriesFeatureExtractor(INDEX_COEFFICIENTS))
            handle.with_index(index)
        with tracer.span("session.analyze"):
            session.analyze(relation.name)


def warm_up(session: repro.Session, catalog, tracer=NULL) -> None:
    with tracer.span("session.warm_up"):
        for relation in catalog:
            for text in relation.warmup:
                session.sql(text, q=relation.data()[0])
        session.clear_caches()


def signature(op: Op, result) -> tuple[str, str]:
    """(plan, answer digest) of one executed op; compared across rounds and,
    for the digest, against the oracle."""
    if op.family == "insert":
        return "insert", f"rows={result}"
    plan = getattr(result, "plan", None)
    return (type(plan).__name__ if plan is not None else "remote",
            answer_digest(result.answers))


class Embedded:
    """An in-memory ``Session`` in this process."""

    call_name = "session.sql"

    def __init__(self, stream: Stream, sizes: Sizes, scratch: str) -> None:
        self.stream = stream
        self.session: repro.Session | None = None

    def setup(self, tracer=NULL) -> None:
        self.session = repro.connect()
        load_catalog(self.session, self.stream.catalog, tracer)
        warm_up(self.session, self.stream.catalog, tracer)

    def execute(self, op: Op):
        return self.session.sql(op.text, op.params)

    def finish(self, tracer=NULL) -> dict:
        return {}

    def close(self) -> None:
        if self.session is not None and not self.session.closed:
            self.session.close()


class Durable:
    """A durable ``Session`` over a fresh directory under ``scratch``;
    ``finish`` checkpoints, closes and reopens it."""

    call_name = "session.sql"

    def __init__(self, stream: Stream, sizes: Sizes, scratch: str) -> None:
        self.stream = stream
        self.scratch = scratch
        self.options = {"wal_sync": "batch", "buffer_pages": sizes.buffer_pages}
        self.path: str | None = None
        self.session: repro.Session | None = None
        self.handle = None

    def setup(self, tracer=NULL) -> None:
        self.path = tempfile.mkdtemp(prefix="durable-", dir=self.scratch)
        self.session = repro.connect(path=self.path, **self.options)
        load_catalog(self.session, self.stream.catalog, tracer)
        with tracer.span("storage.checkpoint_initial"):
            self.session.checkpoint()
        warm_up(self.session, self.stream.catalog, tracer)
        self.handle = self.session.relation(self.stream.catalog[0].name)

    def execute(self, op: Op):
        if op.family == "insert":
            return len(self.handle.insert_many(op.rows))
        return self.session.sql(op.text, op.params)

    def finish(self, tracer=NULL) -> dict:
        """Checkpoint, close, reopen, and ask the reopened database the
        stream's first query.  A traced round first measures the log the ops
        left behind."""
        extras = {}
        if tracer is not NULL:
            # "batch" flushes a pending record within 50 ms; wait it out so
            # the file holds every record the ops appended.
            time.sleep(0.1)
            logs = [entry.path for entry in os.scandir(self.path)
                    if entry.name.startswith("wal-")]
            extras["wal_bytes"] = sum(os.path.getsize(log) for log in logs)
            extras["wal_records"] = sum(len(WriteAheadLog.replay(log)) for log in logs)
        started = time.perf_counter()
        with tracer.span("storage.checkpoint"):
            self.session.checkpoint()
        extras["checkpoint_s"] = time.perf_counter() - started
        self.session.close()
        extras["stored_bytes"] = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(self.path) for name in names)
        query = reopen_query(self.stream)
        started = time.perf_counter()
        with tracer.span("storage.open"):
            self.session = repro.connect(path=self.path, **self.options)
        opened = time.perf_counter()
        with tracer.span("storage.first_query"):
            outcome = self.session.sql(query.text, query.params)
        answered = time.perf_counter()
        database = self.session.database
        extras.update(
            open_s=opened - started, first_query_s=answered - opened,
            reopen_s=answered - started,
            replayed_wal_records=database.replayed_wal_records,
            deserialized_indexes=database.deserialized_indexes,
            reopen_signature=(f"rows={len(self.session.relation(query.relation))}",
                              answer_digest(outcome.answers)))
        return extras

    def close(self) -> None:
        if self.session is not None and not self.session.closed:
            self.session.close()
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


def reopen_query(stream: Stream) -> Op:
    """The query a reopened database answers first: the stream's first read."""
    return next(op for op in stream.ops if op.family != "insert")


class Served:
    """The ``embedded-index`` catalog behind ``repro.serve`` in a child
    process, driven by one ``ServerClient`` connection."""

    call_name = "client.sql"

    def __init__(self, stream: Stream, sizes: Sizes, scratch: str) -> None:
        self.rows = stream.catalog[0].rows
        self.child: subprocess.Popen | None = None
        self.client = None
        self.ready_rss_mb = 0.0
        self._watchdog: threading.Timer | None = None

    def setup(self, tracer=NULL) -> None:
        command = [sys.executable, str(HERE / "server_child.py"), str(self.rows)]
        with tracer.span("server.spawn"):
            self.child = subprocess.Popen(command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, text=True)
            self._watchdog = threading.Timer(ROUND_TIMEOUT_S, self.child.kill)
            self._watchdog.daemon = True
            self._watchdog.start()
            ready, _, _ = select.select([self.child.stdout], [], [], READY_TIMEOUT_S)
            line = self.child.stdout.readline().split() if ready else []
            if len(line) != 3 or line[0] != "ready":
                raise RuntimeError(f"server child did not become ready: {line!r}")
            self.ready_rss_mb = self._child_status("VmHWM") / 1024.0
        with tracer.span("client.connect"):
            self.client = repro.client.connect((line[1], int(line[2])), timeout_s=30.0)

    def execute(self, op: Op):
        return self.client.sql(op.text, op.params)

    def _child_status(self, field: str) -> int:
        """One numeric field of the server child's ``/proc/<pid>/status``."""
        with open(f"/proc/{self.child.pid}/status", encoding="ascii") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith(field + ":"))

    def finish(self, tracer=NULL) -> dict:
        return {"server_ready_rss_mb": self.ready_rss_mb,
                "server_peak_rss_mb": self._child_status("VmHWM") / 1024.0,
                "server_threads": self._child_status("Threads"),
                "rejected": self.client.stats()["rejected"],
                "client_retries": self.client.retries}

    def close(self) -> None:
        """Stop the child by closing its stdin; kill it if it lingers."""
        if self.client is not None:
            self.client.close()
        if self._watchdog is not None:
            self._watchdog.cancel()
        child = self.child
        if child is not None and child.returncode is None:
            try:
                child.stdin.close()
                child.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                child.kill()
                child.wait()
            finally:
                child.stdout.close()


PROGRAMS = {"embedded-index": Embedded, "embedded-scan-join": Embedded,
            "served-read": Served, "durable-rw": Durable}
