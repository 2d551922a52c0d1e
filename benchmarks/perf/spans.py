"""In-memory spans recorded from outside the program, around calls into it.

A span is ``{id, name, parent, op_id, workload, start_ns, end_ns, counts}``.
Spans nest by the call structure of the benchmark (``op`` → the end-to-end
call → nothing; ``op`` → a direct probe of one layer with the op's own
parameters), are kept in memory, and are written as JSON lines when the
traced round ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    """Collects the spans of one traced round."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Stamped onto every span opened while it is set.
        self.op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "op_id": self.op_id, "workload": self.workload,
                  "start_ns": time.perf_counter_ns(), "end_ns": None,
                  "counts": counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def durations_s(self, name: str, per_count: str | None = None) -> list[float]:
        """Durations of every span called ``name`` (divided by one of its
        counts when ``per_count`` is given: per row, per record)."""
        return [(span["end_ns"] - span["start_ns"]) / 1e9
                / (span["counts"][per_count] if per_count else 1)
                for span in self.spans if span["name"] == name]

    def self_times_s(self) -> dict[str, float]:
        """Total self time per span name."""
        children = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end_ns"] - span["start_ns"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end_ns"] - span["start_ns"] - children[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1e9
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class _NullTracer:
    """What the timed rounds pass where the traced round passes a tracer."""

    op_id = None

    @staticmethod
    def span(name: str, **counts):
        return contextlib.nullcontext({"counts": counts})


NULL = _NullTracer()
