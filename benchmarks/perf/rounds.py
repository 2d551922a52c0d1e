"""The estimator: R fresh rounds, per-op minimum, percentiles over ops.

Each round builds the program from scratch, times the build, collects
garbage, and replays the identical op stream with one closed-loop caller,
timing every op.  An op's latency is the **minimum over the rounds** of its
time: a noisy-neighbour burst inflates some samples of an op, never all of
them, because the rounds are interleaved over the whole run.  Percentiles are
then taken over ops of those minima.  An op fails when it raises, when its
answer digest differs from the oracle's, or when its plan or digest differs
between rounds; a failed op has no latency.

R and the stream's size are constants (``workloads.FULL``): every run does the
same work, so the minimum is always a best-of-nine.

What the minimum cannot remove is a slow *minute*: the host's speed moves by
10–30 % for spells of 15–90 s that ``/proc/stat`` does not show as steal, and
a run lasts 20 s.  A fixed pure-Python kernel is therefore interleaved with the
ops (once every ``CALIBRATE_EVERY`` ops) and put through the same estimator —
minimum over rounds per slot, median over slots.  Every reported time is
scaled by ``CALIBRATION_REFERENCE_S`` over that value, i.e. expressed in the
milliseconds of a host on which the kernel takes its reference time;
``machine.calib_ms`` reports the kernel's time, so the measured number is one
multiplication away.  ``README.md`` holds the A/A evidence — over 80 runs the
scaling roughly halved the worst run-to-run spread of every workload's op
latencies — and names the cells it did not improve.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from dataclasses import dataclass, field

import repro

from programs import PROGRAMS, load_catalog, reopen_query, signature
from workloads import Sizes, Stream

#: The calibration kernel runs before every this-many-th op of a round.
CALIBRATE_EVERY = 5
#: The kernel's time on the reference host that reported times refer to: its
#: median over the 80 runs of this benchmark's own A/A check, so that on this
#: host a reported time is, in the middle, the measured one.
CALIBRATION_REFERENCE_S = 0.0027


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def ground_truth(stream: Stream) -> tuple[list[str], tuple[str, str]]:
    """Answer digests from a no-index, cache-off twin session that replays
    the stream's writes in order, plus what a reopened durable database must
    say to the stream's first read (row count and digest at the final state).
    """
    twin = repro.connect(answer_cache_size=0)
    load_catalog(twin, [dataclasses.replace(relation, indexed=False)
                        for relation in stream.catalog])
    handles = {relation.name: twin.relation(relation.name) for relation in stream.catalog}
    digests = []
    for op in stream.ops:
        if op.family == "insert":
            result = len(handles[op.relation].insert_many(op.rows))
        else:
            result = twin.sql(op.text, op.params)
        digests.append(signature(op, result)[1])
    query = reopen_query(stream)
    final = (f"rows={len(handles[query.relation])}",
             signature(query, twin.sql(query.text, query.params))[1])
    twin.close()
    return digests, final


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class RoundsResult:
    """What the timed rounds measured."""

    setup_s: list[float] = field(default_factory=list)
    round_wall_s: list[float] = field(default_factory=list)
    #: The calibration kernel's time under the ops' own estimator.
    calibration_s: float = CALIBRATION_REFERENCE_S
    #: Per-op best latency in seconds; ``None`` for a failed op.
    best_s: list[float | None] = field(default_factory=list)
    plans: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: ``finish()`` extras, one dict per round.
    extras: list[dict] = field(default_factory=list)
    attempted: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran the kernel."""
        return self.calibration_s / CALIBRATION_REFERENCE_S


def calibrate() -> float:
    """Time a fixed pure-Python kernel that touches none of the program's
    code: it tells a slow machine from slow code."""
    started = time.perf_counter()
    total = 0
    for value in range(60_000):
        total += value * value % 7
    return time.perf_counter() - started


def run_rounds(stream: Stream, sizes: Sizes, scratch: str) -> RoundsResult:
    """Run ``sizes.rounds`` fresh rounds of ``stream`` and reduce them."""
    expected, expected_reopen = ground_truth(stream)
    ops = stream.ops
    samples: list[list[float]] = [[] for _ in ops]
    signatures: list[set] = [set() for _ in ops]
    errors: dict[int, str] = {}
    reopen_error = ""
    result = RoundsResult()
    calibration: list[list[float]] = [[] for _ in ops[::CALIBRATE_EVERY]]
    for _ in range(sizes.rounds):
        program = PROGRAMS[stream.workload](stream, sizes, scratch)
        round_started = time.perf_counter()
        try:
            program.setup()
            result.setup_s.append(time.perf_counter() - round_started)
            gc.collect()
            for position, op in enumerate(ops):
                if position % CALIBRATE_EVERY == 0:
                    calibration[position // CALIBRATE_EVERY].append(calibrate())
                started = time.perf_counter()
                try:
                    outcome = program.execute(op)
                except Exception as error:  # noqa: BLE001 — a failed op is data
                    errors.setdefault(position, f"{type(error).__name__}: {error}")
                    continue
                samples[position].append(time.perf_counter() - started)
                signatures[position].add(signature(op, outcome))
            extras = program.finish()
            result.round_wall_s.append(time.perf_counter() - round_started)
        finally:
            program.close()
        reopened = extras.pop("reopen_signature", expected_reopen)
        if reopened != expected_reopen:
            reopen_error = f"reopen answered {reopened}, oracle says {expected_reopen}"
        result.extras.append(extras)
        gc.collect()

    for position, op in enumerate(ops):
        seen = signatures[position]
        if position not in errors and len(seen) != 1:
            errors[position] = f"{len(seen)} distinct (plan, digest) pairs across rounds"
        elif position not in errors and next(iter(seen))[1] != expected[position]:
            errors[position] = "answer digest differs from the oracle's"
        failed = position in errors
        result.best_s.append(None if failed else min(samples[position]))
        result.plans.append("failed" if failed else next(iter(seen))[0])
        if failed:
            result.failures.append(f"op {op.op_id} ({op.family}): {errors[position]}")
    result.attempted = len(ops)
    result.calibration_s = statistics.median(min(slot) for slot in calibration)
    if stream.workload == "durable-rw":
        result.attempted += 1
        if reopen_error:
            result.failures.append(reopen_error)
    return result


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def best_latencies(stream: Stream, result: RoundsResult, *, ranges: bool | None = None
                   ) -> list[float]:
    """Best latencies (seconds) of the successful ops: all of them, only the
    range queries (``ranges=True``) or only the others (``ranges=False``)."""
    return [best for op, best in zip(stream.ops, result.best_s)
            if best is not None and (ranges is None or (op.family == "range") == ranges)]
