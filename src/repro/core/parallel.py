"""Shared worker-pool plumbing for partition-parallel execution.

The sequential scan fans its partitioned kernels (range/NN row spans, join
pair blocks) across a **thread** pool: the NumPy kernels in
:mod:`repro.storage.columnar` release the GIL for the duration of each block
operation, so threads scale on multi-core machines without the serialization
cost and copy semantics of process pools — and, crucially for correctness,
all workers read the *same* arrays, so answers cannot drift through
serialization round-trips.

Three deliberate properties:

* ``parallel_map`` preserves **input order** in its output regardless of
  completion order — every caller merges per-partition results
  positionally, which is what makes parallel answers bit-identical to
  serial ones;
* pools are cached per worker count and shared process-wide.  Queries are
  short; creating a pool per query would dominate small partitions.  The
  cache is guarded by a lock so concurrent sessions can share it, and an
  ``atexit`` hook shuts every cached pool down at interpreter exit so the
  process never hangs on (or leaks) non-daemon worker threads;
* cancellation propagates: ``parallel_map`` captures the caller's
  :class:`~repro.core.cancel.CancellationToken` (if one is installed) and
  re-installs it inside each pooled task, polling it before the task body
  runs — a tripped deadline makes queued partitions raise immediately,
  releasing their pool slots instead of computing abandoned answers.

``workers`` resolution is uniform everywhere (scan, planner, cost model,
:func:`repro.connect`): ``None`` and ``1`` mean serial, ``0`` means "all
cores" (``os.cpu_count()``), any other positive integer is taken literally.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from .cancel import cancel_scope, checkpoint, current_token

__all__ = ["resolve_workers", "parallel_map", "get_pool", "shutdown_pools"]

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob to a concrete positive worker count.

    ``None`` or ``1`` → 1 (serial, the default everywhere); ``0`` → all
    available cores; otherwise the literal count.  Negative values are
    rejected — silently clamping them would hide caller bugs.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The shared process-wide pool for ``workers`` threads (created once)."""
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"repro-worker-{workers}")
            _pools[workers] = pool
        return pool


def shutdown_pools(*, wait: bool = True) -> None:
    """Shut down and forget every cached pool (idempotent).

    Registered with :mod:`atexit`, so the process-wide pools never outlive
    the interpreter; callers who want an earlier teardown (tests, embedded
    uses) may invoke it directly — the next :func:`get_pool` transparently
    builds a fresh pool.
    """
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pools)


def parallel_map(function: Callable[..., Any], tasks: Sequence[Any], *,
                 workers: int) -> list[Any]:
    """Apply ``function`` to every task, returning results in task order.

    Each task is an argument tuple.  With one worker — or one task, where a
    pool round-trip buys nothing — this degenerates to a plain loop on the
    calling thread, so serial execution never pays pool overhead and the
    parallel code path stays the *only* code path in partitioned callers.

    Every task is a cancellation checkpoint: the caller's installed
    :class:`~repro.core.cancel.CancellationToken` is polled before each
    task body (and carried into pool threads, where ``contextvars`` would
    otherwise not follow), so a tripped deadline stops the fan-out at the
    next partition boundary on both the serial and the pooled path.

    Exceptions propagate to the caller exactly as in the serial loop (the
    first failing task's exception, by task order).
    """
    if workers <= 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            checkpoint()
            results.append(function(*task))
        return results
    token = current_token.get()

    def run_task(task: tuple) -> Any:
        with cancel_scope(token):
            checkpoint()
            return function(*task)

    pool = get_pool(workers)
    futures = [pool.submit(run_task, task) for task in tasks]
    return [future.result() for future in futures]
