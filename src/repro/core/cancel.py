"""Cooperative cancellation and deadlines for query execution.

A query server (or any impatient caller) cannot kill a thread that is deep
in a NumPy kernel — but it can ask the execution layer to *stop at the next
seam*.  This module is that seam's vocabulary:

* a :class:`CancellationToken` carries an optional absolute deadline and a
  manual ``cancel()`` flag;
* :func:`cancel_scope` installs a token for the current context (a
  ``contextvars`` scope, so concurrent queries on different threads — the
  query server runs each on its connection's own — never see each other's
  tokens);
* :func:`checkpoint` is the polling call sprinkled through the fan-out
  loops — partition spans, join anchors, provider candidates.  It is a
  single dictionary read when no token is installed, so serial callers pay
  essentially nothing.

:func:`repro.core.parallel.parallel_map` captures the installed token when
it submits work to the shared thread pool and re-installs it inside each
worker task, so a deadline set around a query propagates into every
partition the query fans across — a tripped token makes in-flight
partitions raise at their next checkpoint, which is what releases the pool
slots promptly instead of letting abandoned work run to completion.

Cancellation is *cooperative and clean by construction*: the exception
(:class:`~repro.core.errors.QueryCancelledError` or its deadline flavour
:class:`~repro.core.errors.DeadlineExceededError`) propagates out of the
executor before any answer-cache insertion, so caches never hold partial
results, and a re-run of the same query returns bit-identical answers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .errors import DeadlineExceededError, QueryCancelledError

__all__ = ["CancellationToken", "cancel_scope", "checkpoint", "current_token"]


class CancellationToken:
    """One query's cancellation state: a flag and an optional deadline.

    Parameters
    ----------
    deadline:
        Absolute :func:`time.monotonic` instant after which :meth:`check`
        raises :class:`DeadlineExceededError`; ``None`` means no time bound.
    clock:
        Injectable clock for deterministic tests (must be monotonic).
    """

    __slots__ = ("deadline", "_cancelled", "_clock")

    def __init__(self, deadline: float | None = None, *,
                 clock=time.monotonic) -> None:
        self.deadline = deadline
        self._cancelled = False
        self._clock = clock

    @classmethod
    def after(cls, seconds: float, *, clock=time.monotonic) -> "CancellationToken":
        """A token whose deadline is ``seconds`` from now."""
        return cls(deadline=clock() + float(seconds), clock=clock)

    def cancel(self) -> None:
        """Trip the token: every subsequent :meth:`check` raises."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self._clock() > self.deadline

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` without one; may be < 0)."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    def check(self) -> None:
        """Raise if cancelled or past the deadline; otherwise return."""
        if self._cancelled:
            raise QueryCancelledError("query was cancelled")
        if self.deadline is not None and self._clock() > self.deadline:
            raise DeadlineExceededError("query ran past its deadline")


#: The token installed for the current context (one per thread).
current_token: ContextVar[CancellationToken | None] = ContextVar(
    "repro_cancellation_token", default=None)


@contextmanager
def cancel_scope(token: CancellationToken | None) -> Iterator[CancellationToken | None]:
    """Install ``token`` for the duration of the ``with`` block."""
    reset = current_token.set(token)
    try:
        yield token
    finally:
        current_token.reset(reset)


def checkpoint() -> None:
    """Poll the installed token (no-op when none is installed).

    The cooperative cancellation point: fan-out loops call this once per
    unit of restartable work.  Raises
    :class:`~repro.core.errors.QueryCancelledError` /
    :class:`~repro.core.errors.DeadlineExceededError` when tripped.
    """
    token = current_token.get()
    if token is not None:
        token.check()
