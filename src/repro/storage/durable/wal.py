"""The write-ahead log: checksummed, framed mutation records on disk.

Every catalog mutation (insert, create/drop relation, register/drop index
or distance provider) is appended to the log *before* it is acknowledged,
so a crash between acknowledgement and the next checkpoint loses nothing:
recovery replays the log tail on top of the last checkpointed snapshot.

Each record is one :func:`repro.storage.codec.frame`; a series' values are
logged as their own eight-byte floats, so recovery is bit-identical.
:meth:`WriteAheadLog.replay` stops quietly at the first torn frame and trusts
everything before it.  A frame that verifies but does not decode was written
whole by something else (another codec version, a bug): that is a
:class:`~repro.core.errors.StorageError`, never a silent end of the log.

Durability knobs (``sync``):

``"always"``
    ``fsync`` after every append — an acknowledged write is on the device.
``"batch"`` (default)
    ``fsync`` once per ``batch_size`` appends (and on :meth:`flush` /
    :meth:`close`) — bounded loss window, amortised syscall cost.  The
    window is bounded in *time* as well as in record count: a background
    timer flushes any pending record older than ``batch_interval_ms``
    (default 50 ms), so a lone acknowledged insert on an otherwise idle
    log is never held unflushed indefinitely waiting for 31 siblings.
``"off"``
    Never ``fsync`` (the OS flushes eventually) — for tests and bulk loads.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from ...core.errors import StorageError
from .. import codec

__all__ = ["WriteAheadLog", "wal_filename"]

#: Supported fsync policies.
SYNC_MODES = ("always", "batch", "off")


def wal_filename(epoch: int) -> str:
    """The log file name of a checkpoint epoch (``wal-00000003.log``).

    Generation-named logs make checkpointing atomic without log surgery:
    a checkpoint creates the *next* epoch's empty log, swaps the manifest
    (which names the log to replay), and only then deletes the old one.
    """
    return f"wal-{int(epoch):08d}.log"


class WriteAheadLog:
    """An append-only log of mutation records with CRC framing.

    Parameters
    ----------
    path / sync / batch_size:
        File location and fsync policy (see the module docstring).
    batch_interval_ms:
        ``"batch"`` mode's time bound: a pending (unfsynced) record older
        than this is flushed by a background timer even if the batch never
        fills.  ``0`` disables the timer (count-only batching, the
        pre-time-bound behaviour).
    clock:
        Injectable monotonic clock — frozen in tests so the time-bound
        logic is assertable without sleeping.
    start_timer:
        Whether the background flush timer may run.  Tests that drive the
        clock by hand pass ``False`` and call :meth:`maybe_flush`
        themselves; the decision logic is identical either way.
    """

    def __init__(
        self,
        path: str,
        *,
        sync: str = "batch",
        batch_size: int = 32,
        batch_interval_ms: float = 50.0,
        clock: Callable[[], float] = time.monotonic,
        start_timer: bool = True,
    ) -> None:
        if sync not in SYNC_MODES:
            raise StorageError(f"unknown WAL sync mode {sync!r}; choose from {SYNC_MODES}")
        self.path = str(path)
        self.sync = sync
        self.batch_size = max(1, int(batch_size))
        self.batch_interval_ms = max(0.0, float(batch_interval_ms))
        self._clock = clock
        self._start_timer = bool(start_timer)
        self._file = open(self.path, "ab")
        # Appends come from the committing thread, flushes additionally
        # from the interval timer: every file mutation takes this lock.
        self._lock = threading.RLock()
        self._timer: threading.Timer | None = None
        self._pending = 0
        #: Clock reading of the oldest unflushed append (None when clean).
        self._pending_since: float | None = None
        self.records_appended = 0
        #: Flushes forced by the time bound (observability for tests).
        self.interval_flushes = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Frame, checksum, and append one record (fsync per the policy).

        When this returns under ``sync="always"`` the record is durable;
        under ``"batch"`` it is durable within ``batch_size`` appends *or*
        ``batch_interval_ms`` milliseconds, whichever comes first.
        """
        self.append_framed(self.frame(record))

    def frame(self, record: dict[str, Any]) -> bytes:
        """The frame :meth:`append_framed` would write for ``record``, or a
        :class:`StorageError` when the record is not encodable or the log is
        closed — a writer asks before it changes anything."""
        try:
            framed = codec.frame(record)
        except codec.CodecError as error:
            raise StorageError(f"WAL record is not encodable: {error}") from error
        self._check_open()
        return framed

    def _check_open(self) -> None:
        if self._file.closed:
            raise StorageError(f"write-ahead log {self.path!r} is closed")

    def append_framed(self, framed: bytes) -> None:
        """:meth:`append` a record :meth:`frame` has already framed."""
        with self._lock:
            self._check_open()
            self._file.write(framed)
            self.records_appended += 1
            self._pending += 1
            if self._pending_since is None:
                self._pending_since = self._clock()
            if self.sync == "always" or (self.sync == "batch" and self._pending >= self.batch_size):
                self.flush()
            elif self.sync == "batch":
                self._arm_timer()

    def _arm_timer(self) -> None:
        """Schedule the time-bound flush for the current pending batch."""
        if not self._start_timer or self.batch_interval_ms <= 0:
            return
        if self._timer is not None:
            return  # already armed for the oldest pending record
        timer = threading.Timer(self.batch_interval_ms / 1000.0, self._timer_fired)
        timer.daemon = True
        self._timer = timer
        timer.start()

    def _timer_fired(self) -> None:
        with self._lock:
            self._timer = None
            if self._file.closed:
                return
            self.maybe_flush()
            if self._pending:
                self._arm_timer()

    def maybe_flush(self, now: float | None = None) -> bool:
        """Flush iff the oldest pending record has aged past the interval.

        The timer calls this with the real clock; frozen-clock tests call
        it directly.  Returns whether a flush happened.
        """
        with self._lock:
            if self.batch_interval_ms <= 0:
                return False  # time bound disabled: count-only batching
            if self._pending == 0 or self._pending_since is None:
                return False
            now = self._clock() if now is None else now
            if (now - self._pending_since) * 1000.0 < self.batch_interval_ms:
                return False
            self.interval_flushes += 1
            self.flush()
            return True

    def flush(self) -> None:
        """Push buffered frames to the device (no-op fsync when ``"off"``)."""
        with self._lock:
            if self._file.closed:
                return
            self._file.flush()
            if self.sync != "off":
                os.fsync(self._file.fileno())
            self._pending = 0
            self._pending_since = None
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if not self._file.closed:
                self.flush()
                self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={self.path!r}, sync={self.sync!r}, "
            f"records_appended={self.records_appended})"
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: str) -> list[dict[str, Any]]:
        """Decode every intact record of a log file, in append order.

        Tolerant of a torn tail by design: a torn frame means "the crash
        landed mid-frame" — replay stops there and the intact prefix is the
        recovered history.  A record whose CRC verifies but which does not
        decode to a dict is a :class:`StorageError` naming its offset: the
        records after it were acknowledged, and dropping them quietly would
        lose them.  A missing file is an empty history (a checkpoint creates
        the next epoch's log before any record lands in it).
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        records: list[dict[str, Any]] = []
        offset = 0
        while offset < len(data):
            try:
                record, stop = codec.unframe(data, offset)
            except codec.TornFrame:
                break
            except codec.CodecError as error:
                raise StorageError(
                    f"WAL record at offset {offset} of {path!r} verifies but "
                    f"does not decode: {error}"
                ) from error
            if not isinstance(record, dict):
                raise StorageError(
                    f"WAL record at offset {offset} of {path!r} is a "
                    f"{type(record).__name__}, not a record"
                )
            records.append(record)
            offset = stop
        return records
