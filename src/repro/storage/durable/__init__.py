"""Durable storage: persistent columnar segments, WAL, crash-safe recovery.

The subsystem turns the in-memory catalog into a database directory —
``repro.connect(path=...)`` opens (or recovers) it, ``Session.checkpoint``
snapshots it, and a crash at any instant loses nothing acknowledged under
the configured fsync policy.  See the module docstrings of
:mod:`~repro.storage.durable.engine`, :mod:`~repro.storage.durable.wal`,
:mod:`~repro.storage.durable.segments` and
:mod:`~repro.storage.durable.manifest` for the protocol details.
"""

from .engine import DurableDatabase, register_provider_factory
from .mmapstore import SegmentPageStore
from .segments import ColumnSegment
from .serde import deserialize_index, serialize_index
from .wal import WriteAheadLog

__all__ = [
    "ColumnSegment",
    "DurableDatabase",
    "SegmentPageStore",
    "WriteAheadLog",
    "deserialize_index",
    "register_provider_factory",
    "serialize_index",
]
