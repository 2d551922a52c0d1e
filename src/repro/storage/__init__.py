"""Storage: page arithmetic, an LRU buffer pool and the columnar record store;
:mod:`~repro.storage.codec` is the record codec of the WAL and the wire."""

from .buffer import BufferPool, BufferStatistics
from .columnar import ColumnarRecordStore
from .pages import PAGE_SIZE_BYTES

__all__ = ["BufferPool", "BufferStatistics", "ColumnarRecordStore", "PAGE_SIZE_BYTES"]
