"""Query memoisation, statement → plan → answer: small LRU caches with
hit/miss accounting, three of which live in the
:class:`~repro.core.query.executor.QueryEngine`:

* the **statement memo**: query text → a parsed
  :class:`~repro.core.query.executor.Statement` that keeps the plan it last
  ran under beside the relation's state token, so a repeat over an unchanged
  catalog reaches its plan with one token comparison (a plan-cache hit).
  ``Session.sql(text)`` is an implicitly prepared statement; a
  :class:`~repro.core.session.PreparedQuery` holds the same one;
* the **plan cache**, keyed on the normalised AST and the state token —
  shared by equal ASTs from text, fluent ``Q`` builders and prepared queries;
* the **answer cache**, keyed on the AST, a fingerprint of the bound
  parameter and the same token; an entry is built once per execution (a
  list copy and a shallow counter copy), never while the cache is off.

Tokens come from :meth:`~repro.core.database.Database.state_token`, so
*invalidation on mutation* falls out of the keys: stale entries age out of
the LRU order.  The memo and the plan cache share ``plan_cache_size``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "LRUCache", "estimate_size"]

_MISSING = object()


def estimate_size(value: Any, *, _depth: int = 0) -> int:
    """Rough byte estimate of a cached value (used by the byte budget).

    Numpy-backed payloads (arrays, time series, answer tuples of them)
    dominate real cache entries, so the estimator prioritises ``nbytes``
    over Python object overheads; containers are walked a few levels deep
    and ``sys.getsizeof`` covers the rest.  The figure prices eviction — it
    need not be exact, only monotone-ish in actual footprint.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes + 96
    values = getattr(value, "values", None)
    if values is not None and isinstance(getattr(values, "nbytes", None), int):
        return values.nbytes + 160
    if isinstance(value, (list, tuple, set, frozenset)) and _depth < 4:
        return 64 + sum(estimate_size(item, _depth=_depth + 1) for item in value)
    if isinstance(value, dict) and _depth < 4:
        return 64 + sum(
            estimate_size(key, _depth=_depth + 1) + estimate_size(item, _depth=_depth + 1)
            for key, item in value.items()
        )
    try:
        return sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic objects without a size
        return 64


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LRUCache:
    """A least-recently-used mapping with a fixed capacity.

    A capacity of zero disables the cache: every ``get`` misses and ``put``
    is a no-op, which callers use to switch caching off without branching.

    ``max_bytes`` adds a second eviction axis: each stored value is priced
    by ``sizeof`` (defaulting to :func:`estimate_size`) and least-recent
    entries are evicted until the total fits the budget — so a cache of
    columnar-scale answer lists is bounded in memory, not just in entry
    count.  A single value larger than the whole budget is not stored at
    all (it would only evict everything else to fail anyway).

    All operations are **thread-safe**: partition-parallel execution shares
    the plan and answer caches across worker threads, and an unsynchronized
    ``OrderedDict`` corrupts its recency order (or loses evict bookkeeping)
    under concurrent ``move_to_end``/``popitem``.  A single reentrant lock
    guards every mutation; lookups of immutable cached answers stay cheap.
    """

    def __init__(
        self,
        capacity: int,
        *,
        max_bytes: int | None = None,
        sizeof: Callable[[Any], int] | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.capacity = int(capacity)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._sizeof = sizeof if sizeof is not None else estimate_size
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._items: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._total_bytes = 0

    @property
    def total_bytes(self) -> int:
        """Estimated bytes of all stored values (0 when no byte budget)."""
        return self._total_bytes

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency), or ``default``."""
        with self._lock:
            value = self._items.get(key, _MISSING)
            if value is _MISSING:  # no exception: most answer lookups miss
                self.stats.misses += 1
                return default
            self._items.move_to_end(key)
            self.stats.hits += 1
            return value

    def count_hit(self) -> None:
        """Count a lookup served by a holder of this cache's value (a
        statement reusing its own plan), so the hit rate stays the share of
        lookups served without a miss."""
        with self._lock:
            self.stats.hits += 1

    def put(self, key: Hashable, value: Any) -> None:
        """Store a value, evicting least recently used entries while the
        entry count or the byte budget is exceeded."""
        if self.capacity == 0 or self.max_bytes == 0:
            return
        size = 0
        if self.max_bytes is not None:
            size = int(self._sizeof(value))
            if size > self.max_bytes:
                return
        with self._lock:
            entries = len(self._items)
            self._items[key] = value
            if len(self._items) == entries:  # replaced: refresh recency and size
                self._items.move_to_end(key)
                self._total_bytes -= self._sizes.pop(key, 0)
            if self.max_bytes is not None:
                self._sizes[key] = size
                self._total_bytes += size
            while len(self._items) > self.capacity or (
                self.max_bytes is not None and self._total_bytes > self.max_bytes
            ):
                evicted_key, _ = self._items.popitem(last=False)
                self._total_bytes -= self._sizes.pop(evicted_key, 0)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._items.clear()
            self._sizes.clear()
            self._total_bytes = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"LRUCache(capacity={self.capacity}, size={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
