"""Watermark-keyed diagnosis result cache with footprint invalidation.

Operators re-query the same symptoms all day (the paper's Result
Browser is a polling UI), so repeated diagnoses should be near-free —
but never stale.  An entry is keyed by

    (application, symptom identity, diagnosis-graph fingerprint)

using the same :func:`repro.core.events.instance_key` identity as the
streaming engine's dedupe, and records two freshness anchors:

* the **store revision** (the data watermark) at the moment the
  diagnosis started, and
* the diagnosis **footprint** — every (table, window) the engine
  actually read while correlating.

Invalidation is pulled: :meth:`ResultCache.lookup` and
:meth:`ResultCache.store` first read what landed since the cache last
looked from the :class:`~repro.collector.store.DataStore` change log,
and a late record *inside* a cached footprint window evicts exactly the
entries whose evidence it could have changed — entries whose windows
the record misses are untouched; when the log cannot say what landed,
everything goes.  A graph edit changes the fingerprint, so stale rule
sets miss rather than serve.

The write path is race-safe: :meth:`store` refuses to cache a result
whose computation overlapped a relevant insert (checked against the
same log), so a worker racing the ingest path can never publish a
diagnosis that was already stale when it finished.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.engine import Diagnosis, FootprintEntry, footprint_hit
from ..core.events import EventInstance, instance_key
from .metrics import ServiceMetrics

#: Cache key: (application name, symptom identity, graph fingerprint).
CacheKey = Tuple[str, Tuple, str]


def cache_key(app: str, symptom: EventInstance, graph_fingerprint: str) -> CacheKey:
    """The canonical result-cache key for one symptom of one app."""
    return (app, instance_key(symptom), graph_fingerprint)


@dataclass
class CacheEntry:
    """One cached diagnosis plus its freshness anchors."""

    diagnosis: Diagnosis
    footprint: Tuple[FootprintEntry, ...]
    store_revision: int


class ResultCache:
    """Bounded LRU cache of diagnoses over one
    :class:`~repro.collector.store.DataStore`, invalidated by the
    records that land in it."""

    def __init__(
        self,
        store,
        capacity: int = 4096,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.metrics = metrics
        self._store = store
        #: store revision the entries have been checked against
        self._revision = store.revision
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # per table, the keys whose footprint reads it: invalidation
        # looks at one table's entries, removal is one dict delete
        self._by_table: Dict[str, Dict[CacheKey, None]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            self._catch_up()
            return len(self._entries)

    # ------------------------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[Diagnosis]:
        """The cached diagnosis, or None; counts hit/miss metrics."""
        with self._lock:
            self._catch_up()
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if self.metrics is not None:
            if entry is not None:
                self.metrics.cache_hits.increment()
            else:
                self.metrics.cache_misses.increment()
        return entry.diagnosis if entry is not None else None

    def store(
        self,
        key: CacheKey,
        diagnosis: Diagnosis,
        store_revision: int,
        footprint: Optional[Tuple[FootprintEntry, ...]] = None,
    ) -> bool:
        """Cache a diagnosis computed at ``store_revision``.

        ``store_revision`` is the store's revision *before* the
        diagnosis ran.  Returns False (and caches nothing) when a
        relevant record landed during the computation, or when the
        store's change log can no longer prove there wasn't one.
        """
        footprint = diagnosis.footprint if footprint is None else footprint
        with self._lock:
            self._catch_up()
            _, landed = self._store.changes_since(store_revision)
            if landed is None or footprint_hit(footprint, landed):
                return False
            if key in self._entries:
                self._remove(key)
            entry = CacheEntry(
                diagnosis=diagnosis,
                footprint=footprint,
                store_revision=store_revision,
            )
            self._entries[key] = entry
            for table, _, _ in footprint:
                self._by_table.setdefault(table, {})[key] = None
            while len(self._entries) > self.capacity:
                self._remove(next(iter(self._entries)))
            return True

    def _catch_up(self) -> None:
        """Evict the entries a record that landed since the last look
        could change: one sweep over each touched table's entries, or
        everything when the log cannot say.  Called under the lock."""
        self._revision, landed = self._store.changes_since(self._revision)
        if landed is None:
            self.invalidate_all()
            return
        stale = {
            key
            for table in landed
            for key in self._by_table.get(table, ())
            if footprint_hit(self._entries[key].footprint, landed)
        }
        for key in stale:
            self._remove(key)
        if stale and self.metrics is not None:
            self.metrics.cache_invalidations.increment(len(stale))

    def invalidate_all(self) -> int:
        """Drop everything (what the store's log can no longer vouch for)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._by_table.clear()
        if count and self.metrics is not None:
            self.metrics.cache_invalidations.increment(count)
        return count

    def keys(self) -> List[CacheKey]:
        """Current cache keys, oldest first."""
        with self._lock:
            self._catch_up()
            return list(self._entries)

    # ------------------------------------------------------------------

    def _remove(self, key: CacheKey) -> None:
        for table, _, _ in self._entries.pop(key).footprint:
            self._by_table[table].pop(key, None)
