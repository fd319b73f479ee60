"""Watermark-keyed diagnosis result cache with footprint invalidation.

Operators re-query the same symptoms all day (the paper's Result
Browser is a polling UI), so repeated diagnoses should be near-free —
but never stale.  An entry is keyed by

    (application, symptom identity, diagnosis-graph fingerprint)

using the same :func:`repro.core.events.instance_key` identity as the
streaming engine's dedupe.  A graph edit changes the fingerprint, so
stale rule sets miss rather than serve.

Freshness is the diagnosis **footprint** — every (table, window) the
engine read while correlating — held in a
:class:`~repro.core.footprint.FootprintIndex`.  Invalidation is pulled:
every read of the cache first catches the index up with the store's
change log, and a late record *inside* a cached footprint window evicts
exactly the entries whose evidence it could have changed; when the log
cannot say what landed, everything goes.  The write path is race-safe:
:meth:`ResultCache.store` refuses a result when a record landed in its
footprint after the **store revision** its computation started at, so
a worker racing the ingest path never publishes a stale diagnosis.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

from ..core.engine import Diagnosis
from ..core.events import EventInstance, instance_key
from ..core.footprint import FootprintIndex
from .metrics import ServiceMetrics

#: Cache key: (application name, symptom identity, graph fingerprint).
CacheKey = Tuple[str, Tuple, str]


def cache_key(app: str, symptom: EventInstance, graph_fingerprint: str) -> CacheKey:
    """The canonical result-cache key for one symptom of one app."""
    return (app, instance_key(symptom), graph_fingerprint)


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
        self._entries: "OrderedDict[CacheKey, Diagnosis]" = OrderedDict()
        # the same keys with their diagnoses' footprints, caught up with
        # the store's change log
        self._footprints = FootprintIndex(store)
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
            diagnosis = self._entries.get(key)
            if diagnosis is not None:
                self._entries.move_to_end(key)
        if self.metrics is not None:
            if diagnosis is not None:
                self.metrics.cache_hits.increment()
            else:
                self.metrics.cache_misses.increment()
        return diagnosis

    def store(self, key: CacheKey, diagnosis: Diagnosis, store_revision: int) -> bool:
        """Cache a diagnosis computed at ``store_revision``.

        ``store_revision`` is the store's revision *before* the
        diagnosis ran.  Returns False (and caches nothing) when a
        relevant record landed during the computation, or when the
        store's change log can no longer prove there wasn't one.
        """
        with self._lock:
            self._catch_up()
            if self._footprints.landed_in(diagnosis.footprint, since=store_revision):
                return False
            self._entries.pop(key, None)
            self._entries[key] = diagnosis
            self._footprints.add(key, diagnosis.footprint)
            while len(self._entries) > self.capacity:
                self._footprints.discard(self._entries.popitem(last=False)[0])
            return True

    def _catch_up(self) -> None:
        """Evict the entries a record that landed since the last look
        could change — everything when the log cannot say.  Called
        under the lock."""
        self._invalidate(self._footprints.catch_up())

    def invalidate_all(self) -> int:
        """Drop everything; return how many entries went."""
        with self._lock:
            return self._invalidate(list(self._entries))

    def _invalidate(self, keys: List[CacheKey]) -> int:
        for key in keys:
            del self._entries[key]
            self._footprints.discard(key)
        if keys and self.metrics is not None:
            self.metrics.cache_invalidations.increment(len(keys))
        return len(keys)

    def keys(self) -> List[CacheKey]:
        """Current cache keys, oldest first."""
        with self._lock:
            self._catch_up()
            return list(self._entries)
