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

Invalidation is push-based: the cache subscribes to the
:class:`~repro.collector.store.DataStore` insert feed, and a late
record landing *inside* a cached footprint window evicts exactly the
entries whose evidence it could have changed — entries whose windows
the record misses are untouched.  A graph edit changes the fingerprint,
so stale rule sets miss rather than serve.

The write path is race-safe: :meth:`store` refuses to cache a result
whose computation overlapped a relevant insert (checked against a
bounded mutation log), so a worker racing the ingest path can never
publish a diagnosis that was already stale when it finished.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

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
    """Bounded LRU cache of diagnoses, invalidated by late records."""

    def __init__(
        self,
        capacity: int = 4096,
        metrics: Optional[ServiceMetrics] = None,
        mutation_log_size: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.metrics = metrics
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # per-table interval lists for O(table entries) invalidation
        self._by_table: Dict[str, List[CacheKey]] = {}
        # recent inserts: (revision, table, timestamp); bounds the
        # store()-time race check
        self._mutations: Deque[Tuple[int, str, float]] = deque(
            maxlen=mutation_log_size
        )
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def attach(self, store) -> None:
        """Subscribe to a DataStore's insert feed for invalidation."""
        store.subscribe(self.note_insert)

    def detach(self, store) -> None:
        """Unsubscribe from a DataStore previously attached."""
        store.unsubscribe(self.note_insert)

    # ------------------------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[Diagnosis]:
        """The cached diagnosis, or None; counts hit/miss metrics."""
        with self._lock:
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
        mutation log can no longer prove there wasn't one.
        """
        footprint = diagnosis.footprint if footprint is None else footprint
        with self._lock:
            if not self._publishable(footprint, store_revision):
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
                self._by_table.setdefault(table, []).append(key)
            while len(self._entries) > self.capacity:
                oldest, _ = self._entries.popitem(last=False)
                self._unindex(oldest)
            return True

    def note_insert(
        self, table: str, timestamps: List[float], first_revision: int
    ) -> None:
        """Store-insert hook: evict entries the batch's records could
        change, in one sweep over the table's entries."""
        with self._lock:
            self._mutations.extend(
                (revision, table, timestamp)
                for revision, timestamp in enumerate(timestamps, first_revision)
            )
            keys = self._by_table.get(table)
            if not keys:
                return
            delta = {table: sorted(timestamps)}
            stale = [
                key
                for key in keys
                if key in self._entries
                and footprint_hit(self._entries[key].footprint, delta)
            ]
            for key in stale:
                self._remove(key)
        if stale and self.metrics is not None:
            self.metrics.cache_invalidations.increment(len(stale))

    def invalidate_all(self) -> int:
        """Drop everything (e.g. after routing state was rebuilt)."""
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
            return list(self._entries)

    def mutations_since(
        self, revision: int, head: int
    ) -> Optional[Dict[str, List[float]]]:
        """Inserts logged after ``revision``, as ``{table: sorted timestamps}``.

        Returns ``None`` unless the bounded log holds every revision in
        ``(revision, head]`` — the caller cannot know what it missed and
        must invalidate wholesale.  Workers use this to sync their
        engines' private retrieval caches before diagnosing.
        """
        with self._lock:
            newer = [m for m in self._mutations if m[0] > revision]
        if newer and newer[0][0] != revision + 1:
            return None  # log dropped entries in (revision, newer[0])
        if (newer[-1][0] if newer else revision) < head:
            return None  # log has not caught up with the store head
        deltas: Dict[str, List[float]] = {}
        for _, table, timestamp in newer:
            deltas.setdefault(table, []).append(timestamp)
        for points in deltas.values():
            points.sort()
        return deltas

    # ------------------------------------------------------------------

    def _publishable(
        self, footprint: Tuple[FootprintEntry, ...], store_revision: int
    ) -> bool:
        # a log that no longer reaches back to the computation's start
        # may have dropped a relevant insert — refuse to cache; nothing
        # newer than that start is required of it (head = start)
        deltas = self.mutations_since(store_revision, store_revision)
        return deltas is not None and not footprint_hit(footprint, deltas)

    def _remove(self, key: CacheKey) -> None:
        self._entries.pop(key, None)
        self._unindex(key)

    def _unindex(self, key: CacheKey) -> None:
        for keys in self._by_table.values():
            try:
                keys.remove(key)
            except ValueError:
                pass
