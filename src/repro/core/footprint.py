"""Which landed rows stale what: the one footprint index.

A diagnosis, or a cached retrieval, records its *footprint*: every
``(table, lo, hi)`` window the engine read for it.  A row that lands
later can change that answer only if it falls in one of those windows.
:class:`FootprintIndex` matches the store's change log
(:meth:`~repro.collector.store.DataStore.changes_since`) against what
it holds, for all three owners: the engine's retrieval cache, the
streaming re-open set and the service's result cache.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from operator import itemgetter
from typing import Any, Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from .diagnosis import FootprintEntry

INF = float("inf")


def coalesce_windows(
    windows: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Merge overlapping or touching windows into disjoint covers."""
    ordered = sorted(windows)
    if not ordered:
        return []
    merged = [ordered[0]]
    for lo, hi in ordered[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def merge_footprint(reads: Iterable[FootprintEntry]) -> Tuple[FootprintEntry, ...]:
    """Coalesce raw read records into per-table disjoint windows."""
    by_table: Dict[str, List[Tuple[float, float]]] = {}
    for table, lo, hi in reads:
        by_table.setdefault(table, []).append((lo, hi))
    return tuple(
        (table, lo, hi)
        for table in sorted(by_table)
        for lo, hi in coalesce_windows(by_table[table])
    )


def footprint_hit(
    reads: Iterable[FootprintEntry], deltas: Dict[str, List[float]]
) -> bool:
    """Whether any delta point lands inside any of the read windows.

    ``deltas`` maps table name to *sorted* record timestamps; one bisect
    per read window.
    """
    for table, lo, hi in reads:
        points = deltas.get(table)
        if points:
            p = bisect.bisect_left(points, lo)
            if p < len(points) and points[p] <= hi:
                return True
    return False


class _Retained(dict):
    """A dict that keeps its keys ordered by their ends (``end_of(key,
    value)``, read when an entry is set), so :meth:`forget_before` —
    called on every streaming advance — costs what it drops: one bisect
    finds the entries behind the horizon, and while nothing kept has
    fallen behind it, one comparison answers.  Entries that never end
    (``inf``, or NaN) are not ordered.

    Popping or replacing an entry leaves its place in the order behind;
    :meth:`forget_before` skips such places, and :meth:`pop` rebuilds the
    order once they outnumber the live entries.
    """

    def __init__(self, end_of: Callable[[Hashable, Any], float]) -> None:
        super().__init__()
        self._end_of = end_of
        #: ends, ascending, and the key each belongs to
        self._ends: List[float] = []
        self._keys: List[Hashable] = []

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        end = self._end_of(key, value)
        if end < INF:
            ends = self._ends
            i = bisect.bisect_right(ends, end)
            ends.insert(i, end)
            self._keys.insert(i, key)

    def pop(self, key, *default):
        value = dict.pop(self, key, *default)
        if len(self._ends) > 2 * len(self) + 64:
            self._rebuild()
        return value

    def _rebuild(self) -> None:
        end_of = self._end_of
        order = sorted(((end_of(k, v), k) for k, v in self.items()), key=itemgetter(0))
        order = [item for item in order if item[0] < INF]
        self._ends = [end for end, _key in order]
        self._keys = [key for _end, key in order]

    def forget_before(self, horizon: float) -> Dict[Hashable, Any]:
        """Delete the entries that ended before ``horizon``; return them,
        oldest end first."""
        ends = self._ends
        if not ends or ends[0] >= horizon:
            return {}
        k = bisect.bisect_left(ends, horizon)
        behind = zip(ends[:k], self._keys[:k])
        del ends[:k], self._keys[:k]
        end_of = self._end_of
        dropped = {}
        for end, key in behind:
            # skip a place left behind by a pop or a replacement
            if key in self and end_of(key, self[key]) == end:
                dropped[key] = dict.pop(self, key)
        return dropped


class FootprintIndex:
    """Keys and the store reads behind them, caught up with one store's
    change log.  Not locked: the owner serializes calls.

    ``end_of(key, reads)`` says where what a key describes ends, for
    :meth:`forget_before`; without it nothing ends.
    """

    def __init__(
        self, store, end_of: Callable[..., float] = lambda _key, _reads: INF
    ) -> None:
        self._store = store
        #: store revision the keys have been checked against
        self._revision: int = store.revision
        #: key -> its reads, the owner's tuple (owners never write here)
        self.reads: Dict[Hashable, Sequence[FootprintEntry]] = _Retained(end_of)
        # per table: the keys whose reads touch it, and an upper bound
        # on where their reads end (never lowered)
        self._by_table: Dict[str, Dict[Hashable, None]] = defaultdict(dict)
        self._reach: Dict[str, float] = defaultdict(lambda: -INF)

    def add(self, key: Hashable, reads: Sequence[FootprintEntry]) -> None:
        """Hold ``key`` with its store ``reads`` (replacing what it held)."""
        if key in self.reads:
            self.discard(key)
        self.reads[key] = reads
        by_table, reach = self._by_table, self._reach
        for table, _lo, hi in reads:
            by_table[table][key] = None
            if hi > reach[table]:
                reach[table] = hi

    def discard(self, key: Hashable) -> None:
        """Stop holding ``key`` (nothing when it is not held)."""
        for table, _lo, _hi in self.reads.pop(key, ()):
            self._by_table[table].pop(key, None)

    def behind(self) -> bool:
        """Whether rows landed since the last :meth:`catch_up`."""
        return self._revision != self._store.revision

    def landed_in(self, reads: Iterable[FootprintEntry], since: int) -> bool:
        """Whether a row that landed after revision ``since`` hits
        ``reads`` — true, too, when the log no longer reaches back."""
        _, landed = self._store.changes_since(since)
        return landed is None or footprint_hit(reads, landed)

    def catch_up(self) -> List[Hashable]:
        """The held keys whose reads a row that landed since the last
        call hits — every key when the log cannot say what landed.  The
        keys stay held.  Only the keys that read a landed table are
        looked at, and not those when no held read reaches its rows."""
        if self._revision == self._store.revision:
            return []
        self._revision, landed = self._store.changes_since(self._revision)
        if landed is None:
            return list(self.reads)
        held, by_table = self.reads, self._by_table
        stale: Dict[Hashable, None] = {}
        for table, points in landed.items():
            keys = by_table.get(table)
            if keys and self._reached(table, points[0]):
                for key in keys:
                    if key not in stale and footprint_hit(held[key], landed):
                        stale[key] = None
        return list(stale)

    def _reached(self, table: str, oldest: float) -> bool:
        """Whether a held read of ``table`` may reach ``oldest``, its
        earliest landed row; none does for an in-order feed."""
        return oldest <= self._reach.get(table, -INF)

    def forget_before(self, horizon: float) -> List[Hashable]:
        """Drop the keys that ended before ``horizon``; return them."""
        dropped = self.reads.forget_before(horizon)
        for key, reads in dropped.items():
            for table, _lo, _hi in reads:
                self._by_table[table].pop(key, None)
        return list(dropped)
