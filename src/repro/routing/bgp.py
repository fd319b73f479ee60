"""BGP route emulation for the service dependency model.

Section II-B requires mapping "Ingress router:Destination" to
"Ingress router:Egress router" by looking up *historical* BGP tables.
Because "BGP routing changes are typically not available at all ingress
routers, and only those changes at the BGP route-reflectors are
available", the deployed G-RCA emulates the ingress router's BGP decision
process from the reflector-visible routes plus the OSPF distance to the
candidate egress routers.  This module implements exactly that emulation:

* :class:`BgpUpdateLog` — the time-stamped feed of announcements and
  withdrawals as seen by the route reflectors (the BGP monitor feed).
  The log maintains two incremental indexes so as-of-time queries stay
  cheap on large feeds: a per-prefix-length longest-prefix-match table
  (so destination lookups probe at most 33 hash buckets instead of
  scanning every prefix ever seen) and a per-prefix *state index* (the
  live route set after every update, so :meth:`BgpUpdateLog.routes_at`
  is one bisect instead of a full history replay);
* :class:`BgpEmulator` — longest-prefix match plus best-path selection
  (local preference, AS-path length, hot-potato IGP distance, router-id
  tiebreak) evaluated *as of* an arbitrary historical instant.

The per-prefix update counts double as *versions*: two instants with the
same :meth:`BgpUpdateLog.prefix_version_at` see identical route sets for
that prefix, which is what lets the emulator's decision cache (and the
spatial resolution cache in :mod:`repro.routing.epoch` /
:mod:`repro.core.spatial`) key on versions instead of raw timestamps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..netutils import ip_to_int, parse_prefix, prefix_mask
from .ospf import OspfSimulator


@dataclass(frozen=True)
class BgpRoute:
    """One candidate route to a prefix via an egress router."""

    prefix: str
    egress_router: str
    next_hop: str = ""
    local_pref: int = 100
    as_path_len: int = 1


@dataclass(frozen=True)
class BgpUpdate:
    """One announcement (or withdrawal) in the reflector feed."""

    timestamp: float
    route: BgpRoute
    withdrawn: bool = False


@dataclass(frozen=True)
class BgpDecision:
    """Outcome of the emulated best-path selection at an ingress router."""

    prefix: str
    route: Optional[BgpRoute]
    igp_distance: Optional[int] = None

    @property
    def egress_router(self) -> Optional[str]:
        return self.route.egress_router if self.route else None


class BgpUpdateLog:
    """Chronological BGP updates with as-of-time RIB reconstruction."""

    def __init__(self) -> None:
        self._updates: Dict[str, List[BgpUpdate]] = {}
        self._sorted = True
        #: bumped whenever an update lands before the feed's frontier;
        #: version numbering shifts at already-issued instants, so any
        #: version-keyed cache must treat the whole history as new
        self.stale_generation = 0
        self._max_timestamp = float("-inf")
        # LPM index: prefix length -> {masked network int -> prefix strings}
        self._by_plen: Dict[int, Dict[int, List[str]]] = {}
        self._plens_desc: List[int] = []
        # per-prefix state index: prefix -> (timestamps, live-route tuples)
        self._state_index: Dict[str, Tuple[List[float], List[Tuple[BgpRoute, ...]]]] = {}
        # global update timestamps (for cross-prefix versioning)
        self._all_timestamps: List[float] = []
        self._all_dirty = False

    def record(self, update: BgpUpdate) -> None:
        """Append one observed update."""
        prefix = update.route.prefix
        updates = self._updates.get(prefix)
        if updates is None:
            updates = self._updates[prefix] = []
            self._index_prefix(prefix)
        if updates and update.timestamp < updates[-1].timestamp:
            self._sorted = False
        updates.append(update)
        if update.timestamp < self._max_timestamp:
            self.stale_generation += 1
        else:
            self._max_timestamp = update.timestamp
        self._state_index.pop(prefix, None)
        self._all_dirty = True

    def record_many(self, updates: Iterable[BgpUpdate]) -> None:
        """Append several observed updates."""
        for update in updates:
            self.record(update)

    def announce(
        self,
        timestamp: float,
        prefix: str,
        egress_router: str,
        next_hop: str = "",
        local_pref: int = 100,
        as_path_len: int = 1,
    ) -> None:
        """Convenience wrapper to record an announcement."""
        self.record(
            BgpUpdate(
                timestamp=timestamp,
                route=BgpRoute(prefix, egress_router, next_hop, local_pref, as_path_len),
            )
        )

    def withdraw(self, timestamp: float, prefix: str, egress_router: str) -> None:
        """Record a withdrawal of a prefix from one egress."""
        self.record(
            BgpUpdate(
                timestamp=timestamp,
                route=BgpRoute(prefix, egress_router),
                withdrawn=True,
            )
        )

    # ------------------------------------------------------------------
    # indexes

    def _index_prefix(self, prefix: str) -> None:
        """Add a newly-seen prefix to the longest-prefix-match table."""
        try:
            network, prefix_len = parse_prefix(prefix)
        except ValueError:
            return  # unparseable prefixes can never match a destination
        bucket = self._by_plen.get(prefix_len)
        if bucket is None:
            bucket = self._by_plen[prefix_len] = {}
            self._plens_desc = sorted(self._by_plen, reverse=True)
        entries = bucket.setdefault(network, [])
        if prefix not in entries:
            bisect.insort(entries, prefix)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            for prefix, updates in self._updates.items():
                updates.sort(key=lambda u: u.timestamp)
            self._state_index.clear()
            self._sorted = True

    def _state(self, prefix: str) -> Tuple[List[float], List[Tuple[BgpRoute, ...]]]:
        """The (timestamps, live-route-sets) index for one prefix.

        Built incrementally in one pass over the prefix's updates:
        entry *i* is the live route set after applying updates[0..i]
        (latest update per egress wins).  Any new update for the prefix
        drops the entry, so the cost is amortized over the queries
        between mutations instead of paid per call.
        """
        self._ensure_sorted()
        entry = self._state_index.get(prefix)
        if entry is None:
            updates = self._updates.get(prefix, [])
            timestamps = [u.timestamp for u in updates]
            states: List[Tuple[BgpRoute, ...]] = []
            latest: Dict[str, BgpUpdate] = {}
            for update in updates:
                latest[update.route.egress_router] = update
                states.append(
                    tuple(u.route for u in latest.values() if not u.withdrawn)
                )
            entry = (timestamps, states)
            self._state_index[prefix] = entry
        return entry

    # ------------------------------------------------------------------
    # queries

    def prefixes(self) -> List[str]:
        """All prefixes ever seen in the feed, sorted."""
        return sorted(self._updates)

    def prefix_version_at(self, prefix: str, timestamp: float) -> int:
        """Updates applied to ``prefix`` at or before ``timestamp``.

        Two instants with the same version see the identical route set
        for the prefix (under one :attr:`stale_generation`), so caches
        can key on ``(stale_generation, version)`` instead of raw time.
        """
        timestamps, _ = self._state(prefix)
        return bisect.bisect_right(timestamps, timestamp)

    def version_at(self, timestamp: float) -> int:
        """Updates applied across *all* prefixes at or before ``timestamp``."""
        self._ensure_sorted()
        if self._all_dirty:
            merged: List[float] = []
            for updates in self._updates.values():
                merged.extend(u.timestamp for u in updates)
            merged.sort()
            self._all_timestamps = merged
            self._all_dirty = False
        return bisect.bisect_right(self._all_timestamps, timestamp)

    def routes_at(self, prefix: str, timestamp: float) -> List[BgpRoute]:
        """Routes for ``prefix`` still announced as of ``timestamp``.

        One bisect into the per-prefix state index; the latest update
        from each egress wins (an egress either currently announces or
        has withdrawn).
        """
        timestamps, states = self._state(prefix)
        cutoff = bisect.bisect_right(timestamps, timestamp)
        if cutoff == 0:
            return []
        return list(states[cutoff - 1])

    def match_prefix(self, address: str, timestamp: float) -> Optional[str]:
        """Most specific prefix covering ``address`` with live routes.

        Probes the per-length tables from longest to shortest: one mask
        and one hash lookup per prefix length present in the feed,
        instead of parsing and testing every prefix ever seen.
        """
        value = ip_to_int(address)
        for prefix_len in self._plens_desc:
            network = value & prefix_mask(prefix_len)
            for prefix in self._by_plen[prefix_len].get(network, ()):
                if self.routes_at(prefix, timestamp):
                    return prefix
        return None

    def updates_between(self, start: float, end: float) -> List[BgpUpdate]:
        """All updates in a window, across prefixes, in time order."""
        self._ensure_sorted()
        result: List[BgpUpdate] = []
        for prefix in self._updates:
            timestamps, _ = self._state(prefix)
            lo = bisect.bisect_left(timestamps, start)
            hi = bisect.bisect_right(timestamps, end)
            result.extend(self._updates[prefix][lo:hi])
        result.sort(key=lambda u: u.timestamp)
        return result


#: Sentinel for "no egress seen yet" in :meth:`BgpEmulator.egress_timeline`
#: — distinct from ``None``, which is a real outcome ("no route").
_NO_EGRESS_YET = object()


@dataclass
class BgpEmulator:
    """Emulated BGP decision process at ingress routers.

    Best-path selection follows the standard order restricted to the
    attributes the reflector feed carries: highest local preference,
    shortest AS path, lowest IGP (hot-potato) distance to the egress,
    then lowest egress router name as the deterministic router-id stand-in.
    """

    log: BgpUpdateLog
    ospf: OspfSimulator
    _decision_cache: Dict[Tuple, BgpDecision] = field(
        default_factory=dict, repr=False
    )

    def replace_log(self, log: BgpUpdateLog) -> None:
        """Swap in a rebuilt update log (streaming refresh).

        Cached decisions are dropped: the per-prefix update versions
        they are keyed on restart with the new log.
        """
        self.log = log
        self._decision_cache.clear()

    def lookup_prefix(self, dest_ip: str, timestamp: float) -> Optional[str]:
        """Longest-prefix match over prefixes with live routes."""
        return self.log.match_prefix(dest_ip, timestamp)

    def best_egress(
        self, ingress_router: str, dest_ip: str, timestamp: float
    ) -> BgpDecision:
        """The egress the ingress router would pick for a destination IP."""
        prefix = self.lookup_prefix(dest_ip, timestamp)
        if prefix is None:
            return BgpDecision(prefix="", route=None)
        return self.best_egress_for_prefix(ingress_router, prefix, timestamp)

    def best_egress_for_prefix(
        self, ingress_router: str, prefix: str, timestamp: float
    ) -> BgpDecision:
        """Best-path selection for a known prefix.

        Cached under the exact state the decision depends on: the OSPF
        weight version (hot-potato distances) and the per-prefix update
        version (candidate routes).  Keying on the update version — not
        just "is the cached route still announced" — means a *better*
        route announced after caching (higher local-pref, shorter AS
        path) correctly busts the entry and flips the egress.
        """
        history = self.ospf.history
        cache_key = (
            ingress_router,
            prefix,
            self.ospf.generation,
            history.stale_generation,
            history.version_at(timestamp),
            self.log.stale_generation,
            self.log.prefix_version_at(prefix, timestamp),
        )
        cached = self._decision_cache.get(cache_key)
        if cached is not None:
            return cached
        routes = self.log.routes_at(prefix, timestamp)
        if not routes:
            return BgpDecision(prefix=prefix, route=None)

        def sort_key(route: BgpRoute) -> Tuple[int, int, int, str]:
            distance = self.ospf.distance(ingress_router, route.egress_router, timestamp)
            if distance is None:
                distance = 1 << 30  # unreachable egress loses hot-potato
            return (-route.local_pref, route.as_path_len, distance, route.egress_router)

        best = min(routes, key=sort_key)
        distance = self.ospf.distance(ingress_router, best.egress_router, timestamp)
        decision = BgpDecision(prefix=prefix, route=best, igp_distance=distance)
        self._decision_cache[cache_key] = decision
        return decision

    def egress_timeline(
        self, ingress_router: str, dest_ip: str, start: float, end: float
    ) -> List[Tuple[float, Optional[str]]]:
        """(timestamp, egress) at ``start`` and after each relevant change.

        This is how "BGP egress change" diagnostic events are validated
        against the emulated decision process.  The first entry always
        reports the state at ``start`` — including ``(start, None)``
        when no route exists yet.
        """
        points = [start]
        prefix = self.lookup_prefix(dest_ip, start) or self.lookup_prefix(dest_ip, end)
        for update in self.log.updates_between(start, end):
            if prefix is None or update.route.prefix == prefix:
                points.append(update.timestamp)
        timeline: List[Tuple[float, Optional[str]]] = []
        last: object = _NO_EGRESS_YET
        for point in sorted(set(points)):
            egress = self.best_egress(ingress_router, dest_ip, point).egress_router
            if egress != last:
                timeline.append((point, egress))
                last = egress
        return timeline
