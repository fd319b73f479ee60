"""OSPF routing simulation over the logical-link topology.

Implements the Section II-B conversion "given the ingress router to
egress router pair, the logical link or router level path between them
can be computed via an OSPF routing simulation based on network-wide link
weights from route-monitoring tools such as OSPFMon".

Two pieces:

* :class:`WeightHistory` — a time-versioned record of link-weight
  changes as flooded into the IGP (the OSPFMon feed).  Weights at an
  arbitrary historical instant can be reconstructed, which is what lets
  G-RCA diagnose transient problems after the fact.
* :class:`OspfSimulator` — Dijkstra SPF with full Equal Cost Multipath
  (ECMP) enumeration: "in the case of ECMP, all network elements along
  all paths will be considered."

Costs use standard OSPF semantics: a link whose weight reaches
:data:`COST_OUT_WEIGHT` (LSInfinity) is costed out and carries no
traffic.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..topology.network import Network

#: MaxLinkMetric / LSInfinity — a link at this weight is out of service.
COST_OUT_WEIGHT = 65535

#: Default IGP metric for generated links.
DEFAULT_WEIGHT = 10


@dataclass(frozen=True)
class WeightChange:
    """One link-weight update observed by the route monitor."""

    timestamp: float
    link: str
    weight: int


@dataclass(frozen=True)
class EcmpPaths:
    """All equal-cost paths between one router pair.

    ``router_paths`` are sequences of router names from source to
    destination inclusive; ``links`` is the union of logical links on any
    of the paths; ``cost`` is the common path cost.
    """

    source: str
    destination: str
    cost: int
    router_paths: Tuple[Tuple[str, ...], ...]
    links: FrozenSet[str]

    @property
    def routers(self) -> FrozenSet[str]:
        """Union of routers on any equal-cost path."""
        return frozenset(r for path in self.router_paths for r in path)

    @property
    def reachable(self) -> bool:
        return bool(self.router_paths)


class WeightHistory:
    """Time-versioned link weights reconstructed from OSPFMon updates."""

    def __init__(self, initial: Optional[Dict[str, int]] = None) -> None:
        self._initial: Dict[str, int] = dict(initial or {})
        self._changes: List[WeightChange] = []
        self._timestamps: List[float] = []
        self._sorted = True
        #: bumped whenever a change lands *before* the feed's frontier:
        #: version numbering shifts at already-issued instants, so any
        #: version-keyed cache must treat the whole history as new.  An
        #: in-order append leaves historical versions intact and the
        #: generation untouched.
        self.stale_generation = 0
        self._max_timestamp = float("-inf")
        # (stale generation, version) -> full weight map; instants with
        # the same version share one dict instead of rebuilding it
        self._weights_cache: Dict[Tuple[int, int], Dict[str, int]] = {}
        # link -> (timestamps, weights) of its changes, in applied order
        self._by_link: Dict[str, Tuple[List[float], List[int]]] = {}

    def record(self, change: WeightChange) -> None:
        """Append one observed weight update."""
        self._changes.append(change)
        if change.timestamp < self._max_timestamp:
            self.stale_generation += 1
            self._sorted = False  # re-sorted and re-indexed on next read
        else:
            self._max_timestamp = change.timestamp
            if self._sorted:
                self._timestamps.append(change.timestamp)
                self._index(change)

    @property
    def change_count(self) -> int:
        """Updates recorded so far.  With :attr:`stale_generation` it
        dates anything derived from this history: both unchanged means
        every ``weight_at`` answer is."""
        return len(self._changes)

    def record_many(self, changes: Iterable[WeightChange]) -> None:
        """Append several observed updates."""
        for change in changes:
            self.record(change)

    def _index(self, change: WeightChange) -> None:
        times, weights = self._by_link.setdefault(change.link, ([], []))
        times.append(change.timestamp)
        weights.append(change.weight)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._changes.sort(key=lambda c: c.timestamp)
            self._timestamps = [c.timestamp for c in self._changes]
            self._by_link = {}
            for change in self._changes:
                self._index(change)
            self._sorted = True

    def version_at(self, timestamp: float) -> int:
        """Number of changes applied at or before ``timestamp``.

        Two instants with the same version index have identical weights,
        which lets the SPF cache key on the version instead of raw time.
        """
        self._ensure_sorted()
        return bisect.bisect_right(self._timestamps, timestamp)

    def weights_at(self, timestamp: float) -> Dict[str, int]:
        """Full link-weight map as of ``timestamp``.

        The returned dict is a shared cache entry keyed by version —
        hot retrieval paths call this once per observed record — so
        callers must treat it as read-only.
        """
        self._ensure_sorted()
        version = bisect.bisect_right(self._timestamps, timestamp)
        key = (self.stale_generation, version)
        weights = self._weights_cache.get(key)
        if weights is None:
            weights = dict(self._initial)
            for change in self._changes[:version]:
                weights[change.link] = change.weight
            if len(self._weights_cache) >= 128:
                self._weights_cache.clear()
            self._weights_cache[key] = weights
        return weights

    def weight_at(self, link: str, timestamp: float) -> Optional[int]:
        """One link's weight as of ``timestamp``; None when never known.

        Equals ``weights_at(timestamp).get(link)`` without building the
        whole-network map: one bisect over that link's own changes —
        what per-record retrievals (cost in/out classification) need.
        """
        self._ensure_sorted()
        entry = self._by_link.get(link)
        if entry is not None:
            applied = bisect.bisect_right(entry[0], timestamp)
            if applied:
                return entry[1][applied - 1]
        return self._initial.get(link)

    def changes_between(self, start: float, end: float) -> List[WeightChange]:
        """Updates with ``start <= timestamp <= end`` (the OSPFMon view)."""
        self._ensure_sorted()
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_right(self._timestamps, end)
        return self._changes[lo:hi]


class OspfSimulator:
    """SPF with ECMP over a :class:`Network` and a :class:`WeightHistory`."""

    def __init__(self, network: Network, history: Optional[WeightHistory] = None) -> None:
        self.network = network
        initial = {name: DEFAULT_WEIGHT for name in network.logical_links}
        if history is None:
            history = WeightHistory(initial)
        else:
            merged = dict(initial)
            merged.update(history._initial)
            history._initial = merged
            # the baseline map changed under every version
            history._weights_cache.clear()
        self.history = history
        #: bumped when the whole history is swapped out: version numbers
        #: from different histories are not comparable, so version-keyed
        #: caches outside this class (BGP decisions, spatial resolution)
        #: include the generation in their keys
        self.generation = 0
        # (stale generation, version, source) -> {destination: EcmpPaths}
        self._spf_cache: Dict[Tuple[int, int, str], Dict[str, EcmpPaths]] = {}

    def replace_history(self, history: WeightHistory) -> None:
        """Swap in a rebuilt weight history (streaming refresh).

        Default weights are merged as in the constructor and all cached
        SPF tables are dropped, since version numbering restarts.
        """
        merged = {name: DEFAULT_WEIGHT for name in self.network.logical_links}
        merged.update(history._initial)
        history._initial = merged
        self.history = history
        self.generation += 1
        self._spf_cache.clear()

    # ------------------------------------------------------------------

    def paths(self, source: str, destination: str, timestamp: float) -> EcmpPaths:
        """All equal-cost shortest paths between two routers at a time."""
        if source == destination:
            return EcmpPaths(source, destination, 0, ((source,),), frozenset())
        # the stale generation guards against aliasing: an out-of-order
        # weight record renumbers versions at already-queried instants,
        # which would otherwise let a stale table answer for a new state
        key = (
            self.history.stale_generation,
            self.history.version_at(timestamp),
            source,
        )
        table = self._spf_cache.get(key)
        if table is None:
            table = self._run_spf(source, timestamp)
            self._spf_cache[key] = table
        result = table.get(destination)
        if result is None:
            return EcmpPaths(source, destination, 0, (), frozenset())
        return result

    def distance(self, source: str, destination: str, timestamp: float) -> Optional[int]:
        """IGP distance, or ``None`` if unreachable."""
        result = self.paths(source, destination, timestamp)
        return result.cost if result.reachable else None

    # ------------------------------------------------------------------

    def _adjacency(self, timestamp: float) -> Dict[str, List[Tuple[str, str, int]]]:
        """router -> [(neighbor, link_name, weight)] with costed-out pruned."""
        weights = self.history.weights_at(timestamp)
        adjacency: Dict[str, List[Tuple[str, str, int]]] = {
            name: [] for name in self.network.routers
        }
        for name, link in self.network.logical_links.items():
            weight = weights.get(name, DEFAULT_WEIGHT)
            if weight >= COST_OUT_WEIGHT:
                continue
            adjacency[link.router_a].append((link.router_z, name, weight))
            adjacency[link.router_z].append((link.router_a, name, weight))
        return adjacency

    def _run_spf(self, source: str, timestamp: float) -> Dict[str, EcmpPaths]:
        """Dijkstra with predecessor sets, then ECMP path enumeration."""
        adjacency = self._adjacency(timestamp)
        if source not in adjacency:
            return {}
        dist: Dict[str, int] = {source: 0}
        # destination -> set of (predecessor router, link into destination)
        preds: Dict[str, Set[Tuple[str, str]]] = {source: set()}
        heap: List[Tuple[int, str]] = [(0, source)]
        visited: Set[str] = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor, link_name, weight in adjacency[node]:
                candidate = cost + weight
                known = dist.get(neighbor)
                if known is None or candidate < known:
                    dist[neighbor] = candidate
                    preds[neighbor] = {(node, link_name)}
                    heapq.heappush(heap, (candidate, neighbor))
                elif candidate == known:
                    preds[neighbor].add((node, link_name))
        table: Dict[str, EcmpPaths] = {}
        for destination, cost in dist.items():
            if destination == source:
                continue
            router_paths, links = self._enumerate(source, destination, preds)
            table[destination] = EcmpPaths(
                source=source,
                destination=destination,
                cost=cost,
                router_paths=tuple(router_paths),
                links=frozenset(links),
            )
        return table

    @staticmethod
    def _enumerate(
        source: str,
        destination: str,
        preds: Dict[str, Set[Tuple[str, str]]],
        max_paths: int = 64,
    ) -> Tuple[List[Tuple[str, ...]], Set[str]]:
        """Walk the predecessor DAG back from ``destination``.

        Path enumeration is capped at ``max_paths`` (real routers cap ECMP
        fan-out too); the link/router *union* is still complete because it
        is accumulated during the DAG walk, not from the enumerated paths.
        """
        links: Set[str] = set()
        stack = [destination]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for pred, link in preds.get(node, ()):
                links.add(link)
                stack.append(pred)

        paths: List[Tuple[str, ...]] = []

        def walk(node: str, suffix: Tuple[str, ...]) -> None:
            if len(paths) >= max_paths:
                return
            if node == source:
                paths.append((source,) + suffix)
                return
            for pred, _link in sorted(preds.get(node, ())):
                walk(pred, (node,) + suffix)

        walk(destination, ())
        return paths, links


def reconvergence_windows(
    history: WeightHistory, start: float, end: float, settle_seconds: float = 10.0
) -> List[Tuple[float, float]]:
    """Group weight updates into OSPF re-convergence windows.

    Updates closer than ``settle_seconds`` apart are merged into one
    re-convergence episode — the granularity at which the "OSPF
    re-convergence event" of Table I is reported.
    """
    changes = history.changes_between(start, end)
    windows: List[Tuple[float, float]] = []
    for change in changes:
        if windows and change.timestamp - windows[-1][1] <= settle_seconds:
            windows[-1] = (windows[-1][0], change.timestamp)
        else:
            windows.append((change.timestamp, change.timestamp))
    return windows
