"""Spatial join rules and the location resolver (Section II-C, Fig. 2).

A spatial joining rule is (symptom location type, diagnostic location
type, joining level).  The engine "automatically converts the locations
of symptom and diagnostic events into the same 'join level' location so
that they can be directly compared" — that conversion is the
:class:`LocationResolver`, which folds in every Section II-B utility:
containment from configs, /30 and bundle mappings, the layer-1
inventory, OSPF path simulation with ECMP and BGP egress emulation.

Because routing state is time-varying, every expansion takes the
timestamp of the symptom event and reconstructs the network condition
*at that time*.

That reconstruction is the engine's hottest path — for pair locations
it re-runs OSPF/ECMP path simulation and BGP best-path emulation — yet
routing state only changes at discrete instants.  The resolver therefore
memoizes expansions under a bounded LRU keyed on ``(location, join
level, routing epoch)``, where the epoch is a
:class:`~repro.routing.epoch.RoutingEpoch` version token covering
exactly the state that expansion reads: a cached entry is served for any
timestamp in the same epoch and retired the moment the underlying
OSPF/BGP/config/ingress-map state actually changes.  See
``docs/spatial.md`` for the fingerprinting and invalidation rules.
"""

from __future__ import annotations

import bisect
import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..routing.epoch import RoutingEpoch
from ..routing.paths import PathService
from .locations import Location, LocationType


class JoinLevel(enum.Enum):
    """The level two locations are converted to before comparison."""

    SAME_LOCATION = "same-location"
    ROUTER = "router"
    LINE_CARD = "line-card"
    INTERFACE = "interface"
    LOGICAL_LINK = "logical-link"
    PHYSICAL_LINK = "physical-link"
    LAYER1_DEVICE = "layer1-device"
    POP = "pop"
    #: alias of ROUTER in comparison semantics; names the intent of
    #: "Backbone Router-level Path" joins where one side is a path
    ROUTER_PATH = "router-path"
    #: alias of LOGICAL_LINK for "link-level path" joins
    LINK_PATH = "link-path"
    #: a specific CDN cache server
    SERVER = "server"
    #: no spatial constraint: any two locations join (used for
    #: network-wide effects such as routing reconvergence shifting
    #: traffic onto a distant link)
    NETWORK = "network"


_LEVEL_CANONICAL = {
    JoinLevel.ROUTER_PATH: JoinLevel.ROUTER,
    JoinLevel.LINK_PATH: JoinLevel.LOGICAL_LINK,
}

_EMPTY: FrozenSet[str] = frozenset()

#: location types whose expansions read only the static topology model
_STATIC_TYPES = frozenset(
    {
        LocationType.ROUTER,
        LocationType.INTERFACE,
        LocationType.LINE_CARD,
        LocationType.LOGICAL_LINK,
        LocationType.PHYSICAL_LINK,
        LocationType.LAYER1_DEVICE,
        LocationType.SERVER,
        # these pair types collapse to a single router's containment
        # expansion (ingress == egress), so no routing state is read
        LocationType.SOURCE_INGRESS,
        LocationType.EGRESS_DESTINATION,
    }
)

#: pair types whose egress must be resolved via BGP emulation first
_DESTINATION_PAIR_TYPES = frozenset(
    {LocationType.INGRESS_DESTINATION, LocationType.SOURCE_DESTINATION}
)

#: default bound on memoized expansions (entries, not bytes)
DEFAULT_CACHE_SIZE = 4096


class LocationResolver:
    """Expands any :class:`Location` to a set of join-level identifiers.

    ``path_lookback`` widens time-varying expansions (routed paths, BGP
    egresses): the network condition that *caused* a symptom is the one
    just before it, so path expansions take the union of the state at
    the symptom instant and ``path_lookback`` seconds earlier.  Routing
    may already have healed around the cause by the time the symptom is
    measured; without the lookback those joins would be missed.

    ``cache_size`` bounds the routing-epoch resolution cache (LRU over
    ``(location, level, epoch)``, at least one entry).  The cache (and
    its counters) is thread-safe: one resolver is shared by every worker
    engine.  The cache is property-tested against a resolver that
    recomputes every expansion (``tests/oracles``).
    """

    def __init__(
        self,
        paths: PathService,
        path_lookback: float = 60.0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        epoch: Optional[RoutingEpoch] = None,
    ) -> None:
        self.paths = paths
        self.network = paths.network
        self.path_lookback = path_lookback
        self.epoch = epoch if epoch is not None else RoutingEpoch(paths)
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self._cache_size = cache_size
        self._cache: "OrderedDict[Tuple, FrozenSet[str]]" = OrderedDict()
        # (location, level) -> epoch token of the entry currently cached
        self._last_epoch: Dict[Tuple[Location, JoinLevel], Tuple] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # the routing-epoch resolution cache

    def _epoch_key(self, location: Location, timestamp: float) -> Tuple:
        """The narrowest epoch token covering what this expansion reads.

        Narrow tokens mean exact invalidation: a BGP announce retires
        cached destination-pair and same-prefix expansions but leaves
        OSPF-only path expansions and containment expansions alone.
        """
        ltype = location.type
        generation = self.epoch.topology_generation
        if ltype in _STATIC_TYPES:
            return (generation,)
        instants = (timestamp - self.path_lookback, timestamp)
        if ltype is LocationType.PREFIX:
            return (generation,) + self.epoch.prefix_token(location.value, *instants)
        if ltype is LocationType.ROUTER_NEIGHBOR:
            return (generation,) + self.epoch.config_token(
                location.parts[0], timestamp
            )
        # remaining pair types run OSPF path simulation at both instants
        token = (generation,) + self.epoch.ospf_token(*instants)
        if ltype in _DESTINATION_PAIR_TYPES:
            token += self.epoch.bgp_token(*instants)
            if ltype is LocationType.SOURCE_DESTINATION:
                token += self.epoch.ingress_token()
        return token

    def cache_stats(self) -> Dict[str, int]:
        """Monotonic hit/miss/invalidation/eviction counters plus size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "evictions": self._evictions,
                "size": len(self._cache),
                "capacity": self._cache_size,
            }

    def clear_cache(self) -> None:
        """Drop every memoized expansion (counters are kept)."""
        with self._lock:
            self._cache.clear()
            self._last_epoch.clear()

    # ------------------------------------------------------------------

    def expand(
        self,
        location: Location,
        level: JoinLevel,
        timestamp: float,
        trace=None,
    ) -> FrozenSet[str]:
        """Join-level identifiers related to ``location`` at ``timestamp``.

        Unresolvable locations (an egress with no BGP route, a neighbor
        IP absent from configs) expand to the empty set: they simply
        cannot join, which is how "outside of our network" outcomes
        arise (Table VI).

        ``trace`` (a :class:`repro.obs.Tracer`, optional) receives
        ``spatial_cache_hits`` / ``spatial_cache_misses`` counters on
        its current span.
        """
        level = _LEVEL_CANONICAL.get(level, level)
        if level is JoinLevel.NETWORK:
            return frozenset({"network"})
        if level is JoinLevel.SAME_LOCATION:
            return frozenset({str(location)})
        handler = _HANDLERS.get(location.type)
        if handler is None:  # pragma: no cover - all types handled
            return _EMPTY
        epoch = self._epoch_key(location, timestamp)
        key = (location, level, epoch)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                if trace is not None:
                    trace.count("spatial_cache_hits")
                return cached
        result = self._compute(handler, location, level, timestamp)
        with self._lock:
            self._misses += 1
            if trace is not None:
                trace.count("spatial_cache_misses")
            identity = (location, level)
            previous = self._last_epoch.get(identity)
            if previous is not None and previous != epoch:
                # the routing state this (location, level) was cached
                # under has changed: retire the stale entry now
                if self._cache.pop((location, level, previous), None) is not None:
                    self._invalidations += 1
            self._last_epoch[identity] = epoch
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self._cache_size:
                old_key, _ = self._cache.popitem(last=False)
                self._evictions += 1
                old_identity = (old_key[0], old_key[1])
                if self._last_epoch.get(old_identity) == old_key[2]:
                    del self._last_epoch[old_identity]
        return result

    def _compute(
        self, handler, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        try:
            return handler(self, location, level, timestamp)
        except KeyError:
            # stale location (element no longer in / never in topology)
            return _EMPTY

    def epoch_static(self, location_type: LocationType, level: JoinLevel) -> bool:
        """Whether such an expansion reads only the topology model.

        True for containment types and for the ``NETWORK`` /
        ``SAME_LOCATION`` levels: the expansion can change only when
        ``epoch.topology_generation`` does, so a caller that sees the
        same location column over and over — a retrieval cover joined by
        every symptom of a storm — may memoize it per generation.
        """
        level = _LEVEL_CANONICAL.get(level, level)
        return (
            level in (JoinLevel.NETWORK, JoinLevel.SAME_LOCATION)
            or location_type in _STATIC_TYPES
        )

    def static_expansions(
        self, candidates, level: JoinLevel, timestamp: float
    ) -> Optional[Dict[Tuple[str, ...], FrozenSet[str]]]:
        """Expansions of a candidate set's distinct locations, if epoch-static.

        Storm workloads join the same cover against dozens of sibling
        symptoms; epoch-static expansions (:meth:`epoch_static`) cannot
        change within a topology generation, so one map computed on
        first use — memoized on the set — serves every later walk.
        Returns ``None`` — compute per evaluation — when any expansion
        depends on time-varying routing state.
        """
        key = (level, self.epoch.topology_generation)
        memo = candidates.expansions
        if key not in memo:
            locations = [location for location, _ in candidates.location_index.values()]
            memo[key] = (
                {
                    location.parts: self.expand(location, level, timestamp)
                    for location in locations
                }
                if all(self.epoch_static(l.type, level) for l in locations)
                else None
            )
        return memo[key]

    # ------------------------------------------------------------------
    # per-location-type expansions

    def _expand_router(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        router = location.value
        if router not in self.network.routers:
            return _EMPTY
        if level is JoinLevel.ROUTER:
            return frozenset({router})
        if level is JoinLevel.POP:
            return frozenset({self.network.router(router).pop})
        if level is JoinLevel.LINE_CARD:
            return frozenset(
                card.fqname for card in self.network.router(router).line_cards
            )
        if level is JoinLevel.INTERFACE:
            return frozenset(
                iface.fqname for iface in self.network.router(router).interfaces
            )
        links = self.network.logical_links_of_router(router)
        if level is JoinLevel.LOGICAL_LINK:
            return frozenset(link.name for link in links)
        if level is JoinLevel.PHYSICAL_LINK:
            return frozenset(p for link in links for p in link.physical_links)
        if level is JoinLevel.LAYER1_DEVICE:
            return frozenset(
                d for link in links for d in self.network.layer1_devices_of_logical(link.name)
            )
        return _EMPTY

    def _expand_interface(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        fqname = location.value
        if level is JoinLevel.INTERFACE:
            return frozenset({fqname})
        iface = self.network.interface(fqname)
        if level is JoinLevel.ROUTER:
            return frozenset({iface.router})
        if level is JoinLevel.POP:
            return frozenset({self.network.router(iface.router).pop})
        if level is JoinLevel.LINE_CARD:
            return frozenset({f"{iface.router}:slot{iface.slot}"})
        link = self.network.link_of_interface(fqname)
        if level is JoinLevel.LOGICAL_LINK:
            return frozenset({link.name}) if link else _EMPTY
        # physical/layer-1 expansion covers access circuits too (customer
        # attachments carry no logical link but do ride layer-1 devices)
        physical = self.network.physical_links_of_interface(fqname)
        if level is JoinLevel.PHYSICAL_LINK:
            return frozenset(p.name for p in physical)
        if level is JoinLevel.LAYER1_DEVICE:
            return frozenset(
                d for p in physical for d in self.network.layer1_path(p.name)
            )
        return _EMPTY

    def _expand_line_card(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        fqname = location.value
        if level is JoinLevel.LINE_CARD:
            return frozenset({fqname})
        card = self.network.line_card(fqname)
        if level is JoinLevel.ROUTER:
            return frozenset({card.router})
        if level is JoinLevel.POP:
            return frozenset({self.network.router(card.router).pop})
        interfaces = self.network.router(card.router).interfaces_on_slot(card.slot)
        if level is JoinLevel.INTERFACE:
            return frozenset(iface.fqname for iface in interfaces)
        links = set()
        for iface in interfaces:
            link = self.network.link_of_interface(iface.fqname)
            if link is not None:
                links.add(link)
        if level is JoinLevel.LOGICAL_LINK:
            return frozenset(link.name for link in links)
        if level is JoinLevel.PHYSICAL_LINK:
            return frozenset(p for link in links for p in link.physical_links)
        if level is JoinLevel.LAYER1_DEVICE:
            return frozenset(
                d
                for link in links
                for d in self.network.layer1_devices_of_logical(link.name)
            )
        return _EMPTY

    def _expand_logical_link(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        name = location.value
        if level is JoinLevel.LOGICAL_LINK:
            return frozenset({name})
        link = self.network.logical_link(name)
        if level is JoinLevel.ROUTER:
            return frozenset(link.routers)
        if level is JoinLevel.POP:
            return frozenset(self.network.router(r).pop for r in link.routers)
        if level is JoinLevel.INTERFACE:
            return frozenset({link.interface_a, link.interface_z})
        if level is JoinLevel.LINE_CARD:
            cards = set()
            for fq in (link.interface_a, link.interface_z):
                iface = self.network.interface(fq)
                cards.add(f"{iface.router}:slot{iface.slot}")
            return frozenset(cards)
        if level is JoinLevel.PHYSICAL_LINK:
            return frozenset(link.physical_links)
        if level is JoinLevel.LAYER1_DEVICE:
            return frozenset(self.network.layer1_devices_of_logical(name))
        return _EMPTY

    def _expand_physical_link(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        name = location.value
        if level is JoinLevel.PHYSICAL_LINK:
            return frozenset({name})
        link = self.network.physical_link(name)
        if level is JoinLevel.LAYER1_DEVICE:
            return frozenset(self.network.layer1_path(name))
        if level is JoinLevel.INTERFACE:
            return frozenset(link.endpoints)
        if level is JoinLevel.ROUTER:
            return frozenset(fq.partition(":")[0] for fq in link.endpoints)
        if level is JoinLevel.POP:
            return frozenset(
                self.network.router(fq.partition(":")[0]).pop for fq in link.endpoints
            )
        if level is JoinLevel.LOGICAL_LINK:
            return frozenset(
                logical.name
                for logical in self.network.logical_links.values()
                if name in logical.physical_links
            )
        return _EMPTY

    def _expand_layer1_device(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        name = location.value
        if level is JoinLevel.LAYER1_DEVICE:
            return frozenset({name})
        if level is JoinLevel.PHYSICAL_LINK:
            return frozenset(
                link.name for link in self.network.physical_links_riding(name)
            )
        riding = self.network.logical_links_riding(name)
        if level is JoinLevel.LOGICAL_LINK:
            return frozenset(link.name for link in riding)
        # interface/router expansion comes from the riding *circuits*, so
        # access circuits without logical links are covered too
        circuits = self.network.physical_links_riding(name)
        if level is JoinLevel.INTERFACE:
            return frozenset(fq for link in circuits for fq in link.endpoints)
        if level is JoinLevel.ROUTER:
            return frozenset(
                fq.partition(":")[0] for link in circuits for fq in link.endpoints
            )
        if level is JoinLevel.POP:
            device = self.network.layer1_devices[name]
            return frozenset({device.pop})
        return _EMPTY

    def _expand_router_neighbor(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        router, neighbor_ip = location.parts
        if level is JoinLevel.ROUTER:
            return frozenset({router})
        if level is JoinLevel.POP:
            return frozenset({self.network.router(router).pop})
        fq = self.paths.interface_for_neighbor(router, neighbor_ip, timestamp)
        if fq is None:
            return _EMPTY
        return self._expand_interface(Location.interface(fq), level, timestamp)

    def _expand_server(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        server = self.network.cdn_servers.get(location.value)
        if server is None:
            return _EMPTY
        if level is JoinLevel.SERVER:
            return frozenset({server.name})
        attached = Location.router(server.attached_router)
        return self._expand_router(attached, level, timestamp)

    def _expand_prefix(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        """Egress routers serving a prefix around ``timestamp``.

        Includes egresses live shortly *before* the instant, so that an
        egress-change event joins against paths through the old egress
        as well as the new one.
        """
        if self.paths.bgp is None:
            return _EMPTY
        prefix = location.value
        egresses: Set[str] = set()
        for instant in (timestamp - self.path_lookback, timestamp):
            for route in self.paths.bgp.log.routes_at(prefix, instant):
                egresses.add(route.egress_router)
        if level is JoinLevel.ROUTER:
            return frozenset(egresses)
        if level is JoinLevel.POP:
            return frozenset(
                self.network.router(r).pop for r in egresses if r in self.network.routers
            )
        return _EMPTY

    # -- pair locations -------------------------------------------------

    def _pair_endpoints(
        self, location: Location, timestamp: float
    ) -> Optional[tuple]:
        """Resolve any pair location to an (ingress, egress) router pair."""
        a, b = location.parts
        if location.type is LocationType.INGRESS_EGRESS:
            return (a, b)
        if location.type is LocationType.SOURCE_INGRESS:
            return (b, b)
        if location.type is LocationType.EGRESS_DESTINATION:
            return (a, a)
        if location.type is LocationType.INGRESS_DESTINATION:
            egress = self.paths.egress_for_destination(a, b, timestamp)
            return (a, egress) if egress else None
        if location.type is LocationType.SOURCE_DESTINATION:
            ingress = self.paths.ingress_for_source(a)
            if ingress is None:
                return None
            egress = self.paths.egress_for_destination(ingress, b, timestamp)
            return (ingress, egress) if egress else None
        return None

    def _expand_pair(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        if level is JoinLevel.SERVER:
            # a SOURCE_DESTINATION pair whose source is a CDN server
            source = location.parts[0]
            if source in self.network.cdn_servers:
                return frozenset({source})
            return _EMPTY
        combined: Set[str] = set()
        for instant in (timestamp - self.path_lookback, timestamp):
            combined.update(self._expand_pair_at(location, level, instant))
        return frozenset(combined)

    def _expand_pair_at(
        self, location: Location, level: JoinLevel, timestamp: float
    ) -> FrozenSet[str]:
        endpoints = self._pair_endpoints(location, timestamp)
        if endpoints is None:
            return _EMPTY
        ingress, egress = endpoints
        if ingress == egress:
            return self._expand_router(Location.router(ingress), level, timestamp)
        elements = self.paths.path_elements(ingress, egress, timestamp)
        if elements.empty:
            return _EMPTY
        if level is JoinLevel.ROUTER:
            return elements.routers
        if level is JoinLevel.LOGICAL_LINK:
            return elements.logical_links
        if level is JoinLevel.INTERFACE:
            return elements.interfaces
        if level is JoinLevel.PHYSICAL_LINK:
            return elements.physical_links
        if level is JoinLevel.LAYER1_DEVICE:
            return elements.layer1_devices
        if level is JoinLevel.POP:
            return frozenset(self.network.router(r).pop for r in elements.routers)
        if level is JoinLevel.LINE_CARD:
            return frozenset(
                f"{self.network.interface(fq).router}:slot{self.network.interface(fq).slot}"
                for fq in elements.interfaces
            )
        return _EMPTY


_HANDLERS = {
    LocationType.ROUTER: LocationResolver._expand_router,
    LocationType.INTERFACE: LocationResolver._expand_interface,
    LocationType.LINE_CARD: LocationResolver._expand_line_card,
    LocationType.LOGICAL_LINK: LocationResolver._expand_logical_link,
    LocationType.PHYSICAL_LINK: LocationResolver._expand_physical_link,
    LocationType.LAYER1_DEVICE: LocationResolver._expand_layer1_device,
    LocationType.ROUTER_NEIGHBOR: LocationResolver._expand_router_neighbor,
    LocationType.SERVER: LocationResolver._expand_server,
    LocationType.PREFIX: LocationResolver._expand_prefix,
    LocationType.SOURCE_DESTINATION: LocationResolver._expand_pair,
    LocationType.SOURCE_INGRESS: LocationResolver._expand_pair,
    LocationType.INGRESS_DESTINATION: LocationResolver._expand_pair,
    LocationType.INGRESS_EGRESS: LocationResolver._expand_pair,
    LocationType.EGRESS_DESTINATION: LocationResolver._expand_pair,
}


class BatchSpatialJoin:
    """One rule evaluation's symptom side, expanded once and reused.

    The engine evaluates one spatial rule against *many* candidate
    diagnostic events for the same (symptom, timestamp); re-expanding
    the symptom location per candidate — which for pair locations means
    re-running OSPF/ECMP simulation and BGP emulation — is pure waste.
    A batch join expands the symptom exactly once (lazily, so a rule
    whose candidates all fail the temporal join never pays for it) and
    intersects each candidate's expansion against that one set.

    A tracer, when given, counts one ``location_expansions`` per
    expansion actually performed, so traced diagnoses show the batched
    symptom expansion as a single conversion instead of one per
    candidate (and none at all for candidates after an empty symptom
    expansion).
    """

    __slots__ = (
        "resolver", "level", "timestamp", "trace", "diagnostic_type",
        "_symptom", "_symptom_set",
    )

    def __init__(
        self,
        resolver: LocationResolver,
        level: JoinLevel,
        symptom_location: Location,
        timestamp: float,
        trace=None,
        diagnostic_type: Optional[LocationType] = None,
    ) -> None:
        self.resolver = resolver
        self.level = level
        self.timestamp = timestamp
        self.trace = trace
        #: the location type candidates must have (None: any)
        self.diagnostic_type = diagnostic_type
        self._symptom = symptom_location
        self._symptom_set: Optional[FrozenSet[str]] = None

    def _expand(self, location: Location) -> FrozenSet[str]:
        expanded = self.resolver.expand(
            location, self.level, self.timestamp, trace=self.trace
        )
        if self.trace is not None:
            self.trace.count("location_expansions")
        return expanded

    @property
    def symptom_set(self) -> FrozenSet[str]:
        """The symptom expansion, computed on first use."""
        if self._symptom_set is None:
            self._symptom_set = self._expand(self._symptom)
        return self._symptom_set

    def check_diagnostic(self, diagnostic_location: Location) -> None:
        """Raise unless a candidate has the rule's diagnostic type."""
        expected = self.diagnostic_type
        if expected is not None and diagnostic_location.type is not expected:
            raise ValueError(
                f"diagnostic location is {diagnostic_location.type.value}, "
                f"rule expects {expected.value}"
            )

    def joined(self, diagnostic_location: Location) -> bool:
        """True when a candidate shares a join-level identifier."""
        self.check_diagnostic(diagnostic_location)
        symptom_set = self.symptom_set
        if not symptom_set:
            return False
        return not symptom_set.isdisjoint(self._expand(diagnostic_location))


def location_runs(
    candidates, survivors: List[int]
) -> List[Tuple[Tuple[str, ...], Location, List[int]]]:
    """Per distinct location among a candidate set's ``survivors`` (rows,
    ascending), its rows.

    A contiguous survivor run — what start-anchored batch joins
    produce — is intersected with each location's index list by two
    bisects instead of walking every survivor.
    """
    lo_k, hi_k = survivors[0], survivors[-1]
    runs = []
    if hi_k - lo_k + 1 == len(survivors):
        for parts, (location, idxs) in candidates.location_index.items():
            a = bisect.bisect_left(idxs, lo_k)
            b = bisect.bisect_right(idxs, hi_k, a)
            if a != b:
                runs.append((parts, location, idxs[a:b]))
    else:
        locations = candidates.locations
        rows: Dict[Tuple[str, ...], List[int]] = {}
        for k in survivors:
            rows.setdefault(locations[k].parts, []).append(k)
        for parts, ks in rows.items():
            runs.append((parts, locations[ks[0]], ks))
    return runs


@dataclass(frozen=True)
class SpatialJoinRule:
    """(symptom location type, diagnostic location type, join level)."""

    symptom_type: LocationType
    diagnostic_type: LocationType
    level: JoinLevel

    def describe(self) -> str:
        """Compact identity, e.g. ``router:neighbor-ip~interface@interface``.

        The spatial half of a rule's identity in trace spans
        (:mod:`repro.obs`).
        """
        return (
            f"{self.symptom_type.value}~{self.diagnostic_type.value}"
            f"@{self.level.value}"
        )

    def batch(
        self,
        resolver: LocationResolver,
        symptom_location: Location,
        timestamp: float,
        trace=None,
    ) -> BatchSpatialJoin:
        """A reusable join with the symptom side expanded only once."""
        if symptom_location.type is not self.symptom_type:
            raise ValueError(
                f"symptom location is {symptom_location.type.value}, rule "
                f"expects {self.symptom_type.value}"
            )
        return BatchSpatialJoin(
            resolver, self.level, symptom_location, timestamp, trace,
            self.diagnostic_type,
        )

    def joined(
        self,
        resolver: LocationResolver,
        symptom_location: Location,
        diagnostic_location: Location,
        timestamp: float,
        trace=None,
    ) -> bool:
        """True when the two locations share a join-level identifier.

        ``trace`` (a :class:`repro.obs.Tracer`, optional) receives the
        resolver's ``location_expansions`` and cache hit/miss counters
        on its current span.  One-shot form of :meth:`batch`.
        """
        return self.batch(resolver, symptom_location, timestamp, trace).joined(
            diagnostic_location
        )
