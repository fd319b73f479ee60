"""Platform assembly: wire G-RCA from a topology plus collected data.

The deployed system builds its service-dependency state purely from
*proactively collected* feeds (Section I): OSPF paths from the route
monitor, BGP egresses from the reflector feed, containment from config
snapshots, source-to-ingress mappings from NetFlow.  This module does
the same wiring from the Data Collector's store, producing the
:class:`GrcaPlatform` bundle every RCA application starts from.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .collector import DataCollector
from .collector.sources.bgpmon import update_log_from_store
from .collector.sources.ospfmon import weight_history_from_store
from .core.knowledge import KnowledgeLibrary
from .core.knowledge.cost_changes import CostChangeIndex
from .core.spatial import LocationResolver
from .routing.bgp import BgpEmulator
from .routing.ospf import OspfSimulator
from .routing.paths import IngressMap, PathService
from .topology.builder import BuiltTopology
from .topology.config_parser import ConfigArchive, snapshot_network


def _incident_wiring(
    incidents: Any, incident_gap: float, service_options: Dict[str, Any]
):
    """``(store, aggregator)`` for ``serve``/``serve_sharded(incidents=)``.

    ``(None, None)`` when incident tracking is off; otherwise the
    aggregator's ``observe`` becomes the default ``incident_sink``
    service option, so every diagnosis the workers produce is folded in.
    """
    if not incidents:
        return None, None
    from .incident import IncidentAggregator, IncidentStore

    store = incidents if isinstance(incidents, IncidentStore) else IncidentStore()
    aggregator = IncidentAggregator(gap_seconds=incident_gap, sink=store.record)
    service_options.setdefault("incident_sink", aggregator.observe)
    return store, aggregator


@dataclass
class GrcaPlatform:
    """Everything an RCA application needs, wired together."""

    topology: BuiltTopology
    collector: DataCollector
    paths: PathService
    resolver: LocationResolver
    knowledge: KnowledgeLibrary
    #: substrate handles passed into retrieval contexts
    services: Dict[str, Any] = field(default_factory=dict)

    @property
    def store(self):
        return self.collector.store

    @property
    def health(self):
        """The collector's feed-health registry (for engine configs)."""
        return self.collector.health

    def serve(
        self,
        apps: Dict[str, Any],
        workers: int = 4,
        start: bool = True,
        incidents: Any = False,
        incident_gap: float = 3600.0,
        **service_options: Any,
    ):
        """Wrap this platform in a running :class:`RcaService`.

        ``apps`` maps service names to built application objects (e.g.
        ``{"bgp_flaps": BgpFlapApp.build(platform)}``).  Extra keyword
        options go to the :class:`~repro.service.RcaService`
        constructor (queue depth, cache capacity, metrics, clock).

        ``incidents=True`` attaches incident tracking: every diagnosis
        the workers produce is folded live into an
        :class:`~repro.incident.IncidentAggregator` (dedupe window
        ``incident_gap`` seconds) persisting to an
        :class:`~repro.incident.IncidentStore` exposed as
        ``service.incidents``.  Pass an ``IncidentStore`` instead of
        ``True`` to choose the backing store (e.g.
        ``IncidentStore.sqlite(directory)`` for durability).
        """
        from .service import RcaService  # local import: service is optional wiring

        incident_store, aggregator = _incident_wiring(
            incidents, incident_gap, service_options
        )
        service = RcaService(
            store=self.store, health=self.health, workers=workers, **service_options
        )
        service.incidents = incident_store
        service.incident_aggregator = aggregator
        for name, app in apps.items():
            service.register_app(name, app)
        if start:
            service.start()
        return service

    def serve_sharded(
        self,
        apps: Dict[str, Any],
        shards: int = 2,
        workers: int = 2,
        start: bool = True,
        incidents: Any = False,
        incident_gap: float = 3600.0,
        **service_options: Any,
    ):
        """Wrap this platform in a :class:`~repro.service.http.ShardRouter`.

        Builds ``shards`` independent :class:`~repro.service.RcaService`
        instances (each with its own ``workers``-thread pool) over this
        platform's shared store and health registry, registers every app
        on all of them, and returns the router.  Hand it to
        :class:`~repro.service.http.RcaGateway` for the HTTP front end.

        ``incidents=True`` (or an :class:`~repro.incident.IncidentStore`)
        wires **one** shared aggregator + store across every shard's
        ``incident_sink`` — incidents dedupe platform-wide, not per
        shard — exposed as ``router.incidents`` and served by the
        gateway's ``GET /v1/incidents`` routes.
        """
        from .service.http import ShardRouter, build_shards

        incident_store, aggregator = _incident_wiring(
            incidents, incident_gap, service_options
        )
        router = ShardRouter(
            build_shards(
                self.store,
                health=self.health,
                shards=shards,
                workers=workers,
                **service_options,
            )
        )
        router.incidents = incident_store
        router.incident_aggregator = aggregator
        for name, app in apps.items():
            router.register_app(name, app)
        if start:
            router.start()
        return router

    def refresh_routing(self) -> None:
        """Rebuild routing state from the (grown) store.

        Streaming ingestion appends to the OSPFMon / BGP-monitor /
        NetFlow tables after the platform was wired; this re-derives the
        weight history, the BGP update log and the ingress map so
        subsequent spatial expansions see the new state.
        """
        history = weight_history_from_store(self.store)
        self.paths.ospf.replace_history(history)
        self.services["weight_history"] = self.paths.ospf.history
        if self.paths.bgp is not None:
            log = update_log_from_store(self.store)
            self.paths.bgp.replace_log(log)
            self.services["bgp_log"] = log
        for record in self.store.table("netflow").scan():
            self.paths.ingress_map.learn(record["source"], record["ingress_router"])

    @classmethod
    def from_collector(
        cls,
        topology: BuiltTopology,
        collector: DataCollector,
        config_time: float = 0.0,
        configs: Optional[ConfigArchive] = None,
        knowledge: Optional[KnowledgeLibrary] = None,
    ) -> "GrcaPlatform":
        """Reconstruct routing/config state from the collected feeds."""
        store = collector.store
        history = weight_history_from_store(store)
        ospf = OspfSimulator(topology.network, history)
        bgp_log = update_log_from_store(store)
        bgp = BgpEmulator(bgp_log, ospf)
        if configs is None:
            configs = snapshot_network(topology, config_time)
        ingress_map = IngressMap()
        for record in store.table("netflow").scan():
            ingress_map.learn(record["source"], record["ingress_router"])
        for server in topology.network.cdn_servers.values():
            ingress_map.learn(server.name, server.attached_router)
        paths = PathService(
            network=topology.network,
            ospf=ospf,
            bgp=bgp,
            configs=configs,
            ingress_map=ingress_map,
        )
        resolver = LocationResolver(paths)
        loopbacks = {
            router.loopback: router.name
            for router in topology.network.routers.values()
            if router.loopback
        }
        services = {
            "network": topology.network,
            "weight_history": ospf.history,
            # classifies against whichever history is wired above when
            # it is asked, so it follows refresh_routing() by itself
            "cost_changes": CostChangeIndex(),
            "bgp_log": bgp_log,
            "loopbacks": loopbacks,
            "paths": paths,
        }
        platform = cls(
            topology=topology,
            collector=collector,
            paths=paths,
            resolver=resolver,
            knowledge=knowledge or KnowledgeLibrary(),
            services=services,
        )
        # what exists now — topology, routing state, a bulk-loaded store
        # — is what every diagnosis reads and nothing frees: move it out
        # of the collector's sight until the platform is dropped
        # (StreamingRca.close and RcaService.shutdown hand it back too)
        gc.freeze()
        weakref.finalize(platform, gc.unfreeze)
        return platform
