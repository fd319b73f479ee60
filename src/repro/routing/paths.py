"""Path service: the conversion utilities of Section II-B in one place.

Given the topology, the OSPF weight history, the BGP reflector feed and
the config archive, this service answers the questions the spatial model
asks:

* which ingress router does an external source enter at (NetFlow-style
  mapping, item 1);
* which egress router serves a destination at time *t* (BGP emulation,
  item 1);
* which routers / logical links / physical links / layer-1 devices lie
  on the ingress->egress path at time *t* (OSPF simulation with ECMP,
  items 3-7);
* which interface faces a given BGP neighbor IP (config lookup, item 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from ..topology.config_parser import ConfigArchive
from ..topology.network import Network
from .bgp import BgpEmulator
from .ospf import OspfSimulator


class IngressMap:
    """Maps external traffic sources to their ingress routers.

    The paper derives this from traffic sampling (NetFlow) or, for
    sources the ISP controls (data centers), from configuration.  Both
    reduce to a source-identifier -> ingress-router table that this class
    maintains; the simulator populates it from synthetic NetFlow records.
    """

    def __init__(self) -> None:
        self._by_source: Dict[str, str] = {}
        #: bumped on every mutation; spatial resolution caches key on it
        self.version = 0

    def learn(self, source: str, ingress_router: str) -> None:
        """Record that a source enters the network at an ingress router."""
        if self._by_source.get(source) != ingress_router:
            self._by_source[source] = ingress_router
            self.version += 1

    def ingress_for(self, source: str) -> Optional[str]:
        """The learned ingress router for a source, or None."""
        return self._by_source.get(source)

    def __len__(self) -> int:
        return len(self._by_source)


@dataclass(frozen=True)
class PathElements:
    """Every network element on an ingress->egress path at one instant."""

    routers: FrozenSet[str]
    logical_links: FrozenSet[str]
    interfaces: FrozenSet[str]
    physical_links: FrozenSet[str]
    layer1_devices: FrozenSet[str]

    @property
    def empty(self) -> bool:
        return not self.routers


_EMPTY_PATH = PathElements(
    frozenset(), frozenset(), frozenset(), frozenset(), frozenset()
)


class PathService:
    """One-stop spatial conversions over routing + topology + configs."""

    def __init__(
        self,
        network: Network,
        ospf: OspfSimulator,
        bgp: Optional[BgpEmulator] = None,
        configs: Optional[ConfigArchive] = None,
        ingress_map: Optional[IngressMap] = None,
    ) -> None:
        self.network = network
        self.ospf = ospf
        self.bgp = bgp
        self.configs = configs
        self.ingress_map = ingress_map or IngressMap()

    # ------------------------------------------------------------------
    # endpoint resolution

    def ingress_for_source(self, source: str) -> Optional[str]:
        """Ingress router for an external source (NetFlow map)."""
        return self.ingress_map.ingress_for(source)

    def egress_for_destination(
        self, ingress_router: str, dest_ip: str, timestamp: float
    ) -> Optional[str]:
        """Best egress for a destination IP via BGP emulation."""
        if self.bgp is None:
            return None
        return self.bgp.best_egress(ingress_router, dest_ip, timestamp).egress_router

    def interface_for_neighbor(
        self, router: str, neighbor_ip: str, timestamp: float
    ) -> Optional[str]:
        """``Router:NeighborIP -> Interface`` via the config archive."""
        if self.configs is None:
            return None
        parsed = self.configs.config_at(router, timestamp)
        if parsed is None:
            return None
        if_name = parsed.neighbor_interface(neighbor_ip)
        return f"{router}:{if_name}" if if_name else None

    # ------------------------------------------------------------------
    # path expansion

    def path_elements(self, ingress: str, egress: str, timestamp: float) -> PathElements:
        """All elements on all equal-cost paths between two routers."""
        paths = self.ospf.paths(ingress, egress, timestamp)
        if not paths.reachable:
            return _EMPTY_PATH
        routers: Set[str] = set(paths.routers)
        links: Set[str] = set(paths.links)
        interfaces: Set[str] = set()
        physical: Set[str] = set()
        layer1: Set[str] = set()
        for link_name in links:
            link = self.network.logical_link(link_name)
            interfaces.add(link.interface_a)
            interfaces.add(link.interface_z)
            for phys in link.physical_links:
                physical.add(phys)
                layer1.update(self.network.layer1_path(phys))
        return PathElements(
            routers=frozenset(routers),
            logical_links=frozenset(links),
            interfaces=frozenset(interfaces),
            physical_links=frozenset(physical),
            layer1_devices=frozenset(layer1),
        )
