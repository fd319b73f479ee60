"""Topology container with the lookups the spatial model needs.

The :class:`Network` holds the full inventory of elements and provides
the cross-layer conversions described in Section II-B of the paper:

* interface -> owning router, line card, attached logical link;
* logical link -> physical links -> layer-1 devices (via the layer-1
  inventory);
* /30 subnet -> logical link and its two routers;
* router -> line cards -> interfaces (containment parsed from configs).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .elements import (
    CdnServer,
    Interface,
    Layer1Device,
    LineCard,
    LogicalLink,
    PhysicalLink,
    Pop,
    Router,
    RouterRole,
)


class TopologyError(KeyError):
    """Raised when a lookup references an element the topology lacks."""


class Network:
    """Inventory of routers, links and layer-1 devices with fast lookups."""

    def __init__(self) -> None:
        self.pops: Dict[str, Pop] = {}
        self.routers: Dict[str, Router] = {}
        self.logical_links: Dict[str, LogicalLink] = {}
        self.physical_links: Dict[str, PhysicalLink] = {}
        self.layer1_devices: Dict[str, Layer1Device] = {}
        self.cdn_servers: Dict[str, CdnServer] = {}
        # physical link name -> ordered layer-1 devices it traverses
        self._layer1_path: Dict[str, Tuple[str, ...]] = {}
        # "router:interface" -> logical link name
        self._link_by_interface: Dict[str, str] = {}
        # subnet string -> logical link name
        self._link_by_subnet: Dict[str, str] = {}
        # "router:interface" -> physical link names attached
        self._phys_by_interface: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction

    def add_pop(self, pop: Pop) -> None:
        """Register a PoP."""
        self.pops[pop.name] = pop

    def add_router(self, router: Router) -> None:
        """Register a router (its PoP must already exist)."""
        if router.pop not in self.pops:
            raise TopologyError(f"unknown PoP {router.pop!r} for router {router.name!r}")
        self.routers[router.name] = router

    def add_layer1_device(self, device: Layer1Device) -> None:
        """Register a layer-1 transport device."""
        self.layer1_devices[device.name] = device

    def add_physical_link(
        self, link: PhysicalLink, layer1_path: Iterable[str] = ()
    ) -> None:
        """Register a physical circuit and the layer-1 devices it rides."""
        path = tuple(layer1_path)
        for device in path:
            if device not in self.layer1_devices:
                raise TopologyError(f"unknown layer-1 device {device!r}")
        self.physical_links[link.name] = link
        self._layer1_path[link.name] = path
        for endpoint in link.endpoints:
            self._phys_by_interface.setdefault(endpoint, []).append(link.name)

    def add_logical_link(self, link: LogicalLink) -> None:
        """Register a logical link and index its endpoints."""
        for router in link.routers:
            if router not in self.routers:
                raise TopologyError(f"unknown router {router!r} for link {link.name!r}")
        for phys in link.physical_links:
            if phys not in self.physical_links:
                raise TopologyError(f"unknown physical link {phys!r} for {link.name!r}")
        self.logical_links[link.name] = link
        self._link_by_interface[link.interface_a] = link.name
        self._link_by_interface[link.interface_z] = link.name
        if link.subnet:
            self._link_by_subnet[link.subnet] = link.name

    def add_cdn_server(self, server: CdnServer) -> None:
        """Register a CDN server behind its attachment router."""
        if server.attached_router not in self.routers:
            raise TopologyError(
                f"unknown router {server.attached_router!r} for CDN server {server.name!r}"
            )
        self.cdn_servers[server.name] = server

    # ------------------------------------------------------------------
    # element lookups

    def router(self, name: str) -> Router:
        """Look up a router by name."""
        try:
            return self.routers[name]
        except KeyError:
            raise TopologyError(f"unknown router {name!r}") from None

    def interface(self, fqname: str) -> Interface:
        """Resolve a fully qualified ``router:interface`` identifier."""
        router_name, _, if_name = fqname.partition(":")
        router = self.router(router_name)
        try:
            return router.interface(if_name)
        except KeyError:
            raise TopologyError(f"unknown interface {fqname!r}") from None

    def line_card(self, fqname: str) -> LineCard:
        """Resolve ``router:slotN`` to a line card."""
        router_name, _, slot_part = fqname.partition(":")
        router = self.router(router_name)
        if not slot_part.startswith("slot"):
            raise TopologyError(f"bad line-card identifier {fqname!r}")
        slot = int(slot_part[len("slot"):])
        for card in router.line_cards:
            if card.slot == slot:
                return card
        raise TopologyError(f"unknown line card {fqname!r}")

    def logical_link(self, name: str) -> LogicalLink:
        """Look up a logical link by name."""
        try:
            return self.logical_links[name]
        except KeyError:
            raise TopologyError(f"unknown logical link {name!r}") from None

    def physical_link(self, name: str) -> PhysicalLink:
        """Look up a physical circuit by name."""
        try:
            return self.physical_links[name]
        except KeyError:
            raise TopologyError(f"unknown physical link {name!r}") from None

    # ------------------------------------------------------------------
    # cross-layer conversions (Section II-B)

    def link_of_interface(self, fqname: str) -> Optional[LogicalLink]:
        """The logical link attached to an interface, if any.

        Customer-facing interfaces have no in-network logical link and
        yield ``None``.
        """
        name = self._link_by_interface.get(fqname)
        return self.logical_links[name] if name else None

    def link_by_subnet(self, subnet: str) -> Optional[LogicalLink]:
        """Associate a /30 subnet with its point-to-point logical link."""
        name = self._link_by_subnet.get(subnet)
        return self.logical_links[name] if name else None

    def physical_links_of_interface(self, fqname: str) -> List[PhysicalLink]:
        """Physical circuits terminating on an interface.

        Unlike :meth:`link_of_interface`, this also covers access
        circuits (customer attachments) that carry no OSPF logical link.
        """
        return [
            self.physical_links[name]
            for name in self._phys_by_interface.get(fqname, [])
        ]

    def layer1_path(self, physical_link: str) -> Tuple[str, ...]:
        """Layer-1 devices traversed by a physical circuit."""
        if physical_link not in self.physical_links:
            raise TopologyError(f"unknown physical link {physical_link!r}")
        return self._layer1_path.get(physical_link, ())

    def layer1_devices_of_logical(self, logical_link: str) -> Tuple[str, ...]:
        """All layer-1 devices under any physical member of a logical link."""
        link = self.logical_link(logical_link)
        devices: List[str] = []
        for phys in link.physical_links:
            for device in self.layer1_path(phys):
                if device not in devices:
                    devices.append(device)
        return tuple(devices)

    def physical_links_riding(self, layer1_device: str) -> List[PhysicalLink]:
        """Physical circuits that traverse a given layer-1 device."""
        return [
            self.physical_links[name]
            for name, path in self._layer1_path.items()
            if layer1_device in path
        ]

    def logical_links_riding(self, layer1_device: str) -> List[LogicalLink]:
        """Logical links whose physical members traverse a layer-1 device."""
        riding = {link.name for link in self.physical_links_riding(layer1_device)}
        return [
            link
            for link in self.logical_links.values()
            if any(phys in riding for phys in link.physical_links)
        ]

    def logical_links_of_router(self, router: str) -> List[LogicalLink]:
        """All logical links with the router as an endpoint."""
        return [
            link for link in self.logical_links.values() if router in link.routers
        ]

    def routers_by_role(self, role: RouterRole) -> List[Router]:
        """All routers with a given role."""
        return [r for r in self.routers.values() if r.role is role]

    def uplinks_of(self, per_router: str) -> List[LogicalLink]:
        """Uplinks of an edge router: its links towards core routers."""
        uplinks = []
        for link in self.logical_links_of_router(per_router):
            other = link.other_router(per_router)
            if self.router(other).role is RouterRole.CORE:
                uplinks.append(link)
        return uplinks

    def pop_of(self, router: str) -> Pop:
        """The PoP a router lives in."""
        return self.pops[self.router(router).pop]

    def validate(self) -> None:
        """Check referential integrity of the whole inventory."""
        for link in self.logical_links.values():
            self.interface(link.interface_a)
            self.interface(link.interface_z)
        for link in self.physical_links.values():
            self.interface(link.interface_a)
            self.interface(link.interface_z)
        for router in self.routers.values():
            slots = {card.slot for card in router.line_cards}
            for iface in router.interfaces:
                if iface.slot not in slots:
                    raise TopologyError(
                        f"interface {iface.fqname!r} references missing slot "
                        f"{iface.slot} on {router.name!r}"
                    )
