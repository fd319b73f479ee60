"""Synthetic tier-1 ISP topology generator.

The paper evaluates G-RCA on a production tier-1 ISP backbone (600+
provider edge routers).  That topology is proprietary, so this builder
generates a structurally equivalent network:

* ``n_pops`` PoPs, each with two core (backbone) routers for redundancy;
* a partial mesh of inter-PoP backbone links between core routers, whose
  physical circuits ride SONET rings or an optical mesh (layer-1 devices
  that can perform restoration events);
* ``pers_per_pop`` provider edge routers per PoP, dual-homed to the two
  local cores via uplinks;
* ``customers_per_per`` customer routers per PER, each attached over a
  customer-facing interface with an eBGP session (outside the provider's
  trust domain, exactly the Section III-A setting);
* optional peering routers and CDN data centers on selected PoPs.

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .elements import (
    CdnServer,
    Interface,
    Layer1Device,
    Layer1Kind,
    LineCard,
    LogicalLink,
    PhysicalLink,
    Pop,
    Router,
    RouterRole,
)
from .network import Network

#: US-city style PoP names; cycled with numeric suffixes past the end.
_POP_NAMES = [
    "nyc", "chi", "dfw", "lax", "sea", "atl", "den", "mia",
    "bos", "phl", "stl", "phx", "msp", "slc", "iad", "sjc",
]

_TIMEZONES = {
    "nyc": "US/Eastern", "bos": "US/Eastern", "phl": "US/Eastern",
    "atl": "US/Eastern", "mia": "US/Eastern", "iad": "US/Eastern",
    "chi": "US/Central", "dfw": "US/Central", "stl": "US/Central",
    "msp": "US/Central",
    "den": "US/Mountain", "slc": "US/Mountain", "phx": "US/Mountain",
    "lax": "US/Pacific", "sea": "US/Pacific", "sjc": "US/Pacific",
}

#: Interfaces per line card in generated routers.
PORTS_PER_CARD = 4


@dataclass
class TopologyParams:
    """Knobs for the synthetic topology.

    The defaults give a small network suitable for unit tests; the
    benchmark scenarios scale ``n_pops``/``pers_per_pop``/
    ``customers_per_per`` up to approximate the paper's setting.
    """

    n_pops: int = 4
    pers_per_pop: int = 2
    customers_per_per: int = 4
    backbone_degree: int = 3  # inter-PoP neighbors per PoP (partial mesh)
    cdn_pops: Tuple[str, ...] = ()  # PoPs that host a CDN data center
    cdn_servers_per_dc: int = 4
    peering_pops: Tuple[str, ...] = ()  # PoPs with a peering router
    #: fraction of customer access circuits riding a local SONET ring /
    #: optical mesh (restorable layer-1), per PoP
    access_sonet_fraction: float = 0.15
    access_mesh_fraction: float = 0.10
    #: SONET backbone links get a second physical circuit (SONET APS
    #: protection pair — Section II-B item 5's one-logical-to-many-
    #: physical mapping)
    aps_protect_sonet: bool = True
    seed: int = 42


@dataclass
class BuiltTopology:
    """The generated network plus bookkeeping the simulator needs."""

    network: Network
    params: TopologyParams
    #: customer router name -> (per router, per-side customer-facing
    #: interface fqname, customer neighbor ip)
    customer_attachments: Dict[str, Tuple[str, str, str]] = field(default_factory=dict)
    #: per PoP: names of the two core routers
    cores_by_pop: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: route reflector router names
    route_reflectors: List[str] = field(default_factory=list)
    #: peering router -> neighbor ISP name
    peers: Dict[str, str] = field(default_factory=dict)
    #: customer router -> access layer-1 device its circuit rides, if any
    customer_layer1: Dict[str, str] = field(default_factory=dict)

    @property
    def provider_edges(self) -> List[str]:
        return [r.name for r in self.network.routers_by_role(RouterRole.PROVIDER_EDGE)]

    @property
    def customer_routers(self) -> List[str]:
        return [r.name for r in self.network.routers_by_role(RouterRole.CUSTOMER)]


class _AddressPool:
    """Hands out /30 subnets and loopback addresses deterministically."""

    def __init__(self) -> None:
        self._next_p2p = 0
        self._next_loopback = 0

    def next_p2p(self) -> Tuple[str, str, str]:
        """Return (subnet, address_a, address_z) for a point-to-point link."""
        block = self._next_p2p
        self._next_p2p += 1
        octet2, rest = divmod(block * 4, 65536)
        octet3, octet4 = divmod(rest, 256)
        base = f"10.{octet2}.{octet3}.{octet4}"
        return (
            f"{base}/30",
            f"10.{octet2}.{octet3}.{octet4 + 1}",
            f"10.{octet2}.{octet3}.{octet4 + 2}",
        )

    def next_loopback(self) -> str:
        index = self._next_loopback
        self._next_loopback += 1
        octet3, octet4 = divmod(index, 256)
        return f"192.168.{octet3}.{octet4}"


def _pop_name(index: int) -> str:
    base = _POP_NAMES[index % len(_POP_NAMES)]
    if index < len(_POP_NAMES):
        return base
    return f"{base}{index // len(_POP_NAMES) + 1}"


class TopologyBuilder:
    """Builds a :class:`BuiltTopology` from :class:`TopologyParams`."""

    def __init__(self, params: Optional[TopologyParams] = None) -> None:
        self.params = params or TopologyParams()
        self._rng = random.Random(self.params.seed)
        self._pool = _AddressPool()
        self._network = Network()
        self._built = BuiltTopology(network=self._network, params=self.params)
        self._if_counter: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def build(self) -> BuiltTopology:
        """Generate the full topology per the configured parameters."""
        pops = [_pop_name(i) for i in range(self.params.n_pops)]
        for pop in pops:
            tz = _TIMEZONES.get(pop.rstrip("0123456789"), "UTC")
            self._network.add_pop(Pop(name=pop, city=pop.upper(), timezone=tz))
        for pop in pops:
            self._build_pop(pop)
        self._build_backbone(pops)
        self._build_route_reflectors(pops)
        for pop in self.params.peering_pops:
            if pop in self._network.pops:
                self._build_peering(pop)
        for pop in self.params.cdn_pops:
            if pop in self._network.pops:
                self._build_cdn(pop)
        self._network.validate()
        return self._built

    # ------------------------------------------------------------------

    def _new_router(self, name: str, role: RouterRole, pop: str, n_cards: int) -> Router:
        router = Router(
            name=name,
            role=role,
            pop=pop,
            loopback=self._pool.next_loopback(),
            timezone=self._network.pops[pop].timezone,
        )
        router.line_cards = [
            LineCard(router=name, slot=slot) for slot in range(n_cards)
        ]
        self._if_counter[name] = 0
        self._network.add_router(router)
        return router

    def _new_interface(
        self, router: Router, ip_address: Optional[str] = None, description: str = ""
    ) -> Interface:
        index = self._if_counter[router.name]
        self._if_counter[router.name] = index + 1
        slot = index // PORTS_PER_CARD
        port = index % PORTS_PER_CARD
        if slot >= len(router.line_cards):
            router.line_cards.append(LineCard(router=router.name, slot=slot))
        iface = Interface(
            router=router.name,
            name=f"se{slot}/{port}",
            slot=slot,
            ip_address=ip_address,
            description=description,
        )
        router.interfaces.append(iface)
        return iface

    def _connect(
        self,
        router_a: Router,
        router_z: Router,
        layer1_kind: Layer1Kind,
        layer1_path: Tuple[str, ...] = (),
        n_physical: int = 1,
        description: str = "",
    ) -> LogicalLink:
        """Create a logical link (and its physical members) between routers."""
        subnet, addr_a, addr_z = self._pool.next_p2p()
        iface_a = self._new_interface(router_a, addr_a, description)
        iface_z = self._new_interface(router_z, addr_z, description)
        link_name = f"{router_a.name}--{router_z.name}:{subnet.split('/')[0]}"
        physical_names = []
        for member in range(n_physical):
            phys = PhysicalLink(
                name=f"c-{router_a.name}-{router_z.name}-{subnet.split('/')[0]}-{member}",
                interface_a=iface_a.fqname,
                interface_z=iface_z.fqname,
                layer1_kind=layer1_kind,
            )
            self._network.add_physical_link(phys, layer1_path)
            physical_names.append(phys.name)
        link = LogicalLink(
            name=link_name,
            router_a=router_a.name,
            router_z=router_z.name,
            interface_a=iface_a.fqname,
            interface_z=iface_z.fqname,
            physical_links=tuple(physical_names),
            subnet=subnet,
        )
        self._network.add_logical_link(link)
        return link

    # ------------------------------------------------------------------

    def _build_pop(self, pop: str) -> None:
        core1 = self._new_router(f"{pop}-cr1", RouterRole.CORE, pop, n_cards=4)
        core2 = self._new_router(f"{pop}-cr2", RouterRole.CORE, pop, n_cards=4)
        self._built.cores_by_pop[pop] = (core1.name, core2.name)
        # access layer-1 devices some customer circuits ride
        self._network.add_layer1_device(
            Layer1Device(f"adm-{pop}-acc", Layer1Kind.SONET, pop)
        )
        self._network.add_layer1_device(
            Layer1Device(f"omx-{pop}-acc", Layer1Kind.OPTICAL_MESH, pop)
        )
        # intra-PoP core interconnect rides direct fiber
        self._connect(core1, core2, Layer1Kind.ETHERNET, description="intra-pop")
        for per_index in range(1, self.params.pers_per_pop + 1):
            per = self._new_router(
                f"{pop}-per{per_index}", RouterRole.PROVIDER_EDGE, pop, n_cards=3
            )
            # dual-homed uplinks to both local cores
            self._connect(per, core1, Layer1Kind.ETHERNET, description="uplink")
            self._connect(per, core2, Layer1Kind.ETHERNET, description="uplink")
            self._attach_customers(pop, per)

    def _attach_customers(self, pop: str, per: Router) -> None:
        for cust_index in range(1, self.params.customers_per_per + 1):
            customer = self._new_router(
                f"{pop}-{per.name.split('-')[-1]}-cust{cust_index}",
                RouterRole.CUSTOMER,
                pop,
                n_cards=1,
            )
            subnet, addr_per, addr_cust = self._pool.next_p2p()
            per_iface = self._new_interface(per, addr_per, description="customer")
            cust_iface = self._new_interface(customer, addr_cust, description="to-provider")
            roll = self._rng.random()
            if roll < self.params.access_sonet_fraction:
                kind, layer1_path = Layer1Kind.SONET, (f"adm-{pop}-acc",)
            elif roll < self.params.access_sonet_fraction + self.params.access_mesh_fraction:
                kind, layer1_path = Layer1Kind.OPTICAL_MESH, (f"omx-{pop}-acc",)
            else:
                kind, layer1_path = Layer1Kind.ETHERNET, ()
            phys = PhysicalLink(
                name=f"c-{per.name}-{customer.name}",
                interface_a=per_iface.fqname,
                interface_z=cust_iface.fqname,
                layer1_kind=kind,
            )
            self._network.add_physical_link(phys, layer1_path)
            if layer1_path:
                self._built.customer_layer1[customer.name] = layer1_path[0]
            # Customer attachments are access circuits, not OSPF links, so
            # they are tracked separately from the logical-link table.
            self._built.customer_attachments[customer.name] = (
                per.name,
                per_iface.fqname,
                addr_cust,
            )

    def _build_backbone(self, pops: List[str]) -> None:
        """Partial mesh between PoPs; circuits ride SONET/optical layer-1."""
        n = len(pops)
        connected = set()

        def link_pops(pop_a: str, pop_b: str) -> None:
            key = tuple(sorted((pop_a, pop_b)))
            if key in connected or pop_a == pop_b:
                return
            connected.add(key)
            kind = (
                Layer1Kind.SONET
                if self._rng.random() < 0.5
                else Layer1Kind.OPTICAL_MESH
            )
            prefix = "adm" if kind is Layer1Kind.SONET else "omx"
            device_a = Layer1Device(f"{prefix}-{pop_a}-{pop_b}-1", kind, pop_a)
            device_b = Layer1Device(f"{prefix}-{pop_a}-{pop_b}-2", kind, pop_b)
            self._network.add_layer1_device(device_a)
            self._network.add_layer1_device(device_b)
            n_physical = (
                2
                if kind is Layer1Kind.SONET and self.params.aps_protect_sonet
                else 1
            )
            core_a = self._network.router(self._built.cores_by_pop[pop_a][0])
            core_z = self._network.router(self._built.cores_by_pop[pop_b][0])
            self._connect(
                core_a,
                core_z,
                kind,
                layer1_path=(device_a.name, device_b.name),
                n_physical=n_physical,
                description="backbone",
            )
            # redundant circuit between the second cores, same layer-1 pair
            core_a2 = self._network.router(self._built.cores_by_pop[pop_a][1])
            core_z2 = self._network.router(self._built.cores_by_pop[pop_b][1])
            self._connect(
                core_a2,
                core_z2,
                kind,
                layer1_path=(device_a.name, device_b.name),
                n_physical=n_physical,
                description="backbone",
            )

        # ring for guaranteed connectivity, then random chords
        for i in range(n):
            link_pops(pops[i], pops[(i + 1) % n])
        extra = max(0, self.params.backbone_degree - 2)
        for pop in pops:
            others = [p for p in pops if p != pop]
            self._rng.shuffle(others)
            for target in others[:extra]:
                link_pops(pop, target)

    def _build_route_reflectors(self, pops: List[str]) -> None:
        """Two route reflectors in the first two PoPs (or one PoP if tiny)."""
        rr_pops = pops[:2] if len(pops) >= 2 else pops
        for index, pop in enumerate(rr_pops, start=1):
            rr = self._new_router(f"rr{index}", RouterRole.ROUTE_REFLECTOR, pop, n_cards=1)
            core = self._network.router(self._built.cores_by_pop[pop][0])
            self._connect(rr, core, Layer1Kind.ETHERNET, description="rr-attach")
            self._built.route_reflectors.append(rr.name)

    def _build_peering(self, pop: str) -> None:
        peer = self._new_router(f"{pop}-peer1", RouterRole.PEER, pop, n_cards=2)
        for core_name in self._built.cores_by_pop[pop]:
            core = self._network.router(core_name)
            self._connect(peer, core, Layer1Kind.ETHERNET, description="peer-uplink")
        self._built.peers[peer.name] = f"isp-{pop}"

    def _build_cdn(self, pop: str) -> None:
        dc = f"dc-{pop}"
        per_name = f"{pop}-per1"
        if per_name not in self._network.routers:
            return
        for index in range(1, self.params.cdn_servers_per_dc + 1):
            self._network.add_cdn_server(
                CdnServer(
                    name=f"{dc}-srv{index}",
                    data_center=dc,
                    pop=pop,
                    attached_router=per_name,
                )
            )


def build_topology(params: Optional[TopologyParams] = None) -> BuiltTopology:
    """Convenience wrapper: ``TopologyBuilder(params).build()``."""
    return TopologyBuilder(params).build()
