"""Consistency properties of the location resolver.

Containment expansions must form a Galois-style correspondence: if an
interface expands to a router, that router's interface expansion must
contain the interface; cross-layer mappings must invert likewise.  The
join predicate itself must be symmetric at every level.
"""

import pytest

from repro.core.locations import Location, LocationType
from repro.core.spatial import BatchSpatialJoin, JoinLevel

T = 500.0


def all_interfaces(topo):
    return [
        iface.fqname
        for router in topo.network.routers.values()
        for iface in router.interfaces
    ]


class TestContainmentDuality:
    def test_interface_router_duality(self, resolver, small_topology):
        for fq in all_interfaces(small_topology)[:40]:
            loc = Location.interface(fq)
            routers = resolver.expand(loc, JoinLevel.ROUTER, T)
            assert len(routers) == 1
            router = next(iter(routers))
            back = resolver.expand(Location.router(router), JoinLevel.INTERFACE, T)
            assert fq in back

    def test_interface_linecard_duality(self, resolver, small_topology):
        for fq in all_interfaces(small_topology)[:40]:
            loc = Location.interface(fq)
            cards = resolver.expand(loc, JoinLevel.LINE_CARD, T)
            assert len(cards) == 1
            card = next(iter(cards))
            back = resolver.expand(Location.line_card(card), JoinLevel.INTERFACE, T)
            assert fq in back

    def test_logical_physical_duality(self, resolver, small_topology):
        for link in small_topology.network.logical_links.values():
            loc = Location.logical_link(link.name)
            physical = resolver.expand(loc, JoinLevel.PHYSICAL_LINK, T)
            for phys in physical:
                back = resolver.expand(
                    Location.physical_link(phys), JoinLevel.LOGICAL_LINK, T
                )
                assert link.name in back

    def test_layer1_logical_duality(self, resolver, small_topology):
        for device in small_topology.network.layer1_devices:
            loc = Location.layer1_device(device)
            links = resolver.expand(loc, JoinLevel.LOGICAL_LINK, T)
            for link in links:
                back = resolver.expand(
                    Location.logical_link(link), JoinLevel.LAYER1_DEVICE, T
                )
                assert device in back


def joined(resolver, symptom, diagnostic, level):
    return BatchSpatialJoin(resolver, level, symptom, T).joined(diagnostic)


class TestJoinSymmetry:
    @pytest.mark.parametrize(
        "level",
        [JoinLevel.ROUTER, JoinLevel.INTERFACE, JoinLevel.LINE_CARD,
         JoinLevel.POP, JoinLevel.NETWORK],
    )
    def test_joined_is_symmetric(self, resolver, small_topology, level):
        samples = [
            Location.router("nyc-per1"),
            Location.router("chi-cr1"),
            Location.interface(all_interfaces(small_topology)[0]),
            Location.interface(all_interfaces(small_topology)[-1]),
            Location.line_card("nyc-per1:slot0"),
        ]
        for a in samples:
            for b in samples:
                assert joined(resolver, a, b, level) == joined(resolver, b, a, level)

    def test_every_resolvable_location_self_joins(self, resolver, small_topology):
        samples = [
            Location.router("nyc-per1"),
            Location.interface(all_interfaces(small_topology)[0]),
            Location.line_card("nyc-per1:slot0"),
            Location.logical_link(sorted(small_topology.network.logical_links)[0]),
        ]
        for loc in samples:
            assert joined(resolver, loc, loc, JoinLevel.ROUTER) or joined(
                resolver, loc, loc, JoinLevel.LOGICAL_LINK
            )


class TestPathExpansionConsistency:
    def test_path_interfaces_belong_to_path_routers(self, resolver):
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "dfw-per1")
        routers = resolver.expand(pair, JoinLevel.ROUTER, T)
        interfaces = resolver.expand(pair, JoinLevel.INTERFACE, T)
        for fq in interfaces:
            assert fq.partition(":")[0] in routers

    def test_path_links_connect_path_routers(self, resolver, small_topology):
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "dfw-per1")
        routers = resolver.expand(pair, JoinLevel.ROUTER, T)
        links = resolver.expand(pair, JoinLevel.LOGICAL_LINK, T)
        for name in links:
            link = small_topology.network.logical_link(name)
            assert link.router_a in routers
            assert link.router_z in routers

    def test_pop_expansion_covers_endpoints(self, resolver):
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "dfw-per1")
        pops = resolver.expand(pair, JoinLevel.POP, T)
        assert {"nyc", "dfw"} <= pops

    def test_expansion_is_deterministic(self, resolver):
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per2")
        assert resolver.expand(pair, JoinLevel.ROUTER, T) == resolver.expand(
            pair, JoinLevel.ROUTER, T
        )
