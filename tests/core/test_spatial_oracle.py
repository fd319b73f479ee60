"""Property test: the epoch-keyed resolution cache is semantically invisible.

A cached :class:`LocationResolver` and the uncached
:class:`~tests.oracles.resolver.ReferenceResolver` (the oracle) share
one :class:`PathService` and must return identical expansions for every
(location, level, timestamp) — before, between and after arbitrary
interleaved routing-state mutations (OSPF weight floods, BGP
announces/withdrawals, ingress-map learning, including out-of-order
records that renumber history versions).
"""

from hypothesis import given, settings, strategies as st

from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, LocationResolver
from repro.routing.bgp import BgpEmulator, BgpUpdateLog
from repro.routing.ospf import OspfSimulator, WeightChange
from repro.routing.paths import IngressMap, PathService

from ..oracles.resolver import ReferenceResolver

PREFIXES = ["198.51.100.0/24", "198.51.0.0/16", "203.0.113.0/24"]
DEST_IPS = ["198.51.100.9", "198.51.7.9", "203.0.113.77", "8.8.8.8"]
LEVELS = [
    JoinLevel.ROUTER,
    JoinLevel.LOGICAL_LINK,
    JoinLevel.INTERFACE,
    JoinLevel.POP,
]
WEIGHTS = [10, 99, 65535]
TIMES = st.integers(min_value=0, max_value=2000).map(float)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cached_expansion_matches_uncached_oracle(small_topology, data):
    network = small_topology.network
    routers = sorted(network.routers)
    links = sorted(network.logical_links)
    servers = sorted(network.cdn_servers)

    ospf = OspfSimulator(network)
    log = BgpUpdateLog()
    ingress_map = IngressMap()
    for server in servers:
        ingress_map.learn(server, network.cdn_servers[server].attached_router)
    service = PathService(
        network=network,
        ospf=ospf,
        bgp=BgpEmulator(log, ospf),
        ingress_map=ingress_map,
    )
    # a tiny cache exercises the eviction path as hard as the hit path
    cache_size = data.draw(st.sampled_from([3, 4096]), label="cache_size")
    cached = LocationResolver(service, cache_size=cache_size)
    oracle = ReferenceResolver(service)

    def draw_location():
        kind = data.draw(
            st.sampled_from(
                ["router", "interface", "pair", "prefix", "ingress_dest", "source_dest"]
            ),
            label="location_kind",
        )
        if kind == "router":
            return Location.router(data.draw(st.sampled_from(routers)))
        if kind == "interface":
            router = network.router(data.draw(st.sampled_from(routers)))
            index = data.draw(st.integers(0, len(router.interfaces) - 1))
            return Location.interface(router.interfaces[index].fqname)
        if kind == "pair":
            return Location.pair(
                LocationType.INGRESS_EGRESS,
                data.draw(st.sampled_from(routers)),
                data.draw(st.sampled_from(routers)),
            )
        if kind == "prefix":
            return Location.prefix(data.draw(st.sampled_from(PREFIXES)))
        if kind == "ingress_dest":
            return Location.pair(
                LocationType.INGRESS_DESTINATION,
                data.draw(st.sampled_from(routers)),
                data.draw(st.sampled_from(DEST_IPS)),
            )
        return Location.pair(
            LocationType.SOURCE_DESTINATION,
            data.draw(st.sampled_from(servers)),
            data.draw(st.sampled_from(DEST_IPS)),
        )

    queries = [
        (draw_location(), data.draw(st.sampled_from(LEVELS)), data.draw(TIMES))
        for _ in range(data.draw(st.integers(2, 5), label="n_queries"))
    ]

    def check():
        for location, level, timestamp in queries:
            got = cached.expand(location, level, timestamp)
            want = oracle.expand(location, level, timestamp)
            assert got == want, (
                f"cached {location} @ {level} t={timestamp} diverged from oracle"
            )

    check()  # cold cache
    check()  # warm cache, unchanged state
    for _ in range(data.draw(st.integers(1, 5), label="n_mutations")):
        kind = data.draw(
            st.sampled_from(["weight", "announce", "withdraw", "learn"]),
            label="mutation",
        )
        timestamp = data.draw(TIMES)
        if kind == "weight":
            ospf.history.record(
                WeightChange(
                    timestamp,
                    data.draw(st.sampled_from(links)),
                    data.draw(st.sampled_from(WEIGHTS)),
                )
            )
        elif kind == "announce":
            log.announce(
                timestamp,
                data.draw(st.sampled_from(PREFIXES)),
                data.draw(st.sampled_from(routers)),
                local_pref=data.draw(st.sampled_from([50, 100, 200])),
            )
        elif kind == "withdraw":
            log.withdraw(
                timestamp,
                data.draw(st.sampled_from(PREFIXES)),
                data.draw(st.sampled_from(routers)),
            )
        else:
            ingress_map.learn(
                data.draw(st.sampled_from(servers + ["roaming-agent"])),
                data.draw(st.sampled_from(routers)),
            )
        check()  # every mutation must invalidate exactly what it touched
