"""A hand-built MVPN provisioning storm (the sibling-symptom shape).

One provisioning action on one PE flaps its PIM adjacencies toward
every remote PE in several VPNs at once — dozens of sibling symptoms on
a handful of timestamps — while the OSPF monitor re-announces every
link around the action.  Built from ``repro.simulation`` primitives;
shared by ``test_groups.py`` and
``benchmarks/test_diagnosis_latency.py``.
"""

import random

from repro.apps import PimApp
from repro.collector import DataCollector
from repro.platform import GrcaPlatform
from repro.simulation import BASE_EPOCH, TelemetryEmitter
from repro.topology import TopologyParams, build_topology

DAY = 86400.0


def mvpn_storm(vrfs=2, churn=6):
    """``(app, symptoms, action time)``: 15 remote PEs x ``vrfs`` VPNs,
    one symptom timestamp per VPN, ``2 * churn + 1`` OSPFMon rounds."""
    topology = build_topology(
        TopologyParams(n_pops=8, pers_per_pop=2, customers_per_per=2, seed=42)
    )
    network = topology.network
    emitter = TelemetryEmitter(topology, random.Random(7))
    # exact fan-out: jitter would collide per-vrf instance identities
    emitter.syslog_jitter = 0.0
    pes = sorted(topology.provider_edges)
    pe, action = pes[0], BASE_EPOCH + 6 * 3600.0
    uplink = network.uplinks_of(pe)[0]
    local_if = (
        uplink.interface_a if uplink.interface_a.startswith(pe)
        else uplink.interface_z
    ).partition(":")[2]
    emitter.tacacs(
        action - 8.0, pe, "prov-sys",
        "conf t; ip vrf cust-vpn-1; mdt default 239.1.1.1",
    )
    for v in range(vrfs):
        at = action + 2.0 * v  # whole seconds: syslog resolution
        for k, remote in enumerate(pes[1:]):
            loopback = network.router(remote).loopback
            vrf = f"cust-vpn-{v + 1}"
            emitter.pim_neighbor_change(at, pe, loopback, local_if, "down", vrf)
            emitter.pim_neighbor_change(
                at + 30.0 + 4.0 * k, pe, loopback, local_if, "up", vrf
            )
    for link in sorted(network.logical_links):
        for k in range(-churn, churn + 1):
            emitter.ospf_weight(action + 12.0 * k, link, 10)
    collector = DataCollector()
    for router in network.routers.values():
        collector.registry.register_device(router.name, router.timezone)
    emitter.buffers.ingest_into(collector)
    platform = GrcaPlatform.from_collector(
        topology, collector, config_time=BASE_EPOCH - DAY
    )
    app = PimApp.build(platform)
    return app, app.find_symptoms(BASE_EPOCH, BASE_EPOCH + DAY), action
