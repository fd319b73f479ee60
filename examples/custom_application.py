#!/usr/bin/env python3
"""Building a brand-new RCA application from the Knowledge Library.

The paper's pitch: new problems become new RCA tools "via simple
configuration".  This example builds a *link packet-loss* RCA tool from
scratch — a symptom ("Link loss alarm") and two candidate causes, both
pulled from the Table II rule library — using only the rule
specification language, then runs it against hand-injected telemetry.

The application also redefines its symptom, as Section II-A allows: a
stricter "Link loss alarm" whose retrieval process reads the SNMP
columns and yields plain rows ``(start, end, location, info)`` — the
event definition stamps its own name on them.

Run:  python examples/custom_application.py
"""

import random

from repro import DataCollector, GrcaPlatform, TopologyParams, build_topology
from repro.core import RcaEngine, ResultBrowser
from repro.collector.sources.snmp import POLL_INTERVAL_SECONDS
from repro.core.engine import EngineConfig
from repro.core.knowledge import names
from repro.core.knowledge.detectors import window_rows
from repro.core.locations import Location
from repro.core.rulespec import SpecCompiler
from repro.simulation.telemetry import BASE_EPOCH, TelemetryEmitter

LINK_LOSS_SPEC = f'''
application "link-loss-triage"
symptom "{names.LINK_LOSS}"

# both rules come straight from the Knowledge Library (Table II);
# congestion-induced overflow outranks a flapping line protocol
rule "{names.LINK_LOSS}" -> "{names.LINK_CONGESTION}" use library priority 90
rule "{names.LINK_LOSS}" -> "{names.LINEPROTO_FLAP}" use library priority 80
'''


#: corrupted packets per 5-minute poll that make a loss alarm here
LOSS_THRESHOLD = 250.0


def retrieve_heavy_loss(context):
    """``>= LOSS_THRESHOLD`` corrupted packets in one poll, as rows."""
    for timestamp, router, interface, value in window_rows(
        context, "snmp", ("router", "interface", "value"),
        context.start, context.end + POLL_INTERVAL_SECONDS,
        metric="corrupted_packets",
    ):
        if interface is not None and value >= LOSS_THRESHOLD:
            location = Location.interface(f"{router}:{interface}")
            yield timestamp - POLL_INTERVAL_SECONDS, timestamp, location, (
                ("value", value),
            )


def main() -> None:
    topo = build_topology(TopologyParams(n_pops=3, pers_per_pop=1, seed=6))
    emitter = TelemetryEmitter(topo, random.Random(6))
    t = BASE_EPOCH + 3600.0
    network = topo.network

    # pick three in-network interfaces to afflict
    links = sorted(network.logical_links)
    ifaces = [network.logical_links[name].interface_a for name in links[:3]]

    # case 1: congestion-driven loss
    router, _, port = ifaces[0].partition(":")
    emitter.snmp(t, router, "link_util", port, 96.0)
    emitter.snmp(t, router, "corrupted_packets", port, 800.0)
    # case 2: a flapping line protocol corrupting packets
    emitter.line_protocol_flap(t - 30.0, ifaces[1], duration=20.0)
    router2, _, port2 = ifaces[1].partition(":")
    emitter.snmp(t, router2, "corrupted_packets", port2, 300.0)
    # case 3: loss with no visible cause
    router3, _, port3 = ifaces[2].partition(":")
    emitter.snmp(t, router3, "corrupted_packets", port3, 500.0)

    collector = DataCollector()
    for r in network.routers.values():
        collector.registry.register_device(r.name, r.timezone)
    emitter.buffers.ingest_into(collector)
    platform = GrcaPlatform.from_collector(topo, collector)

    # the application's own event layer: the library's, with a stricter
    # symptom; the shared library is untouched
    events = platform.knowledge.scoped_events()
    events.override(
        events.get(names.LINK_LOSS).redefined(
            retrieve_heavy_loss, f">= {LOSS_THRESHOLD:.0f} corrupted packets"
        )
    )

    # compile the DSL spec into a diagnosis graph and build the engine
    compiler = SpecCompiler(events, platform.knowledge.rules)
    graph = compiler.compile_text(LINK_LOSS_SPEC)
    engine = RcaEngine(
        graph=graph,
        library=events,
        resolver=platform.resolver,
        store=platform.store,
        config=EngineConfig(services=platform.services),
    )

    symptoms = engine.find_symptoms(t - 3600, t + 3600)
    browser = ResultBrowser(engine.diagnose_all(symptoms))

    print(f"new application {graph.name!r} built from "
          f"{len(graph.all_rules())} library rules\n")
    print(f"diagnosed {len(browser)} link-loss alarms:\n")
    print(browser.format_breakdown())
    for diagnosis in browser.diagnoses:
        print()
        print(diagnosis.explain())


if __name__ == "__main__":
    main()
