"""PIM adjacency change RCA in Multicast VPN (Section III-C, Fig. 6,
Tables VII/VIII).

For each MVPN customer, provider edge routers maintain PIM neighbor
adjacencies with each other; adjacency losses (syslog ``PIM-5-NBRCHG``)
arrive by the thousands per day, and this application classifies their
root causes: configuration changes, routing changes inside the backbone
(router/link cost events, OSPF reconvergence), uplink adjacency loss,
and — dominating Table VIII — customer-facing interface flaps.

Only three multicast-specific events are defined (Table VII); the graph
reuses Knowledge Library events for everything else and was, per the
paper, built in under ten hours of development time.
"""

from __future__ import annotations

from typing import Iterable

from ..core.events import (
    EventDefinition,
    EventLibrary,
    RetrievalContext,
    Row,
)
from ..core.graph import DiagnosisGraph, DiagnosisRule
from ..core.knowledge import names
from ..core.knowledge.detectors import window_rows
from ..core.knowledge.rules import expansion
from ..core.locations import Location, LocationType
from ..core.spatial import JoinLevel, SpatialJoinRule
from ..core.temporal import ExpandOption, TemporalJoinRule
from ..platform import GrcaPlatform
from .base import RcaApp

#: App-specific event: an interface flap restricted to customer-facing
#: ports (the Table VIII "interface (customer facing) flap" category).
CUSTOMER_IFACE_FLAP = "interface (customer facing) flap"


# ---------------------------------------------------------------------------
# Table VII application-specific events


def _retrieve_pim_adjacency_change(context: RetrievalContext) -> Iterable[Row]:
    """MVPN (vrf-scoped) adjacency losses between PE pairs."""
    loopbacks = context.service("loopbacks")
    for timestamp, router, vrf, neighbor in window_rows(
        context, "syslog", ("router", "vrf", "neighbor"),
        context.start, context.end, code="PIM-5-NBRCHG", state="down",
    ):
        if vrf is None:
            continue  # uplink adjacency: a different event
        remote = loopbacks.get(neighbor)
        if remote is None:
            continue
        location = Location.pair(LocationType.INGRESS_EGRESS, router, remote)
        yield timestamp, timestamp, location, (("vrf", vrf),)


def _retrieve_uplink_adjacency_change(context: RetrievalContext) -> Iterable[Row]:
    """Non-vrf adjacency losses: the PE's uplink neighbor to the core."""
    for timestamp, router, vrf, interface in window_rows(
        context, "syslog", ("router", "vrf", "interface"),
        context.start, context.end, code="PIM-5-NBRCHG", state="down",
    ):
        if vrf is not None or interface is None:
            continue
        location = Location.interface(f"{router}:{interface}")
        yield timestamp, timestamp, location, ()


def _retrieve_pim_config_change(context: RetrievalContext) -> Iterable[Row]:
    """MVPN (de)provisioning from the router command logs."""
    for timestamp, router, command in window_rows(
        context, "tacacs", ("router", "command"), context.start, context.end
    ):
        command = command or ""
        if "ip vrf" not in command and "mdt" not in command:
            continue
        yield timestamp, timestamp, Location.router(router), (("command", command),)


def _retrieve_customer_iface_flap(context: RetrievalContext) -> Iterable[Row]:
    """Interface flaps restricted to customer-facing (link-less) ports."""
    network = context.service("network")
    base = context.service("event_library").get(names.INTERFACE_FLAP)
    for start, end, location, _info in base.retrieve(context).rows():
        fq = location.value
        try:
            if network.link_of_interface(fq) is not None:
                continue  # an in-network (OSPF) port, not customer-facing
            network.interface(fq)
        except KeyError:
            continue
        yield start, end, location, ()


def register_pim_events(events: EventLibrary) -> None:
    """Register the Table VII application-specific events."""
    events.register(
        EventDefinition(
            names.PIM_ADJACENCY_CHANGE, LocationType.INGRESS_EGRESS,
            _retrieve_pim_adjacency_change,
            "a PE lost a neighbor adjacency with another PE in the MVPN", "syslog",
        )
    )
    events.register(
        EventDefinition(
            names.UPLINK_PIM_ADJACENCY_CHANGE, LocationType.INTERFACE,
            _retrieve_uplink_adjacency_change,
            "a PE lost a neighbor adjacency with its directly connected "
            "router on its uplink to the backbone", "syslog",
        )
    )
    events.register(
        EventDefinition(
            names.PIM_CONFIG_CHANGE, LocationType.ROUTER,
            _retrieve_pim_config_change,
            "a MVPN is either provisioned or de-provisioned on a router",
            "router command logs",
        )
    )
    events.register(
        EventDefinition(
            CUSTOMER_IFACE_FLAP, LocationType.INTERFACE,
            _retrieve_customer_iface_flap,
            "interface flap on a customer-facing port", "syslog",
        )
    )


# ---------------------------------------------------------------------------
# the Fig. 6 diagnosis graph


def build_pim_graph() -> DiagnosisGraph:
    """The Fig. 6 diagnosis graph for PIM adjacency changes."""
    graph = DiagnosisGraph(symptom_event=names.PIM_ADJACENCY_CHANGE, name="pim-mvpn")
    symptom_type = LocationType.INGRESS_EGRESS

    def rule(child, priority, diag_type, level, sym_exp, diag_exp):
        graph.add_rule(
            DiagnosisRule(
                parent_event=names.PIM_ADJACENCY_CHANGE,
                child_event=child,
                temporal=TemporalJoinRule(sym_exp, diag_exp),
                spatial=SpatialJoinRule(symptom_type, diag_type, level),
                priority=priority,
            )
        )

    rule(
        CUSTOMER_IFACE_FLAP, 140, LocationType.INTERFACE, JoinLevel.ROUTER,
        expansion(ExpandOption.START_START, 60, 10), expansion(left=10, right=10),
    )
    rule(
        names.UPLINK_PIM_ADJACENCY_CHANGE, 130, LocationType.INTERFACE,
        JoinLevel.ROUTER,
        expansion(ExpandOption.START_START, 60, 10), expansion(left=5, right=5),
    )
    rule(
        names.PIM_CONFIG_CHANGE, 120, LocationType.ROUTER, JoinLevel.ROUTER,
        expansion(ExpandOption.START_START, 120, 10), expansion(left=5, right=5),
    )
    rule(
        names.ROUTER_COST_IN_OUT, 110, LocationType.ROUTER, JoinLevel.ROUTER_PATH,
        expansion(ExpandOption.START_START, 60, 30), expansion(left=30, right=30),
    )
    rule(
        names.LINK_COST_OUT, 90, LocationType.LOGICAL_LINK, JoinLevel.LINK_PATH,
        expansion(ExpandOption.START_START, 60, 10), expansion(left=5, right=5),
    )
    rule(
        names.LINK_COST_IN, 85, LocationType.LOGICAL_LINK, JoinLevel.LINK_PATH,
        expansion(ExpandOption.START_START, 60, 10), expansion(left=5, right=5),
    )
    rule(
        names.OSPF_RECONVERGENCE, 80, LocationType.LOGICAL_LINK, JoinLevel.LINK_PATH,
        expansion(ExpandOption.START_START, 60, 10), expansion(left=5, right=60),
    )
    return graph


class PimApp(RcaApp):
    """The configured MVPN PIM adjacency RCA tool."""

    @classmethod
    def build(cls, platform: GrcaPlatform) -> "PimApp":
        """Configure the PIM/MVPN RCA tool on a wired platform."""
        events = platform.knowledge.scoped_events()
        register_pim_events(events)
        services = dict(platform.services, event_library=events)
        return cls.wire(platform, events, build_pim_graph(), services)
