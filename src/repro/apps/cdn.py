"""CDN service impairment RCA (Section III-B, Fig. 5, Tables V/VI).

Static web objects are served from data centers across the network;
DNS binds users to the "closest" one.  A traffic monitor observes
end-to-end RTT between users and CDN servers; this application
diagnoses RTT degradations against CDN assignment policy changes,
server issues, BGP egress changes, link congestion/loss, interface
flaps and OSPF reconvergence — anything else is outside the provider's
network (the dominant Table VI outcome).

The symptom location is the (CDN server, client) pair; the spatial
model resolves it through NetFlow ingress mapping, BGP egress lookup
and OSPF path simulation, which is what makes historical diagnosis
possible at all ("practically impossible to manually identify for
historical events").
"""

from __future__ import annotations

from typing import Iterable

from ..core.events import (
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
    Row,
)
from ..core.graph import DiagnosisGraph, DiagnosisRule
from ..core.knowledge import names
from ..core.knowledge.detectors import detect_shift, pair_samples, window_rows
from ..core.knowledge.rules import expansion
from ..core.locations import Location, LocationType
from ..core.spatial import JoinLevel, SpatialJoinRule
from ..core.temporal import TemporalJoinRule
from ..platform import GrcaPlatform
from .base import RcaApp

#: Keynote-style RTT sampling interval (coarser than backbone probes).
RTT_INTERVAL = 1800.0


# ---------------------------------------------------------------------------
# Table V application-specific events


def _retrieve_rtt_increase(context: RetrievalContext) -> Iterable[Row]:
    """RTT shift per (server, client) pair against its trailing median."""
    factor = context.param("cdn_rtt_factor", 1.8)
    interval = context.param("cdn_rtt_interval", RTT_INTERVAL)
    lookback = context.param("cdn_rtt_lookback", 12 * RTT_INTERVAL)
    samples = pair_samples(
        context.store.table("perfmon").query_columns(
            context.start - lookback, context.end, metric="rtt_ms"
        )
    )
    for anomaly in detect_shift(samples, "increase", factor, absolute_floor=5.0):
        if anomaly.timestamp < context.start:
            continue
        server, client_ip = anomaly.key
        yield (
            anomaly.timestamp - interval, anomaly.timestamp,
            Location.pair(LocationType.SOURCE_DESTINATION, server, client_ip),
            (("baseline_ms", anomaly.baseline), ("rtt_ms", anomaly.value)),
        )


def _retrieve_server_issue(context: RetrievalContext) -> Iterable[Row]:
    threshold = context.param("cdn_load_threshold", 0.9)
    for timestamp, server, value in window_rows(
        context, "cdn", ("server", "value"), context.start, context.end, kind="load"
    ):
        if value >= threshold:
            yield timestamp, timestamp, Location.server(server), (("load", value),)


def _retrieve_policy_change(context: RetrievalContext) -> Iterable[Row]:
    for timestamp, server, detail in window_rows(
        context, "cdn", ("server", "detail"),
        context.start, context.end, kind="policy_change",
    ):
        yield timestamp, timestamp, Location.server(server), (("detail", detail),)


def register_cdn_events(events: EventLibrary) -> None:
    """Register the Table V application-specific events."""
    events.register(
        EventDefinition(
            names.CDN_RTT_INCREASE, LocationType.SOURCE_DESTINATION,
            _retrieve_rtt_increase,
            "increase in end-to-end round trip time (RTT) between "
            "end-users and CDN servers", "traffic monitor",
        )
    )
    events.register(
        EventDefinition(
            names.CDN_SERVER_ISSUE, LocationType.SERVER, _retrieve_server_issue,
            "CDN server load is high", "server logs",
        )
    )
    events.register(
        EventDefinition(
            names.CDN_POLICY_CHANGE, LocationType.SERVER, _retrieve_policy_change,
            "CDN request-assignment map changed", "CDN control plane",
        )
    )


# ---------------------------------------------------------------------------
# the Fig. 5 diagnosis graph


def build_cdn_graph() -> DiagnosisGraph:
    """The Fig. 5 diagnosis graph for CDN RTT degradations."""
    graph = DiagnosisGraph(symptom_event=names.CDN_RTT_INCREASE, name="cdn-rtt")
    symptom_type = LocationType.SOURCE_DESTINATION
    # the symptom interval spans a full measurement bin, so modest
    # margins suffice: the causal event lies inside the bin
    symptom_exp = expansion(left=60, right=60)

    def rule(child, priority, diag_type, level, diag_exp):
        graph.add_rule(
            DiagnosisRule(
                parent_event=names.CDN_RTT_INCREASE,
                child_event=child,
                temporal=TemporalJoinRule(symptom_exp, diag_exp),
                spatial=SpatialJoinRule(symptom_type, diag_type, level),
                priority=priority,
            )
        )

    rule(names.CDN_SERVER_ISSUE, 70, LocationType.SERVER, JoinLevel.SERVER,
         expansion(left=30, right=30))
    rule(names.CDN_POLICY_CHANGE, 60, LocationType.SERVER, JoinLevel.ROUTER,
         expansion(left=5, right=5))
    rule(names.INTERFACE_FLAP, 55, LocationType.INTERFACE, JoinLevel.INTERFACE,
         expansion(left=10, right=10))
    rule(names.BGP_EGRESS_CHANGE, 50, LocationType.PREFIX, JoinLevel.ROUTER,
         expansion(left=5, right=60))
    rule(names.LINK_LOSS, 45, LocationType.INTERFACE, JoinLevel.INTERFACE,
         expansion(left=30, right=30))
    rule(names.LINK_CONGESTION, 40, LocationType.INTERFACE, JoinLevel.INTERFACE,
         expansion(left=30, right=30))
    rule(names.OSPF_RECONVERGENCE, 30, LocationType.LOGICAL_LINK, JoinLevel.LINK_PATH,
         expansion(left=5, right=60))
    return graph


class CdnApp(RcaApp):
    """The configured CDN RTT-degradation RCA tool."""

    @classmethod
    def build(cls, platform: GrcaPlatform) -> "CdnApp":
        """Configure the CDN impairment RCA tool on a wired platform."""
        events = platform.knowledge.scoped_events()
        register_cdn_events(events)
        return cls.wire(platform, events, build_cdn_graph())

    def diagnose_manual_event(
        self, start: float, end: float, server: str, client_ip: str
    ):
        """Diagnose an operator-entered event (Section III-B: "operators
        [may] directly enter an event of interest", e.g. from a customer
        service call rather than the traffic monitor)."""
        symptom = EventInstance.make(
            names.CDN_RTT_INCREASE, start, end,
            Location.pair(LocationType.SOURCE_DESTINATION, server, client_ip),
            entered="manually",
        )
        return self.engine.diagnose(symptom)
