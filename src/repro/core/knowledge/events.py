"""Table I event definitions: the common-event layer of the Knowledge
Library.

Every definition is a retrieval process over the normalized store, per
Section II-A: syslog message signatures, SNMP threshold queries, OSPF
monitor inference, TACACS command matching, and anomaly detection over
the performance monitor.  Applications may override any of them (e.g.
re-threshold "Link congestion alarm" to 90%).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ...collector.sources import syslog as syslog_codes
from ...collector.sources.misc import (
    EVENT_MESH_FAST,
    EVENT_MESH_REGULAR,
    EVENT_SONET,
    METRIC_DELAY,
    METRIC_LOSS,
    METRIC_THROUGHPUT,
)
from ...collector.sources.snmp import (
    METRIC_CORRUPTED,
    METRIC_CPU,
    METRIC_LINK_UTIL,
    POLL_INTERVAL_SECONDS,
)
from ..events import EventDefinition, EventLibrary, RetrievalContext, Row
from ..locations import Location, LocationType
from . import names
from .cost_changes import retrieve_cost_changes
from .detectors import (
    TimedPoint,
    detect_shift,
    merge_intervals,
    pair_flaps,
    pair_samples,
    window_rows,
)

#: Default down->up pairing window for flap events, seconds.
DEFAULT_FLAP_WINDOW = 600.0


# ---------------------------------------------------------------------------
# syslog-derived events


def _retrieve_router_reboot(context: RetrievalContext) -> Iterable[Row]:
    for timestamp, router in window_rows(
        context, "syslog", ("router",), context.start, context.end,
        code=syslog_codes.CODE_RESTART,
    ):
        yield timestamp, timestamp, Location.router(router), ()


def _retrieve_cpu_spike(context: RetrievalContext) -> Iterable[Row]:
    threshold = context.param("cpu_spike_threshold", 90)
    for timestamp, router, cpu in window_rows(
        context, "syslog", ("router", "cpu_pct"), context.start, context.end,
        code=syslog_codes.CODE_CPUHOG,
    ):
        if cpu is not None and cpu >= threshold:
            yield timestamp, timestamp, Location.router(router), (("cpu_pct", cpu),)


def _make_updown_retrievals(code: str):
    """Build the down / up / flap retrieval triple for one syslog code."""

    def retrieve_state(state: str):
        def retrieve(context: RetrievalContext) -> Iterable[Row]:
            for timestamp, router, interface in window_rows(
                context, "syslog", ("router", "interface"),
                context.start, context.end, code=code, state=state,
            ):
                if interface is not None:
                    location = Location.interface(f"{router}:{interface}")
                    yield timestamp, timestamp, location, ()

        return retrieve

    def retrieve_flap(context: RetrievalContext) -> Iterable[Row]:
        window = context.param("flap_window", DEFAULT_FLAP_WINDOW)
        # widen both edges so flaps straddling the window boundary are
        # still paired: a down before context.start may pair with an up
        # inside it, and a down inside may pair with an up after the end;
        # one read of the widened window, split by state
        points = {"down": [], "up": []}
        for timestamp, router, interface, state in window_rows(
            context, "syslog", ("router", "interface", "state"),
            context.start - window, context.end + window, code=code,
        ):
            side = points.get(state)
            if interface is not None and side is not None:
                side.append(TimedPoint(timestamp, f"{router}:{interface}"))
        for down, up in pair_flaps(points["down"], points["up"], window):
            if up.timestamp < context.start or down.timestamp > context.end:
                continue
            yield down.timestamp, up.timestamp, Location.interface(down.key), ()

    return retrieve_state("down"), retrieve_state("up"), retrieve_flap


# ---------------------------------------------------------------------------
# SNMP-derived events


def _retrieve_cpu_average(context: RetrievalContext) -> Iterable[Row]:
    threshold = context.param("cpu_avg_threshold", 80)
    # rows are stamped at interval end; the event interval starts one
    # poll earlier, so widen the row query to the right accordingly
    for timestamp, router, value in window_rows(
        context, "snmp", ("router", "value"),
        context.start, context.end + POLL_INTERVAL_SECONDS, metric=METRIC_CPU,
    ):
        if value >= threshold:
            yield (
                timestamp - POLL_INTERVAL_SECONDS, timestamp,
                Location.router(router), (("cpu_pct", value),),
            )


def _interface_threshold_retrieval(metric: str, param_key: str, default: float):
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        threshold = context.param(param_key, default)
        for timestamp, router, interface, value in window_rows(
            context, "snmp", ("router", "interface", "value"),
            context.start, context.end + POLL_INTERVAL_SECONDS, metric=metric,
        ):
            if interface is None or value < threshold:
                continue
            yield (
                timestamp - POLL_INTERVAL_SECONDS, timestamp,
                Location.interface(f"{router}:{interface}"), (("value", value),),
            )

    return retrieve


# ---------------------------------------------------------------------------
# layer-1 events


def _layer1_retrieval(event: str):
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        for timestamp, device, circuit in window_rows(
            context, "layer1", ("device", "circuit"),
            context.start, context.end, event=event,
        ):
            location = Location.layer1_device(device)
            yield timestamp, timestamp, location, (("circuit", circuit),)

    return retrieve


# ---------------------------------------------------------------------------
# OSPF monitor events


def _retrieve_ospf_reconvergence(context: RetrievalContext) -> Iterable[Row]:
    """One instance per link per re-convergence episode."""
    settle = context.param("reconvergence_settle", 10.0)
    by_link: Dict[str, List[float]] = {}
    # unfiltered window query: two columns, zero-copy on the memory
    # backend — no row is built
    for timestamp, link in window_rows(
        context, "ospfmon", ("link",), context.start, context.end
    ):
        by_link.setdefault(link, []).append(timestamp)
    for link, points in sorted(by_link.items()):
        location = Location.logical_link(link)
        for start, end in merge_intervals(points, settle):
            yield start, end, location, ()


def _cost_retrieval(wanted: str):
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        for timestamp, link, change in retrieve_cost_changes(context):
            if change == wanted:
                yield timestamp, timestamp, Location.logical_link(link), ()

    return retrieve


def _retrieve_router_cost(context: RetrievalContext) -> Iterable[Row]:
    """All of a router's links costed in/out together -> router event."""
    network = context.service("network")
    group_window = context.param("router_cost_window", 15.0)
    by_router: Dict[Tuple[str, str], List[float]] = {}
    for timestamp, link_name, change in retrieve_cost_changes(context):
        link = network.logical_links.get(link_name)
        if link is None:
            continue
        for router in link.routers:
            by_router.setdefault((router, change), []).append(timestamp)
    for (router, change), points in sorted(by_router.items()):
        n_links = len(network.logical_links_of_router(router))
        for start, end in merge_intervals(points, group_window):
            count = sum(1 for p in points if start <= p <= end)
            # a maintenance cost-out touches (nearly) all links of the router
            if n_links >= 2 and count >= n_links:
                yield start, end, Location.router(router), (("direction", change),)


# ---------------------------------------------------------------------------
# TACACS command events

COST_OUT_COMMAND_MARKER = "cost 65535"


def _cmd_retrieval(direction: str):
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        for timestamp, command, interface, router, user in window_rows(
            context, "tacacs", ("command", "interface", "router", "user"),
            context.start, context.end,
        ):
            if interface is None or "cost" not in (command or ""):
                continue
            is_out = COST_OUT_COMMAND_MARKER in command
            if (direction == "out") != is_out:
                continue
            location = Location.interface(f"{router}:{interface}")
            yield timestamp, timestamp, location, (("user", user),)

    return retrieve


# ---------------------------------------------------------------------------
# BGP monitor events


def _retrieve_bgp_egress_change(context: RetrievalContext) -> Iterable[Row]:
    """A prefix whose set of available egresses changed."""
    log = context.service("bgp_log")
    for update in log.updates_between(context.start, context.end):
        prefix = update.route.prefix
        before = {r.egress_router for r in log.routes_at(prefix, update.timestamp - 1e-6)}
        after = {r.egress_router for r in log.routes_at(prefix, update.timestamp)}
        if before != after and before:
            yield update.timestamp, update.timestamp, Location.prefix(prefix), (
                ("new_egresses", tuple(sorted(after))),
                ("old_egresses", tuple(sorted(before))),
            )


# ---------------------------------------------------------------------------
# performance monitor events


def _perf_retrieval(metric: str, direction: str, factor_key: str):
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        factor = context.param(factor_key, 1.5)
        lookback = context.param("perf_baseline_lookback", 3600.0)
        floor = context.param("perf_absolute_floor", 0.5)
        interval = context.param("perf_interval", POLL_INTERVAL_SECONDS)
        samples = pair_samples(
            context.store.table("perfmon").query_columns(
                context.start - lookback, context.end + interval, metric=metric
            )
        )
        for anomaly in detect_shift(samples, direction, factor, absolute_floor=floor):
            if anomaly.timestamp < context.start:
                continue
            source, destination = anomaly.key
            yield (
                anomaly.timestamp - interval, anomaly.timestamp,
                Location.pair(LocationType.INGRESS_EGRESS, source, destination),
                (("baseline", anomaly.baseline), ("value", anomaly.value)),
            )

    return retrieve


# ---------------------------------------------------------------------------
# library assembly


def build_common_events() -> EventLibrary:
    """The Knowledge Library's common-event layer (Table I)."""
    library = EventLibrary()

    def add(name, location_type, retrieval, description, data_source):
        library.register(
            EventDefinition(name, location_type, retrieval, description, data_source)
        )

    add(
        names.ROUTER_REBOOT, LocationType.ROUTER, _retrieve_router_reboot,
        "router was rebooted", "syslog",
    )
    add(
        names.CPU_HIGH_AVG, LocationType.ROUTER, _retrieve_cpu_average,
        ">= 80% average utilization in 5-minute intervals", "SNMP",
    )
    add(
        names.CPU_HIGH_SPIKE, LocationType.ROUTER, _retrieve_cpu_spike,
        ">= 90% average utilization over the past 5 seconds", "syslog",
    )

    link_down, link_up, link_flap = _make_updown_retrievals(syslog_codes.CODE_LINK)
    add(names.INTERFACE_DOWN, LocationType.INTERFACE, link_down,
        "LINK-3-UPDOWN msg", "syslog")
    add(names.INTERFACE_UP, LocationType.INTERFACE, link_up,
        "LINK-3-UPDOWN msg", "syslog")
    add(names.INTERFACE_FLAP, LocationType.INTERFACE, link_flap,
        "LINK-3-UPDOWN msg", "syslog")

    proto_down, proto_up, proto_flap = _make_updown_retrievals(
        syslog_codes.CODE_LINEPROTO
    )
    add(names.LINEPROTO_DOWN, LocationType.INTERFACE, proto_down,
        "LINEPROTO-5-UPDOWN msg", "syslog")
    add(names.LINEPROTO_UP, LocationType.INTERFACE, proto_up,
        "LINEPROTO-5-UPDOWN msg", "syslog")
    add(names.LINEPROTO_FLAP, LocationType.INTERFACE, proto_flap,
        "LINEPROTO-5-UPDOWN msg", "syslog")

    add(
        names.MESH_RESTORATION_REGULAR, LocationType.LAYER1_DEVICE,
        _layer1_retrieval(EVENT_MESH_REGULAR),
        "regular restoration events in layer-1 optical mesh network",
        "layer-1 device log",
    )
    add(
        names.MESH_RESTORATION_FAST, LocationType.LAYER1_DEVICE,
        _layer1_retrieval(EVENT_MESH_FAST),
        "fast restoration events in layer-1 optical mesh network",
        "layer-1 device log",
    )
    add(
        names.SONET_RESTORATION, LocationType.LAYER1_DEVICE,
        _layer1_retrieval(EVENT_SONET),
        "restoration events in the layer-1 SONET network",
        "layer-1 device log",
    )

    add(
        names.LINK_CONGESTION, LocationType.INTERFACE,
        _interface_threshold_retrieval(
            METRIC_LINK_UTIL, "link_congestion_threshold", 80.0
        ),
        ">= 80% link utilization in 5-minute intervals", "SNMP",
    )
    add(
        names.LINK_LOSS, LocationType.INTERFACE,
        _interface_threshold_retrieval(METRIC_CORRUPTED, "link_loss_threshold", 100.0),
        ">= 100 corrupted packets in 5-minute intervals", "SNMP",
    )

    add(
        names.OSPF_RECONVERGENCE, LocationType.LOGICAL_LINK,
        _retrieve_ospf_reconvergence,
        "link weight update in OSPF", "OSPF monitor",
    )
    add(
        names.ROUTER_COST_IN_OUT, LocationType.ROUTER, _retrieve_router_cost,
        "Router cost in/out inferred from link weight changes", "OSPF monitor",
    )
    add(
        names.LINK_COST_OUT, LocationType.LOGICAL_LINK,
        _cost_retrieval("out"),
        "Link cost out or link down inferred from link weight changes",
        "OSPF monitor",
    )
    add(
        names.LINK_COST_IN, LocationType.LOGICAL_LINK,
        _cost_retrieval("in"),
        "Link cost in or link up inferred from link weight changes",
        "OSPF monitor",
    )

    add(
        names.CMD_COST_IN, LocationType.INTERFACE, _cmd_retrieval("in"),
        "Command typed by operators to cost in links", "TACACS",
    )
    add(
        names.CMD_COST_OUT, LocationType.INTERFACE, _cmd_retrieval("out"),
        "Command typed by operators to cost out links", "TACACS",
    )

    add(
        names.BGP_EGRESS_CHANGE, LocationType.PREFIX, _retrieve_bgp_egress_change,
        "BGP next hop to some external prefix changed", "BGP monitor",
    )

    add(
        names.DELAY_INCREASE, LocationType.INGRESS_EGRESS,
        _perf_retrieval(METRIC_DELAY, "increase", "delay_factor"),
        "delay increase between two PoPs", "performance monitor",
    )
    add(
        names.LOSS_INCREASE, LocationType.INGRESS_EGRESS,
        _perf_retrieval(METRIC_LOSS, "increase", "loss_factor"),
        "loss increase between two PoPs", "performance monitor",
    )
    add(
        names.THROUGHPUT_DROP, LocationType.INGRESS_EGRESS,
        _perf_retrieval(METRIC_THROUGHPUT, "decrease", "throughput_factor"),
        "throughput drop between two PoPs", "performance monitor",
    )

    return library
