"""Remaining data-source parsers: TACACS command logs, layer-1 device
logs, end-to-end performance measurements, NetFlow samples, workflow
(provisioning) logs, and CDN server logs.

Each is a thin line format chosen to look like the corresponding
production export; all normalize names and timestamps at ingest.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any, Tuple

from ..normalizer import (
    NormalizationError,
    normalize_interface_name,
    parse_timestamp,
)
from ..rows import MISSING
from .base import SourceParser, parse_epoch, parse_value

# ---------------------------------------------------------------------------
# TACACS command accounting: who typed what on which router.
#
#   2010-01-05 10:25:00|nyc-cr1|op17|conf t; router ospf 1; ... cost 65535
#
# Table I's "Command to Cost In/Out Links" events come from this table.


@dataclass
class TacacsParser(SourceParser):
    table_name: str = "tacacs"
    columns = ("router", "user", "command", "interface")
    optional = frozenset({"interface"})

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|", 3)
        if len(parts) != 4:
            raise NormalizationError("expected 4 pipe-separated fields")
        raw_time, raw_router, user, command = parts
        timestamp = parse_timestamp(raw_time, "UTC")
        router = self.registry.canonical_name(raw_router)
        return timestamp, (router, user, command, _interface_in_command(command))


_COMMAND_INTERFACE_RE = re.compile(r"interface\s+([A-Za-z]+[\d/.:]+)")


def _interface_in_command(command: str):
    match = _COMMAND_INTERFACE_RE.search(command)
    if match:
        try:
            return normalize_interface_name(match.group(1))
        except NormalizationError:
            pass
    return MISSING


def render_tacacs_row(timestamp: float, router: str, user: str, command: str) -> str:
    """Render one TACACS command-log row."""
    from ..normalizer import epoch_to_text

    return f"{epoch_to_text(timestamp)}|{router}|{user}|{command}"


# ---------------------------------------------------------------------------
# Layer-1 device logs: SONET / optical-mesh restoration events.
#
#   1262692800.0|adm-nyc-chi-1|sonet_restoration|c-nyc-cr1-chi-cr1-...
#
# Table I: "Regular optical mesh network restoration", "Fast optical
# mesh network restoration", "SONET restoration".

EVENT_SONET = "sonet_restoration"
EVENT_MESH_REGULAR = "mesh_restoration_regular"
EVENT_MESH_FAST = "mesh_restoration_fast"

_LAYER1_EVENTS = {EVENT_SONET, EVENT_MESH_REGULAR, EVENT_MESH_FAST}


@dataclass
class Layer1Parser(SourceParser):
    table_name: str = "layer1"
    columns = ("device", "event", "circuit")

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 4:
            raise NormalizationError("expected 4 pipe-separated fields")
        raw_time, device, event, circuit = parts
        if event not in _LAYER1_EVENTS:
            raise NormalizationError(f"unknown layer-1 event {event!r}")
        return parse_epoch(raw_time), (device.strip().lower(), event, circuit)


def render_layer1_row(timestamp: float, device: str, event: str, circuit: str) -> str:
    """Render one layer-1 device log row."""
    return f"{timestamp}|{device}|{event}|{circuit}"


# ---------------------------------------------------------------------------
# End-to-end performance monitor: probes between PoP pairs, plus CDN
# agent measurements (Keynote-style).
#
#   1262692800.0|nyc-per1|chi-per1|delay_ms|31.5
#   1262692800.0|agent-bos|dc-nyc-srv1|rtt_ms|180.0

METRIC_DELAY = "delay_ms"
METRIC_LOSS = "loss_pct"
METRIC_THROUGHPUT = "throughput_mbps"
METRIC_RTT = "rtt_ms"

_PERF_METRICS = {METRIC_DELAY, METRIC_LOSS, METRIC_THROUGHPUT, METRIC_RTT}


@dataclass
class PerfMonParser(SourceParser):
    table_name: str = "perfmon"
    columns = ("source", "destination", "metric", "value")

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 5:
            raise NormalizationError("expected 5 pipe-separated fields")
        raw_time, source, destination, metric, raw_value = parts
        if metric not in _PERF_METRICS:
            raise NormalizationError(f"unknown perf metric {metric!r}")
        return parse_epoch(raw_time), (
            sys.intern(source.strip().lower()),
            sys.intern(destination.strip().lower()),
            sys.intern(metric),
            parse_value(raw_value),
        )


def render_perfmon_row(
    timestamp: float, source: str, destination: str, metric: str, value: float
) -> str:
    """Render one performance-monitor row."""
    return f"{timestamp}|{source}|{destination}|{metric}|{value}"


# ---------------------------------------------------------------------------
# NetFlow samples: map external sources to ingress routers (item 1 of
# the Section II-B conversions).
#
#   1262692800.0|agent-bos|198.51.100.9|nyc-per1


@dataclass
class NetflowParser(SourceParser):
    table_name: str = "netflow"
    columns = ("source", "source_ip", "ingress_router")

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 4:
            raise NormalizationError("expected 4 pipe-separated fields")
        raw_time, source, source_ip, raw_ingress = parts
        return parse_epoch(raw_time), (
            sys.intern(source.strip().lower()),
            source_ip,
            self.registry.canonical_name(raw_ingress),
        )


def render_netflow_row(
    timestamp: float, source: str, source_ip: str, ingress_router: str
) -> str:
    """Render one NetFlow sample row."""
    return f"{timestamp}|{source}|{source_ip}|{ingress_router}"


# ---------------------------------------------------------------------------
# Workflow (provisioning) logs: operator/system activities per router.
# Section IV-B correlates 831 workflow-log time series against
# CPU-related BGP flaps.
#
#   2010-01-05 10:25:00|nyc-per1|provisioning.add_customer|ticket-123


@dataclass
class WorkflowParser(SourceParser):
    table_name: str = "workflow"
    columns = ("router", "activity", "detail")

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|", 3)
        if len(parts) != 4:
            raise NormalizationError("expected 4 pipe-separated fields")
        raw_time, raw_router, activity, detail = parts
        if not activity:
            raise NormalizationError("empty activity")
        return parse_timestamp(raw_time, "UTC"), (
            self.registry.canonical_name(raw_router),
            activity,
            detail,
        )


def render_workflow_row(timestamp: float, router: str, activity: str, detail: str) -> str:
    """Render one workflow-log row."""
    from ..normalizer import epoch_to_text

    return f"{epoch_to_text(timestamp)}|{router}|{activity}|{detail}"


# ---------------------------------------------------------------------------
# CDN server logs: per-server load samples and assignment-policy changes.
#
#   1262692800.0|dc-nyc-srv1|load|0.93
#   1262692800.0|dc-nyc-srv1|policy_change|map-v42


@dataclass
class CdnLogParser(SourceParser):
    table_name: str = "cdn"
    columns = ("server", "kind", "value", "detail")
    optional = frozenset({"value", "detail"})

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 4:
            raise NormalizationError("expected 4 pipe-separated fields")
        raw_time, server, kind, value = parts
        if kind not in ("load", "policy_change"):
            raise NormalizationError(f"unknown cdn record kind {kind!r}")
        server = sys.intern(server.strip().lower())
        load, detail = (parse_value(value), MISSING) if kind == "load" else (MISSING, value)
        return parse_epoch(raw_time), (server, kind, load, detail)


def render_cdn_row(timestamp: float, server: str, kind: str, value) -> str:
    """Render one CDN server-log row."""
    return f"{timestamp}|{server}|{kind}|{value}"
