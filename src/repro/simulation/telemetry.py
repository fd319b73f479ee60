"""Telemetry emission: raw feed lines from simulated network behaviour.

This is the substitution layer for the paper's proprietary data (see
DESIGN.md): instead of production routers, a :class:`TelemetryEmitter`
produces the *raw text* each data source would carry — syslog lines in
each device's local time zone, SNMP poller rows, OSPFMon updates,
BGP-monitor updates, TACACS command logs, layer-1 device logs,
performance measurements, NetFlow samples, workflow logs and CDN server
logs.  Everything then flows through the real Data Collector parsers, so
the full normalization pipeline is exercised.

Timestamp noise (a few seconds of jitter on syslog) models the paper's
"inaccuracy and uncertainty in the timing of network measurements".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..collector import DataCollector
from ..collector.sources.bgpmon import render_bgpmon_row
from ..collector.sources.misc import (
    render_cdn_row,
    render_layer1_row,
    render_netflow_row,
    render_perfmon_row,
    render_tacacs_row,
    render_workflow_row,
)
from ..collector.sources.ospfmon import render_ospfmon_row
from ..collector.sources.snmp import render_snmp_row
from ..collector.sources.syslog import render_syslog_line
from ..topology.builder import BuiltTopology

#: 2010-01-05 00:00:00 UTC — the default simulation epoch.
BASE_EPOCH = 1262649600.0

#: Default eBGP hold timer (Section II-C's 180-second cause-effect delay).
BGP_HOLD_TIMER = 180.0


class TelemetryBuffers:
    """Raw (timestamp, line) pairs per data source, flushed in time order."""

    def __init__(self) -> None:
        self._lines: Dict[str, List[Tuple[float, str]]] = {}

    def add(self, source: str, timestamp: float, line: str) -> None:
        """Buffer one raw line for a source."""
        self._lines.setdefault(source, []).append((timestamp, line))

    def sources(self) -> List[str]:
        """Buffered source names, sorted."""
        return sorted(self._lines)

    def lines(self, source: str) -> List[str]:
        """Raw lines of one source in time order."""
        return [line for _, line in sorted(self._lines.get(source, []))]

    def replay_order(self) -> List[Tuple[float, str, str]]:
        """All lines across sources as (time, source, line), time-ordered.

        This is the arrival order a streaming consumer would see.
        """
        merged = [
            (timestamp, source, line)
            for source, lines in self._lines.items()
            for timestamp, line in lines
        ]
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged

    def total_lines(self) -> int:
        """Total buffered lines across sources."""
        return sum(len(v) for v in self._lines.values())

    def transform(self, source: str, fn) -> int:
        """Rewrite one source's buffered pairs through ``fn``.

        ``fn`` maps ``(timestamp, line)`` to a replacement pair, or to
        ``None`` to drop the line — the hook feed-level fault recipes
        (outage, lag, corruption) are built on.  Returns how many pairs
        were dropped or altered.
        """
        kept: List[Tuple[float, str]] = []
        changed = 0
        for timestamp, line in self._lines.get(source, []):
            out = fn(timestamp, line)
            if out is None:
                changed += 1
                continue
            if out != (timestamp, line):
                changed += 1
            kept.append(out)
        self._lines[source] = kept
        return changed

    def ingest_into(self, collector: DataCollector) -> None:
        """Feed every buffered source through the collector's parsers."""
        for source in self.sources():
            collector.ingest(source, self.lines(source))


@dataclass
class TelemetryEmitter:
    """Low- and mid-level emission primitives over a topology."""

    topology: BuiltTopology
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    buffers: TelemetryBuffers = field(default_factory=TelemetryBuffers)
    syslog_jitter: float = 2.0

    def _tz(self, router: str) -> str:
        record = self.topology.network.routers.get(router)
        return record.timezone if record else "UTC"

    def _jittered(self, timestamp: float) -> float:
        if self.syslog_jitter <= 0:
            return timestamp
        return timestamp + self.rng.uniform(-self.syslog_jitter, self.syslog_jitter)

    # ------------------------------------------------------------------
    # low-level, one raw line each

    def syslog(self, timestamp: float, router: str, code: str, message: str) -> None:
        """Emit one syslog line (device-local clock, jittered)."""
        stamped = self._jittered(timestamp)
        self.buffers.add(
            "syslog",
            stamped,
            render_syslog_line(stamped, router, self._tz(router), code, message),
        )

    def snmp(
        self, timestamp: float, router: str, metric: str, interface: str, value: float
    ) -> None:
        """Emit one SNMP poller row."""
        self.buffers.add(
            "snmp", timestamp, render_snmp_row(timestamp, router, metric, interface, value)
        )

    def ospf_weight(self, timestamp: float, link: str, weight: int) -> None:
        """Emit one OSPFMon link-weight update."""
        self.buffers.add(
            "ospfmon", timestamp, render_ospfmon_row(timestamp, link, weight)
        )

    def bgp_update(
        self,
        timestamp: float,
        kind: str,
        prefix: str,
        egress_router: str,
        local_pref: int = 100,
        as_path_len: int = 1,
    ) -> None:
        """Emit one BGP-monitor announce/withdraw row."""
        self.buffers.add(
            "bgpmon",
            timestamp,
            render_bgpmon_row(
                timestamp, kind, prefix, egress_router,
                local_pref=local_pref, as_path_len=as_path_len,
            ),
        )

    def tacacs(self, timestamp: float, router: str, user: str, command: str) -> None:
        """Emit one TACACS command-accounting row."""
        self.buffers.add(
            "tacacs", timestamp, render_tacacs_row(timestamp, router, user, command)
        )

    def layer1(self, timestamp: float, device: str, event: str, circuit: str) -> None:
        """Emit one layer-1 device log row."""
        self.buffers.add(
            "layer1", timestamp, render_layer1_row(timestamp, device, event, circuit)
        )

    def perf(
        self, timestamp: float, source: str, destination: str, metric: str, value: float
    ) -> None:
        """Emit one end-to-end performance measurement."""
        self.buffers.add(
            "perfmon",
            timestamp,
            render_perfmon_row(timestamp, source, destination, metric, value),
        )

    def netflow(
        self, timestamp: float, source: str, source_ip: str, ingress_router: str
    ) -> None:
        """Emit one NetFlow ingress-mapping sample."""
        self.buffers.add(
            "netflow",
            timestamp,
            render_netflow_row(timestamp, source, source_ip, ingress_router),
        )

    def workflow(self, timestamp: float, router: str, activity: str, detail: str) -> None:
        """Emit one provisioning/workflow log row."""
        self.buffers.add(
            "workflow",
            timestamp,
            render_workflow_row(timestamp, router, activity, detail),
        )

    def cdn(self, timestamp: float, server: str, kind: str, value) -> None:
        """Emit one CDN server-log row."""
        self.buffers.add("cdn", timestamp, render_cdn_row(timestamp, server, kind, value))

    # ------------------------------------------------------------------
    # mid-level composites (protocol-faithful message sequences)

    def interface_flap(
        self,
        t_down: float,
        interface_fq: str,
        duration: float,
        line_protocol: bool = True,
    ) -> float:
        """LINK-3-UPDOWN down/up (and line protocol follow-up); returns t_up."""
        router, _, if_name = interface_fq.partition(":")
        t_up = t_down + duration
        self.syslog(
            t_down, router, "LINK-3-UPDOWN",
            f"Interface {if_name}, changed state to down",
        )
        self.syslog(
            t_up, router, "LINK-3-UPDOWN",
            f"Interface {if_name}, changed state to up",
        )
        if line_protocol:
            self.line_protocol_flap(t_down + 1.0, interface_fq, duration)
        return t_up

    def line_protocol_flap(
        self, t_down: float, interface_fq: str, duration: float
    ) -> float:
        """LINEPROTO-5-UPDOWN down/up pair; returns t_up."""
        router, _, if_name = interface_fq.partition(":")
        t_up = t_down + duration
        self.syslog(
            t_down, router, "LINEPROTO-5-UPDOWN",
            f"Line protocol on Interface {if_name}, changed state to down",
        )
        self.syslog(
            t_up, router, "LINEPROTO-5-UPDOWN",
            f"Line protocol on Interface {if_name}, changed state to up",
        )
        return t_up

    def ebgp_flap(
        self,
        t_down: float,
        router: str,
        neighbor_ip: str,
        duration: float = 45.0,
        reason: str = "",
    ) -> float:
        """BGP-5-ADJCHANGE Down then Up; returns the session-up time."""
        t_up = t_down + duration
        suffix = f" {reason}" if reason else ""
        self.syslog(
            t_down, router, "BGP-5-ADJCHANGE", f"neighbor {neighbor_ip} Down{suffix}"
        )
        self.syslog(t_up, router, "BGP-5-ADJCHANGE", f"neighbor {neighbor_ip} Up")
        return t_up

    def bgp_hold_timer_expiry(self, timestamp: float, router: str, neighbor_ip: str) -> None:
        """BGP NOTIFICATION: hold time expired (sent)."""
        self.syslog(
            timestamp, router, "BGP-5-NOTIFICATION",
            f"sent to neighbor {neighbor_ip} 4/0 (hold time expired) 0 bytes",
        )

    def bgp_customer_reset(self, timestamp: float, router: str, neighbor_ip: str) -> None:
        """Customer-side administrative reset -> session flap."""
        self.syslog(
            timestamp, router, "BGP-5-NOTIFICATION",
            f"received from neighbor {neighbor_ip} 6/4 (administrative reset)",
        )

    def cpu_spike(self, timestamp: float, router: str, percent: int = 96) -> None:
        """SYS-3-CPUHOG message with a CPU percentage."""
        self.syslog(
            timestamp, router, "SYS-3-CPUHOG",
            f"CPU utilization over last 5 seconds: {percent}%",
        )

    def router_restart(self, timestamp: float, router: str) -> None:
        """SYS-5-RESTART message."""
        self.syslog(timestamp, router, "SYS-5-RESTART", "System restarted")

    def pim_neighbor_change(
        self,
        timestamp: float,
        router: str,
        neighbor_ip: str,
        interface: str,
        state: str,
        vrf: Optional[str] = None,
    ) -> None:
        """PIM-5-NBRCHG message, optionally vrf-scoped."""
        vrf_part = f" (vrf {vrf})" if vrf else ""
        self.syslog(
            timestamp, router, "PIM-5-NBRCHG",
            f"neighbor {neighbor_ip} {state.upper()} on interface {interface}{vrf_part}",
        )

    def linecard_crash_msg(self, timestamp: float, router: str, slot: int) -> None:
        """OIR-3-CRASH message naming the slot."""
        self.syslog(
            timestamp, router, "OIR-3-CRASH",
            f"Line card in slot {slot} crashed and is reloading",
        )
