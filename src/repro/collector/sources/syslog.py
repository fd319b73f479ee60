"""Syslog parser.

Router syslog is the richest diagnostic source in the paper (Table I
draws interface/line-protocol events, router reboots and CPU spikes from
it; Tables III and VII draw the BGP and PIM application events from it).
Daily volume in the deployed system is "tens of millions" of records.

Canonical line shape (Cisco-IOS flavoured)::

    Jan  5 10:22:01 nyc-per1.ispnet.example %LINK-3-UPDOWN: \
        Interface Serial0/0, changed state to down

Timestamps are in the *device's local clock* (the registry supplies the
zone); hostnames may carry domain suffixes.  Both are normalized here,
at ingest, per Section II-A.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..normalizer import NormalizationError, normalize_interface_name
from ..rows import MISSING
from .base import SourceParser, parse_count

_LINE_RE = re.compile(
    r"^(?P<timestamp>\w{3}\s+\d+\s+[\d:]+|\d{4}-\d{2}-\d{2}[ T][\d:]+)\s+"
    r"(?P<host>\S+)\s+"
    r"(?:\d+:\s+)?"  # optional sequence number
    r"%(?P<code>[A-Z0-9_]+-\d-[A-Z0-9_]+):\s*"
    r"(?P<message>.*)$"
)

_INTERFACE_RE = re.compile(r"Interface\s+([A-Za-z]+[\d/.:]+)")
_STATE_RE = re.compile(r"changed state to\s+(\w+)")
_NEIGHBOR_RE = re.compile(r"neighbor\s+(\d+\.\d+\.\d+\.\d+)")
_BGP_STATE_RE = re.compile(r"neighbor\s+\d+\.\d+\.\d+\.\d+(?:\s+\S+)*?\s+(Up|Down)\b")
_PIM_RE = re.compile(
    r"neighbor\s+(?P<neighbor>\d+\.\d+\.\d+\.\d+)\s+(?P<state>UP|DOWN)\s+"
    r"on interface\s+(?P<interface>[A-Za-z]+[\d/.:]+)(?:\s+\(vrf\s+(?P<vrf>\S+)\))?"
)
_CPU_RE = re.compile(r"utilization.*?(\d+)%")
_SLOT_RE = re.compile(r"slot\s+(\d+)")


#: Syslog message codes of interest (subset of a vendor's catalogue).
CODE_LINK = "LINK-3-UPDOWN"
CODE_LINEPROTO = "LINEPROTO-5-UPDOWN"
CODE_BGP_ADJCHANGE = "BGP-5-ADJCHANGE"
CODE_BGP_NOTIFICATION = "BGP-5-NOTIFICATION"
CODE_PIM_NBRCHG = "PIM-5-NBRCHG"
CODE_RESTART = "SYS-5-RESTART"
CODE_CPUHOG = "SYS-3-CPUHOG"
CODE_LINECARD = "OIR-3-CRASH"


@dataclass
class SyslogParser(SourceParser):
    """Parses syslog lines into the ``syslog`` table."""

    table_name: str = "syslog"
    columns = (
        "router", "code", "message",
        "interface", "state", "neighbor", "vrf", "reason", "direction",
        "cpu_pct", "slot",
    )
    #: the typed fields :func:`_extract_structured` may find in the body
    optional = frozenset(columns[3:])

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        match = _LINE_RE.match(line.strip())
        if not match:
            raise NormalizationError("unrecognized syslog line")
        router = self.registry.canonical_name(match.group("host"))
        timestamp = self.registry.parse_device_timestamp(match.group("timestamp"), router)
        code = match.group("code")
        message = match.group("message")
        return timestamp, (router, code, message, *_extract_structured(code, message))


def _extract_structured(code: str, message: str) -> Tuple[Any, ...]:
    """Pull typed fields out of the free-text message body: one value
    per optional column, ``MISSING`` for what the body does not say."""
    interface = state = neighbor = vrf = reason = direction = cpu_pct = slot = MISSING
    if code == CODE_PIM_NBRCHG:
        match = _PIM_RE.search(message)
        if match:
            neighbor = match.group("neighbor")
            state = match.group("state").lower()
            interface = normalize_interface_name(match.group("interface"))
            vrf = match.group("vrf") or MISSING
        return interface, state, neighbor, vrf, reason, direction, cpu_pct, slot
    found = _INTERFACE_RE.search(message)
    if found:
        interface = normalize_interface_name(found.group(1))
    found = _STATE_RE.search(message)
    if found:
        state = found.group(1).lower()
    found = _NEIGHBOR_RE.search(message)
    if found:
        neighbor = found.group(1)
    if code == CODE_BGP_ADJCHANGE:
        found = _BGP_STATE_RE.search(message)
        if found:
            state = found.group(1).lower()
    elif code == CODE_BGP_NOTIFICATION:
        reason = _notification_reason(message)
        direction = "sent" if "sent to" in message else "received"
    elif code == CODE_CPUHOG:
        found = _CPU_RE.search(message)
        if found:
            cpu_pct = parse_count(found.group(1))
    elif code == CODE_LINECARD:
        found = _SLOT_RE.search(message)
        if found:
            slot = parse_count(found.group(1))
    return interface, state, neighbor, vrf, reason, direction, cpu_pct, slot


def _notification_reason(message: str) -> Optional[str]:
    """Classify a BGP NOTIFICATION message body.

    ``hold_timer_expired`` corresponds to the paper's "eBGP HTE" event;
    ``administrative_reset`` received from the neighbor is the
    "Customer reset session" event (Table III).
    """
    lowered = message.lower()
    if "hold time expired" in lowered or "4/0" in message:
        return "hold_timer_expired"
    if "administrative reset" in lowered or "6/4" in message:
        return "administrative_reset"
    if "cease" in lowered or "6/" in message:
        return "cease"
    return "other"


# ---------------------------------------------------------------------------
# rendering helpers (used by the simulator's telemetry emitters)


def format_syslog_time(timestamp: float, timezone: str) -> str:
    """Render epoch UTC as the device's local ``%b %d %H:%M:%S``."""
    import datetime

    try:
        from zoneinfo import ZoneInfo

        zone = ZoneInfo(timezone) if timezone not in ("UTC", "GMT") else datetime.timezone.utc
    except Exception:  # pragma: no cover - no tzdata
        zone = datetime.timezone.utc
    dt = datetime.datetime.fromtimestamp(timestamp, tz=zone)
    return dt.strftime("%b %d %H:%M:%S")


def render_syslog_line(
    timestamp: float,
    router: str,
    timezone: str,
    code: str,
    message: str,
    domain: str = "ispnet.example",
) -> str:
    """Produce one raw syslog line as a device would emit it."""
    stamp = format_syslog_time(timestamp, timezone)
    return f"{stamp} {router}.{domain} %{code}: {message}"
