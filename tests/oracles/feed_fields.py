"""The parsers as they were when a row was a dict: the reference ``fields``.

Each function is the ``parse`` of one source as of the commit before
rows became columns — it builds the row's field dict key by key, with an
``if`` around every optional one.  ``SourceParser.parse`` now emits a
value tuple against the parser's declared columns; its
``parse_fields(line)`` must give, for every line, exactly the
``(timestamp, fields)`` these give (or reject it, as these do).

One divergence is on purpose and named in ``test_columns.py``: these
hand numeric fields to ``int()`` / ``float()`` as they come, so they
read Python literal syntax (``1_0``, full-width digits) that the
parsers now reject.
"""

import math
import re
import sys
from typing import Any, Dict, Tuple

from repro.collector.normalizer import (
    NormalizationError,
    normalize_interface_name,
    parse_timestamp,
)
from repro.collector.sources import syslog as _syslog
from repro.collector.sources.misc import (
    _COMMAND_INTERFACE_RE,
    _LAYER1_EVENTS,
    _PERF_METRICS,
)
from repro.collector.sources.snmp import _KNOWN_METRICS

_CPU_RE = re.compile(r"utilization.*?(\d+)%")
_SLOT_RE = re.compile(r"slot\s+(\d+)")


def parse_epoch(raw: str) -> float:
    try:
        epoch = float(raw)
    except ValueError:
        raise NormalizationError(f"unparseable epoch {raw!r}") from None
    if not (0.0 <= epoch <= 4.0e9):
        raise NormalizationError(f"epoch out of range: {raw!r}")
    return epoch


def parse_value(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise NormalizationError("non-finite value")
    return value


def _split(line: str, count: int, maxsplit: int = -1):
    parts = line.strip().split("|", maxsplit)
    if len(parts) != count:
        raise NormalizationError(f"expected {count} pipe-separated fields")
    return parts


def syslog(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    match = _syslog._LINE_RE.match(line.strip())
    if not match:
        raise NormalizationError("unrecognized syslog line")
    router = registry.canonical_name(match.group("host"))
    timestamp = registry.parse_device_timestamp(match.group("timestamp"), router)
    code = match.group("code")
    message = match.group("message")
    fields: Dict[str, Any] = {"router": router, "code": code, "message": message}
    fields.update(_extract_structured(code, message))
    return timestamp, fields


def _extract_structured(code: str, message: str) -> Dict[str, Any]:
    fields: Dict[str, Any] = {}
    if code == _syslog.CODE_PIM_NBRCHG:
        match = _syslog._PIM_RE.search(message)
        if match:
            fields["neighbor"] = match.group("neighbor")
            fields["state"] = match.group("state").lower()
            fields["interface"] = normalize_interface_name(match.group("interface"))
            if match.group("vrf"):
                fields["vrf"] = match.group("vrf")
        return fields
    iface = _syslog._INTERFACE_RE.search(message)
    if iface:
        fields["interface"] = normalize_interface_name(iface.group(1))
    state = _syslog._STATE_RE.search(message)
    if state:
        fields["state"] = state.group(1).lower()
    neighbor = _syslog._NEIGHBOR_RE.search(message)
    if neighbor:
        fields["neighbor"] = neighbor.group(1)
    if code == _syslog.CODE_BGP_ADJCHANGE:
        bgp_state = _syslog._BGP_STATE_RE.search(message)
        if bgp_state:
            fields["state"] = bgp_state.group(1).lower()
    if code == _syslog.CODE_BGP_NOTIFICATION:
        fields["reason"] = _syslog._notification_reason(message)
        fields["direction"] = "sent" if "sent to" in message else "received"
    if code == _syslog.CODE_CPUHOG:
        cpu = _CPU_RE.search(message)
        if cpu:
            fields["cpu_pct"] = int(cpu.group(1))
    if code == _syslog.CODE_LINECARD:
        slot = _SLOT_RE.search(message)
        if slot:
            fields["slot"] = int(slot.group(1))
    return fields


def snmp(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, raw_router, metric, raw_interface, raw_value = _split(line, 5)
    if metric not in _KNOWN_METRICS:
        raise NormalizationError(f"unknown metric {metric!r}")
    timestamp = parse_timestamp(raw_time, "UTC")
    router = registry.canonical_name(raw_router)
    value = parse_value(raw_value)
    fields = {"router": router, "metric": sys.intern(metric), "value": value}
    if raw_interface:
        fields["interface"] = normalize_interface_name(raw_interface)
    return timestamp, fields


def ospfmon(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, link, raw_weight = _split(line, 3)
    if not link:
        raise NormalizationError("empty link identifier")
    timestamp = parse_epoch(raw_time)
    weight = int(raw_weight)
    if weight < 0:
        raise NormalizationError("negative weight")
    return timestamp, {"link": sys.intern(link), "weight": weight}


def bgpmon(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, kind, prefix, raw_egress, next_hop, raw_pref, raw_aslen = _split(line, 7)
    if kind not in ("A", "W"):
        raise NormalizationError(f"unknown update kind {kind!r}")
    if "/" not in prefix:
        raise NormalizationError(f"malformed prefix {prefix!r}")
    timestamp = parse_epoch(raw_time)
    return timestamp, {
        "kind": kind,
        "prefix": prefix,
        "egress_router": registry.canonical_name(raw_egress),
        "next_hop": next_hop,
        "local_pref": int(raw_pref or 0),
        "as_path_len": int(raw_aslen or 0),
    }


def tacacs(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, raw_router, user, command = _split(line, 4, 3)
    timestamp = parse_timestamp(raw_time, "UTC")
    router = registry.canonical_name(raw_router)
    fields = {"router": router, "user": user, "command": command}
    match = _COMMAND_INTERFACE_RE.search(command)
    if match:
        try:
            fields["interface"] = normalize_interface_name(match.group(1))
        except NormalizationError:
            pass
    return timestamp, fields


def layer1(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, device, event, circuit = _split(line, 4)
    if event not in _LAYER1_EVENTS:
        raise NormalizationError(f"unknown layer-1 event {event!r}")
    return parse_epoch(raw_time), {
        "device": device.strip().lower(),
        "event": event,
        "circuit": circuit,
    }


def perfmon(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, source, destination, metric, raw_value = _split(line, 5)
    if metric not in _PERF_METRICS:
        raise NormalizationError(f"unknown perf metric {metric!r}")
    return parse_epoch(raw_time), {
        "source": sys.intern(source.strip().lower()),
        "destination": sys.intern(destination.strip().lower()),
        "metric": sys.intern(metric),
        "value": parse_value(raw_value),
    }


def netflow(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, source, source_ip, raw_ingress = _split(line, 4)
    return parse_epoch(raw_time), {
        "source": sys.intern(source.strip().lower()),
        "source_ip": source_ip,
        "ingress_router": registry.canonical_name(raw_ingress),
    }


def workflow(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, raw_router, activity, detail = _split(line, 4, 3)
    if not activity:
        raise NormalizationError("empty activity")
    return parse_timestamp(raw_time, "UTC"), {
        "router": registry.canonical_name(raw_router),
        "activity": activity,
        "detail": detail,
    }


def cdn(registry, line: str) -> Tuple[float, Dict[str, Any]]:
    raw_time, server, kind, value = _split(line, 4)
    if kind not in ("load", "policy_change"):
        raise NormalizationError(f"unknown cdn record kind {kind!r}")
    fields = {"server": sys.intern(server.strip().lower()), "kind": kind}
    if kind == "load":
        fields["value"] = parse_value(value)
    else:
        fields["detail"] = value
    return parse_epoch(raw_time), fields


PARSERS = {
    "syslog": syslog, "snmp": snmp, "ospfmon": ospfmon, "bgpmon": bgpmon,
    "tacacs": tacacs, "layer1": layer1, "perfmon": perfmon,
    "netflow": netflow, "workflow": workflow, "cdn": cdn,
}
