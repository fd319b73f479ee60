"""SNMP poller parser.

The deployed collector ingests "hundreds of millions" of SNMP records a
day: 5-minute interval MIB counters.  The poller export format here is a
pipe-separated row per sample::

    2010-01-05 10:25:00|nyc-per1|cpu_util_5min||72
    2010-01-05 10:25:00|nyc-per1|link_util|se1/0|83.5
    2010-01-05 10:25:00|nyc-per1|corrupted_packets|se1/0|140

SNMP pollers stamp rows in network (UTC) time already, so only name
normalization applies.  Table I's SNMP-derived events — "CPU high
(average)", "Link congestion alarm", "Link loss alarm" — threshold these
metrics.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Tuple

from ..normalizer import (
    NormalizationError,
    normalize_interface_name,
    parse_timestamp,
)
from ..rows import MISSING
from .base import SourceParser, parse_value

#: Metric names exported by the poller.
METRIC_CPU = "cpu_util_5min"
METRIC_LINK_UTIL = "link_util"
METRIC_CORRUPTED = "corrupted_packets"
METRIC_OVERFLOW = "overflow_packets"

_KNOWN_METRICS = {METRIC_CPU, METRIC_LINK_UTIL, METRIC_CORRUPTED, METRIC_OVERFLOW}

#: Poll interval of the SNMP collector (Table I thresholds are per 5 min).
POLL_INTERVAL_SECONDS = 300.0


@dataclass
class SnmpParser(SourceParser):
    """Parses poller export rows into the ``snmp`` table."""

    table_name: str = "snmp"
    columns = ("router", "metric", "value", "interface")
    optional = frozenset({"interface"})

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 5:
            raise NormalizationError("expected 5 pipe-separated fields")
        raw_time, raw_router, metric, raw_interface, raw_value = parts
        if metric not in _KNOWN_METRICS:
            raise NormalizationError(f"unknown metric {metric!r}")
        timestamp = parse_timestamp(raw_time, "UTC")
        router = self.registry.canonical_name(raw_router)
        value = parse_value(raw_value)
        interface = normalize_interface_name(raw_interface) if raw_interface else MISSING
        return timestamp, (router, sys.intern(metric), value, interface)


def render_snmp_row(
    timestamp: float, router: str, metric: str, interface: str, value: float
) -> str:
    """Produce one poller export row (UTC timestamps)."""
    from ..normalizer import epoch_to_text

    return f"{epoch_to_text(timestamp)}|{router}|{metric}|{interface}|{value}"
