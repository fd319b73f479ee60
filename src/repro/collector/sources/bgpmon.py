"""BGP route-monitor parser.

The monitor peers with the route reflectors, so this feed carries the
reflector-visible announcements and withdrawals used by the BGP decision
emulation (Section II-B, item 1).  Row format::

    1262692800.0|A|198.51.100.0/24|chi-per1|10.0.0.1|100|3
    1262692900.0|W|198.51.100.0/24|chi-per1||0|0

(A = announce, W = withdraw; the last four fields are next hop, local
preference and AS-path length.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ...routing.bgp import BgpRoute, BgpUpdate, BgpUpdateLog
from ..normalizer import NormalizationError
from ..store import DataStore
from .base import SourceParser, parse_count, parse_epoch


@dataclass
class BgpMonParser(SourceParser):
    """Parses reflector-feed updates into the ``bgpmon`` table."""

    table_name: str = "bgpmon"
    columns = (
        "kind", "prefix", "egress_router", "next_hop", "local_pref", "as_path_len"
    )

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 7:
            raise NormalizationError("expected 7 pipe-separated fields")
        raw_time, kind, prefix, raw_egress, next_hop, raw_pref, raw_aslen = parts
        if kind not in ("A", "W"):
            raise NormalizationError(f"unknown update kind {kind!r}")
        if "/" not in prefix:
            raise NormalizationError(f"malformed prefix {prefix!r}")
        timestamp = parse_epoch(raw_time)
        return timestamp, (
            kind,
            prefix,
            self.registry.canonical_name(raw_egress),
            next_hop,
            parse_count(raw_pref or "0"),
            parse_count(raw_aslen or "0"),
        )


def render_bgpmon_row(
    timestamp: float,
    kind: str,
    prefix: str,
    egress_router: str,
    next_hop: str = "",
    local_pref: int = 100,
    as_path_len: int = 1,
) -> str:
    """Render one BGP-monitor feed row."""
    return (
        f"{timestamp}|{kind}|{prefix}|{egress_router}|{next_hop}"
        f"|{local_pref}|{as_path_len}"
    )


def update_log_from_store(store: DataStore) -> BgpUpdateLog:
    """Build the BGP emulator's update log from the table."""
    log = BgpUpdateLog()
    for record in store.table("bgpmon").scan():
        route = BgpRoute(
            prefix=record["prefix"],
            egress_router=record["egress_router"],
            next_hop=record.get("next_hop", ""),
            local_pref=record.get("local_pref", 100),
            as_path_len=record.get("as_path_len", 1),
        )
        log.record(
            BgpUpdate(
                timestamp=record.timestamp,
                route=route,
                withdrawn=record["kind"] == "W",
            )
        )
    return log
