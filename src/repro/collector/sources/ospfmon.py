"""OSPF route-monitor parser (the OSPFMon feed of reference [9]).

One row per link-weight update flooded in the IGP::

    1262692800.0|nyc-cr1--chi-cr1:10.0.0.0|65535

Rows stamp in epoch seconds (the monitor normalizes to network time).
Table I's "OSPF re-convergence event", "Router Cost In/Out",
"Link Cost Out/Down" and "Link Cost In/Up" events are all inferred from
this table; the OSPF simulator replays it to reconstruct historical
paths.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Tuple

from ...routing.ospf import WeightChange, WeightHistory
from ..normalizer import NormalizationError
from ..store import DataStore
from .base import SourceParser, parse_count, parse_epoch


@dataclass
class OspfMonParser(SourceParser):
    """Parses weight updates into the ``ospfmon`` table."""

    table_name: str = "ospfmon"
    columns = ("link", "weight")

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:
        """Normalize one raw line to ``(timestamp, values)``."""
        parts = line.strip().split("|")
        if len(parts) != 3:
            raise NormalizationError("expected 3 pipe-separated fields")
        raw_time, link, raw_weight = parts
        if not link:
            raise NormalizationError("empty link identifier")
        timestamp = parse_epoch(raw_time)
        weight = parse_count(raw_weight)
        if weight < 0:
            raise NormalizationError("negative weight")
        return timestamp, (sys.intern(link), weight)


def render_ospfmon_row(timestamp: float, link: str, weight: int) -> str:
    """Render one OSPFMon weight-update row."""
    return f"{timestamp}|{link}|{weight}"


def weight_history_from_store(store: DataStore) -> WeightHistory:
    """Build the routing simulator's weight history from the table."""
    history = WeightHistory()
    rows = store.table("ospfmon").query_columns()
    for change in map(
        WeightChange, rows.timestamps, rows.column("link"), rows.column("weight")
    ):
        history.record(change)
    return history
