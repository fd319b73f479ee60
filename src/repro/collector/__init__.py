"""Data Collector substrate: ingest, normalization and storage.

The :class:`DataCollector` facade wires a :class:`DeviceRegistry`, a
:class:`DataStore` and one parser per data source, mirroring the Fig. 1
component that "pulls all the data together, normalizes them so that
they can be readily correlated, and stores them in database tables".

It also carries the degradation-awareness substrate: a
:class:`~repro.collector.health.HealthRegistry` observing every ingest
batch (watermarks, accept/reject rates, the feed state machine) and a
:class:`~repro.collector.health.DeadLetterBuffer` capturing rejected
raw lines for later replay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .health import (
    CircuitOpenError,
    DeadLetter,
    DeadLetterBuffer,
    FeedHealth,
    FeedReader,
    FeedReadError,
    FeedState,
    HealthConfig,
    HealthInterval,
    HealthRegistry,
    canonical_source,
)
from .normalizer import (
    DeviceRegistry,
    NormalizationError,
    brief_reason,
    epoch_to_text,
    normalize_interface_name,
    normalize_router_name,
    parse_timestamp,
)
from .sources import (
    BgpMonParser,
    CdnLogParser,
    Layer1Parser,
    NetflowParser,
    OspfMonParser,
    ParseStats,
    PerfMonParser,
    SnmpParser,
    SourceParser,
    SyslogParser,
    TacacsParser,
    WorkflowParser,
)
from .store import DataStore, Record, Table


class DataCollector:
    """All source parsers over one shared store and registry."""

    def __init__(
        self,
        registry: DeviceRegistry = None,
        store: DataStore = None,
        health: Optional[HealthRegistry] = None,
        dead_letters: Optional[DeadLetterBuffer] = None,
    ) -> None:
        self.registry = registry or DeviceRegistry()
        self.store = store or DataStore()
        self.health = health or HealthRegistry()
        self.dead_letters = dead_letters if dead_letters is not None else DeadLetterBuffer()
        self.parsers: Dict[str, SourceParser] = {}
        for parser_cls in (
            SyslogParser,
            SnmpParser,
            OspfMonParser,
            BgpMonParser,
            TacacsParser,
            Layer1Parser,
            PerfMonParser,
            NetflowParser,
            WorkflowParser,
            CdnLogParser,
        ):
            parser = parser_cls(store=self.store, registry=self.registry)
            parser.dead_letters = self.dead_letters
            self.parsers[parser.table_name] = parser

    def ingest(
        self, source: str, lines: Iterable[str], now: Optional[float] = None
    ) -> ParseStats:
        """Feed raw lines from one source through its parser.

        ``now`` is the observation clock for feed-health accounting
        (a streaming consumer passes its arrival cutoff); when omitted,
        the batch's own watermark stands in, so batch replays of clean
        historical data never look stale.
        """
        if source not in self.parsers:
            raise KeyError(f"unknown data source {source!r}")
        stats = self.parsers[source].stats
        before_accepted, before_rejected = stats.accepted, stats.rejected
        self.parsers[source].ingest(lines)
        observed_at = now if now is not None else stats.watermark
        if observed_at is not None:
            self.health.observe(
                source,
                observed_at,
                stats.accepted - before_accepted,
                stats.rejected - before_rejected,
                stats.watermark,
            )
        return stats

    def tick(self, now: float) -> None:
        """Re-evaluate feed health at a clock tick (silence counts too)."""
        self.health.tick(now)

    def replay_dead_letters(self) -> Dict[str, tuple]:
        """Re-ingest everything in the dead-letter buffer; see
        :meth:`~repro.collector.health.DeadLetterBuffer.replay_into`."""
        return self.dead_letters.replay_into(self)

    def summary(self) -> Dict[str, int]:
        """Record counts per table (the collector's dashboard view)."""
        return self.store.summary()

    def feed_stats_lines(self) -> List[str]:
        """One formatted ``stats`` line per source that saw any input,
        plus per-table storage lines (backend identity, tail-buffer and
        merge counters) so operators can see which engine served."""
        lines = []
        for source, parser in sorted(self.parsers.items()):
            stats = parser.stats
            if stats.accepted == 0 and stats.rejected == 0:
                continue
            state = self.health.state(source).value
            line = (
                f"stats {source:<8} state={state:<8} accepted={stats.accepted} "
                f"rejected={stats.rejected}"
            )
            top = stats.top_reasons(3)
            if top:
                reasons = ", ".join(f"{reason} x{count}" for reason, count in top)
                line += f"  top-rejects: {reasons}"
            lines.append(line)
        if self.dead_letters.dropped or len(self.dead_letters):
            lines.append(
                f"stats dead-letters buffered={len(self.dead_letters)} "
                f"dropped={self.dead_letters.dropped}"
            )
        storage = self.store.storage_summary()
        if storage:
            lines.append(
                f"stats storage backend={self.store.backend_name} "
                f"tables={len(storage)} records={self.store.total_records()}"
            )
            for name, table_stats in sorted(storage.items()):
                detail = " ".join(
                    f"{key}={value}"
                    for key, value in table_stats.items()
                    if key not in ("backend", "path")
                )
                lines.append(f"stats storage {name:<8} {detail}")
        return lines


__all__ = [
    "CircuitOpenError",
    "DataCollector",
    "DataStore",
    "DeadLetter",
    "DeadLetterBuffer",
    "DeviceRegistry",
    "FeedHealth",
    "FeedReadError",
    "FeedReader",
    "FeedState",
    "HealthConfig",
    "HealthInterval",
    "HealthRegistry",
    "NormalizationError",
    "Record",
    "Table",
    "brief_reason",
    "canonical_source",
    "epoch_to_text",
    "normalize_interface_name",
    "normalize_router_name",
    "parse_timestamp",
]
