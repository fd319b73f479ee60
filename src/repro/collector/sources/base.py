"""Shared machinery for data-source parsers.

Every source adapter turns raw input (log lines or poller rows) into
normalized rows in one :class:`~repro.collector.store.DataStore` table.
Malformed input is counted, not raised: a production collector must keep
ingesting when one device emits garbage.  Rejected lines are optionally
captured in a dead-letter buffer for later replay, and every accepted
row advances the source's watermark so feed-health tracking can tell
"no data" apart from "late data".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..health import DeadLetter, DeadLetterBuffer
from ..normalizer import DeviceRegistry, NormalizationError, brief_reason
from ..rows import RowBatch, fields_of
from ..store import DataStore, Table

#: Cap on distinct reject reasons tracked per source (top-N, approximate).
MAX_REJECT_REASONS = 16

#: Parsed rows handed to the table per batch.  Bounds what an endless
#: generator of lines holds back from readers (and in memory) while
#: keeping the per-batch costs — locks, listeners, a SQLite commit —
#: thousands of rows apart.
FLUSH_ROWS = 4096


@dataclass
class ParseStats:
    """Ingest accounting for one source."""

    accepted: int = 0
    rejected: int = 0
    last_error: Optional[str] = None
    #: bounded counter of normalized reject reasons (top-N, approximate:
    #: when full, the rarest tracked reason is evicted for a new one)
    reason_counts: Counter = field(default_factory=Counter)
    #: timestamp of the newest accepted record
    watermark: Optional[float] = None

    def reject(self, reason: str, line: Optional[str] = None) -> None:
        """Count one rejected line and keep its reason."""
        self.rejected += 1
        self.last_error = f"{reason} in {line!r}" if line is not None else reason
        key = brief_reason(reason)
        if key not in self.reason_counts and len(self.reason_counts) >= MAX_REJECT_REASONS:
            rarest = min(self.reason_counts, key=self.reason_counts.get)
            del self.reason_counts[rarest]
        self.reason_counts[key] += 1

    def note_insert(self, timestamp: float) -> None:
        """Advance the watermark past an accepted record."""
        if self.watermark is None or timestamp > self.watermark:
            self.watermark = timestamp

    def top_reasons(self, n: int = 5) -> List[Tuple[str, int]]:
        """The ``n`` most frequent reject reasons, most frequent first."""
        return self.reason_counts.most_common(n)

    @property
    def reject_ratio(self) -> float:
        """Rejected fraction of all lines seen (0.0 when none seen)."""
        total = self.accepted + self.rejected
        return self.rejected / total if total else 0.0


# ``int()`` and ``float()`` read Python literal syntax — ``1_0`` is 10,
# a full-width ``１２`` is 12 — which no feed writes: a numeric field is
# ASCII without underscores or it is rejected, before either sees it.


def parse_epoch(raw: str) -> float:
    """Parse an epoch-seconds field, rejecting NaN/inf/out-of-range."""
    try:
        if "_" in raw or not raw.isascii():
            raise ValueError
        epoch = float(raw)
    except ValueError:
        raise NormalizationError(f"unparseable epoch {raw!r}") from None
    if not (0.0 <= epoch <= 4.0e9):
        raise NormalizationError(f"epoch out of range: {raw!r}")
    return epoch


def parse_value(raw: str) -> float:
    """Parse a metric value field, rejecting NaN and the infinities
    (one of them poisons every median and threshold downstream)."""
    if "_" in raw or not raw.isascii():
        raise NormalizationError(f"malformed number {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise NormalizationError("non-finite value")
    return value


def parse_count(raw: str) -> int:
    """Parse an integer field written in plain ASCII digits."""
    if "_" in raw or not raw.isascii():
        raise NormalizationError(f"malformed number {raw!r}")
    return int(raw)


@dataclass
class SourceParser:
    """Base class: binds a store table and a device registry."""

    store: DataStore
    registry: DeviceRegistry = field(default_factory=DeviceRegistry)
    stats: ParseStats = field(default_factory=ParseStats)
    #: when set (by the collector), rejected raw lines are captured here
    dead_letters: Optional[DeadLetterBuffer] = None

    #: override in subclasses
    table_name: str = ""
    #: the field names :meth:`parse` emits values against, in order
    columns: ClassVar[Tuple[str, ...]] = ()
    #: the columns a line may lack (``MISSING`` in its value tuple)
    optional: ClassVar[FrozenSet[str]] = frozenset()

    def ingest(self, lines: Iterable[str]) -> ParseStats:
        """Parse an iterable of raw lines and store the rows in batches.

        Malformed lines are counted and dead-lettered where they occur;
        accepted rows reach the table, the accept count and the
        watermark :data:`FLUSH_ROWS` at a time — as value tuples, no
        object per row.
        """
        stats, parse = self.stats, self.parse
        table = self.store.table(self.table_name)
        timestamps: List[float] = []
        rows: List[Tuple[Any, ...]] = []
        for line in lines:
            if not line or line.isspace():
                continue
            try:
                timestamp, values = parse(line)
            except (NormalizationError, ValueError) as exc:
                reason = str(exc)
                stats.reject(reason, line)
                if self.dead_letters is not None:
                    self.dead_letters.append(
                        DeadLetter(self.table_name, line, brief_reason(reason))
                    )
                continue
            timestamps.append(timestamp)
            rows.append(values)
            if len(rows) >= FLUSH_ROWS:
                self._flush(table, timestamps, rows)
                timestamps, rows = [], []  # the batch keeps the old ones
        self._flush(table, timestamps, rows)
        return stats

    def _flush(self, table: Table, timestamps: List[float], rows: list) -> None:
        if rows:
            table.insert_many(RowBatch(self.columns, timestamps, rows, self.optional))
            self.stats.accepted += len(rows)
            self.stats.note_insert(max(timestamps))

    def parse(self, line: str) -> Tuple[float, Tuple[Any, ...]]:  # pragma: no cover - abstract
        """Normalize one raw line to ``(timestamp, values)`` — the
        values against :attr:`columns`, ``MISSING`` for an optional
        field the line lacks; stores nothing.  Raises
        :class:`NormalizationError` (or ``ValueError``) for a line that
        must be rejected."""
        raise NotImplementedError

    def parse_fields(self, line: str) -> Tuple[float, Dict[str, Any]]:
        """:meth:`parse` with the values as the row's field dict."""
        timestamp, values = self.parse(line)
        return timestamp, fields_of(self.columns, values)
