"""Shared detection helpers used by event retrieval processes.

Flap pairing (a *down* followed by an *up* on the same location) and
baseline-relative anomaly detection for performance metrics.  These are
the "more sophisticated processing such as ... an anomaly detection
program" that Section II-A allows a retrieval process to be.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Hashable, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class TimedPoint:
    """A timestamped observation at a hashable location key."""

    timestamp: float
    key: Hashable
    payload: Any = None


def pair_flaps(
    downs: Sequence[TimedPoint],
    ups: Sequence[TimedPoint],
    window_seconds: float,
) -> List[Tuple[TimedPoint, TimedPoint]]:
    """Pair each *down* with the first *up* at the same key within a window.

    Unpaired downs (still down, or the up fell outside the window) are
    omitted — they are "down" events, not flaps.  Each up is consumed by
    at most one down.
    """
    ups_by_key: Dict[Hashable, List[TimedPoint]] = {}
    for up in sorted(ups, key=lambda p: p.timestamp):
        ups_by_key.setdefault(up.key, []).append(up)
    pairs: List[Tuple[TimedPoint, TimedPoint]] = []
    consumed: Dict[Hashable, int] = {}
    for down in sorted(downs, key=lambda p: p.timestamp):
        candidates = ups_by_key.get(down.key, [])
        index = consumed.get(down.key, 0)
        while index < len(candidates) and candidates[index].timestamp < down.timestamp:
            index += 1
        if index < len(candidates) and (
            candidates[index].timestamp - down.timestamp <= window_seconds
        ):
            pairs.append((down, candidates[index]))
            consumed[down.key] = index + 1
        else:
            consumed[down.key] = index
    return pairs


@dataclass(frozen=True)
class Anomaly:
    """One sample flagged against its trailing baseline."""

    timestamp: float
    key: Hashable
    value: float
    baseline: float


def window_rows(
    context, table: str, fields: Sequence[str], start: float, end: float, **equals: Any
) -> Iterable[Tuple[Any, ...]]:
    """``(timestamp, *fields)`` per row of ``table`` in ``[start, end]``
    matching ``equals``, read off the window's columns — no row object
    is built; a field a row lacks reads ``None``."""
    columns = context.store.table(table).query_columns(start, end, **equals)
    if not columns.timestamps:
        return ()  # the common case: no column to gather
    return zip(columns.timestamps, *map(columns.column, fields))


def pair_samples(columns) -> Iterable[Tuple[float, Hashable, float]]:
    """A ``perfmon`` window as :func:`detect_shift` samples keyed by
    ``(source, destination)``, read off its columns — no row is built."""
    return zip(
        columns.timestamps,
        zip(columns.column("source"), columns.column("destination")),
        columns.column("value"),
    )


class _Trailing:
    """One key's baseline: how many samples it accepted, and the last
    ``baseline_window`` of them in arrival order and sorted."""

    __slots__ = ("accepted", "recent", "ordered")

    def __init__(self) -> None:
        self.accepted = 0
        self.recent: Deque[float] = deque()
        self.ordered: List[float] = []


def detect_shift(
    samples: Iterable[Tuple[float, Hashable, float]],
    direction: str,
    factor: float,
    min_baseline_samples: int = 3,
    baseline_window: int = 12,
    absolute_floor: float = 0.0,
) -> List[Anomaly]:
    """Flag samples that shift from their per-key trailing median.

    ``direction`` is ``"increase"`` (value >= factor * baseline, e.g.
    delay or loss) or ``"decrease"`` (value <= baseline / factor, e.g.
    throughput).  ``absolute_floor`` suppresses noise on near-zero
    baselines (a loss series hovering at 0.0% should not alarm at
    0.001%).  The baseline is the median of a key's last
    ``baseline_window`` accepted values, kept sorted as they come and go
    (equal values in arrival order, as a stable sort leaves them).
    """
    if direction not in ("increase", "decrease"):
        raise ValueError(f"direction must be increase/decrease, got {direction!r}")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1.0")
    if min_baseline_samples < 1 or baseline_window < 1:
        raise ValueError("a baseline needs at least one sample")
    history: Dict[Hashable, _Trailing] = {}
    anomalies: List[Anomaly] = []
    for timestamp, key, value in sorted(samples, key=lambda s: s[0]):
        past = history.get(key)
        if past is None:
            past = history[key] = _Trailing()
        if past.accepted >= min_baseline_samples:
            # the trailing median, as statistics.median computes it
            trailing = past.ordered
            middle = len(trailing) // 2
            baseline = (
                trailing[middle] if len(trailing) % 2
                else (trailing[middle - 1] + trailing[middle]) / 2
            )
            if direction == "increase":
                flagged = value >= max(baseline * factor, baseline + absolute_floor)
            else:
                flagged = value <= min(
                    baseline / factor, baseline - absolute_floor
                ) and baseline > 0
            if flagged:
                anomalies.append(Anomaly(timestamp, key, value, baseline))
                # do not pollute the baseline with anomalous values
                continue
        past.accepted += 1
        insort(past.ordered, value)
        past.recent.append(value)
        if len(past.recent) > baseline_window:
            # the oldest of equal values sits first among them
            oldest = past.recent.popleft()
            del past.ordered[bisect_left(past.ordered, oldest)]
    return anomalies


def merge_intervals(
    points: Sequence[float], gap_seconds: float
) -> List[Tuple[float, float]]:
    """Merge point timestamps closer than ``gap_seconds`` into intervals."""
    intervals: List[Tuple[float, float]] = []
    for point in sorted(points):
        if intervals and point - intervals[-1][1] <= gap_seconds:
            intervals[-1] = (intervals[-1][0], point)
        else:
            intervals.append((point, point))
    return intervals
