"""Metrics: counters, gauges, latency histograms and the one registry.

The deployed G-RCA is operated, not just run — operators watch queue
depth, diagnosis latency and cache efficiency to know whether the
platform keeps up with its ~600 feeds.  A :class:`Registry` is an
ordered map from a dotted name (``jobs.submitted``, ``queue_wait``,
``stages.retrieve``) to an instrument, plus named read-only *sources*:
callables read at snapshot time for numbers that live elsewhere (store
sizes, resolver cache stats, health).  :meth:`Registry.snapshot` nests
the map by name into one JSON-ready document, :func:`snapshot_lines`
renders any such document as console lines, and :func:`sum_snapshots`
adds several registries' counters and gauges — so a metric is named
once, where it is declared, and every view is derived from that.

All instruments are thread-safe (one lock each); histograms keep a
bounded reservoir of recent samples, so percentiles reflect recent
behaviour and memory stays constant.  This module imports no other
``repro`` module.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence


class Counter:
    """Monotonic event counter (int or float amounts)."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Instantaneous value (queue depth, workers busy) with a high-water mark."""

    def __init__(self) -> None:
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._peak = max(self._peak, value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            self._peak = max(self._peak, self._value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def peak(self) -> float:
        with self._lock:
            return self._peak


class Histogram:
    """Latency histogram over a bounded reservoir of recent samples.

    Tracks exact count/sum/max since start; percentiles are computed
    over the newest ``reservoir`` samples (a sliding window, not a
    uniform sample — recent behaviour is what an operator tunes against).
    """

    def __init__(self, reservoir: int = 2048) -> None:
        self._samples: Deque[float] = deque(maxlen=reservoir)
        self._count = 0
        self._sum = 0.0
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value
            self._max = value if self._max is None else max(self._max, value)

    def percentile(self, fraction: float) -> float:
        """Reservoir percentile; 0.0 when nothing was observed."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
        with self._lock:
            ordered = sorted(self._samples)
        return _pick(ordered, fraction)

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / max in one locked pass."""
        with self._lock:
            ordered = sorted(self._samples)
            count, total, maximum = self._count, self._sum, self._max or 0.0
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": _pick(ordered, 0.50),
            "p95": _pick(ordered, 0.95),
            "max": maximum,
        }


def _pick(ordered: List[float], fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))] if ordered else 0.0


#: an entry that only reserves its (possibly empty) section
_SECTION = object()


def hit_rate(hits: float, misses: float) -> float:
    """Hits over lookups, 0.0 before any lookup."""
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


class Registry:
    """Ordered map from dotted names to instruments and sources.

    ``counter`` / ``gauge`` / ``histogram`` return the instrument under
    a name, creating it on first use; asking for a name under another
    type is a ``TypeError``.  In :meth:`snapshot` a counter is its
    value, a gauge its value plus its high-water mark as
    ``<name>_peak``, a histogram its :meth:`Histogram.summary`, and a
    source whatever it returns.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, object] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The Counter under ``name``, created on first use."""
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The Gauge under ``name``, created on first use."""
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The Histogram under ``name``, created on first use."""
        return self._instrument(name, Histogram)

    def source(self, name: str, read: Callable[[], Any]) -> None:
        """Serve ``read()``, called at snapshot time, under ``name``."""
        with self._lock:
            if name in self._entries:
                raise ValueError(f"metric {name!r} is already registered")
            self._entries[name] = read

    def section(self, name: str) -> None:
        """Reserve ``name`` as a nested section, served (empty) before
        its first member is created."""
        with self._lock:
            self._entries.setdefault(name, _SECTION)

    def _instrument(self, name: str, kind):
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = self._entries[name] = kind()
        if type(entry) is not kind:
            raise TypeError(f"metric {name!r} is not a {kind.__name__}")
        return entry

    def additive(self) -> List[str]:
        """Names of the counters and gauges: the values that add up
        across registries."""
        with self._lock:
            return [name for name, entry in self._entries.items()
                    if isinstance(entry, (Counter, Gauge))]

    def snapshot(self) -> Dict[str, Any]:
        """Every entry, in declaration order, nested by dotted name."""
        with self._lock:
            entries = list(self._entries.items())
        snap: Dict[str, Any] = {}
        for name, entry in entries:
            node, leaf = _parent(snap, name)
            if entry is _SECTION:
                node.setdefault(leaf, {})
            elif isinstance(entry, Gauge):
                node[leaf] = entry.value
                node[leaf + "_peak"] = entry.peak
            elif isinstance(entry, Counter):
                node[leaf] = entry.value
            elif isinstance(entry, Histogram):
                node[leaf] = entry.summary()
            else:
                node[leaf] = entry()
        return snap


def _parent(snap: Dict[str, Any], name: str):
    """(the dict that holds ``name``'s leaf, the leaf key), creating the
    sections on the way."""
    *path, leaf = name.split(".")
    for part in path:
        snap = snap.setdefault(part, {})
    return snap, leaf


def sum_snapshots(
    registries: Sequence[Registry], snapshots: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The snapshots' counter and gauge values summed name by name.

    ``snapshots[i]`` is ``registries[i].snapshot()``; which names sum is
    decided by instrument type, never by name.  Histograms and sources
    stay out: a sum of percentiles means nothing, and a source may be
    shared by the registries.
    """
    total: Dict[str, Any] = {}
    for registry, snap in zip(registries, snapshots):
        for name in registry.additive():
            value = snap
            for part in name.split("."):
                value = value[part]
            node, leaf = _parent(total, name)
            node[leaf] = node.get(leaf, 0) + value
    return total


def _number(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def snapshot_lines(snap: Dict[str, Any]) -> List[str]:
    """Console rendering of a snapshot: one ``name: key=value …`` line
    per section of plain values, an indented block per section of
    sections, ``name: value`` for a top-level value (a list joined by
    commas).  Every number of the snapshot is printed."""
    lines: List[str] = []
    for key, value in snap.items():
        if isinstance(value, dict) and any(isinstance(v, dict) for v in value.values()):
            lines.append(f"  {key}:")
            lines.extend("  " + line for line in snapshot_lines(value))
        elif isinstance(value, dict):
            fields = " ".join(f"{k}={_number(v)}" for k, v in value.items())
            lines.append(f"  {key}: {fields}".rstrip())
        elif isinstance(value, list):
            lines.append(f"  {key}: {', '.join(map(str, value))}")
        else:
            lines.append(f"  {key}: {_number(value)}")
    return lines
