"""Feed-health tracking for the Data Collector (Section VI robustness).

The deployed G-RCA ingests ~600 heterogeneous real-time feeds; any of
them can lag, drop out, or start emitting garbage.  This module makes
that degradation a first-class, observable condition:

* :class:`FeedHealth` tracks one source's last-record watermark,
  staleness, and accept/reject rates over a sliding window, and runs the
  ``HEALTHY -> LAGGING -> DEGRADED -> DOWN`` state machine, recording
  every non-healthy interval so later diagnoses can be annotated.
* :class:`HealthRegistry` holds one :class:`FeedHealth` per source and
  answers the engine's question "was this evidence source degraded while
  this rule's retrieval window was open?".
* :class:`FeedReader` wraps a feed transport with the shared
  :mod:`repro.resilience` kit — a :class:`~repro.resilience.RetryPolicy`
  and a :class:`~repro.resilience.CircuitBreaker` at feed-scale values —
  so transient read failures never crash ingestion and persistent ones
  mark the feed ``DOWN``.
* :class:`DeadLetterBuffer` keeps a :class:`~repro.resilience.BoundedBuffer`
  of rejected raw lines (with reasons) for later replay once a parser or
  feed is fixed.

Everything is injectable-clock friendly: no call here ever consults the
real time unless the default ``time.time``/``time.sleep`` are left in
place, so the whole chain is unit-testable without sleeping.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..resilience import (
    BoundedBuffer,
    CircuitBreaker,
    RetryPolicy,
    TransientError,
)


class FeedState(Enum):
    """Health of one ingest feed, from best to worst."""

    HEALTHY = "healthy"
    LAGGING = "lagging"
    DEGRADED = "degraded"
    DOWN = "down"


#: States in which an evidence gap must be assumed (anything not healthy).
IMPAIRED_STATES = (FeedState.LAGGING, FeedState.DEGRADED, FeedState.DOWN)


@dataclass
class HealthConfig:
    """Tunables of the per-feed state machine."""

    #: watermark this far behind the observation clock -> LAGGING
    lag_seconds: float = 600.0
    #: no records for this long -> DOWN
    down_seconds: float = 3600.0
    #: rejected fraction over the window at/above this -> DEGRADED
    reject_degraded_ratio: float = 0.25
    #: reject-ratio verdicts need at least this many lines in the window
    min_window_lines: int = 20
    #: sliding accounting window for accept/reject rates
    window_seconds: float = 3600.0


@dataclass
class HealthInterval:
    """One contiguous span a feed spent in a non-healthy state.

    ``end`` is ``None`` while the condition is still open.
    """

    state: FeedState
    start: float
    end: Optional[float] = None

    def overlaps(self, lo: float, hi: float) -> bool:
        """True when [lo, hi] intersects this interval."""
        if self.end is not None and self.end < lo:
            return False
        return self.start <= hi

    def describe(self) -> str:
        """Render e.g. ``DOWN [1200, 3400]`` / ``DOWN [1200, ...)``."""
        end = f"{self.end:.0f}" if self.end is not None else "..."
        return f"{self.state.value.upper()} [{self.start:.0f}, {end}]"


class FeedHealth:
    """Watermark, rates and state machine for one ingest source."""

    def __init__(self, source: str, config: Optional[HealthConfig] = None) -> None:
        self.source = source
        self.config = config or HealthConfig()
        #: timestamp of the newest accepted record (data time)
        self.watermark: Optional[float] = None
        #: observation clock of the last observe/tick call
        self.last_observed: Optional[float] = None
        self._window: Deque[Tuple[float, int, int]] = deque()
        self._state = FeedState.HEALTHY
        self._history: List[HealthInterval] = []
        # (intervals by start, their starts, running max of their ends),
        # rebuilt on the first lookup after the history changed
        self._lookup: Optional[
            Tuple[List[HealthInterval], List[float], List[float]]
        ] = None
        #: circuit breaker (or operator) override: feed is known down
        self._forced_down = False

    # ------------------------------------------------------------------
    # observations

    def observe(
        self,
        now: float,
        accepted: int,
        rejected: int,
        watermark: Optional[float] = None,
    ) -> FeedState:
        """Account one ingest batch and re-evaluate the state."""
        if watermark is not None and (
            self.watermark is None or watermark > self.watermark
        ):
            self.watermark = watermark
        if accepted or rejected:
            self._window.append((now, accepted, rejected))
        return self.reassess(now)

    def reassess(self, now: float) -> FeedState:
        """Re-run the state machine against the observation clock."""
        self.last_observed = max(now, self.last_observed or now)
        self._trim_window(now)
        self._transition(self._compute_state(now), now)
        return self._state

    def force_down(self, now: float) -> None:
        """Mark the feed DOWN regardless of data (circuit breaker open)."""
        self._forced_down = True
        self.reassess(now)

    def clear_forced_down(self, now: float) -> None:
        """Lift a forced-DOWN mark (circuit breaker closed again)."""
        self._forced_down = False
        self.reassess(now)

    def record_outage(
        self, start: float, end: Optional[float], state: FeedState = FeedState.DOWN
    ) -> None:
        """Record an externally known impairment interval directly.

        Batch replays have no live observation clock; a transport-level
        monitor (or a fault injector standing in for one) reports the
        outage interval it saw instead.
        """
        self._history.append(HealthInterval(state, start, end))
        self._history.sort(key=lambda i: i.start)
        self._lookup = None

    # ------------------------------------------------------------------
    # views

    @property
    def state(self) -> FeedState:
        """The state as of the last observation."""
        return self._state

    @property
    def staleness(self) -> Optional[float]:
        """Observation clock minus watermark, when both are known."""
        if self.watermark is None or self.last_observed is None:
            return None
        return self.last_observed - self.watermark

    def window_counts(self) -> Tuple[int, int]:
        """(accepted, rejected) line counts over the sliding window."""
        accepted = sum(a for _, a, _ in self._window)
        rejected = sum(r for _, _, r in self._window)
        return accepted, rejected

    def reject_ratio(self) -> float:
        """Rejected fraction of the sliding window (0.0 when empty)."""
        accepted, rejected = self.window_counts()
        total = accepted + rejected
        return rejected / total if total else 0.0

    def impaired_intervals(self, lo: float, hi: float) -> List[HealthInterval]:
        """Non-healthy intervals overlapping [lo, hi], oldest first.

        The history only grows, so the engine's per-rule lookups must
        not scan it: one bisect on the starts bounds the intervals that
        began by ``hi``, and a running max of the ends (open intervals
        count as endless) skips the prefix that was over before ``lo``.
        """
        if self._lookup is None:
            ordered = sorted(self._history, key=lambda i: i.start)
            reach: List[float] = []
            latest = float("-inf")
            for interval in ordered:
                end = float("inf") if interval.end is None else interval.end
                latest = max(latest, end)
                reach.append(latest)
            self._lookup = (ordered, [i.start for i in ordered], reach)
        ordered, starts, reach = self._lookup
        stop = bisect_right(starts, hi)
        first = bisect_left(reach, lo, 0, stop)
        return [i for i in ordered[first:stop] if i.overlaps(lo, hi)]

    def history(self) -> List[HealthInterval]:
        """All recorded non-healthy intervals, oldest first."""
        return list(self._history)

    # ------------------------------------------------------------------

    def _trim_window(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    def _compute_state(self, now: float) -> FeedState:
        if self._forced_down:
            return FeedState.DOWN
        accepted, rejected = self.window_counts()
        if (
            accepted + rejected >= self.config.min_window_lines
            and self.reject_ratio() >= self.config.reject_degraded_ratio
        ):
            return FeedState.DEGRADED
        if self.watermark is None:
            return FeedState.HEALTHY  # nothing expected yet
        staleness = now - self.watermark
        if staleness >= self.config.down_seconds:
            return FeedState.DOWN
        if staleness >= self.config.lag_seconds:
            return FeedState.LAGGING
        return FeedState.HEALTHY

    def _transition(self, new_state: FeedState, now: float) -> None:
        if new_state is self._state:
            return
        self._lookup = None
        if self._history and self._history[-1].end is None:
            self._history[-1].end = now
        if new_state is not FeedState.HEALTHY:
            # staleness-driven conditions began when the data stopped,
            # not when they were noticed
            start = now
            if new_state in (FeedState.LAGGING, FeedState.DOWN):
                if self.watermark is not None and not self._forced_down:
                    start = max(self.watermark, self._history[-1].end if self._history else self.watermark)
            self._history.append(HealthInterval(new_state, min(start, now)))
        self._state = new_state


class HealthRegistry:
    """Per-source :class:`FeedHealth`, shared by collector and engine."""

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config or HealthConfig()
        self.feeds: Dict[str, FeedHealth] = {}

    def feed(self, source: str) -> FeedHealth:
        """The tracker for one source, created on first use."""
        if source not in self.feeds:
            self.feeds[source] = FeedHealth(source, self.config)
        return self.feeds[source]

    def observe(
        self,
        source: str,
        now: float,
        accepted: int,
        rejected: int,
        watermark: Optional[float] = None,
    ) -> FeedState:
        """Account one ingest batch for a source."""
        return self.feed(source).observe(now, accepted, rejected, watermark)

    def tick(self, now: float) -> None:
        """Re-evaluate every tracked feed (silence is also a signal)."""
        for feed in self.feeds.values():
            feed.reassess(now)

    def state(self, source: str) -> FeedState:
        """Current state of a source (HEALTHY when never observed)."""
        feed = self.feeds.get(source)
        return feed.state if feed is not None else FeedState.HEALTHY

    def mark_down(self, source: str, now: float) -> None:
        """Circuit-breaker hook: the source's transport is failing."""
        self.feed(source).force_down(now)

    def mark_restored(self, source: str, now: float) -> None:
        """Circuit-breaker hook: the source's transport recovered."""
        self.feed(source).clear_forced_down(now)

    def record_outage(
        self,
        source: str,
        start: float,
        end: Optional[float],
        state: FeedState = FeedState.DOWN,
    ) -> None:
        """Record an externally known impairment interval for a source."""
        self.feed(source).record_outage(start, end, state)

    def impaired_intervals(self, source: str, lo: float, hi: float) -> List[HealthInterval]:
        """Non-healthy intervals of a source overlapping [lo, hi]."""
        feed = self.feeds.get(source)
        return feed.impaired_intervals(lo, hi) if feed is not None else []

    def summary(self) -> Dict[str, FeedState]:
        """Source -> current state, for dashboards and the CLI."""
        return {name: feed.state for name, feed in sorted(self.feeds.items())}


# ---------------------------------------------------------------------------
# data-source name mapping

#: EventDefinition.data_source labels -> collector source (table) names.
DATA_SOURCE_TABLES: Dict[str, str] = {
    "syslog": "syslog",
    "snmp": "snmp",
    "ospf monitor": "ospfmon",
    "bgp monitor": "bgpmon",
    "tacacs": "tacacs",
    "layer-1 device log": "layer1",
    "performance monitor": "perfmon",
    "netflow": "netflow",
    "workflow": "workflow",
    "workflow log": "workflow",
    "server logs": "cdn",
    "cdn control plane": "cdn",
    "cdn": "cdn",
}


def canonical_source(data_source: str) -> Optional[str]:
    """Map an event definition's free-text data source to a feed name.

    Returns ``None`` for labels that do not correspond to an ingest feed
    (e.g. derived events with no direct table behind them).
    """
    key = (data_source or "").strip().lower()
    return DATA_SOURCE_TABLES.get(key)


# ---------------------------------------------------------------------------
# retry / backoff / circuit-breaker reader


class FeedReadError(TransientError):
    """All retries for one poll failed; the batch was not delivered."""


class CircuitOpenError(TransientError):
    """The feed's circuit breaker is open; polls are refused."""


#: :class:`~repro.resilience.RetryPolicy` values for a feed poll: slow
#: WAN transports, so seconds where a job retry waits milliseconds
FEED_RETRY = {"max_attempts": 4, "backoff_base": 1.0, "backoff_max": 60.0}
#: :class:`~repro.resilience.CircuitBreaker` values for a feed: two
#: fully failed polls open it; probe again after five minutes
FEED_BREAKER = {"failure_threshold": 8, "reset_timeout": 300.0}


class FeedReader:
    """Fault-tolerant wrapper around one feed's transport.

    ``transport`` is any zero-argument callable returning an iterable of
    raw lines (one poll); it may raise on transient failure.  A poll
    retries per ``retry`` (exponential backoff plus jitter); when
    consecutive failed attempts trip ``breaker`` the registry (when
    given) marks the feed ``DOWN``, and further polls fail fast with
    :class:`CircuitOpenError` until the breaker allows a half-open
    probe — a single attempt whose success marks the feed restored.  No
    batch is ever dropped silently: a poll either returns the
    transport's lines or raises.

    The breaker's clock timestamps the registry marks, so it must be the
    registry's observation clock (``time.time`` by default).  Readers of
    one upstream may be handed the same breaker: it then opens for all
    of them at once.
    """

    def __init__(
        self,
        source: str,
        transport: Callable[[], Iterable[str]],
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], None] = time.sleep,
        registry: Optional[HealthRegistry] = None,
    ) -> None:
        self.source = source
        self.transport = transport
        self.retry = retry or RetryPolicy(rng=random.Random(source), **FEED_RETRY)
        self.breaker = breaker or CircuitBreaker(clock=time.time, **FEED_BREAKER)
        self.sleep = sleep
        self.registry = registry

    def poll(self) -> List[str]:
        """One read through retry/backoff; raises when the feed is down."""
        breaker = self.breaker
        state = breaker.state()
        if state == "open":
            raise CircuitOpenError(f"feed {self.source!r}: circuit open")
        # half-open: exactly one probe attempt, no retries
        attempts = 1 if state == "half-open" else self.retry.max_attempts
        last_error: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            try:
                lines = list(self.transport())
            except Exception as exc:  # noqa: BLE001 - transport is arbitrary
                last_error = exc
                if breaker.record_failure():
                    if state == "closed" and self.registry is not None:
                        self.registry.mark_down(self.source, breaker.clock())
                    raise CircuitOpenError(
                        f"feed {self.source!r}: {breaker.consecutive_failures} "
                        f"consecutive failures, circuit open"
                    ) from exc
                if attempt < attempts:
                    self.sleep(self.retry.delay(attempt))
                continue
            breaker.record_success()
            if state == "half-open" and self.registry is not None:
                self.registry.mark_restored(self.source, breaker.clock())
            return lines
        raise FeedReadError(
            f"feed {self.source!r}: {attempts} attempts failed"
        ) from last_error


# ---------------------------------------------------------------------------
# dead letters


@dataclass(frozen=True)
class DeadLetter:
    """One rejected raw line, kept for replay."""

    source: str
    line: str
    reason: str


class DeadLetterBuffer(BoundedBuffer[DeadLetter]):
    """Bounded buffer of rejected lines, replayable through a collector."""

    def __init__(self, capacity: int = 10_000) -> None:
        super().__init__(capacity)

    def entries(self, source: Optional[str] = None) -> List[DeadLetter]:
        """Buffered entries, optionally restricted to one source."""
        entries = super().entries()
        if source is None:
            return entries
        return [e for e in entries if e.source == source]

    def reason_counts(self) -> Counter:
        """Counter of reject reasons across the buffer."""
        return Counter(e.reason for e in self.entries())

    def replay_into(self, collector) -> Dict[str, Tuple[int, int]]:
        """Re-ingest every buffered line through the collector.

        Returns per-source ``(accepted, rejected)`` deltas for the
        replay.  Lines that fail again are re-captured by the parsers'
        dead-letter hook (the buffer is drained first, so nothing loops).
        """
        by_source: Dict[str, List[str]] = {}
        for entry in self.drain():
            by_source.setdefault(entry.source, []).append(entry.line)
        outcome: Dict[str, Tuple[int, int]] = {}
        for source, lines in sorted(by_source.items()):
            stats = collector.parsers[source].stats
            before = (stats.accepted, stats.rejected)
            collector.ingest(source, lines)
            outcome[source] = (
                stats.accepted - before[0],
                stats.rejected - before[1],
            )
        return outcome
