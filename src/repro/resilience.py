"""The fault-tolerance kit every layer composes.

The Data Collector survives flaky feeds, the store survives a wedged
database and the service survives failing jobs with the same four
pieces, each implemented once, here:

* error **classification** — :func:`is_transient` splits failures into
  *transient* (storage/transport/infrastructure: worth retrying) and
  *permanent* (rule/config bugs: retrying re-raises the same error
  forever).  Layers opt their own errors in by subclassing
  :class:`TransientError` — :class:`~repro.collector.health.FeedReadError`,
  :class:`~repro.collector.health.CircuitOpenError` and
  :class:`~repro.collector.backends.StorageUnavailable` do.
* :class:`RetryPolicy` — bounded attempts with exponential backoff plus
  deterministic jitter (injectable RNG).
* :class:`CircuitBreaker` — ``closed`` -> ``open`` after N consecutive
  failures (calls refused) -> ``half-open`` after ``reset_timeout`` (one
  probe decides).
* :class:`BoundedBuffer` — a locked, bounded FIFO that counts what it
  had to drop; rejected feed lines and poison jobs are parked in one.

:class:`~repro.collector.health.FeedReader` (feed transports),
:class:`~repro.collector.backends.BreakerBackend` (storage reads) and the
service worker pool (jobs) differ only in the values they construct
these with.  This module imports neither ``repro.collector`` nor
``repro.service``, so both may depend on it.  Everything takes an
injectable clock/RNG, so the kit is unit-testable without real time.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Generic, List, Optional, TypeVar

# ---------------------------------------------------------------------------
# error classification


class TransientError(RuntimeError):
    """Marker base: the operation may succeed if simply retried."""


class PermanentError(RuntimeError):
    """Marker base: retrying will fail identically (rule/config bug)."""


#: Exception types treated as transient without opting in: storage and
#: transport failures that a healthy system recovers from on its own.
_TRANSIENT_TYPES = (
    TransientError,
    OSError,  # ConnectionError, TimeoutError, InterruptedError, any I/O flake
    sqlite3.OperationalError,
)

#: Types that are always permanent even though they subclass OSError
#: etc. — plus the classic "the rule/config is wrong" family.
_PERMANENT_TYPES = (
    PermanentError,
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    NotImplementedError,
)


def is_transient(error: BaseException) -> bool:
    """Whether a failure is worth retrying.

    The permanent family is never retried (cooperative cancellation
    belongs to it: the caller asked us to stop), the transient family
    always is, and *unknown* errors default to permanent — retrying a
    failure we cannot classify just triples the latency of the same
    crash.
    """
    if isinstance(error, _PERMANENT_TYPES):
        return False
    return isinstance(error, _TRANSIENT_TYPES)


# ---------------------------------------------------------------------------
# retry policy


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff plus deterministic jitter."""

    #: attempts per operation (first try + retries); 1 disables retries
    max_attempts: int = 3
    #: first backoff delay, seconds
    backoff_base: float = 0.05
    #: multiplier applied per further retry
    backoff_factor: float = 2.0
    #: backoff ceiling, seconds
    backoff_max: float = 1.0
    #: extra random fraction of the delay added as jitter
    jitter: float = 0.1
    #: deterministic jitter source (seeded for reproducible tests)
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be retried."""
        return attempt < self.max_attempts and is_transient(error)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt + 1`` (1-based input)."""
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        base = min(base, self.backoff_max)
        return base * (1.0 + self.jitter * self.rng.random())


# ---------------------------------------------------------------------------
# circuit breaker


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    ``closed`` (normal) -> ``open`` after ``failure_threshold``
    consecutive failures (calls refused) -> ``half-open`` after
    ``reset_timeout`` (one probe allowed; success closes, failure
    re-opens and restarts the timer).

    The breaker only *decides*; callers ask :meth:`allow` before the
    guarded operation and report :meth:`record_success` /
    :meth:`record_failure` after.  Thread-safe, so one breaker may guard
    several callers that fail together (tables of one database, readers
    of one upstream).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self.consecutive_failures = 0
        self.times_opened = 0
        self._opened_at: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def open(self) -> bool:
        """True while the breaker refuses calls (probe time not reached)."""
        return self.state() == "open"

    def allow(self) -> bool:
        """Whether the next call may proceed (closed, or half-open probe)."""
        return self.state() != "open"

    def record_success(self) -> None:
        """Account one success: reset failures, close the circuit."""
        with self._lock:
            self.consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> bool:
        """Account one failure; returns True when the circuit is open."""
        with self._lock:
            self.consecutive_failures += 1
            if self._opened_at is not None:
                # a failed half-open probe stays open, restarts the timer
                self._opened_at = self.clock()
                return True
            if self.consecutive_failures >= self.failure_threshold:
                self.times_opened += 1
                self._opened_at = self.clock()
                return True
            return False

    def state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` for dashboards."""
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self.clock() - self._opened_at >= self.reset_timeout:
                return "half-open"
            return "open"


# ---------------------------------------------------------------------------
# bounded buffer

Entry = TypeVar("Entry")


class BoundedBuffer(Generic[Entry]):
    """Locked, bounded FIFO; the oldest entry drops when full."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Deque[Entry] = deque(maxlen=capacity)
        #: entries evicted because the buffer was full
        self.dropped = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def append(self, entry: Entry) -> None:
        """Park one entry, evicting the oldest when at capacity."""
        with self._lock:
            if len(self._entries) == self.capacity:
                self.dropped += 1
            self._entries.append(entry)

    def entries(self) -> List[Entry]:
        """Buffered entries, oldest first."""
        with self._lock:
            return list(self._entries)

    def drain(self) -> List[Entry]:
        """Remove and return everything buffered (oldest first)."""
        with self._lock:
            drained = list(self._entries)
            self._entries.clear()
            return drained
