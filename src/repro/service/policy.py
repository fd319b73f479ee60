"""Service-level fault containment: deadlines, cancellation, brownout.

What the service runtime (queue + workers + supervisor) adds on top of
the shared kit in :mod:`repro.resilience` (error classification,
:class:`~repro.resilience.RetryPolicy`,
:class:`~repro.resilience.CircuitBreaker`):

* :class:`CancellationToken` — per-job cooperative cancellation with an
  optional absolute deadline.  The engine checks the token at stage
  boundaries (node evaluation, store reads, joins), so a timed-out
  diagnosis actually stops instead of occupying a worker until it
  happens to finish.
* :class:`BrownoutController` — watches queue-wait p99 and the
  deadline-miss rate; past thresholds the service enters ``DEGRADED``
  (shed low-priority jobs, trim exploration depth and tracing) and
  recovers with hysteresis so the state does not flap.

Everything takes an injectable clock, so the whole policy layer is
unit-testable without real time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from ..resilience import PermanentError


# ---------------------------------------------------------------------------
# cooperative cancellation


class OperationCancelled(PermanentError):
    """The job's cancellation token was triggered; stop cooperatively.

    Permanent for the retry classifier: the caller asked us to stop.
    """


class DeadlineExceeded(OperationCancelled):
    """The job ran past its deadline; stop cooperatively."""


class CancellationToken:
    """Cooperative cancel flag plus an optional absolute deadline.

    Workers and the engine call :meth:`check` at stage boundaries; it
    raises :class:`OperationCancelled` once :meth:`cancel` was called
    and :class:`DeadlineExceeded` once the clock passes ``deadline``.
    The token is thread-safe: the supervisor cancels from its sweep
    thread while the owning worker polls.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.deadline = deadline
        self.clock = clock
        self._cancelled = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token; the next :meth:`check` raises."""
        if not self._cancelled.is_set():
            self.reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline is not None and self.clock() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline; ``None`` without one."""
        if self.deadline is None:
            return None
        return self.deadline - self.clock()

    def check(self) -> None:
        """Raise if cancelled or past deadline; else return instantly.

        Expiry is classified first: the supervisor also trips the plain
        cancel flag for overdue jobs, and a job stopped past its
        deadline must surface as :class:`DeadlineExceeded` (``TIMED_OUT``)
        no matter which signal the executor polls first.
        """
        if self.expired:
            raise DeadlineExceeded(
                f"deadline exceeded by {-self.remaining():.3f}s"
            )
        if self._cancelled.is_set():
            raise OperationCancelled(self.reason or "cancelled")


# ---------------------------------------------------------------------------
# brownout degradation


class ServiceHealth(Enum):
    """Overall service health reported by the supervisor."""

    OK = "ok"
    DEGRADED = "degraded"


@dataclass
class BrownoutConfig:
    """Thresholds for entering/leaving brownout degradation."""

    #: queue-wait p99 at/above this (seconds) trips the brownout
    queue_wait_p99: float = 5.0
    #: deadline-miss fraction of finished jobs at/above this trips it
    deadline_miss_rate: float = 0.25
    #: miss-rate verdicts need at least this many finished jobs between
    #: consecutive evaluations (a 1-of-2 blip must not brown out)
    min_finished: int = 8
    #: recover once signals drop below ``recover_factor`` x threshold
    recover_factor: float = 0.5


class BrownoutController:
    """Hysteretic OK <-> DEGRADED state machine over service signals.

    Each :meth:`evaluate` call reads the current queue-wait p99 and the
    deadline-miss rate *since the previous call* (computed from
    cumulative counters, so concurrent workers never double-count) and
    transitions with hysteresis: entry at the configured thresholds,
    recovery only once both signals fall below ``recover_factor`` times
    their thresholds.  Transitions are counted and timestamped so the
    chaos harness can assert the brownout actually happened.
    """

    def __init__(self, config: Optional[BrownoutConfig] = None) -> None:
        self.config = config or BrownoutConfig()
        self._state = ServiceHealth.OK
        self._last_timed_out = 0
        self._last_finished = 0
        self.transitions = 0
        self.last_transition_at: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def state(self) -> ServiceHealth:
        return self._state

    @property
    def degraded(self) -> bool:
        return self._state is ServiceHealth.DEGRADED

    def evaluate(self, metrics, now: float) -> ServiceHealth:
        """One sweep: read signals from ``metrics`` and transition."""
        config = self.config
        wait_p99 = metrics.queue_wait.percentile(0.99)
        timed_out = metrics.jobs_timed_out.value
        finished = (
            metrics.jobs_completed.value
            + metrics.jobs_failed.value
            + timed_out
        )
        with self._lock:
            delta_finished = finished - self._last_finished
            delta_missed = timed_out - self._last_timed_out
            miss_rate = None
            if delta_finished >= config.min_finished:
                miss_rate = delta_missed / delta_finished
                self._last_finished = finished
                self._last_timed_out = timed_out
            if self._state is ServiceHealth.OK:
                if wait_p99 >= config.queue_wait_p99 or (
                    miss_rate is not None
                    and miss_rate >= config.deadline_miss_rate
                ):
                    self._transition(ServiceHealth.DEGRADED, now)
            else:
                wait_ok = wait_p99 < config.recover_factor * config.queue_wait_p99
                miss_ok = miss_rate is None or (
                    miss_rate < config.recover_factor * config.deadline_miss_rate
                )
                if wait_ok and miss_ok:
                    self._transition(ServiceHealth.OK, now)
            return self._state

    def _transition(self, state: ServiceHealth, now: float) -> None:
        self._state = state
        self.transitions += 1
        self.last_transition_at = now
