"""Chaos harness: deterministic fault injection for the service runtime.

Supervision code that is never exercised is broken code waiting for an
outage, so the fault paths get a first-class injection surface instead
of ad-hoc monkeypatching.  :class:`ServiceFaultInjector` wraps the
service's executor callable and fires *rules* against matching jobs:

* ``crash_when`` — raise :class:`~repro.service.workers.WorkerCrash`,
  killing the worker thread mid-job exactly as a segfaulting native
  call or an unhandled interpreter error would (no accounting runs).
* ``hang_when`` — block *non-cooperatively* (ignores the cancel token)
  until :meth:`release` or ``hang_timeout``; this is the executor the
  supervisor must detach.
* ``stall_when`` — run slow but *cooperatively*, polling the job's
  cancel token; this is the executor a deadline stops at a checkpoint.
* ``fail_when`` — raise an arbitrary error (transient subclasses drive
  the retry path, permanent ones the fail-fast path).
* ``delay_when`` — add fixed latency, then run the real executor.

Rules have bounded budgets (``times``), match in registration order,
and consume their budget atomically, so a chaos scenario is exactly
reproducible: "crash the first two executions of job 3, then let the
third through" is one rule plus the real executor.

:class:`FlakyBackend` plays the same role one layer down: it delegates
to a real :class:`~repro.collector.backends.StorageBackend` but fails
or delays reads on request, which is how the retry policy and
:class:`~repro.collector.backends.BreakerBackend` get tested without a
real broken disk.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..collector.backends import DelegatingBackend, StorageBackend
from .queue import Job
from .workers import Worker, WorkerCrash

#: Predicate selecting the jobs a rule applies to.
JobMatch = Callable[[Job], bool]


def match_all(job: Job) -> bool:
    """Rule predicate matching every job."""
    return True


class FaultRule:
    """One injection rule: predicate + action + bounded budget."""

    def __init__(
        self,
        name: str,
        match: JobMatch,
        action: Callable[[Job, Worker], Optional[Any]],
        times: Optional[int] = 1,
    ) -> None:
        self.name = name
        self.match = match
        self.action = action
        #: remaining firings; ``None`` = unlimited
        self.remaining = times
        self.fired = 0
        self._lock = threading.Lock()

    def claim(self, job: Job) -> bool:
        """Atomically consume one budget unit if the rule applies."""
        if not self.match(job):
            return False
        with self._lock:
            if self.remaining is not None:
                if self.remaining <= 0:
                    return False
                self.remaining -= 1
            self.fired += 1
            return True


class ServiceFaultInjector:
    """Wraps an executor; fires matching fault rules before delegating.

    At most one rule fires per execution (first match in registration
    order with budget left).  Crash/failure rules raise and the real
    executor never runs; hang/stall/delay rules block or sleep, then
    fall through to the real executor — deliberately, because the
    late-finishing zombie losing the terminal-state race is exactly the
    path worth testing.

    Every firing is recorded in :attr:`log` as ``(rule_name, job_id)``,
    so chaos tests assert what actually happened, not what was hoped.
    """

    def __init__(
        self,
        executor: Callable[[Job, Worker], Any],
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        hang_timeout: float = 60.0,
    ) -> None:
        self.executor = executor
        self.sleep = sleep
        self.clock = clock
        #: safety valve: a hang never outlives the test run
        self.hang_timeout = hang_timeout
        self.rules: List[FaultRule] = []
        self.log: List[Tuple[str, int]] = []
        self._log_lock = threading.Lock()
        self._released = threading.Event()

    # ------------------------------------------------------------------
    # rule registration

    def crash_when(
        self, match: JobMatch = match_all, times: Optional[int] = 1
    ) -> FaultRule:
        """Kill the worker thread mid-job (no accounting runs)."""

        def action(job: Job, worker: Worker) -> None:
            raise WorkerCrash(
                f"injected crash on job {job.job_id} (worker {worker.name})"
            )

        return self._add("crash", match, action, times)

    def hang_when(
        self, match: JobMatch = match_all, times: Optional[int] = 1
    ) -> FaultRule:
        """Block non-cooperatively until :meth:`release` (or the valve)."""

        def action(job: Job, worker: Worker) -> None:
            self._released.wait(self.hang_timeout)

        return self._add("hang", match, action, times)

    def stall_when(
        self,
        match: JobMatch = match_all,
        times: Optional[int] = 1,
        poll: float = 0.005,
    ) -> FaultRule:
        """Run slow but cooperatively: poll the cancel token until it trips."""

        def action(job: Job, worker: Worker) -> None:
            started = self.clock()
            while self.clock() - started < self.hang_timeout:
                if job.cancel is not None:
                    job.cancel.check()  # raises once cancelled / past deadline
                if self._released.is_set():
                    return
                self.sleep(poll)

        return self._add("stall", match, action, times)

    def fail_when(
        self,
        error: Callable[[], BaseException],
        match: JobMatch = match_all,
        times: Optional[int] = 1,
    ) -> FaultRule:
        """Raise ``error()`` instead of executing (retry/fail-fast paths)."""

        def action(job: Job, worker: Worker) -> None:
            raise error()

        return self._add("fail", match, action, times)

    def delay_when(
        self,
        seconds: float,
        match: JobMatch = match_all,
        times: Optional[int] = 1,
    ) -> FaultRule:
        """Add fixed latency, then run the real executor."""

        def action(job: Job, worker: Worker) -> None:
            self.sleep(seconds)

        return self._add("delay", match, action, times)

    def _add(
        self,
        name: str,
        match: JobMatch,
        action: Callable[[Job, Worker], Optional[Any]],
        times: Optional[int],
    ) -> FaultRule:
        rule = FaultRule(name, match, action, times)
        self.rules.append(rule)
        return rule

    # ------------------------------------------------------------------
    # control / inspection

    def release(self) -> None:
        """Unblock every hung/stalled execution (end of the chaos window)."""
        self._released.set()

    def fired(self, name: Optional[str] = None) -> int:
        """Total rule firings so far (optionally for one rule name)."""
        with self._log_lock:
            if name is None:
                return len(self.log)
            return sum(1 for rule_name, _ in self.log if rule_name == name)

    # ------------------------------------------------------------------
    # the wrapped executor

    def __call__(self, job: Job, worker: Worker) -> Any:
        for rule in self.rules:
            if rule.claim(job):
                with self._log_lock:
                    self.log.append((rule.name, job.job_id))
                rule.action(job, worker)
                break  # at most one rule per execution
        return self.executor(job, worker)


class FlakyBackend(DelegatingBackend):
    """Delegating storage backend that fails or delays reads on demand.

    ``fail_reads(n, error)`` makes the next ``n`` read operations
    (query_columns/distinct/time_span) raise;
    ``read_latency`` adds a fixed sleep before every read.  Writes
    always pass through, so the stored data stays intact while the read
    path misbehaves — the shape of a degraded disk or a wedged database,
    which is what the breaker and retry layers exist for.
    """

    suffix = "flaky"

    def __init__(
        self,
        inner: StorageBackend,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner)
        self.sleep = sleep
        self.read_latency = 0.0
        self._failures_left = 0
        self._error: Callable[[], BaseException] = ConnectionError
        self._lock = threading.Lock()
        #: reads that were failed by injection
        self.failed_reads = 0

    def fail_reads(
        self, n: int, error: Optional[Callable[[], BaseException]] = None
    ) -> None:
        """Make the next ``n`` reads raise (default: ``ConnectionError``)."""
        with self._lock:
            self._failures_left = n
            if error is not None:
                self._error = error

    def _read(self, op: Callable[..., Any], label: str, *args: Any) -> Any:
        """Lag and/or fail per the injection state, then run the read."""
        if self.read_latency:
            self.sleep(self.read_latency)
        with self._lock:
            if self._failures_left > 0:
                self._failures_left -= 1
                self.failed_reads += 1
                raise self._error()
        return op(*args)

    def stats(self) -> Dict[str, Any]:
        """Inner backend stats plus the injected-failure count."""
        stats = super().stats()
        stats["failed_reads"] = self.failed_reads
        return stats
