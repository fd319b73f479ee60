"""Worker supervision: detect, contain, and recover from runtime faults.

The RCA service must survive exactly the conditions it diagnoses —
overload, crashes, hung backends (the premise of Groot/CloudRCA-style
industrial RCA, and of the paper's always-on deployment).  This module
is the self-healing loop over the PR-2 runtime:

* **crash recovery** — a worker thread that died abnormally is detected
  by its next sweep; the supervisor settles the queue accounting the
  dead thread still owed (``task_done``), fails over its in-flight job
  (requeue) and spawns a replacement worker, restoring pool capacity.
* **poison-job quarantine** — a job that repeatedly kills its workers
  is the job-level analogue of a malformed feed line: after
  ``max_crashes`` worker deaths it is marked ``QUARANTINED`` (terminal)
  and parked in a :class:`~repro.resilience.BoundedBuffer` (the same one
  the collector's dead letters use) for inspection or later release.
* **deadline enforcement** — jobs carry cooperative cancellation
  tokens; a cooperating executor times itself out at the next engine
  checkpoint.  A *non*-cooperating (hung) executor is given
  ``hang_grace`` past its deadline, then the worker is **detached**:
  the supervisor settles the job (``TIMED_OUT``) and the queue on the
  zombie's behalf and replaces the worker, so a hang costs one thread,
  never a pool slot.
* **brownout** — each sweep feeds queue-wait p99 and the deadline-miss
  rate to the :class:`~repro.service.policy.BrownoutController`; while
  ``DEGRADED`` the service sheds low-priority admissions and trims
  exploration depth/tracing (wired in :class:`~repro.service.api.RcaService`).

Sweeps are deterministic and injectable-clock friendly: tests call
:meth:`WorkerSupervisor.sweep` directly; the live service runs it on a
daemon thread every ``interval`` seconds.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..resilience import BoundedBuffer
from .metrics import ServiceMetrics
from .policy import (
    BrownoutController,
    DeadlineExceeded,
    ServiceHealth,
)
from .queue import Job, JobQueue
from .workers import Worker, WorkerPool

LOG = logging.getLogger(__name__)

#: quarantined jobs kept for inspection (oldest entries drop when full)
QUARANTINE_CAPACITY = 256


@dataclass
class SupervisorConfig:
    """Tunables of the supervision loop."""

    #: seconds between sweeps of the live supervision thread
    interval: float = 0.25
    #: worker deaths a single job may cause before quarantine
    max_crashes: int = 2
    #: seconds past its deadline before a hung worker is detached
    hang_grace: float = 1.0


@dataclass(frozen=True)
class QuarantineEntry:
    """One poison job pulled from service."""

    job: Job
    reason: str
    crashes: int
    quarantined_at: float


class PoisonJob(RuntimeError):
    """Terminal error attached to quarantined jobs."""


class WorkerSupervisor:
    """Periodic sweep that keeps the worker pool whole and honest.

    One sweep does four things, in order: reconcile dead workers
    (accounting, failover/quarantine, replacement), enforce deadlines
    on running jobs (cancel tokens; detach workers hung past grace),
    evaluate brownout, and publish counters.  Sweeps are idempotent —
    a worker is reconciled exactly once (it is removed from the pool in
    the same step) and job terminal transitions are first-wins.
    """

    def __init__(
        self,
        pool: WorkerPool,
        queue: JobQueue,
        metrics: Optional[ServiceMetrics] = None,
        config: Optional[SupervisorConfig] = None,
        brownout: Optional[BrownoutController] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.pool = pool
        self.queue = queue
        self.metrics = metrics or pool.metrics
        self.config = config or SupervisorConfig()
        self.brownout = brownout
        self.clock = clock
        self.quarantine: BoundedBuffer[QuarantineEntry] = BoundedBuffer(
            QUARANTINE_CAPACITY
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: workers this supervisor already reconciled (by identity)
        self._reconciled: set = set()

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Run sweeps on a daemon thread every ``interval`` (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="rca-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the sweep thread (no-op when never started)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _run(self) -> None:  # pragma: no cover - timing loop over sweep()
        while not self._stop.wait(self.config.interval):
            try:
                self.sweep(self.clock())
            except Exception:  # noqa: BLE001 - supervision must survive itself
                LOG.exception("supervisor sweep failed")

    # ------------------------------------------------------------------
    # one sweep

    def sweep(self, now: Optional[float] = None) -> None:
        """One supervision pass (tests drive this directly)."""
        now = self.clock() if now is None else now
        if not self.pool.stopping:
            for worker in self.pool.members():
                # ident is set once the thread has actually started, so a
                # not-yet-started replacement is never mistaken for a corpse
                if worker.crashed or (
                    worker.ident is not None and not worker.is_alive()
                ):
                    self._reconcile_crash(worker, now)
                else:
                    self._enforce_deadline(worker, now)
        if self.brownout is not None:
            state = self.brownout.state
            new_state = self.brownout.evaluate(self.metrics, now)
            if new_state is not state:
                self.metrics.brownout_transitions.increment()
                self.metrics.brownout_active.set(
                    1.0 if new_state is ServiceHealth.DEGRADED else 0.0
                )
                LOG.warning("service health: %s -> %s", state.value, new_state.value)
        self.metrics.supervisor_sweeps.increment()

    # ------------------------------------------------------------------
    # crash reconciliation

    def _reconcile_crash(self, worker: Worker, now: float) -> None:
        if id(worker) in self._reconciled:
            return
        # a worker that exited cleanly (stop path) is not a crash; it
        # holds no job and set no crash flag — leave it alone
        if not worker.crashed and worker.current_job is None:
            return
        self._reconciled.add(id(worker))
        job = worker.current_job
        LOG.warning(
            "worker %s died abnormally (%s)%s",
            worker.name,
            type(worker.crash_error).__name__ if worker.crash_error else "unknown",
            f" holding job {job.job_id}" if job is not None else "",
        )
        if job is not None:
            worker.current_job = None
            job.crash_count += 1
            if not job.finished:
                if job.crash_count >= self.config.max_crashes:
                    self._quarantine(job, now)
                else:
                    self._fail_over(job, worker, now)
            # the dead thread never ran its task_done or busy decrement;
            # requeue-before-task_done keeps join() from a false idle
            self.queue.task_done()
            self.metrics.workers_busy.add(-1)
        if not worker.crashed:
            # thread died without reaching the crash handler at all
            self.metrics.worker_crashes.increment()
        self.pool.replace(worker)

    def _fail_over(self, job: Job, worker: Worker, now: float) -> None:
        requeued = self.queue.requeue(job)
        if requeued:
            self.metrics.jobs_failed_over.increment()
            LOG.warning(
                "job %s failed over after worker %s crash (%d/%d)",
                job.job_id, worker.name, job.crash_count, self.config.max_crashes,
            )
        elif not job.finished:
            error = worker.crash_error or PoisonJob(
                f"worker {worker.name} died executing job {job.job_id}"
            )
            if job.mark_failed(error, now):
                self.metrics.jobs_failed.increment()

    def _quarantine(self, job: Job, now: float) -> None:
        error = PoisonJob(
            f"job {job.job_id} killed {job.crash_count} workers; quarantined"
        )
        if job.mark_quarantined(error, now):
            self.metrics.jobs_quarantined.increment()
            self.quarantine.append(
                QuarantineEntry(
                    job=job,
                    reason=str(error),
                    crashes=job.crash_count,
                    quarantined_at=now,
                )
            )
            LOG.error("%s", error)

    # ------------------------------------------------------------------
    # deadlines and hangs

    def _enforce_deadline(self, worker: Worker, now: float) -> None:
        job = worker.current_job
        if job is None or job.deadline is None:
            return
        overdue = now - job.deadline
        if overdue < 0:
            return
        # first line: trip the token so cooperative checkpoints stop it
        job.request_cancel(f"deadline exceeded by {overdue:.3f}s")
        if overdue < self.config.hang_grace:
            return
        self._detach(worker, job, now, overdue)

    def _detach(self, worker: Worker, job: Job, now: float, overdue: float) -> None:
        """Abandon a hung worker: settle its job and queue, replace it.

        The handoff is atomic under the worker's job lock: either the
        worker already settled (current_job cleared) and we do nothing,
        or we set ``detached`` and own the settlement — the zombie
        thread sees the flag and touches neither the job nor the queue.
        """
        with worker._job_lock:
            if worker.current_job is not job or worker.detached.is_set():
                return
            worker.detached.set()
            worker.current_job = None
            self.queue.task_done()
        self.metrics.workers_detached.increment()
        if job.mark_timed_out(
            DeadlineExceeded(
                f"hung worker {worker.name} detached "
                f"{overdue:.3f}s past the job deadline"
            ),
            now,
        ):
            self.metrics.jobs_timed_out.increment()
        LOG.error(
            "worker %s hung on job %s; detached and replaced",
            worker.name, job.job_id,
        )
        self.pool.replace(worker)
