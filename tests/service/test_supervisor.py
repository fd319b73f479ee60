"""Tests for worker supervision: crash failover, quarantine, hang detach.

The supervisor's sweep is a plain method, so every scenario here drives
``sweep(now)`` directly with an explicit timestamp — the threads are
real (workers genuinely die), but the supervision decisions are
deterministic.
"""

import threading
import time

import pytest

from repro.resilience import BoundedBuffer
from repro.service.metrics import ServiceMetrics
from repro.service.policy import CancellationToken, DeadlineExceeded
from repro.service.queue import Job, JobQueue, JobState, PRIORITY_INTERACTIVE

pytestmark = pytest.mark.chaos
from repro.service.supervisor import (
    PoisonJob,
    QuarantineEntry,
    SupervisorConfig,
    WorkerSupervisor,
)
from repro.service.workers import WorkerCrash, WorkerPool


def make_job(payload=None, deadline=None, priority=PRIORITY_INTERACTIVE):
    job = Job(kind="diagnose", app="mini", payload=payload, priority=priority)
    job.deadline = deadline
    job.cancel = CancellationToken(deadline=None)
    return job


def wait_until(predicate, timeout=5.0, interval=0.005):
    """Poll until ``predicate()`` is true; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within %.1fs" % timeout)


class CrashingExecutor:
    """Executor that raises WorkerCrash for the first ``crashes`` calls."""

    def __init__(self, crashes):
        self.crashes = crashes
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, job, worker):
        with self._lock:
            self.calls += 1
            crash = self.calls <= self.crashes
        if crash:
            raise WorkerCrash(f"injected crash #{self.calls}")
        return f"ok:{job.job_id}"


class TestQuarantineBuffer:
    def test_bounded_fifo_with_drop_accounting(self):
        buffer = BoundedBuffer(capacity=2)
        entries = [
            QuarantineEntry(job=make_job(), reason=f"r{i}", crashes=2,
                            quarantined_at=float(i))
            for i in range(3)
        ]
        for entry in entries:
            buffer.append(entry)
        assert len(buffer) == 2
        assert buffer.dropped == 1
        assert buffer.entries() == entries[1:]  # oldest evicted

    def test_drain_empties_the_buffer(self):
        buffer = BoundedBuffer(capacity=4)
        entry = QuarantineEntry(job=make_job(), reason="r", crashes=2,
                                quarantined_at=0.0)
        buffer.append(entry)
        assert buffer.drain() == [entry]
        assert len(buffer) == 0
        assert buffer.entries() == []


class TestCrashRecovery:
    def test_crashed_worker_is_replaced_and_job_fails_over(self):
        queue = JobQueue()
        metrics = ServiceMetrics()
        executor = CrashingExecutor(crashes=1)
        pool = WorkerPool(queue, executor, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        supervisor = WorkerSupervisor(pool, queue, config=SupervisorConfig())
        pool.start()
        try:
            job = queue.submit(make_job())
            wait_until(lambda: pool.alive == 0)  # the crash killed the thread

            supervisor.sweep(now=1.0)

            # failover: the job was requeued and a replacement serves it
            assert job.wait(timeout=5.0)
            assert job.state is JobState.DONE
            assert job.outcome() == f"ok:{job.job_id}"
            assert job.crash_count == 1
            assert metrics.worker_crashes.value == 1
            assert metrics.workers_restarted.value == 1
            assert metrics.jobs_failed_over.value == 1
            assert metrics.jobs_quarantined.value == 0
            # queue accounting settled exactly once per dequeue
            assert queue.join(timeout=5.0)
            assert queue.in_flight == 0
            assert pool.alive == pool.capacity
        finally:
            supervisor.stop()
            pool.stop(timeout=5.0)

    def test_poison_job_is_quarantined_after_max_crashes(self):
        queue = JobQueue()
        metrics = ServiceMetrics()
        executor = CrashingExecutor(crashes=100)  # never succeeds
        pool = WorkerPool(queue, executor, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        supervisor = WorkerSupervisor(
            pool, queue, config=SupervisorConfig(max_crashes=2)
        )
        pool.start()
        try:
            job = queue.submit(make_job())
            wait_until(lambda: pool.alive == 0)
            supervisor.sweep(now=1.0)  # crash 1: fail over
            assert job.crash_count == 1
            wait_until(lambda: pool.alive == 0)  # replacement crashed too
            supervisor.sweep(now=2.0)  # crash 2: quarantine

            assert job.state is JobState.QUARANTINED
            assert job.crash_count == 2
            with pytest.raises(PoisonJob):
                job.outcome(timeout=1.0)
            entries = supervisor.quarantine.entries()
            assert len(entries) == 1
            assert entries[0].job is job
            assert entries[0].crashes == 2
            assert entries[0].quarantined_at == 2.0
            assert metrics.jobs_quarantined.value == 1
            assert metrics.worker_crashes.value == 2
            # pool capacity restored even though the job was poison
            wait_until(lambda: pool.alive == pool.capacity)
            assert queue.join(timeout=5.0)
            assert queue.in_flight == 0
        finally:
            supervisor.stop()
            pool.stop(timeout=5.0)

    def test_cleanly_exited_workers_are_not_treated_as_crashes(self):
        queue = JobQueue()
        metrics = ServiceMetrics()
        pool = WorkerPool(queue, lambda job, worker: None, workers=2,
                          metrics=metrics, poll_seconds=0.01)
        supervisor = WorkerSupervisor(pool, queue)
        pool.start()
        try:
            queue.close()  # workers drain and exit on the stop path
            wait_until(lambda: pool.alive == 0)
            supervisor.sweep(now=1.0)
            assert metrics.worker_crashes.value == 0
            assert metrics.workers_restarted.value == 0
        finally:
            supervisor.stop()
            pool.stop(timeout=5.0)

    def test_sweep_is_a_noop_while_the_pool_is_stopping(self):
        queue = JobQueue()
        metrics = ServiceMetrics()
        executor = CrashingExecutor(crashes=100)
        pool = WorkerPool(queue, executor, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        supervisor = WorkerSupervisor(pool, queue)
        pool.start()
        try:
            queue.submit(make_job())
            wait_until(lambda: pool.alive == 0)
            pool.stop(timeout=5.0)  # shutdown wins over supervision
            supervisor.sweep(now=1.0)
            assert metrics.workers_restarted.value == 0
            assert metrics.supervisor_sweeps.value == 1  # sweep itself ran
        finally:
            supervisor.stop()

    def test_live_supervision_thread_recovers_without_manual_sweeps(self):
        queue = JobQueue()
        metrics = ServiceMetrics()
        executor = CrashingExecutor(crashes=1)
        pool = WorkerPool(queue, executor, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        supervisor = WorkerSupervisor(
            pool, queue, config=SupervisorConfig(interval=0.02)
        )
        pool.start()
        supervisor.start()
        supervisor.start()  # idempotent
        try:
            job = queue.submit(make_job())
            assert job.wait(timeout=5.0)
            assert job.state is JobState.DONE
            # the failover requeue precedes the replacement spawn inside
            # one sweep, so the job can finish just before the counter
            wait_until(lambda: metrics.workers_restarted.value == 1)
        finally:
            supervisor.stop()
            supervisor.stop()  # idempotent
            pool.stop(timeout=5.0)


class TestDeadlineEnforcement:
    def _hung_service(self, metrics, block):
        """A 1-worker pool whose executor blocks non-cooperatively."""
        queue = JobQueue()

        def executor(job, worker):
            block.wait(30.0)  # ignores the cancel token entirely
            return "late"

        pool = WorkerPool(queue, executor, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        supervisor = WorkerSupervisor(
            pool, queue, config=SupervisorConfig(hang_grace=1.0)
        )
        return queue, pool, supervisor

    def test_overdue_job_gets_its_token_tripped_before_detach(self):
        metrics = ServiceMetrics()
        block = threading.Event()
        queue, pool, supervisor = self._hung_service(metrics, block)
        pool.start()
        try:
            job = queue.submit(make_job(deadline=5.0))
            worker = pool.members()[0]
            wait_until(lambda: worker.current_job is job)

            supervisor.sweep(now=5.5)  # overdue 0.5s < hang_grace 1.0s
            assert job.cancel.cancelled  # cooperative line tripped
            assert not job.finished  # but the job was not abandoned
            assert metrics.workers_detached.value == 0
            assert pool.members() == [worker]
        finally:
            block.set()
            supervisor.stop()
            pool.stop(timeout=5.0)

    def test_hung_worker_is_detached_past_grace(self):
        metrics = ServiceMetrics()
        block = threading.Event()
        queue, pool, supervisor = self._hung_service(metrics, block)
        pool.start()
        try:
            job = queue.submit(make_job(deadline=5.0))
            zombie = pool.members()[0]
            wait_until(lambda: zombie.current_job is job)

            supervisor.sweep(now=6.5)  # overdue 1.5s >= hang_grace

            assert job.state is JobState.TIMED_OUT
            assert isinstance(job.error, DeadlineExceeded)
            assert metrics.workers_detached.value == 1
            assert metrics.jobs_timed_out.value == 1
            # the queue was settled on the zombie's behalf
            assert queue.join(timeout=5.0)
            assert queue.in_flight == 0
            # capacity healed: a fresh worker replaced the zombie
            assert zombie not in pool.members()
            wait_until(lambda: pool.alive == pool.capacity)

            # the zombie finishing late must corrupt nothing
            block.set()
            zombie.join(timeout=5.0)
            assert not zombie.is_alive()
            assert job.state is JobState.TIMED_OUT  # terminal is first-wins
            assert job.result is None
            assert queue.in_flight == 0  # no double task_done
        finally:
            block.set()
            supervisor.stop()
            pool.stop(timeout=5.0)

    def test_detach_is_idempotent_across_sweeps(self):
        metrics = ServiceMetrics()
        block = threading.Event()
        queue, pool, supervisor = self._hung_service(metrics, block)
        pool.start()
        try:
            job = queue.submit(make_job(deadline=5.0))
            zombie = pool.members()[0]
            wait_until(lambda: zombie.current_job is job)
            supervisor.sweep(now=6.5)
            supervisor.sweep(now=7.5)  # second sweep sees only the healthy pool
            assert metrics.workers_detached.value == 1
            assert metrics.jobs_timed_out.value == 1
            assert queue.in_flight == 0
        finally:
            block.set()
            supervisor.stop()
            pool.stop(timeout=5.0)

    def test_jobs_without_deadlines_are_never_detached(self):
        metrics = ServiceMetrics()
        block = threading.Event()
        queue, pool, supervisor = self._hung_service(metrics, block)
        pool.start()
        try:
            job = queue.submit(make_job(deadline=None))
            worker = pool.members()[0]
            wait_until(lambda: worker.current_job is job)
            supervisor.sweep(now=1e9)  # far future; still no deadline
            assert not job.finished
            assert metrics.workers_detached.value == 0
            block.set()
            assert job.wait(timeout=5.0)
            assert job.state is JobState.DONE
        finally:
            block.set()
            supervisor.stop()
            pool.stop(timeout=5.0)


class TestCooperativeTimeout:
    def test_cooperative_executor_times_out_at_a_checkpoint(self):
        # no supervisor involvement at all: the token's own deadline
        # stops a cooperating executor mid-flight
        queue = JobQueue()
        metrics = ServiceMetrics()
        clock = {"now": 0.0}

        def executor(job, worker):
            clock["now"] = 10.0  # time "passes" past the 5.0 deadline
            job.cancel.check()  # checkpoint: raises DeadlineExceeded
            return "unreachable"

        pool = WorkerPool(queue, executor, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        pool.start()
        try:
            job = Job(kind="diagnose", app="mini", payload=None)
            job.deadline = 5.0
            job.cancel = CancellationToken(
                deadline=5.0, clock=lambda: clock["now"]
            )
            queue.submit(job)
            assert job.wait(timeout=5.0)
            assert job.state is JobState.TIMED_OUT
            assert isinstance(job.error, DeadlineExceeded)
            assert metrics.jobs_timed_out.value == 1
            assert queue.join(timeout=5.0)
        finally:
            pool.stop(timeout=5.0)
