"""Chaos-harness integration tests: kill, hang and starve the service.

Each scenario wires a :class:`ServiceFaultInjector` between the worker
pool and the real executor of a live, supervised :class:`RcaService`
over the mini app, injects a fault, and asserts the recovery
invariants the supervision layer promises:

* every submitted job reaches a terminal state — nothing is lost;
* pool capacity is restored after every crash/detach;
* the queue ends idle (``join()`` returns, ``in_flight == 0``);
* shutdown leaks no worker threads.
"""

import time

import pytest

from repro.resilience import RetryPolicy, TransientError
from repro.service.api import RcaService
from repro.service.faults import ServiceFaultInjector
from repro.service.policy import DeadlineExceeded, ServiceHealth
from repro.service.queue import TERMINAL_STATES, JobState, QueueFull
from repro.service.supervisor import PoisonJob, SupervisorConfig

pytestmark = pytest.mark.chaos


def chaos_service(mini_app, **kwargs):
    """A supervised service whose executor runs through a fault injector."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault(
        "supervisor_config", SupervisorConfig(interval=0.02, hang_grace=0.2)
    )
    kwargs.setdefault("retry", RetryPolicy(max_attempts=1))
    holder = {}
    injector = ServiceFaultInjector(
        lambda job, worker: holder["service"]._execute(job, worker)
    )
    service = RcaService(mini_app.store, executor=injector, **kwargs)
    holder["service"] = service
    service.register_app("mini", mini_app)
    service.start()
    return service, injector


def wait_for(predicate, timeout=10.0):
    """Poll a condition; chaos recovery is asynchronous by design."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def assert_recovered(service, jobs):
    """The post-chaos invariants every scenario must satisfy."""
    for job in jobs:
        assert job.state in TERMINAL_STATES, f"job {job.job_id} not terminal"
    assert service.drain(timeout=10.0)
    assert service.queue.in_flight == 0
    # capacity heals once every dead worker has been swapped out — a
    # dying thread can briefly still count as alive, so wait for the
    # pool membership to be entirely healthy, not just fully sized
    assert wait_for(
        lambda: service.pool.alive == service.pool.capacity
        and not any(w.crashed for w in service.pool.members())
    )


class TestCrashChaos:
    def test_worker_kill_mid_job_loses_nothing(self, mini_app, seed_scene):
        seed_scene(mini_app.store)
        service, injector = chaos_service(mini_app)
        try:
            injector.crash_when(times=1)
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            jobs = [
                service.submit_diagnosis("mini", [symptom])
                for symptom in symptoms
            ]
            for job in jobs:
                assert job.wait(timeout=10.0)
            assert_recovered(service, jobs)
            # the kill really happened and was really recovered from
            assert injector.fired("crash") == 1
            assert service.metrics.worker_crashes.value == 1
            assert service.metrics.workers_restarted.value == 1
            assert service.metrics.jobs_failed_over.value == 1
            # and every job still produced its diagnoses
            for job in jobs:
                assert job.state is JobState.DONE
                assert len(job.outcome()) == 1
        finally:
            service.shutdown(timeout=10.0)
        assert service.pool.leaked == 0

    def test_poison_job_is_quarantined_while_others_complete(
        self, mini_app, seed_scene
    ):
        seed_scene(mini_app.store)
        service, injector = chaos_service(mini_app)
        try:
            # job_id 1 (the first submission) crashes every worker that
            # touches it; everything else runs clean
            injector.crash_when(
                match=lambda job: job.job_id == 1, times=None
            )
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            poison = service.submit_diagnosis("mini", [symptoms[0]])
            healthy = [
                service.submit_diagnosis("mini", [symptom])
                for symptom in symptoms[1:]
            ]
            assert poison.wait(timeout=15.0)
            assert poison.state is JobState.QUARANTINED
            assert poison.crash_count == 2  # SupervisorConfig.max_crashes
            with pytest.raises(PoisonJob):
                poison.outcome(timeout=1.0)
            # the buffer append trails the terminal transition slightly
            assert wait_for(lambda: len(service.quarantined()) == 1)
            assert [entry.job.job_id for entry in service.quarantined()] == [1]
            for job in healthy:
                assert job.wait(timeout=10.0)
                assert job.state is JobState.DONE
            assert_recovered(service, [poison] + healthy)
            assert service.metrics.jobs_quarantined.value == 1
        finally:
            service.shutdown(timeout=10.0)
        assert service.pool.leaked == 0


class TestHangChaos:
    def test_hung_executor_is_detached_and_timed_out(self, mini_app, seed_scene):
        seed_scene(mini_app.store)
        service, injector = chaos_service(mini_app, workers=1)
        try:
            injector.hang_when(times=1)
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            hung = service.submit_diagnosis(
                "mini", [symptoms[0]], deadline=0.2
            )
            assert hung.wait(timeout=10.0)
            assert hung.state is JobState.TIMED_OUT
            assert isinstance(hung.error, DeadlineExceeded)
            assert service.metrics.workers_detached.value == 1
            # the replacement worker serves later work normally
            after = service.submit_diagnosis("mini", [symptoms[1]])
            assert after.wait(timeout=10.0)
            assert after.state is JobState.DONE
            injector.release()  # let the zombie finish and exit
            assert_recovered(service, [hung, after])
            assert hung.state is JobState.TIMED_OUT  # zombie lost the race
        finally:
            injector.release()
            service.shutdown(timeout=10.0)

    def test_cooperative_stall_stops_at_a_checkpoint(self, mini_app, seed_scene):
        seed_scene(mini_app.store)
        service, injector = chaos_service(
            mini_app,
            workers=1,
            # huge grace: the cooperative path must win, not the detach
            supervisor_config=SupervisorConfig(interval=0.02, hang_grace=60.0),
        )
        try:
            injector.stall_when(times=1)
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            job = service.submit_diagnosis("mini", [symptoms[0]], deadline=0.2)
            assert job.wait(timeout=10.0)
            assert job.state is JobState.TIMED_OUT
            assert isinstance(job.error, DeadlineExceeded)
            # no worker was sacrificed: the executor stopped itself
            assert service.metrics.workers_detached.value == 0
            assert service.metrics.worker_crashes.value == 0
            assert_recovered(service, [job])
        finally:
            injector.release()
            service.shutdown(timeout=10.0)
        assert service.pool.leaked == 0


class TestRetryChaos:
    def test_transient_failures_are_retried_to_success(self, mini_app, seed_scene):
        seed_scene(mini_app.store)
        service, injector = chaos_service(
            mini_app,
            workers=1,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.005,
                              backoff_max=0.01),
        )
        try:
            injector.fail_when(lambda: TransientError("flaky read"), times=2)
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            job = service.submit_diagnosis("mini", [symptoms[0]])
            assert job.wait(timeout=10.0)
            assert job.state is JobState.DONE
            assert job.attempts == 3  # 2 failures + the success
            assert service.metrics.jobs_retried.value == 2
            assert service.metrics.jobs_failed.value == 0
            assert_recovered(service, [job])
        finally:
            service.shutdown(timeout=10.0)

    def test_permanent_failures_fail_fast(self, mini_app, seed_scene):
        seed_scene(mini_app.store)
        service, injector = chaos_service(
            mini_app, workers=1, retry=RetryPolicy(max_attempts=3)
        )
        try:
            injector.fail_when(lambda: ValueError("rule bug"), times=None)
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            job = service.submit_diagnosis("mini", [symptoms[0]])
            assert job.wait(timeout=10.0)
            assert job.state is JobState.FAILED
            assert job.attempts == 1  # permanent: no retry burned
            assert service.metrics.jobs_retried.value == 0
            with pytest.raises(ValueError, match="rule bug"):
                job.outcome(timeout=1.0)
            assert_recovered(service, [job])
        finally:
            service.shutdown(timeout=10.0)


class _Counter:
    def __init__(self, value=0):
        self.value = value


class _Wait:
    def __init__(self, p99=0.0):
        self.p99 = p99

    def percentile(self, q):
        return self.p99


class _Signals:
    """Minimal metrics surface for driving BrownoutController directly."""

    def __init__(self, p99=0.0):
        self.queue_wait = _Wait(p99)
        self.jobs_timed_out = _Counter()
        self.jobs_completed = _Counter()
        self.jobs_failed = _Counter()


class TestBrownout:
    def test_degraded_service_sheds_and_trims_then_recovers(
        self, mini_app, seed_scene
    ):
        seed_scene(mini_app.store)
        # unsupervised on purpose: the test drives the brownout state
        # machine by hand, so no sweep may re-evaluate it concurrently
        service = RcaService(mini_app.store, workers=1, supervise=False)
        service.register_app("mini", mini_app)
        service.start()
        try:
            schedule = service.schedule_periodic("mini", interval=1000.0)
            service.brownout.evaluate(_Signals(p99=60.0), now=1.0)
            assert service.health_state() is ServiceHealth.DEGRADED
            assert any("health: state=degraded" in line
                       for line in service.metrics_lines())

            # periodic-priority work is shed at the door...
            with pytest.raises(QueueFull, match="shed"):
                service.submit_run("mini", 0.0, 5000.0)
            assert service.metrics.jobs_shed.value == 1
            # ...including scheduler ticks, which skip but keep ticking
            assert service.tick(2000.0) == []
            assert schedule.runs_submitted == 0
            assert schedule.next_due > 2000.0
            assert service.metrics.jobs_shed.value >= 2

            # interactive work still runs, depth-capped and uncached
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            for _ in range(2):
                job = service.submit_diagnosis("mini", [symptoms[0]])
                assert job.wait(timeout=10.0)
                assert job.state is JobState.DONE
            # two identical diagnoses, zero cache hits: capped results
            # must never be stored (they would poison healthy lookups)
            assert service.metrics.cache_hits.value == 0
            assert service.metrics.cache_misses.value == 2

            # recovery restores scheduling, full depth and caching
            service.brownout.evaluate(_Signals(p99=0.0), now=3.0)
            assert service.health_state() is ServiceHealth.OK
            run = service.submit_run("mini", 0.0, 5000.0)
            assert run.wait(timeout=10.0)
            assert run.state is JobState.DONE
            # the healthy run cached its diagnoses (including symptom 0,
            # whose degraded result was rightly never stored), so both
            # repeat lookups now hit
            for _ in range(2):
                job = service.submit_diagnosis("mini", [symptoms[0]])
                assert job.wait(timeout=10.0)
            assert service.metrics.cache_hits.value == 2
        finally:
            service.shutdown(timeout=10.0)


class TestChaosStorm:
    def test_mixed_fault_storm_settles_with_zero_loss(self, mini_app, seed_scene):
        seed_scene(mini_app.store, n=9)
        service, injector = chaos_service(
            mini_app,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.005,
                              backoff_max=0.01),
        )
        try:
            injector.crash_when(times=2)
            injector.fail_when(lambda: TransientError("blip"), times=2)
            injector.delay_when(0.01, times=3)
            symptoms = list(mini_app.find_symptoms(0.0, 10_000.0))
            jobs = [
                service.submit_diagnosis("mini", [symptom])
                for symptom in symptoms
            ]
            for job in jobs:
                assert job.wait(timeout=20.0)
            assert_recovered(service, jobs)
            # zero loss: crashes were failed over, blips retried — every
            # job finished DONE despite 7 injected faults
            assert all(job.state is JobState.DONE for job in jobs)
            assert injector.fired() == 7
            assert service.metrics.worker_crashes.value == 2
            assert service.metrics.workers_restarted.value == 2
        finally:
            service.shutdown(timeout=10.0)
        assert service.pool.leaked == 0
