"""Tests for the worker pool and the parallel batch helper."""

import os
import threading

import pytest

from repro.service import workers
from repro.service.metrics import ServiceMetrics
from repro.service.queue import Job, JobQueue, JobState
from repro.service.workers import (
    Worker,
    WorkerPool,
    available_cpus,
    contiguous_chunks,
    parallel_diagnose,
)


class TestChunking:
    def test_concatenation_preserves_order(self):
        items = list(range(17))
        chunks = contiguous_chunks(items, 4)
        assert [x for chunk in chunks for x in chunk] == items

    def test_sizes_near_equal_and_non_empty(self):
        chunks = contiguous_chunks(list(range(10)), 3)
        sizes = [len(c) for c in chunks]
        assert sizes == [4, 3, 3]

    def test_more_workers_than_items(self):
        chunks = contiguous_chunks([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_backend_probe(self):
        assert available_cpus() >= 1


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="forked batches are POSIX-only"
)


class TestParallelDiagnose:
    @needs_fork
    def test_fork_backend_matches_serial(self, mini_app, seed_scene, forks):
        times = seed_scene(mini_app.store, n=9)
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        assert len(symptoms) == 9
        serial = mini_app.engine.diagnose_all(symptoms)
        forked = parallel_diagnose(mini_app.engine, symptoms, jobs=4)
        assert forks == [4]
        assert forked == serial
        causes = [d.primary_cause for d in forked]
        assert "a" in causes and "b" in causes

    def test_one_cpu_runs_serially(
        self, mini_app, seed_scene, monkeypatch, forks
    ):
        monkeypatch.setattr(workers, "available_cpus", lambda: 1)
        times = seed_scene(mini_app.store, n=4)
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        batch = parallel_diagnose(mini_app.engine, symptoms, jobs=4)
        assert forks == []  # observed one core: forking cannot pay off
        assert batch == mini_app.engine.diagnose_all(symptoms)

    def test_single_job_uses_serial_path(self, mini_app, seed_scene, forks):
        times = seed_scene(mini_app.store, n=3)
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        batch = parallel_diagnose(mini_app.engine, symptoms, jobs=1)
        assert forks == []
        assert batch == mini_app.engine.diagnose_all(symptoms)

    @needs_fork
    def test_worker_error_propagates(self, mini_app, forks):
        bad = [object(), object()]  # not EventInstances: diagnose raises
        with pytest.raises(AttributeError):
            parallel_diagnose(mini_app.engine, bad, jobs=2)


class TestEngineIsolation:
    def test_isolated_engine_shares_state_but_not_cache(self, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=3)
        engine = mini_app.engine
        sibling = engine.isolated()
        assert sibling is not engine
        assert sibling.store is engine.store
        assert sibling.graph is engine.graph
        assert sibling.library is engine.library
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        sibling.diagnose(symptoms[0])
        assert sibling._retrieval_cache  # populated by the diagnosis
        assert not engine._retrieval_cache  # prototype untouched

    def test_invalidate_retrievals_drops_only_covering_windows(
        self, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=6)
        engine = mini_app.engine
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        engine.diagnose_all(symptoms)
        cached_before = len(engine._retrieval_cache)
        assert cached_before > 0
        # a record far outside every cached window drops nothing
        mini_app.store.insert("ta", times[-1] + 10_000.0, router="chi-cr1")
        assert engine.sync() == 0
        assert len(engine._retrieval_cache) == cached_before
        # a record inside the first symptom's evidence window drops the
        # covering entries only
        mini_app.store.insert("ta", times[0], router="chi-cr1")
        dropped = engine.sync()
        assert dropped > 0
        assert len(engine._retrieval_cache) == cached_before - dropped


class TestWorkerPool:
    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(JobQueue(), lambda job, worker: None, workers=0)

    def test_pool_executes_jobs_and_stops(self):
        queue = JobQueue()
        seen = []
        lock = threading.Lock()

        def execute(job, worker):
            with lock:
                seen.append(job.payload)
            return job.payload * 2

        pool = WorkerPool(queue, execute, workers=3)
        pool.start()
        pool.start()  # idempotent
        assert pool.alive == 3
        jobs = [queue.submit(Job(kind="x", app="app", payload=i)) for i in range(12)]
        assert queue.join(timeout=10.0)
        assert sorted(job.outcome(timeout=1.0) for job in jobs) == [
            2 * i for i in range(12)
        ]
        assert sorted(seen) == list(range(12))
        queue.close()
        pool.stop(timeout=10.0)
        assert pool.alive == 0

    def test_job_failure_is_isolated(self):
        queue = JobQueue()
        metrics = ServiceMetrics()

        def execute(job, worker):
            if job.payload == "bad":
                raise RuntimeError("exploding job")
            return "ok"

        pool = WorkerPool(queue, execute, workers=1, metrics=metrics)
        pool.start()
        bad = queue.submit(Job(kind="x", app="app", payload="bad"))
        good = queue.submit(Job(kind="x", app="app", payload="good"))
        with pytest.raises(RuntimeError, match="exploding"):
            bad.outcome(timeout=10.0)
        assert good.outcome(timeout=10.0) == "ok"
        assert metrics.jobs_failed.value == 1
        assert metrics.jobs_completed.value == 1
        queue.close()
        pool.stop(timeout=10.0)

    def test_engine_for_builds_one_isolated_engine_per_app(self, mini_app):
        worker = Worker(
            name="w", queue=JobQueue(), executor=lambda j, w: None,
            metrics=ServiceMetrics(), stop_event=threading.Event(),
        )
        first = worker.engine_for("mini", mini_app.engine)
        second = worker.engine_for("mini", mini_app.engine)
        assert first is second
        assert first is not mini_app.engine
        assert worker.engine_for("other", mini_app.engine) is not first


class ExplodingLenQueue:
    """Queue wrapper whose ``len()`` raises on demand.

    ``len(queue)`` is the first thing a worker touches after dequeuing
    a job (queue-depth gauge), so arming this reproduces an unexpected
    error *outside* job execution — the path that historically killed
    the worker thread silently.
    """

    def __init__(self, inner):
        self.inner = inner
        self.explode = False

    def get(self, timeout=None):
        return self.inner.get(timeout)

    def task_done(self):
        self.inner.task_done()

    def __len__(self):
        if self.explode:
            raise RuntimeError("queue accounting corrupted")
        return len(self.inner)

    @property
    def closed(self):
        return self.inner.closed


class TestWorkerCrashAccounting:
    def test_error_outside_execution_is_counted_and_fails_the_job(self):
        # satellite: a failure in the dequeue loop itself (not the job's
        # executor) must be logged, counted, and fail the in-flight job
        # so its waiters unblock — never a silent dead thread
        inner = JobQueue()
        queue = ExplodingLenQueue(inner)
        metrics = ServiceMetrics()
        worker = Worker(
            name="w-exploding", queue=queue,
            executor=lambda job, w: "never reached",
            metrics=metrics, stop_event=threading.Event(),
            poll_seconds=0.01,
        )
        job = inner.submit(Job(kind="x", app="app", payload=None))
        queue.explode = True
        worker.start()
        worker.join(timeout=5.0)

        assert not worker.is_alive()
        assert worker.crashed
        assert isinstance(worker.crash_error, RuntimeError)
        assert metrics.worker_crashes.value == 1
        assert job.wait(timeout=1.0)
        assert job.state is JobState.FAILED
        assert metrics.jobs_failed.value == 1


class TestPoolStop:
    def test_stop_reports_and_counts_leaked_workers(self):
        # satellite: stop() returns False and counts the threads that
        # failed to join — shutdown loss is observable, never silent
        queue = JobQueue()
        metrics = ServiceMetrics()
        release = threading.Event()

        def execute(job, worker):
            release.wait(30.0)
            return "done"

        pool = WorkerPool(queue, execute, workers=1, metrics=metrics,
                          poll_seconds=0.01)
        pool.start()
        job = queue.submit(Job(kind="x", app="app", payload=None))
        deadline = threading.Event()
        assert not deadline.wait(0.05)  # let the worker pick the job up

        assert pool.stop(timeout=0.2) is False
        assert pool.leaked == 1

        release.set()  # the blocked worker finishes and exits
        assert pool.stop(timeout=5.0) is True
        assert pool.leaked == 0
        assert job.outcome(timeout=1.0) == "done"

    def test_idle_worker_exits_promptly_despite_in_flight_peer(self):
        # satellite (stop-path regression): an idle worker must exit as
        # soon as stop is signalled and the heap is empty, even while a
        # peer still holds an in-flight job
        queue = JobQueue()
        metrics = ServiceMetrics()
        release = threading.Event()
        picked = threading.Event()

        def execute(job, worker):
            picked.set()
            release.wait(30.0)
            return "done"

        pool = WorkerPool(queue, execute, workers=2, metrics=metrics,
                          poll_seconds=0.01)
        pool.start()
        queue.submit(Job(kind="x", app="app", payload=None))
        assert picked.wait(timeout=5.0)
        try:
            # the blocked worker leaks within this short timeout, but
            # the idle one must have exited: exactly one thread leaks
            assert pool.stop(timeout=0.5) is False
            assert pool.leaked == 1
            assert pool.alive == 1
        finally:
            release.set()
            pool.stop(timeout=5.0)
        assert pool.alive == 0

    def test_should_exit_requires_stop_signal_and_drained_heap(self):
        queue = JobQueue()
        stop = threading.Event()
        worker = Worker(
            name="w", queue=queue, executor=lambda j, w: None,
            metrics=ServiceMetrics(), stop_event=stop,
        )
        assert not worker._should_exit()  # no signal
        stop.set()
        assert worker._should_exit()  # signalled and drained
        queue.submit(Job(kind="x", app="app", payload=None))
        assert not worker._should_exit()  # pending work trumps the signal
        assert queue.get() is not None
        # in-flight work elsewhere never keeps an idle worker alive
        assert worker._should_exit()
        queue.task_done()

    def test_closed_queue_counts_as_stop_signal(self):
        queue = JobQueue()
        worker = Worker(
            name="w", queue=queue, executor=lambda j, w: None,
            metrics=ServiceMetrics(), stop_event=threading.Event(),
        )
        assert not worker._should_exit()
        queue.close()
        assert worker._should_exit()
