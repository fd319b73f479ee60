"""Admission-control edge cases: queue-full during drain, cancelling
terminal jobs, deadline-vs-completion races, and the submit/poll
visibility guarantee under concurrency."""

import threading

import pytest

from repro.service.api import RcaService
from repro.service.queue import (
    TERMINAL_STATES,
    Job,
    JobState,
    QueueFull,
)


class Gate:
    """App whose find_symptoms blocks until released (per-call events)."""

    def __init__(self, inner):
        self.inner = inner
        self.engine = inner.engine
        self.release = threading.Event()
        self.entered = threading.Event()

    def find_symptoms(self, start, end, tracer=None):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "test never released the gate"
        return self.inner.find_symptoms(start, end, tracer)


class TestQueueFullDuringDrain:
    def test_submissions_rejected_while_drain_waits(self, mini_app):
        """A drain in progress must not open the queue: submissions
        beyond depth keep getting QueueFull until capacity frees."""
        gate = Gate(mini_app)
        service = RcaService(store=mini_app.store, workers=1, queue_depth=1)
        service.register_app("mini", gate)
        service.start()
        try:
            running = service.submit_run("mini", 0.0, 1.0)
            assert gate.entered.wait(timeout=10.0)  # worker parked on job 1
            queued = service.submit_run("mini", 0.0, 1.0)  # fills depth 1

            drain_done = threading.Event()
            drained = {}

            def drain():
                drained["ok"] = service.drain(timeout=30.0)
                drain_done.set()

            thread = threading.Thread(target=drain, daemon=True)
            thread.start()
            assert not drain_done.wait(timeout=0.2)  # drain genuinely waiting

            # admission control still enforced mid-drain
            with pytest.raises(QueueFull):
                service.submit_run("mini", 0.0, 1.0)
            assert service.metrics.jobs_rejected.value == 1

            gate.release.set()
            assert drain_done.wait(timeout=30.0)
            assert drained["ok"]
            assert running.state is JobState.DONE
            assert queued.state is JobState.DONE
            # with capacity free again, admission reopens
            assert service.submit_run("mini", 0.0, 1.0).wait(timeout=30.0)
        finally:
            gate.release.set()
            service.shutdown(graceful=False, timeout=5.0)


class TestCancelTerminal:
    def test_cancel_done_job_is_a_soft_no(self, mini_app, seed_scene):
        seed_scene(mini_app.store, n=1)
        service = RcaService(store=mini_app.store, workers=1)
        service.register_app("mini", mini_app)
        service.start()
        try:
            job = service.submit_run("mini", 0.0, 10_000.0)
            assert job.wait(timeout=30.0)
            assert job.state is JobState.DONE
            assert service.cancel_job(job.job_id) is False
            assert job.state is JobState.DONE  # untouched
            assert job.result is not None
        finally:
            service.shutdown(graceful=False, timeout=5.0)

    def test_cancel_unknown_id_raises(self, mini_app):
        service = RcaService(store=mini_app.store, workers=1)
        try:
            with pytest.raises(KeyError, match="unknown job id"):
                service.cancel_job(424242)
        finally:
            service.shutdown(graceful=False, timeout=5.0)

    def test_double_cancel_is_stable(self, mini_app):
        gate = Gate(mini_app)
        service = RcaService(store=mini_app.store, workers=1)
        service.register_app("mini", gate)
        service.start()
        try:
            job = service.submit_run("mini", 0.0, 1.0)
            assert gate.entered.wait(timeout=10.0)
            assert service.cancel_job(job.job_id) is True
            gate.release.set()
            assert job.wait(timeout=30.0)
            first = job.state
            assert first in TERMINAL_STATES
            # cancelling after terminal: soft no, state frozen
            assert service.cancel_job(job.job_id) is False
            assert job.state is first
        finally:
            gate.release.set()
            service.shutdown(graceful=False, timeout=5.0)


class TestTerminalTransitionRace:
    """The first terminal transition wins — deadline expiry racing
    completion must never produce a state that flips afterwards."""

    def test_mark_done_beats_late_timeout(self):
        job = Job(kind="diagnose", app="x", payload=[])
        assert job.mark_done(["result"], now=1.0)
        assert not job.mark_timed_out(TimeoutError("late"), now=2.0)
        assert job.state is JobState.DONE
        assert job.error is None
        assert job.result == ["result"]

    def test_mark_timeout_beats_late_done(self):
        job = Job(kind="diagnose", app="x", payload=[])
        assert job.mark_timed_out(TimeoutError("deadline"), now=1.0)
        assert not job.mark_done(["late result"], now=2.0)
        assert job.state is JobState.TIMED_OUT
        assert job.result is None

    def test_every_pairwise_race_is_first_wins(self):
        markers = {
            JobState.DONE: lambda job: job.mark_done([], now=1.0),
            JobState.FAILED: lambda job: job.mark_failed(ValueError("x"), now=1.0),
            JobState.CANCELLED: lambda job: job.mark_cancelled(),
            JobState.TIMED_OUT: lambda job: job.mark_timed_out(
                TimeoutError("x"), now=1.0
            ),
            JobState.QUARANTINED: lambda job: job.mark_quarantined(
                RuntimeError("x"), now=1.0
            ),
        }
        for first_state, first in markers.items():
            for second_state, second in markers.items():
                job = Job(kind="diagnose", app="x", payload=[])
                assert first(job) is True
                assert second(job) is False
                assert job.state is first_state, (first_state, second_state)

    def test_deadline_racing_completion_settles_once(self, mini_app, seed_scene):
        """Jobs whose deadline is of the same order as their execution
        time: each must land in exactly one stable terminal state
        (DONE or TIMED_OUT), observed identically forever after."""
        seed_scene(mini_app.store, n=2)
        service = RcaService(store=mini_app.store, workers=2)
        service.register_app("mini", mini_app)
        service.start()
        try:
            jobs = [
                service.submit_run("mini", 0.0, 10_000.0, deadline=0.001 * k)
                for k in range(8)
            ]
            observed = {}
            for job in jobs:
                assert job.wait(timeout=30.0)
                observed[job.job_id] = job.state
                assert job.state in (JobState.DONE, JobState.TIMED_OUT)
            for _ in range(50):  # terminal state never flips
                for job in jobs:
                    assert job.state is observed[job.job_id]
        finally:
            service.shutdown(graceful=False, timeout=5.0)


class TestSubmitPollHammer:
    def test_issued_ids_are_always_pollable(self, mini_app, seed_scene):
        """Concurrent submitters + pollers: every id a submitter got
        back must poll without KeyError, immediately and forever."""
        seed_scene(mini_app.store, n=2)
        service = RcaService(
            store=mini_app.store, workers=2, queue_depth=64, job_history=10_000
        )
        service.register_app("mini", mini_app)
        service.start()
        issued = []
        issued_lock = threading.Lock()
        errors = []
        stop = threading.Event()

        def submitter():
            for _ in range(30):
                try:
                    job = service.submit_run("mini", 0.0, 10_000.0)
                except QueueFull:
                    continue
                with issued_lock:
                    issued.append(job.job_id)
                try:
                    service.poll(job.job_id)  # immediately visible
                except KeyError as exc:
                    errors.append(("immediate", job.job_id, exc))

        def poller():
            while not stop.is_set():
                with issued_lock:
                    ids = list(issued)
                for job_id in ids:
                    try:
                        state = service.poll(job_id)
                    except KeyError as exc:
                        errors.append(("poll", job_id, exc))
                        continue
                    assert isinstance(state, JobState)

        try:
            threads = [
                threading.Thread(target=submitter, daemon=True)
                for _ in range(4)
            ] + [
                threading.Thread(target=poller, daemon=True) for _ in range(2)
            ]
            for thread in threads[4:]:
                thread.start()
            for thread in threads[:4]:
                thread.start()
            for thread in threads[:4]:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            stop.set()
            for thread in threads[4:]:
                thread.join(timeout=10.0)
            assert not errors, errors[:5]
            assert issued  # the hammer actually hammered
            assert service.drain(timeout=60.0)
        finally:
            stop.set()
            service.shutdown(graceful=False, timeout=5.0)

    def test_rejected_submission_leaves_no_ghost_job(self, mini_app):
        gate = Gate(mini_app)
        service = RcaService(store=mini_app.store, workers=1, queue_depth=1)
        service.register_app("mini", gate)
        service.start()
        try:
            service.submit_run("mini", 0.0, 1.0)
            assert gate.entered.wait(timeout=10.0)
            service.submit_run("mini", 0.0, 1.0)
            before = service.metrics.jobs_submitted.value
            with pytest.raises(QueueFull):
                service.submit_run("mini", 0.0, 1.0)
            # the refused job is not pollable and counters balance
            # (ids are sequential: the refused submission took id 3)
            assert service.find_job(before + 1) is None
            assert service.metrics.jobs_rejected.value == 1
        finally:
            gate.release.set()
            service.shutdown(graceful=False, timeout=5.0)
