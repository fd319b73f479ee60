"""Tests for the RcaService facade: submit/poll, cache, scheduling,
health-aware priority, drain and shutdown."""

import dataclasses
import gc
import threading
import time

import pytest

from repro.core.events import EventDefinition
from repro.core.locations import LocationType
from repro.service.api import RcaService
from repro.service.queue import (
    PRIORITY_IMPAIRED_PENALTY,
    PRIORITY_INTERACTIVE,
    PRIORITY_PERIODIC,
    JobState,
    QueueClosed,
    QueueFull,
)


@pytest.fixture
def service(mini_app, health_registry):
    svc = RcaService(store=mini_app.store, health=health_registry, workers=2)
    svc.register_app("mini", mini_app)
    yield svc
    svc.shutdown(graceful=False, timeout=5.0)


def window(times):
    return times[0] - 50.0, times[-1] + 50.0


class SlowApp:
    """Wraps an app so find_symptoms blocks until released."""

    def __init__(self, inner):
        self.inner = inner
        self.engine = inner.engine
        self.started = threading.Event()
        self.release = threading.Event()

    def find_symptoms(self, start, end, tracer=None):
        self.started.set()
        assert self.release.wait(timeout=10.0), "test never released the job"
        return self.inner.find_symptoms(start, end, tracer)


class TestRegistration:
    def test_apps_listed(self, service):
        assert service.apps() == ["mini"]

    def test_duplicate_registration_rejected(self, service, mini_app):
        with pytest.raises(ValueError, match="already registered"):
            service.register_app("mini", mini_app)

    def test_unknown_app_rejected(self, service):
        with pytest.raises(KeyError, match="no application"):
            service.submit_diagnosis("ghost", [])


class TestSubmitAndPoll:
    def test_diagnosis_batch_matches_serial(self, service, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=6)
        symptoms = mini_app.find_symptoms(*window(times))
        serial = mini_app.engine.diagnose_all(symptoms)
        service.start()
        job = service.submit_diagnosis("mini", symptoms)
        assert job.outcome(timeout=30.0) == serial
        assert service.poll(job.job_id) is JobState.DONE
        assert service.job(job.job_id) is job
        assert service.find_job(999_999) is None
        with pytest.raises(KeyError):
            service.poll(999_999)

    def test_run_job_finds_and_diagnoses(self, service, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=6)
        lo, hi = window(times)
        serial = mini_app.engine.diagnose_all(mini_app.find_symptoms(lo, hi))
        service.start()
        job = service.submit_run("mini", lo, hi)
        assert job.outcome(timeout=30.0) == serial
        assert service.metrics.jobs_completed.value == 1

    def test_blocking_submit_answers_in_submission_order(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=3)
        symptoms = mini_app.find_symptoms(*window(times))
        service.start()
        job = service.submit_diagnosis("mini", symptoms, block=True)
        diagnoses = job.outcome(timeout=30.0)
        assert [d.symptom for d in diagnoses] == symptoms

    def test_admission_rejection_is_counted(self, service, mini_app, seed_scene):
        tight = RcaService(store=mini_app.store, workers=1, queue_depth=1)
        tight.register_app("mini", mini_app)  # pool not started: jobs queue up
        tight.submit_diagnosis("mini", [])
        with pytest.raises(QueueFull):
            tight.submit_diagnosis("mini", [])
        assert tight.metrics.jobs_rejected.value == 1
        assert tight.metrics.jobs_submitted.value == 1
        tight.shutdown(graceful=False, timeout=5.0)


class TestResultCache:
    def test_repeat_submission_served_from_cache(self, service, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=6)
        symptoms = mini_app.find_symptoms(*window(times))
        service.start()
        first = service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        diagnosed_once = service.metrics.symptoms_diagnosed.value
        assert diagnosed_once == len(symptoms)
        second = service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        assert second == first
        # nothing re-ran: every repeat came from the cache
        assert service.metrics.symptoms_diagnosed.value == diagnosed_once
        assert service.metrics.cache_hits.value == len(symptoms)

    def test_late_record_invalidates_and_changes_rediagnosis(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=6)
        symptoms = mini_app.find_symptoms(*window(times))
        unexplained = symptoms[2]  # i % 3 == 2: no evidence seeded
        service.start()
        first = service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        assert first[2].primary_cause == "Unknown"
        cached = len(service.cache)
        assert cached == len(symptoms)

        # a late 'a' record lands inside the unexplained symptom's
        # evidence window: exactly that entry must be evicted
        mini_app.store.insert("ta", unexplained.start - 3.0, router="nyc-per1")
        assert len(service.cache) == cached - 1
        assert service.metrics.cache_invalidations.value == 1

        second = service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        assert second[2].primary_cause == "a"  # re-diagnosed with new evidence
        assert second[:2] == first[:2]  # untouched entries still cached
        # only the invalidated symptom was re-run
        assert service.metrics.symptoms_diagnosed.value == len(symptoms) + 1

    def test_late_record_outside_windows_evicts_nothing(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=3)
        symptoms = mini_app.find_symptoms(*window(times))
        service.start()
        service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        cached = len(service.cache)
        mini_app.store.insert("ta", times[-1] + 10_000.0, router="nyc-per1")
        assert len(service.cache) == cached
        assert service.metrics.cache_invalidations.value == 0


    def test_graph_edit_is_never_served_from_the_old_rule_set(self):
        # a rule re-added with +1000 priority moves the fingerprint and
        # changes diagnoses; the cache must key on the graph as it is
        from repro.apps import BgpFlapApp
        from repro.simulation import bgp_month

        result = bgp_month(total_flaps=30, seed=1)
        app = BgpFlapApp.build(result.platform())
        symptoms = app.find_symptoms(result.start, result.end)
        svc = RcaService(store=app.engine.store, workers=1)
        svc.register_app("bgp", app)
        svc.start()
        try:
            first = svc.submit_diagnosis("bgp", symptoms).outcome(timeout=60.0)
            graph = app.engine.graph
            rule = graph.rules_from(graph.symptom_event)[0]
            graph.add_rule(dataclasses.replace(rule, priority=rule.priority + 1000))
            second = svc.submit_diagnosis("bgp", symptoms).outcome(timeout=60.0)
            assert svc.metrics.cache_hits.value == 0
        finally:
            svc.shutdown(graceful=False, timeout=5.0)
        assert second == app.engine.isolated().diagnose_all(symptoms) != first

    def test_graph_edit_moves_the_feeds_that_demote(
        self, service, mini_app, health_registry
    ):
        health_registry.mark_down("netflow", now=1000.0)
        assert service.submit_diagnosis("mini", []).priority == PRIORITY_INTERACTIVE
        mini_app.library.register(
            EventDefinition("c", LocationType.ROUTER, lambda _: [], data_source="netflow")
        )
        graph = mini_app.engine.graph
        graph.add_rule(dataclasses.replace(graph.rules_from("a")[0], child_event="c"))
        demoted = service.submit_diagnosis("mini", [])
        assert demoted.priority == PRIORITY_INTERACTIVE + PRIORITY_IMPAIRED_PENALTY


class TestPeriodicScheduling:
    def test_tick_submits_due_runs(self, service, mini_app, seed_scene):
        seed_scene(mini_app.store, n=4, spacing=500.0, start=1000.0)
        schedule = service.schedule_periodic("mini", interval=1000.0, first_due=1500.0)
        assert service.tick(1400.0) == []
        jobs = service.tick(2500.0)  # 1500 and 2500 both came due
        assert [job.payload for job in jobs] == [(500.0, 1500.0), (1500.0, 2500.0)]
        assert all(job.kind == "run" for job in jobs)
        assert schedule.runs_submitted == 2
        assert schedule.next_due == 3500.0

    def test_scheduled_runs_cover_the_span(self, service, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=6, spacing=300.0, start=1000.0)
        lo, hi = window(times)
        serial = mini_app.engine.diagnose_all(mini_app.find_symptoms(lo, hi))
        service.start()
        service.schedule_periodic(
            "mini", interval=400.0, window=None, first_due=lo + 400.0
        )
        jobs = service.tick(hi)
        assert service.drain(timeout=30.0)
        scheduled = [d for job in jobs for d in job.outcome(timeout=5.0)]
        assert scheduled == serial

    def test_interval_validated(self, service):
        with pytest.raises(ValueError):
            service.schedule_periodic("mini", interval=0.0)

    def test_unregistered_app_cannot_be_scheduled(self, service):
        with pytest.raises(KeyError):
            service.schedule_periodic("ghost", interval=10.0)


class TestHealthAwarePriority:
    def test_impaired_feed_demotes_priority(self, service, health_registry):
        healthy = service.submit_diagnosis("mini", [])
        assert healthy.priority == PRIORITY_INTERACTIVE
        # 'syslog' carries this app's evidence; mark it down
        health_registry.mark_down("syslog", now=1000.0)
        demoted = service.submit_diagnosis("mini", [])
        assert demoted.priority == PRIORITY_INTERACTIVE + PRIORITY_IMPAIRED_PENALTY
        run = service.submit_run("mini", 0.0, 10.0)
        assert run.priority == PRIORITY_PERIODIC + PRIORITY_IMPAIRED_PENALTY

    def test_demoted_job_still_runs(self, service, mini_app, seed_scene, health_registry):
        times = seed_scene(mini_app.store, n=3)
        symptoms = mini_app.find_symptoms(*window(times))
        health_registry.mark_down("syslog", now=1000.0)
        service.start()
        job = service.submit_diagnosis("mini", symptoms)
        assert len(job.outcome(timeout=30.0)) == len(symptoms)

    def test_unrelated_feed_state_does_not_demote(self, service, health_registry):
        health_registry.mark_down("netflow", now=1000.0)
        job = service.submit_diagnosis("mini", [])
        assert job.priority == PRIORITY_INTERACTIVE

    def test_recovery_restores_priority(self, service, health_registry):
        health_registry.mark_down("syslog", now=1000.0)
        health_registry.mark_restored("syslog", now=2000.0)
        job = service.submit_diagnosis("mini", [])
        assert job.priority == PRIORITY_INTERACTIVE


class TestDrainAndShutdown:
    def test_drain_waits_for_in_flight_jobs(self, service, mini_app, seed_scene):
        seed_scene(mini_app.store, n=3)
        slow = SlowApp(mini_app)
        service.register_app("slow", slow)
        service.start()
        job = service.submit_run("slow", 900.0, 3000.0)
        assert slow.started.wait(timeout=10.0)
        assert not service.drain(timeout=0.2)  # job still in flight
        slow.release.set()
        assert service.drain(timeout=30.0)
        assert job.state is JobState.DONE

    def test_set_up_is_frozen_while_the_service_runs(self, mini_app):
        gc.unfreeze()  # whatever earlier set-ups in this process froze
        svc = RcaService(store=mini_app.store, workers=1)
        svc.register_app("mini", mini_app)
        svc.start()
        try:
            assert gc.get_freeze_count() > 0
            assert all(obj is not svc for obj in gc.get_objects())
        finally:
            svc.shutdown(graceful=False, timeout=5.0)
        assert gc.get_freeze_count() == 0

    def test_graceful_shutdown_finishes_queued_jobs(self, mini_app, seed_scene):
        seed_scene(mini_app.store, n=3)
        svc = RcaService(store=mini_app.store, workers=1)
        svc.register_app("mini", mini_app)
        slow = SlowApp(mini_app)
        svc.register_app("slow", slow)
        svc.start()
        blocker = svc.submit_run("slow", 900.0, 3000.0)
        assert slow.started.wait(timeout=10.0)
        queued = [svc.submit_run("mini", 900.0, 3000.0) for _ in range(2)]

        finisher = threading.Thread(
            target=svc.shutdown, kwargs={"graceful": True, "timeout": 30.0}
        )
        finisher.start()
        deadline = time.monotonic() + 10.0
        while not svc.queue.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(QueueClosed):
            svc.submit_run("mini", 900.0, 3000.0)  # closed to new work
        slow.release.set()
        finisher.join(timeout=30.0)
        assert not finisher.is_alive()
        assert blocker.state is JobState.DONE
        for job in queued:
            assert job.state is JobState.DONE  # graceful: queued work finished
        assert svc.pool.alive == 0

    def test_immediate_shutdown_cancels_pending(self, mini_app, seed_scene):
        seed_scene(mini_app.store, n=3)
        svc = RcaService(store=mini_app.store, workers=1)
        svc.register_app("mini", mini_app)
        slow = SlowApp(mini_app)
        svc.register_app("slow", slow)
        svc.start()
        blocker = svc.submit_run("slow", 900.0, 3000.0)
        assert slow.started.wait(timeout=10.0)
        pending = [svc.submit_run("mini", 900.0, 3000.0) for _ in range(3)]

        finisher = threading.Thread(
            target=svc.shutdown, kwargs={"graceful": False, "timeout": 30.0}
        )
        finisher.start()
        for job in pending:
            with pytest.raises(QueueClosed):
                job.outcome(timeout=10.0)
            assert job.state is JobState.CANCELLED
        slow.release.set()
        finisher.join(timeout=30.0)
        assert not finisher.is_alive()
        assert blocker.state is JobState.DONE  # in-flight work still completed
        assert svc.metrics.jobs_cancelled.value == 3
        assert svc.pool.alive == 0

    def test_metrics_lines_render(self, service, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=3)
        symptoms = mini_app.find_symptoms(*window(times))
        service.start()
        service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        text = "\n".join(service.metrics_lines())
        assert "service metrics:" in text
        assert "worker_utilization: " in text
        spatial = service.metrics_snapshot()["spatial_cache"]
        assert f"spatial_cache: hits={spatial['hits']} " in text
        assert f"hit_rate={spatial['hit_rate']:.6g}" in text
        assert service.elapsed_seconds > 0.0

    def test_spatial_cache_counters_read_from_the_resolver(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=6)
        symptoms = mini_app.find_symptoms(*window(times))
        service.start()
        service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        snap = service.metrics_snapshot()["spatial_cache"]
        resolver_stats = mini_app.engine.resolver.cache_stats()
        # read at the source: service totals are the resolver's
        assert snap["misses"] == resolver_stats["misses"]
        assert snap["hits"] == resolver_stats["hits"]
        assert snap["misses"] > 0
        # re-diagnosing the same symptoms (traced jobs bypass the result
        # cache) hits the warm resolver cache
        service.submit_diagnosis("mini", symptoms, traced=True).outcome(timeout=30.0)
        after = service.metrics_snapshot()["spatial_cache"]
        assert after["hits"] > snap["hits"]
        assert after["hit_rate"] > 0.0
