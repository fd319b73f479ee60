"""Traced jobs through the concurrent service: no span leaks, ever.

The tracing design gives every traced job its *own* tracer, created
on the worker that runs it; the finished span tree travels attached to
the job and its diagnoses.  These tests drive interleaved traced and
untraced jobs through the thread worker pool (and untraced batches
through the fork backend) and verify the isolation guarantees:

* every span of a traced job sits under that job's own root, labelled
  with that job's id — never another job's;
* concurrently-executed traced jobs share no :class:`Span` objects;
* untraced jobs running alongside traced ones never grow spans;
* fork-backend diagnoses carry no trace.
"""

import os

import pytest

from repro.service.api import RcaService
from repro.service.workers import parallel_diagnose


@pytest.fixture
def service(mini_app, health_registry):
    svc = RcaService(store=mini_app.store, health=health_registry, workers=4)
    svc.register_app("mini", mini_app)
    yield svc
    svc.shutdown(graceful=False, timeout=5.0)


def _span_ids(root):
    return {id(span) for span in root.walk()}


class TestThreadPoolIsolation:
    def test_interleaved_traced_jobs_keep_spans_apart(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=12)
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        service.start()
        # one traced job per symptom, all in flight together on 4 workers
        jobs = [
            service.submit_diagnosis("mini", [symptom], traced=True)
            for symptom in symptoms
        ]
        for job in jobs:
            job.outcome(timeout=30.0)

        for job in jobs:
            root = job.trace
            assert root is not None
            assert root.kind == "job"
            # every span under this root belongs to this job and no other
            assert root.label == f"job-{job.job_id}"
            diagnose_spans = root.find("diagnose")
            assert len(diagnose_spans) == len(job.payload)
            for diagnosis in job.outcome():
                assert diagnosis.trace is not None
                assert id(diagnosis.trace) in _span_ids(root)

        # no Span object appears in two jobs' trees
        seen = set()
        for job in jobs:
            ids = _span_ids(job.trace)
            assert not (ids & seen), "span object shared between jobs"
            seen |= ids

    def test_untraced_jobs_alongside_traced_grow_no_spans(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=9)
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        service.start()
        traced = [
            service.submit_diagnosis("mini", [s], traced=True)
            for s in symptoms[::2]
        ]
        plain = [
            service.submit_diagnosis("mini", [s]) for s in symptoms[1::2]
        ]
        for job in traced + plain:
            job.outcome(timeout=30.0)
        for job in plain:
            assert job.trace is None
            for diagnosis in job.outcome():
                assert diagnosis.trace is None
        for job in traced:
            assert job.trace is not None

    def test_traced_run_job_covers_detection_and_diagnoses(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=6)
        service.start()
        job = service.submit_run(
            "mini", times[0] - 50.0, times[-1] + 50.0, traced=True
        )
        diagnoses = job.outcome(timeout=30.0)
        root = job.trace
        assert root.kind == "job" and root.meta["job_kind"] == "run"
        assert len(root.find("detect")) == 1
        assert len(root.find("diagnose")) == len(diagnoses)
        # the root covers all of its children (stage sums cannot exceed it)
        child_total = sum(child.duration for child in root.children)
        assert child_total <= root.duration + 1e-9

    def test_stage_metrics_fed_by_traced_jobs_only(
        self, service, mini_app, seed_scene
    ):
        times = seed_scene(mini_app.store, n=6)
        symptoms = mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)
        service.start()
        service.submit_diagnosis("mini", symptoms).outcome(timeout=30.0)
        assert service.metrics_snapshot()["stages"] == {}
        service.submit_diagnosis("mini", symptoms, traced=True).outcome(
            timeout=30.0
        )
        summary = service.metrics_snapshot()["stages"]
        assert summary  # traced job landed per-stage histograms
        for stage in ("job", "diagnose", "retrieve"):
            assert summary[stage]["count"] == 1


class TestBatchBackendIsolation:
    def _symptoms(self, mini_app, seed_scene, n=8):
        times = seed_scene(mini_app.store, n=n)
        return mini_app.find_symptoms(times[0] - 50.0, times[-1] + 50.0)

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="fork backend requires POSIX"
    )
    def test_fork_backend_untraced_attaches_nothing(
        self, mini_app, seed_scene, forks
    ):
        symptoms = self._symptoms(mini_app, seed_scene)
        plain = parallel_diagnose(mini_app.engine, symptoms, jobs=2)
        assert forks == [2]
        assert all(diagnosis.trace is None for diagnosis in plain)
