"""Concurrency stress: many jobs, >= 4 workers, results equal to serial."""

import random

import pytest

from repro.service.api import RcaService
from repro.service.queue import PRIORITY_INTERACTIVE, PRIORITY_PERIODIC


class TestConcurrencyStress:
    def test_many_jobs_on_four_workers_match_serial(self, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=48, spacing=400.0)
        lo, hi = times[0] - 50.0, times[-1] + 50.0
        symptoms = mini_app.find_symptoms(lo, hi)
        assert len(symptoms) == 48
        serial = mini_app.engine.diagnose_all(symptoms)
        expected = {s: d for s, d in zip(symptoms, serial)}

        service = RcaService(store=mini_app.store, workers=4, queue_depth=512)
        service.register_app("mini", mini_app)
        service.start()
        try:
            assert service.pool.alive == 4
            # one single-symptom job each, in shuffled order with mixed
            # priorities, plus whole-window runs racing the small jobs
            rng = random.Random(7)
            shuffled = list(symptoms)
            rng.shuffle(shuffled)
            jobs = [
                (
                    symptom,
                    service.submit_diagnosis(
                        "mini",
                        [symptom],
                        priority=rng.choice(
                            [PRIORITY_INTERACTIVE, PRIORITY_PERIODIC]
                        ),
                    ),
                )
                for symptom in shuffled
            ]
            runs = [service.submit_run("mini", lo, hi) for _ in range(2)]

            for symptom, job in jobs:
                diagnoses = job.outcome(timeout=60.0)
                assert len(diagnoses) == 1
                assert diagnoses[0] == expected[symptom]
            for run in runs:
                assert run.outcome(timeout=60.0) == serial

            assert service.drain(timeout=30.0)
            metrics = service.metrics
            assert metrics.jobs_completed.value == len(jobs) + len(runs)
            assert metrics.jobs_failed.value == 0
            # every one of the 144 symptom lookups is a hit or a miss the
            # job diagnosed; the singles miss (nobody published before
            # them), and a run job looks its symptoms up once, before its
            # group: queued behind every single, it can only miss the
            # singles still in flight on the other three workers
            lookups = len(jobs) + len(runs) * len(symptoms)
            assert metrics.symptoms_diagnosed.value + metrics.cache_hits.value == lookups
            assert metrics.cache_hits.value >= len(runs) * (len(symptoms) - 3)
        finally:
            service.shutdown(graceful=True, timeout=30.0)
        assert service.pool.alive == 0
