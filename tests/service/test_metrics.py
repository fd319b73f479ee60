"""The service's metrics: declared once in one registry, every view
derived from it (the instrument types are tested in tests/obs)."""

import json

import pytest

from repro.service import RcaService
from repro.service.metrics import ServiceMetrics
from tests.obs.test_metrics import numeric_leaves, parse_lines


class TestServiceMetrics:
    def test_cache_hit_rate(self):
        metrics = ServiceMetrics()
        assert metrics.registry.snapshot()["cache"]["hit_rate"] == 0.0
        metrics.cache_hits.increment(3)
        metrics.cache_misses.increment(1)
        assert metrics.registry.snapshot()["cache"]["hit_rate"] == pytest.approx(0.75)

    def test_utilization(self):
        metrics = ServiceMetrics()
        metrics.worker_busy_seconds.increment(5.0)
        assert metrics.utilization(2, 5.0) == pytest.approx(0.5)
        assert metrics.utilization(0, 0.0) == 0.0
        metrics.worker_busy_seconds.increment(100.0)
        assert metrics.utilization(1, 1.0) == 1.0  # clamped

    def test_stages_are_served_before_any_traced_job(self):
        metrics = ServiceMetrics()
        assert metrics.registry.snapshot()["stages"] == {}
        metrics.observe_stages({"retrieve": 0.003})
        metrics.observe_stages({"retrieve": 0.001, "reason": 0.002})
        stages = metrics.registry.snapshot()["stages"]
        assert stages["retrieve"]["count"] == 2
        assert stages["reason"]["count"] == 1


@pytest.fixture
def populated(mini_app, health_registry):
    """A service whose every instrument holds a distinct number."""
    service = RcaService(store=mini_app.store, health=health_registry, workers=2)
    service.register_app("mini", mini_app)
    metrics = service.metrics
    metrics.jobs_submitted.increment(7)
    metrics.jobs_completed.increment(5)
    metrics.jobs_failed.increment(1)
    metrics.jobs_rejected.increment(2)
    metrics.jobs_shed.increment(3)
    metrics.worker_crashes.increment(1)
    metrics.workers_restarted.increment(1)
    metrics.symptoms_diagnosed.increment(41)
    metrics.cache_hits.increment(3)
    metrics.cache_misses.increment(1)
    metrics.cache_invalidations.increment(2)
    metrics.queue_depth.set(4)
    metrics.queue_depth.set(2)
    metrics.workers_busy.set(1)
    metrics.worker_busy_seconds.increment(3.5)
    for value in (0.001, 0.002, 0.004):
        metrics.queue_wait.observe(value)
        metrics.diagnosis_latency.observe(value * 2)
        metrics.job_latency.observe(value * 3)
    metrics.observe_stages({"retrieve": 0.003, "temporal-join": 0.001})
    service.start()
    yield service
    service.shutdown(graceful=False, timeout=5.0)


class TestSnapshotParity:
    """The console lines are a rendering of the snapshot ``/v1/metrics``
    serves: no number of the snapshot is left out of them."""

    def test_snapshot_is_json_serializable(self, populated):
        snap = populated.metrics_snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_the_rendering_hides_no_number(self, populated):
        snap = populated.metrics_snapshot()
        lines = populated.metrics_lines()
        assert lines[0] == "service metrics:"
        parsed = parse_lines(lines[1:])
        leaves = numeric_leaves(snap)
        assert set(leaves) <= set(parsed), set(leaves) - set(parsed)
        for path, value in leaves.items():
            assert float(parsed[path]) == pytest.approx(value, rel=1e-5, abs=1e-9), path
        # every instrument kind is among them
        for path in ("jobs.submitted", "recovery.jobs_shed", "cache.hit_rate",
                     "queue_depth", "queue_depth_peak", "worker_busy_seconds",
                     "queue_wait.p95", "stages.temporal-join.p50",
                     "worker_utilization", "storage.records", "health.workers"):
            assert path in parsed, path
        assert parsed["health.state"] == "ok"
        assert parsed["apps"] == "mini"

    def test_snapshot_carries_the_populated_numbers(self, populated):
        snap = populated.metrics_snapshot()
        assert snap["jobs"]["submitted"] == 7
        assert snap["recovery"]["jobs_shed"] == 3
        assert snap["symptoms_diagnosed"] == 41
        assert snap["cache"]["hit_rate"] == pytest.approx(0.75)
        assert (snap["queue_depth"], snap["queue_depth_peak"]) == (2, 4)
        assert snap["workers_busy"] == 1
        assert snap["worker_busy_seconds"] == pytest.approx(3.5)
        assert snap["queue_wait"]["count"] == 3
        assert snap["stages"]["retrieve"]["count"] == 1
        assert snap["worker_utilization"] >= 0.0
        assert snap["health"]["workers"] == 2
