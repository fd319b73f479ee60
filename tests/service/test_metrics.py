"""Tests for the service metrics instruments."""

import pytest

from repro.service.metrics import Counter, Gauge, Histogram, ServiceMetrics


class TestCounter:
    def test_counts(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5


class TestGauge:
    def test_set_and_peak(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.peak == 3

    def test_add_tracks_peak(self):
        gauge = Gauge("g")
        gauge.add(2)
        gauge.add(3)
        gauge.add(-4)
        assert gauge.value == 1
        assert gauge.peak == 5


class TestHistogram:
    def test_percentiles_over_samples(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.percentile(0.50) == pytest.approx(51.0)
        assert histogram.percentile(0.95) == pytest.approx(96.0)
        assert histogram.percentile(1.0) == pytest.approx(100.0)

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").percentile(0.5) == 0.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_reservoir_is_bounded_but_count_exact(self):
        histogram = Histogram("h", reservoir=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        # percentiles reflect only the newest 10 samples
        assert histogram.percentile(0.0) >= 90.0

    def test_summary_keys(self):
        histogram = Histogram("h")
        histogram.observe(2.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "max"}
        assert summary["count"] == 1
        assert summary["max"] == 2.0


class TestServiceMetrics:
    def test_cache_hit_rate(self):
        metrics = ServiceMetrics()
        assert metrics.cache_hit_rate() == 0.0
        metrics.cache_hits.increment(3)
        metrics.cache_misses.increment(1)
        assert metrics.cache_hit_rate() == pytest.approx(0.75)

    def test_utilization(self):
        metrics = ServiceMetrics()
        metrics.add_busy_seconds(5.0)
        assert metrics.utilization(2, 5.0) == pytest.approx(0.5)
        assert metrics.utilization(0, 0.0) == 0.0
        metrics.add_busy_seconds(100.0)
        assert metrics.utilization(1, 1.0) == 1.0  # clamped

    def test_snapshot_includes_utilization_when_known(self):
        metrics = ServiceMetrics()
        assert "worker_utilization" not in metrics.snapshot()
        assert "worker_utilization" in metrics.snapshot(2, 10.0)

    def test_format_lines_renders_every_section(self):
        metrics = ServiceMetrics()
        metrics.jobs_submitted.increment()
        metrics.cache_hits.increment()
        metrics.diagnosis_latency.observe(0.002)
        text = "\n".join(metrics.format_lines(2, 10.0))
        assert "jobs:" in text
        assert "cache:" in text
        assert "diagnosis latency" in text
        assert "worker utilization" in text


class TestSnapshotParity:
    """format_lines is a thin renderer over snapshot — the numbers the
    CLI prints and the numbers /v1/metrics serves must be the same."""

    @staticmethod
    def populated_metrics():
        metrics = ServiceMetrics()
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
        metrics.add_busy_seconds(3.5)
        for value in (0.001, 0.002, 0.004):
            metrics.queue_wait.observe(value)
            metrics.diagnosis_latency.observe(value * 2)
            metrics.job_latency.observe(value * 3)
        metrics.observe_stages({"retrieve": 0.003, "temporal-join": 0.001})
        return metrics

    def test_snapshot_is_json_serializable(self):
        import json

        snap = self.populated_metrics().snapshot(2, 10.0)
        assert json.loads(json.dumps(snap)) == snap

    def test_every_rendered_number_comes_from_the_snapshot(self):
        metrics = self.populated_metrics()
        snap = metrics.snapshot(2, 10.0)
        text = "\n".join(metrics.format_lines(2, 10.0))
        jobs, cache = snap["jobs"], snap["cache"]
        assert f"{jobs['submitted']} submitted" in text
        assert f"{jobs['completed']} completed" in text
        assert f"{jobs['rejected']} rejected" in text
        assert f"{snap['recovery']['worker_crashes']} worker crashes" in text
        assert f"{snap['recovery']['jobs_shed']} shed" in text
        assert f"symptoms diagnosed: {snap['symptoms_diagnosed']}" in text
        assert f"{cache['hits']} hits / {cache['misses']} misses" in text
        assert f"hit rate {100 * cache['hit_rate']:.1f}%" in text
        assert f"depth {snap['queue_depth']:.0f}" in text
        assert f"peak {snap['queue_depth_peak']:.0f}" in text
        wait = snap["queue_wait"]
        assert f"wait p50 {1000 * wait['p50']:.1f} ms" in text
        latency = snap["diagnosis_latency"]
        assert f"p50 {1000 * latency['p50']:.2f} ms" in text
        assert f"{100 * snap['worker_utilization']:.1f}%" in text
        for stage, summary in snap["stages"].items():
            assert f"{stage}: p50 {1000 * summary['p50']:.2f} ms" in text

    def test_snapshot_carries_busy_gauges(self):
        snap = self.populated_metrics().snapshot()
        assert snap["workers_busy"] == 1
        assert snap["worker_busy_seconds"] == pytest.approx(3.5)
