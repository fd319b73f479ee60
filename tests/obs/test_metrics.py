"""The metric instruments and the registry they are named in."""

import json
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    hit_rate,
    snapshot_lines,
    sum_snapshots,
)


class TestCounter:
    def test_counts(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_accumulates_seconds(self):
        counter = Counter()
        counter.increment(0.25)
        counter.increment(1.5)
        assert counter.value == pytest.approx(1.75)

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestGauge:
    def test_set_and_peak(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.peak == 3

    def test_add_tracks_peak(self):
        gauge = Gauge()
        gauge.add(2)
        gauge.add(3)
        gauge.add(-4)
        assert gauge.value == 1
        assert gauge.peak == 5


class TestHistogram:
    def test_percentiles_over_samples(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.summary()["count"] == 100
        assert histogram.summary()["mean"] == pytest.approx(50.5)
        assert histogram.percentile(0.50) == pytest.approx(51.0)
        assert histogram.percentile(0.95) == pytest.approx(96.0)
        assert histogram.percentile(1.0) == pytest.approx(100.0)

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.5) == 0.0
        assert Histogram().summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_reservoir_is_bounded_but_count_exact(self):
        histogram = Histogram(reservoir=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.summary()["count"] == 100
        # percentiles reflect only the newest 10 samples
        assert histogram.percentile(0.0) >= 90.0

    def test_summary_keys(self):
        histogram = Histogram()
        histogram.observe(2.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "max"}
        assert summary["count"] == 1
        assert summary["max"] == 2.0


def test_hit_rate():
    assert hit_rate(0, 0) == 0.0
    assert hit_rate(3, 1) == pytest.approx(0.75)


class TestRegistry:
    def test_an_instrument_is_created_once_per_name(self):
        registry = Registry()
        counter = registry.counter("jobs.submitted")
        assert registry.counter("jobs.submitted") is counter
        assert registry.histogram("stages.retrieve") is registry.histogram(
            "stages.retrieve")

    def test_a_name_has_one_type(self):
        registry = Registry()
        registry.counter("jobs.submitted")
        with pytest.raises(TypeError):
            registry.gauge("jobs.submitted")
        registry.source("apps", list)
        with pytest.raises(TypeError):
            registry.counter("apps")
        with pytest.raises(ValueError):
            registry.source("jobs.submitted", list)

    def test_snapshot_nests_by_name_in_declaration_order(self):
        registry = Registry()
        registry.counter("jobs.submitted").increment(3)
        registry.counter("jobs.failed")
        registry.gauge("queue_depth").set(4)
        registry.gauge("queue_depth").set(2)
        registry.histogram("queue_wait").observe(0.5)
        registry.section("stages")
        registry.source("apps", lambda: ["bgp"])
        registry.counter("jobs.rejected").increment()
        snap = registry.snapshot()
        assert list(snap) == [
            "jobs", "queue_depth", "queue_depth_peak", "queue_wait",
            "stages", "apps",
        ]
        assert snap["jobs"] == {"submitted": 3, "failed": 0, "rejected": 1}
        assert list(snap["jobs"]) == ["submitted", "failed", "rejected"]
        assert (snap["queue_depth"], snap["queue_depth_peak"]) == (2, 4)
        assert snap["queue_wait"] == registry.histogram("queue_wait").summary()
        assert snap["stages"] == {}
        assert snap["apps"] == ["bgp"]
        registry.histogram("stages.retrieve").observe(0.1)
        assert list(registry.snapshot()["stages"]) == ["retrieve"]

    def test_sources_are_read_at_snapshot_time(self):
        registry = Registry()
        state = {"records": 1}
        registry.source("storage.records", lambda: state["records"])
        assert registry.snapshot() == {"storage": {"records": 1}}
        state["records"] = 7
        assert registry.snapshot() == {"storage": {"records": 7}}

    def test_additive_names_are_the_counters_and_gauges(self):
        registry = Registry()
        registry.counter("jobs.submitted")
        registry.gauge("queue_depth")
        registry.histogram("queue_wait")
        registry.source("apps", list)
        registry.section("stages")
        assert registry.additive() == ["jobs.submitted", "queue_depth"]


class TestSumSnapshots:
    @staticmethod
    def registry(submitted, depth, wait):
        registry = Registry()
        registry.counter("jobs.submitted").increment(submitted)
        registry.gauge("queue_depth").set(depth)
        registry.histogram("queue_wait").observe(wait)
        registry.source("apps", lambda: ["bgp"])
        return registry

    def test_counters_and_gauges_sum_by_type(self):
        registries = [self.registry(2, 1, 0.1), self.registry(3, 4, 0.2)]
        total = sum_snapshots(registries, [r.snapshot() for r in registries])
        # histograms, sources and gauge peaks are not summed
        assert total == {"jobs": {"submitted": 5}, "queue_depth": 5}

    def test_a_name_only_one_registry_has_still_sums(self):
        one, two = self.registry(1, 0, 0.1), self.registry(1, 0, 0.1)
        two.counter("jobs.retried").increment(2)
        total = sum_snapshots([one, two], [one.snapshot(), two.snapshot()])
        assert total["jobs"] == {"submitted": 2, "retried": 2}


def parse_lines(lines):
    """Rebuild ``{dotted path: text}`` from :func:`snapshot_lines`."""
    parsed, stack = {}, []
    for line in lines:
        depth = (len(line) - len(line.lstrip(" "))) // 2 - 1
        key, _, rest = line.strip().partition(":")
        stack[depth:] = [key]
        prefix = ".".join(stack)
        rest = rest.strip()
        if "=" in rest:
            for field in rest.split(" "):
                name, _, text = field.partition("=")
                parsed[f"{prefix}.{name}"] = text
        elif rest:
            parsed[prefix] = rest
    return parsed


def numeric_leaves(doc, prefix=""):
    out = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(numeric_leaves(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = value
    return out


class TestSnapshotLines:
    def test_every_number_is_rendered_under_its_path(self):
        registry = Registry()
        registry.counter("jobs.submitted").increment(7)
        registry.gauge("recovery.brownout_active").set(1.0)
        registry.counter("worker_busy_seconds").increment(3.14159265)
        registry.histogram("stages.retrieve").observe(0.000123456789)
        registry.source("health", lambda: {"state": "ok", "workers": 2})
        registry.source("apps", lambda: ["bgp", "cdn"])
        snap = registry.snapshot()
        parsed = parse_lines(snapshot_lines(snap))
        leaves = numeric_leaves(snap)
        assert set(leaves) <= set(parsed), set(leaves) - set(parsed)
        for path, value in leaves.items():
            assert float(parsed[path]) == pytest.approx(value, rel=1e-5), path
        assert parsed["health.state"] == "ok"
        assert parsed["apps"] == "bgp, cdn"

    def test_snapshot_is_json_serializable(self):
        registry = Registry()
        registry.counter("jobs.submitted").increment()
        registry.histogram("queue_wait").observe(0.25)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
