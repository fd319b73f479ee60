"""Service metrics: counters, gauges and latency histograms.

The deployed G-RCA is operated, not just run — operators watch queue
depth, diagnosis latency and cache efficiency to know whether the
platform keeps up with its ~600 feeds.  This module is a dependency-free
metrics registry for that purpose: every service component records into
a shared :class:`ServiceMetrics`, and the CLI/API render one snapshot.

All types are thread-safe (one lock per instrument) and injectable-clock
friendly; histograms keep a bounded reservoir of recent samples, so
percentiles reflect recent behaviour and memory stays constant.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional


class Counter:
    """Monotonic event counter."""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Instantaneous value (queue depth, workers busy) with a high-water mark."""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._peak = max(self._peak, value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            self._peak = max(self._peak, self._value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def peak(self) -> float:
        with self._lock:
            return self._peak


class Histogram:
    """Latency histogram over a bounded reservoir of recent samples.

    Tracks exact count/sum/min/max since start; percentiles are computed
    over the newest ``reservoir`` samples (a sliding window, not a
    uniform sample — recent behaviour is what an operator tunes against).
    """

    def __init__(self, name: str, help_text: str = "", reservoir: int = 2048) -> None:
        self.name = name
        self.help_text = help_text
        self._samples: Deque[float] = deque(maxlen=reservoir)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, fraction: float) -> float:
        """Reservoir percentile; 0.0 when nothing was observed."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / max in one locked pass."""
        with self._lock:
            if not self._samples:
                return {"count": self._count, "mean": 0.0, "p50": 0.0,
                        "p95": 0.0, "max": self._max or 0.0}
            ordered = sorted(self._samples)
            count, total = self._count, self._sum
            maximum = self._max or 0.0
        def pct(fraction: float) -> float:
            return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "max": maximum,
        }


class ServiceMetrics:
    """Every instrument the RCA service layer records into.

    ``worker_busy_seconds`` accumulates per-worker execution time;
    :meth:`utilization` divides by ``workers x elapsed`` for the
    classic utilization ratio.
    """

    def __init__(self) -> None:
        self.jobs_submitted = Counter("jobs_submitted", "jobs accepted into the queue")
        self.jobs_rejected = Counter("jobs_rejected", "jobs refused by admission control")
        self.jobs_completed = Counter("jobs_completed", "jobs finished successfully")
        self.jobs_failed = Counter("jobs_failed", "jobs that raised")
        self.jobs_cancelled = Counter("jobs_cancelled", "jobs cancelled before running")
        self.jobs_timed_out = Counter(
            "jobs_timed_out", "jobs that exceeded their deadline"
        )
        self.jobs_quarantined = Counter(
            "jobs_quarantined", "poison jobs pulled from service"
        )
        self.jobs_retried = Counter(
            "jobs_retried", "transient-failure retries executed"
        )
        self.jobs_failed_over = Counter(
            "jobs_failed_over", "in-flight jobs requeued after a worker crash"
        )
        self.jobs_shed = Counter(
            "jobs_shed", "low-priority jobs refused during brownout"
        )
        self.worker_crashes = Counter(
            "worker_crashes", "worker threads that died abnormally"
        )
        self.workers_restarted = Counter(
            "workers_restarted", "replacement workers spawned by supervision"
        )
        self.workers_detached = Counter(
            "workers_detached", "hung workers abandoned past their grace"
        )
        self.supervisor_sweeps = Counter(
            "supervisor_sweeps", "supervision passes executed"
        )
        self.brownout_transitions = Counter(
            "brownout_transitions", "service health state changes"
        )
        self.brownout_active = Gauge(
            "brownout_active", "1 while the service is shedding load"
        )
        self.symptoms_diagnosed = Counter("symptoms_diagnosed", "engine diagnoses executed")
        self.cache_hits = Counter("cache_hits", "result-cache hits")
        self.cache_misses = Counter("cache_misses", "result-cache misses")
        self.cache_invalidations = Counter(
            "cache_invalidations", "entries evicted by late-arriving records"
        )
        self.queue_depth = Gauge("queue_depth", "jobs waiting in the queue")
        self.workers_busy = Gauge("workers_busy", "workers currently executing")
        self.queue_wait = Histogram("queue_wait_seconds", "submit-to-start latency")
        self.job_latency = Histogram("job_latency_seconds", "start-to-finish latency")
        self.diagnosis_latency = Histogram(
            "diagnosis_latency_seconds", "per-symptom engine latency"
        )
        #: per-stage exclusive-time histograms fed by traced jobs, keyed
        #: by span kind ("retrieve", "temporal-join", ...); created
        #: lazily on first observation of each stage
        self.stage_latency: Dict[str, Histogram] = {}
        self._stage_lock = threading.Lock()
        self._busy_lock = threading.Lock()
        self._busy_seconds = 0.0

    def observe_stages(self, breakdown: Dict[str, float]) -> None:
        """Record one traced job's per-stage exclusive times.

        ``breakdown`` maps span kind to summed self-seconds (the shape
        :func:`repro.obs.stage_breakdown` produces); each stage lands in
        its own histogram under :attr:`stage_latency`.
        """
        for stage, seconds in breakdown.items():
            with self._stage_lock:
                histogram = self.stage_latency.get(stage)
                if histogram is None:
                    histogram = Histogram(
                        f"stage_{stage}_seconds",
                        f"exclusive time in {stage} spans per traced job",
                    )
                    self.stage_latency[stage] = histogram
            histogram.observe(seconds)

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage count/mean/p50/p95/max over traced jobs so far."""
        with self._stage_lock:
            stages = dict(self.stage_latency)
        return {stage: stages[stage].summary() for stage in sorted(stages)}

    def add_busy_seconds(self, seconds: float) -> None:
        with self._busy_lock:
            self._busy_seconds += seconds

    @property
    def worker_busy_seconds(self) -> float:
        with self._busy_lock:
            return self._busy_seconds

    def cache_hit_rate(self) -> float:
        """Hits over lookups, 0.0 before any lookup."""
        hits = self.cache_hits.value
        total = hits + self.cache_misses.value
        return hits / total if total else 0.0

    def utilization(self, workers: int, elapsed_seconds: float) -> float:
        """Busy time as a fraction of total worker capacity."""
        capacity = workers * elapsed_seconds
        if capacity <= 0:
            return 0.0
        return min(1.0, self.worker_busy_seconds / capacity)

    def snapshot(self, workers: int = 0, elapsed_seconds: float = 0.0) -> Dict[str, object]:
        """One coherent-enough dictionary of everything, for dashboards."""
        snap: Dict[str, object] = {
            "jobs": {
                "submitted": self.jobs_submitted.value,
                "rejected": self.jobs_rejected.value,
                "completed": self.jobs_completed.value,
                "failed": self.jobs_failed.value,
                "cancelled": self.jobs_cancelled.value,
                "timed_out": self.jobs_timed_out.value,
                "quarantined": self.jobs_quarantined.value,
            },
            "recovery": {
                "worker_crashes": self.worker_crashes.value,
                "workers_restarted": self.workers_restarted.value,
                "workers_detached": self.workers_detached.value,
                "jobs_retried": self.jobs_retried.value,
                "jobs_failed_over": self.jobs_failed_over.value,
                "jobs_shed": self.jobs_shed.value,
                "supervisor_sweeps": self.supervisor_sweeps.value,
                "brownout_transitions": self.brownout_transitions.value,
                "brownout_active": self.brownout_active.value,
            },
            "symptoms_diagnosed": self.symptoms_diagnosed.value,
            "cache": {
                "hits": self.cache_hits.value,
                "misses": self.cache_misses.value,
                "invalidations": self.cache_invalidations.value,
                "hit_rate": self.cache_hit_rate(),
            },
            "queue_depth": self.queue_depth.value,
            "queue_depth_peak": self.queue_depth.peak,
            "workers_busy": self.workers_busy.value,
            "worker_busy_seconds": self.worker_busy_seconds,
            "queue_wait": self.queue_wait.summary(),
            "job_latency": self.job_latency.summary(),
            "diagnosis_latency": self.diagnosis_latency.summary(),
            "stages": self.stage_summary(),
        }
        if workers and elapsed_seconds:
            snap["worker_utilization"] = self.utilization(workers, elapsed_seconds)
        return snap

    def format_lines(self, workers: int = 0, elapsed_seconds: float = 0.0) -> List[str]:
        """Human-readable rendering for the CLI's serve summary."""
        snap = self.snapshot(workers, elapsed_seconds)
        jobs = snap["jobs"]
        cache = snap["cache"]
        wait = snap["queue_wait"]
        latency = snap["diagnosis_latency"]
        lines = [
            "service metrics:",
            (
                f"  jobs: {jobs['submitted']} submitted, {jobs['completed']} completed, "
                f"{jobs['failed']} failed, {jobs['rejected']} rejected, "
                f"{jobs['cancelled']} cancelled, {jobs['timed_out']} timed out, "
                f"{jobs['quarantined']} quarantined"
            ),
            (
                f"  recovery: {snap['recovery']['worker_crashes']} worker crashes, "
                f"{snap['recovery']['workers_restarted']} restarts, "
                f"{snap['recovery']['workers_detached']} detached, "
                f"{snap['recovery']['jobs_failed_over']} failovers, "
                f"{snap['recovery']['jobs_retried']} retries, "
                f"{snap['recovery']['jobs_shed']} shed"
            ),
            f"  symptoms diagnosed: {snap['symptoms_diagnosed']}",
            (
                f"  cache: {cache['hits']} hits / {cache['misses']} misses "
                f"(hit rate {100 * cache['hit_rate']:.1f}%), "
                f"{cache['invalidations']} invalidations"
            ),
            (
                f"  queue: depth {snap['queue_depth']:.0f} "
                f"(peak {snap['queue_depth_peak']:.0f}), "
                f"wait p50 {1000 * wait['p50']:.1f} ms / p95 {1000 * wait['p95']:.1f} ms"
            ),
            (
                f"  diagnosis latency: p50 {1000 * latency['p50']:.2f} ms, "
                f"p95 {1000 * latency['p95']:.2f} ms "
                f"({latency['count']} samples)"
            ),
        ]
        if "worker_utilization" in snap:
            lines.append(
                f"  worker utilization: {100 * snap['worker_utilization']:.1f}% "
                f"({workers} workers)"
            )
        stages = snap["stages"]
        if stages:
            lines.append("  traced stages (exclusive time per job):")
            for stage, summary in stages.items():
                lines.append(
                    f"    {stage}: p50 {1000 * summary['p50']:.2f} ms, "
                    f"p95 {1000 * summary['p95']:.2f} ms "
                    f"({summary['count']} jobs)"
                )
        return lines
