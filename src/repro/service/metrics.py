"""Service metrics: every instrument the RCA service layer records into.

Each metric is declared once, here, under its dotted name in one
:class:`~repro.obs.metrics.Registry`; ``GET /v1/metrics``, the serve
console lines and the router's cross-shard sums are all derived from
that registry (see ``docs/observability.md``, "Metrics registry").
"""

from __future__ import annotations

from typing import Dict

from ..obs.metrics import Registry, hit_rate


class ServiceMetrics:
    """The service's instruments, as attributes, over one registry.

    ``worker_busy_seconds`` accumulates per-worker execution time;
    :meth:`utilization` divides by ``workers x elapsed`` for the
    classic utilization ratio.
    """

    def __init__(self) -> None:
        self.registry = r = Registry()
        self.jobs_submitted = r.counter("jobs.submitted")
        self.jobs_rejected = r.counter("jobs.rejected")
        self.jobs_completed = r.counter("jobs.completed")
        self.jobs_failed = r.counter("jobs.failed")
        self.jobs_cancelled = r.counter("jobs.cancelled")
        self.jobs_timed_out = r.counter("jobs.timed_out")
        self.jobs_quarantined = r.counter("jobs.quarantined")
        self.worker_crashes = r.counter("recovery.worker_crashes")
        self.workers_restarted = r.counter("recovery.workers_restarted")
        self.workers_detached = r.counter("recovery.workers_detached")
        self.jobs_retried = r.counter("recovery.jobs_retried")
        self.jobs_failed_over = r.counter("recovery.jobs_failed_over")
        self.jobs_shed = r.counter("recovery.jobs_shed")
        self.supervisor_sweeps = r.counter("recovery.supervisor_sweeps")
        self.brownout_transitions = r.counter("recovery.brownout_transitions")
        self.brownout_active = r.gauge("recovery.brownout_active")
        self.symptoms_diagnosed = r.counter("symptoms_diagnosed")
        self.cache_hits = r.counter("cache.hits")
        self.cache_misses = r.counter("cache.misses")
        self.cache_invalidations = r.counter("cache.invalidations")
        hits, misses = self.cache_hits, self.cache_misses
        r.source("cache.hit_rate", lambda: hit_rate(hits.value, misses.value))
        self.queue_depth = r.gauge("queue_depth")
        self.workers_busy = r.gauge("workers_busy")
        self.worker_busy_seconds = r.counter("worker_busy_seconds")
        self.queue_wait = r.histogram("queue_wait")
        self.job_latency = r.histogram("job_latency")
        self.diagnosis_latency = r.histogram("diagnosis_latency")
        #: per-stage exclusive-time histograms fed by traced jobs, one
        #: per span kind ("stages.retrieve", ...), created on first use
        r.section("stages")

    def observe_stages(self, breakdown: Dict[str, float]) -> None:
        """Record one traced job's per-stage exclusive times.

        ``breakdown`` maps span kind to summed self-seconds (the shape
        :func:`repro.obs.stage_breakdown` produces).
        """
        for stage, seconds in breakdown.items():
            self.registry.histogram(f"stages.{stage}").observe(seconds)

    def utilization(self, workers: int, elapsed_seconds: float) -> float:
        """Busy time as a fraction of total worker capacity."""
        capacity = workers * elapsed_seconds
        if capacity <= 0:
            return 0.0
        return min(1.0, self.worker_busy_seconds.value / capacity)
