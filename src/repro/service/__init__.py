"""RCA service layer: scheduling, parallel workers, caching, metrics.

Turns the in-process G-RCA library into a long-running concurrent
service (the platform the paper operates, Section I/VI):

* :mod:`~repro.service.queue` — priority job queue with admission
  control and bounded backpressure;
* :mod:`~repro.service.workers` — thread worker pool (isolated engine
  per worker) plus :func:`parallel_diagnose` for batch runs;
* :mod:`~repro.service.cache` — watermark-keyed result cache with
  footprint invalidation on late-arriving records;
* :mod:`~repro.service.policy` — per-job deadlines and cancellation
  tokens and the brownout degradation state machine (error
  classification, bounded retries and circuit breakers come from the
  shared kit, :mod:`repro.resilience`);
* :mod:`~repro.service.supervisor` — the self-healing loop: dead-worker
  reconciliation, in-flight failover, poison-job quarantine, hung-worker
  detachment and brownout evaluation;
* :mod:`~repro.service.faults` — deterministic chaos harness (crash /
  hang / stall / error / latency injection) used to prove all of the
  above actually recovers;
* :mod:`~repro.service.api` — the :class:`RcaService` facade
  (submit / poll / cancel / drain / graceful shutdown / periodic runs);
* :mod:`~repro.service.metrics` — the service's counters, gauges and
  latency histograms, declared over one :class:`repro.obs.metrics.Registry`.

See ``docs/service.md`` and ``docs/robustness.md`` for architecture,
tuning and the chaos-recipe catalogue.
"""

from ..resilience import (
    CircuitBreaker,
    PermanentError,
    RetryPolicy,
    TransientError,
    is_transient,
)
from .api import AppHandle, PeriodicSchedule, RcaService
from .cache import CacheKey, ResultCache, cache_key
from .faults import FlakyBackend, ServiceFaultInjector
from .metrics import ServiceMetrics
from .policy import (
    BrownoutConfig,
    BrownoutController,
    CancellationToken,
    DeadlineExceeded,
    OperationCancelled,
    ServiceHealth,
)
from .queue import (
    PRIORITY_IMPAIRED_PENALTY,
    PRIORITY_INTERACTIVE,
    PRIORITY_PERIODIC,
    TERMINAL_STATES,
    Job,
    JobQueue,
    JobShed,
    JobState,
    QueueClosed,
    QueueFull,
)
from .supervisor import (
    PoisonJob,
    QuarantineEntry,
    SupervisorConfig,
    WorkerSupervisor,
)
from .workers import (
    Worker,
    WorkerCrash,
    WorkerPool,
    available_cpus,
    contiguous_chunks,
    parallel_diagnose,
)

__all__ = [
    "AppHandle",
    "BrownoutConfig",
    "BrownoutController",
    "CacheKey",
    "CancellationToken",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FlakyBackend",
    "Job",
    "JobQueue",
    "JobShed",
    "JobState",
    "OperationCancelled",
    "PeriodicSchedule",
    "PermanentError",
    "PoisonJob",
    "PRIORITY_IMPAIRED_PENALTY",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_PERIODIC",
    "QuarantineEntry",
    "QueueClosed",
    "QueueFull",
    "RcaService",
    "ResultCache",
    "RetryPolicy",
    "ServiceFaultInjector",
    "ServiceHealth",
    "ServiceMetrics",
    "SupervisorConfig",
    "TERMINAL_STATES",
    "TransientError",
    "Worker",
    "WorkerCrash",
    "WorkerPool",
    "WorkerSupervisor",
    "available_cpus",
    "cache_key",
    "contiguous_chunks",
    "is_transient",
    "parallel_diagnose",
]
