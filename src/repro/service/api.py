"""The RCA service facade: a long-running, concurrent G-RCA.

The paper describes G-RCA as a *platform* — hundreds of RCA
applications sharing one Data Collector, queried continuously by
operators (Section I, Section VI).  :class:`RcaService` is that serving
layer over the in-process library:

* applications register by name; each brings its engine (the prototype
  from which every worker forks an isolated copy);
* operators **submit** symptom batches (interactive priority) or whole
  time-window runs; the service answers with a :class:`Job` handle to
  poll or wait on;
* a periodic **scheduler** re-runs registered applications every
  ``interval`` of data time — the paper's standing applications
  (bgp_flaps, cdn, pim, backbone) ride this path;
* the :class:`ResultCache` short-circuits repeated diagnoses of the
  same symptom, and late-arriving records evict exactly the entries
  they could have changed;
* the PR-1 :class:`HealthRegistry` is consulted at submit time: an
  application whose evidence feeds are impaired gets *demoted* priority
  (healthy work first) but is never blocked — its diagnoses carry
  confidence caveats instead;
* **drain** waits for in-flight work; **shutdown** is graceful by
  default (finish queued jobs) or immediate (cancel pending).

Everything observable lands in :class:`ServiceMetrics`' registry.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..collector.health import IMPAIRED_STATES, HealthRegistry
from ..core.engine import Diagnosis, RcaEngine, evidence_sources
from ..core.events import EventInstance
from ..obs.metrics import hit_rate, snapshot_lines
from ..obs.report import stage_breakdown
from ..obs.trace import NULL_TRACER, Tracer
from .cache import ResultCache, cache_key
from .metrics import ServiceMetrics
from ..resilience import RetryPolicy
from .policy import (
    BrownoutConfig,
    BrownoutController,
    CancellationToken,
    ServiceHealth,
)
from .queue import (
    PRIORITY_IMPAIRED_PENALTY,
    PRIORITY_INTERACTIVE,
    PRIORITY_PERIODIC,
    Job,
    JobQueue,
    JobShed,
    JobState,
    QueueFull,
)
from .supervisor import SupervisorConfig, WorkerSupervisor
from .workers import Worker, WorkerPool

#: while degraded, submissions at/above this priority are shed
SHED_PRIORITY = PRIORITY_PERIODIC
#: while degraded, the engine's exploration depth is capped here (and
#: jobs run untraced)
DEGRADED_MAX_DEPTH = 2


@dataclass
class AppHandle:
    """One registered RCA application."""

    name: str
    app: object  # exposes .engine and find_symptoms(start, end, tracer)
    engine: RcaEngine
    _graph: Tuple[int, str, FrozenSet[str]] = field(
        default=(-1, "", frozenset()), init=False, repr=False
    )

    def graph_state(self) -> Tuple[int, str, FrozenSet[str]]:
        """(revision, fingerprint, evidence feeds) of the app's graph as
        it is now — the result cache's key and the feeds that demote —
        re-read only when ``graph.revision`` moved (one int compare per
        job, never a hash); one tuple, so racing workers never mix two
        revisions' parts."""
        graph = self.engine.graph
        state = self._graph
        if state[0] != graph.revision:
            state = self._graph = (
                graph.revision, graph.fingerprint(),
                frozenset(evidence_sources(graph, self.engine.library)),
            )
        return state


@dataclass
class PeriodicSchedule:
    """Recurring run of one app over the trailing data window."""

    app: str
    interval: float
    window: float
    next_due: float
    runs_submitted: int = 0


def spatial_cache_snapshot(services: Iterable["RcaService"]) -> Dict[str, float]:
    """Spatial resolution-cache counters, read at their source.

    Sums :meth:`LocationResolver.cache_stats` over every *distinct*
    resolver behind the services' registered apps: apps, workers and
    shards that share one resolver count it once.
    """
    resolvers = {
        id(handle.engine.resolver): handle.engine.resolver
        for service in services
        for handle in service.app_handles()
    }
    totals = {"hits": 0, "misses": 0, "invalidations": 0}
    for resolver in resolvers.values():
        stats = resolver.cache_stats()
        for key in totals:
            totals[key] += stats[key]
    return {**totals, "hit_rate": hit_rate(totals["hits"], totals["misses"])}


class RcaService:
    """Concurrent RCA serving layer over a shared platform."""

    def __init__(
        self,
        store,
        health: Optional[HealthRegistry] = None,
        workers: int = 4,
        queue_depth: int = 256,
        clock: Callable[[], float] = time.monotonic,
        job_history: int = 1024,
        default_deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        supervise: bool = True,
        supervisor_config: Optional[SupervisorConfig] = None,
        brownout_config: Optional[BrownoutConfig] = None,
        executor: Optional[Callable[[Job, Worker], object]] = None,
        incident_sink: Optional[Callable[[Diagnosis], None]] = None,
    ) -> None:
        self.store = store
        self.health = health
        #: called with every produced diagnosis (cached hits included —
        #: the incident aggregator dedupes re-observations itself);
        #: exceptions are swallowed so a sink bug cannot fail jobs
        self.incident_sink = incident_sink
        #: incident store/aggregator pair, when the platform wired one
        #: (:meth:`GrcaPlatform.serve` with ``incidents=True``)
        self.incidents = None
        self.incident_aggregator = None
        self.metrics = ServiceMetrics()
        self.clock = clock
        #: relative per-job deadline (seconds) applied when a submit
        #: does not pass its own; ``None`` = unbounded jobs
        self.default_deadline = default_deadline
        self.queue = JobQueue(max_depth=queue_depth)
        self.cache = ResultCache(store, metrics=self.metrics)
        self.pool = WorkerPool(
            # the executor seam lets the chaos harness interpose faults
            # between the pool and the real _execute
            self.queue, executor or self._execute, workers=workers,
            metrics=self.metrics, clock=clock,
            retry=retry if retry is not None else RetryPolicy(),
        )
        self.brownout = BrownoutController(brownout_config)
        self.supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            self.supervisor = WorkerSupervisor(
                self.pool,
                self.queue,
                metrics=self.metrics,
                config=supervisor_config,
                brownout=self.brownout,
                clock=clock,
            )
        self._apps: Dict[str, AppHandle] = {}
        self._schedules: List[PeriodicSchedule] = []
        self._jobs: "OrderedDict[int, Job]" = OrderedDict()
        self._job_history = job_history
        self._job_counter = 0
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._shut_down = False
        source = self.metrics.registry.source
        source("worker_utilization", lambda: self.metrics.utilization(
            len(self.pool), self.elapsed_seconds))
        source("storage", lambda: {
            "backend": self.store.backend_name,
            "tables": len(self.store.tables),
            "records": self.store.total_records(),
        })
        source("spatial_cache", lambda: spatial_cache_snapshot([self]))
        source("health", self._health_summary)
        source("apps", self.apps)

    # ------------------------------------------------------------------
    # registration and lifecycle

    def register_app(self, name: str, app) -> AppHandle:
        """Register an application (its engine becomes the prototype)."""
        handle = AppHandle(name=name, app=app, engine=app.engine)
        handle.graph_state()  # an undefined event fails here, not in a job
        with self._lock:
            if name in self._apps:
                raise ValueError(f"application {name!r} already registered")
            self._apps[name] = handle
        return handle

    def apps(self) -> List[str]:
        """Registered application names."""
        with self._lock:
            return sorted(self._apps)

    def app_handles(self) -> List[AppHandle]:
        """The registered applications' handles."""
        with self._lock:
            return list(self._apps.values())

    def start(self) -> None:
        """Start the worker pool and the supervisor (idempotent)."""
        if self._started_at is None:
            self._started_at = self.clock()
        self.pool.start()
        if self.supervisor is not None:
            self.supervisor.start()
        # the store, the apps and the pool outlive every job: keep full
        # collections from walking them while the service runs
        gc.freeze()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and no job is in flight."""
        return self.queue.join(timeout=timeout)

    def shutdown(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop the service.

        ``graceful=True`` closes the queue to new work, lets workers
        finish everything already queued, then joins them.
        ``graceful=False`` cancels all pending jobs first; only jobs
        already running complete.  Idempotent: repeated calls no-op.
        """
        with self._lock:
            if self._shut_down:
                return
            self._shut_down = True
        # stop supervising first: shutdown owns thread lifecycles now,
        # and a sweep must not respawn workers the pool is joining
        if self.supervisor is not None:
            self.supervisor.stop(timeout=timeout)
        self.queue.close()
        if not graceful:
            # pending jobs are dropped; jobs already running complete
            # (the documented contract — operators who also want the
            # running ones stopped call cancel_job on them first)
            cancelled = self.queue.cancel_pending()
            self.metrics.jobs_cancelled.increment(len(cancelled))
        else:
            self.queue.join(timeout=timeout)
        self.pool.stop(timeout=timeout)
        gc.unfreeze()

    @property
    def elapsed_seconds(self) -> float:
        return 0.0 if self._started_at is None else self.clock() - self._started_at

    def metrics_snapshot(self) -> Dict[str, object]:
        """The full service state as one structured, JSON-ready dict:
        the metrics registry's snapshot, sources included (storage,
        spatial cache, health, apps).  This is what ``GET /v1/metrics``
        serves per shard."""
        return self.metrics.registry.snapshot()

    def metrics_lines(self) -> List[str]:
        """The operator summary the CLI prints: the snapshot rendered."""
        return ["service metrics:", *snapshot_lines(self.metrics_snapshot())]

    def _health_summary(self) -> Dict[str, object]:
        health: Dict[str, object] = {"state": self.health_state().value}
        if self.supervisor is not None:
            health["quarantined"] = len(self.supervisor.quarantine)
            health["workers_alive"] = self.pool.alive
            health["workers"] = self.pool.capacity
        return health

    # ------------------------------------------------------------------
    # submission

    def submit_diagnosis(
        self,
        app: str,
        symptoms: Sequence[EventInstance],
        priority: Optional[int] = None,
        block: bool = False,
        timeout: Optional[float] = None,
        traced: bool = False,
        deadline: Optional[float] = None,
    ) -> Job:
        """Queue a symptom batch for diagnosis; returns the job handle.

        ``traced=True`` gives the job its own :class:`repro.obs.Tracer`
        on the worker: the finished ``job`` span tree lands on
        :attr:`~repro.service.queue.Job.trace` and each diagnosis
        carries its own subtree.  Traced jobs bypass the result cache
        (both lookup and store), so the trace reflects real work and
        cached diagnoses never carry another job's spans.

        ``deadline`` bounds the job's total wall time in seconds from
        submission (default: the service's ``default_deadline``).  A job
        past its deadline stops at the next engine checkpoint and
        finishes ``TIMED_OUT``; a worker hung past the supervisor's
        grace is detached and replaced.
        """
        handle = self._handle(app)
        base = PRIORITY_INTERACTIVE if priority is None else priority
        job = Job(
            kind="diagnose",
            app=handle.name,
            payload=list(symptoms),
            priority=self.effective_priority(handle, base),
            submitted_at=self.clock(),
            traced=traced,
        )
        return self._submit(job, block=block, timeout=timeout, deadline=deadline)

    def submit_run(
        self,
        app: str,
        start: float,
        end: float,
        priority: Optional[int] = None,
        block: bool = False,
        timeout: Optional[float] = None,
        traced: bool = False,
        deadline: Optional[float] = None,
    ) -> Job:
        """Queue a whole-window application run (find symptoms + diagnose).

        ``traced`` and ``deadline`` behave as in
        :meth:`submit_diagnosis`; a traced run additionally records a
        ``detect`` span for symptom retrieval.
        """
        handle = self._handle(app)
        base = PRIORITY_PERIODIC if priority is None else priority
        job = Job(
            kind="run",
            app=handle.name,
            payload=(start, end),
            priority=self.effective_priority(handle, base),
            submitted_at=self.clock(),
            traced=traced,
        )
        return self._submit(job, block=block, timeout=timeout, deadline=deadline)

    def effective_priority(self, handle: AppHandle, base: int) -> int:
        """Base priority, demoted while the app's evidence feeds are impaired.

        Impairment never blocks admission — a diagnosis under degraded
        evidence still runs (and is annotated with caveats by the
        engine); it just yields the queue to apps whose evidence is
        whole.
        """
        if self.health is None:
            return base
        for source in handle.graph_state()[2]:
            if self.health.state(source) in IMPAIRED_STATES:
                return base + PRIORITY_IMPAIRED_PENALTY
        return base

    # ------------------------------------------------------------------
    # job tracking

    def poll(self, job_id: int) -> JobState:
        """The state of a job by id.

        Raises :class:`KeyError` when the id was never issued by this
        service or its job has been expired from the bounded history.
        Every id :meth:`_submit` returned is immediately pollable —
        jobs are registered *before* queue admission, so a concurrent
        poller can never observe an issued id as unknown.
        """
        return self.job(job_id).state

    def job(self, job_id: int) -> Job:
        """The job handle by id; raises :class:`KeyError` when unknown.

        ``KeyError`` means *this id does not name a live or remembered
        job* — it was never issued, was refused at admission, or fell
        off the bounded finished-job history.  Callers that want the
        soft form use :meth:`find_job`.
        """
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(
                    f"unknown job id {job_id!r}: never issued, refused at "
                    f"admission, or expired from the job history"
                ) from None

    def find_job(self, job_id: int) -> Optional[Job]:
        """The job handle by id, or ``None`` when unknown/expired."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel_job(self, job_id: int) -> bool:
        """Request cooperative cancellation of a job by id.

        A pending job is cancelled before it runs (the worker's
        pre-execution check fires); a running job stops at its next
        engine checkpoint.  Raises :class:`KeyError` for an unknown id;
        returns ``False`` when the job is already terminal (nothing to
        cancel) — cancellation is a request, so ``True`` means
        *requested*, not yet terminal.
        """
        job = self.job(job_id)
        if job.finished:
            return False
        job.request_cancel("cancelled by operator")
        return True

    def health_state(self) -> ServiceHealth:
        """Current service health (``OK`` or brownout ``DEGRADED``)."""
        return self.brownout.state

    @property
    def available(self) -> bool:
        """True while this service can accept and execute work.

        False before :meth:`start`, after :meth:`shutdown`, and while
        the worker pool has no live thread (a wedged shard: everything
        it would accept could only queue forever).  The shard router
        uses this to fail one keyspace fast instead of hanging it.
        """
        with self._lock:
            if self._shut_down:
                return False
        return self._started_at is not None and self.pool.alive > 0

    def quarantined(self) -> list:
        """Quarantine-buffer entries (empty without a supervisor)."""
        if self.supervisor is None:
            return []
        return self.supervisor.quarantine.entries()

    # ------------------------------------------------------------------
    # periodic scheduling

    def schedule_periodic(
        self, app: str, interval: float, window: Optional[float] = None,
        first_due: float = 0.0,
    ) -> PeriodicSchedule:
        """Re-run ``app`` every ``interval`` of data time.

        Each due run covers the trailing ``window`` (defaults to the
        interval, i.e. contiguous coverage).  Runs are submitted by
        :meth:`tick` — the service is driven by the data clock, so
        tests and replays control time explicitly.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._handle(app)  # validate registration
        schedule = PeriodicSchedule(
            app=app,
            interval=interval,
            window=interval if window is None else window,
            next_due=first_due if first_due > 0 else interval,
        )
        with self._lock:
            self._schedules.append(schedule)
        return schedule

    def tick(self, data_now: float) -> List[Job]:
        """Submit every periodic run that has come due by ``data_now``.

        Also re-evaluates feed health at the new data frontier, so
        priority demotion tracks the current feed states.
        """
        if self.health is not None:
            self.health.tick(data_now)
        submitted: List[Job] = []
        with self._lock:
            schedules = list(self._schedules)
        for schedule in schedules:
            while schedule.next_due <= data_now:
                due = schedule.next_due
                # shed/full periodic runs are skipped, not fatal: the
                # schedule advances and the next interval tries again
                try:
                    job = self.submit_run(
                        schedule.app, due - schedule.window, due
                    )
                except QueueFull:
                    job = None
                schedule.next_due = due + schedule.interval
                if job is not None:
                    schedule.runs_submitted += 1
                    submitted.append(job)
        return submitted

    # ------------------------------------------------------------------
    # execution (runs on worker threads)

    def _execute(self, job: Job, worker: Worker) -> List[Diagnosis]:
        # brownout trims per-execution work: tracing is dropped and the
        # exploration depth capped for the duration of the degradation
        degraded = self.brownout.degraded
        traced = job.traced and not degraded
        max_depth = DEGRADED_MAX_DEPTH if degraded else None
        # one fresh tracer per traced job, created on the worker thread
        # and never shared: spans cannot leak between concurrent jobs
        tracer = Tracer() if traced else NULL_TRACER
        with tracer.span(
            "job", label=f"job-{job.job_id}", job_kind=job.kind, app=job.app
        ) as root:
            handle = self._handle(job.app)
            if job.cancel is not None:
                job.cancel.check()
            if job.kind == "run":
                symptoms = handle.app.find_symptoms(*job.payload, tracer=tracer)
            elif job.kind == "diagnose":
                symptoms = job.payload
            else:
                raise ValueError(f"unknown job kind {job.kind!r}")
            # cache hits first, then every miss as one group; misses are
            # cached under the store revision read before the group,
            # unless traced (the trace must be real work), depth-capped
            # (a re-run after recovery must not see trimmed results) or
            # the graph moved meanwhile
            revision, fingerprint, _sources = handle.graph_state()
            keys = [] if job.traced else [
                cache_key(handle.name, symptom, fingerprint) for symptom in symptoms
            ]
            diagnoses = [self.cache.lookup(key) for key in keys] or [None] * len(symptoms)
            misses = [k for k, diagnosis in enumerate(diagnoses) if diagnosis is None]
            if misses:
                engine = worker.engine_for(handle.name, handle.engine)
                store_revision = self.store.revision
                started = self.clock()
                group = engine.diagnose_all(
                    [symptoms[k] for k in misses], tracer=tracer,
                    cancel=job.cancel, max_depth=max_depth,
                )
                self.metrics.diagnosis_latency.observe(self.clock() - started)
                self.metrics.symptoms_diagnosed.increment(len(misses))
                cache = keys and max_depth is None and engine.graph.revision == revision
                for k, diagnosis in zip(misses, group):
                    diagnoses[k] = diagnosis
                    if cache:
                        self.cache.store(keys[k], diagnosis, store_revision)
            root.annotate(symptoms=len(symptoms))
        if traced:
            job.trace = root
            self.metrics.observe_stages(stage_breakdown(root))
        if self.incident_sink is not None:
            for diagnosis in diagnoses:
                try:
                    self.incident_sink(diagnosis)
                except Exception:  # noqa: BLE001 - sink bugs stay out of jobs
                    pass
        return diagnoses

    # ------------------------------------------------------------------

    def _handle(self, app: str) -> AppHandle:
        with self._lock:
            try:
                return self._apps[app]
            except KeyError:
                raise KeyError(
                    f"no application {app!r} registered; "
                    f"available: {sorted(self._apps)}"
                ) from None

    def _submit(
        self,
        job: Job,
        block: bool,
        timeout: Optional[float],
        deadline: Optional[float] = None,
    ) -> Job:
        relative = deadline if deadline is not None else self.default_deadline
        if relative is not None:
            job.deadline = self.clock() + relative
        # every job carries a token (deadline or not) so cancel_job and
        # shutdown can always stop it cooperatively
        job.cancel = CancellationToken(deadline=job.deadline, clock=self.clock)
        if self.brownout.degraded and job.priority >= SHED_PRIORITY:
            self.metrics.jobs_shed.increment()
            raise JobShed(
                f"job shed: service degraded and priority {job.priority} >= "
                f"shed threshold {SHED_PRIORITY}"
            )
        # issue the id and register the job BEFORE queue admission: a
        # concurrent poller holding an id this method returned must
        # never see KeyError, and admission can block (backpressure)
        with self._lock:
            self._job_counter += 1
            job.job_id = self._job_counter
            self._jobs[job.job_id] = job
        try:
            self.queue.submit(job, block=block, timeout=timeout)
        except Exception:
            # the id was never returned to the caller; retract it so a
            # refused submission leaves no pollable ghost job behind
            with self._lock:
                self._jobs.pop(job.job_id, None)
            self.metrics.jobs_rejected.increment()
            raise
        self.metrics.jobs_submitted.increment()
        self.metrics.queue_depth.set(len(self.queue))
        with self._lock:
            while len(self._jobs) > self._job_history:
                oldest_id, oldest = next(iter(self._jobs.items()))
                if not oldest.finished:
                    break  # never forget a live job
                del self._jobs[oldest_id]
        return job
