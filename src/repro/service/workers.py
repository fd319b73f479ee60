"""Worker pool: parallel diagnosis against a shared store.

Two execution surfaces share this module:

* :class:`WorkerPool` — long-lived worker threads serving the service's
  :class:`~repro.service.queue.JobQueue`.  Each worker lazily builds an
  **isolated** engine per application via
  :meth:`~repro.core.engine.RcaEngine.isolated`, so retrieval caches
  are private per worker while the (thread-safe) :class:`DataStore` is
  shared — concurrent diagnoses never contend on cached windows.
* :func:`parallel_diagnose` — a one-shot batch helper for CLI runs and
  benchmarks.  With ``jobs > 1`` on a machine that can fork and has
  more than one CPU, it splits the symptom list into contiguous chunks
  (contiguous in time, so each worker's retrieval cache stays local)
  and diagnoses each chunk in a forked worker process: every child
  inherits the engine copy-on-write and genuinely runs on its own core;
  diagnoses are returned by pickle.  Forking requires a quiescent store
  (batch mode), which is exactly when the helper is used.  Anywhere
  else it runs the serial :meth:`diagnose_all` — threads would only
  add overhead, since the GIL serializes the pure-Python correlation
  work.  Either way diagnoses come back in the exact order of the input
  symptoms and byte-equal to a serial run.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from typing import Callable, List, Optional, Sequence

from ..core.engine import Diagnosis, RcaEngine
from ..core.events import EventInstance
from .metrics import ServiceMetrics
from ..resilience import RetryPolicy
from .policy import DeadlineExceeded, OperationCancelled
from .queue import Job, JobQueue, JobState

LOG = logging.getLogger(__name__)


class WorkerCrash(BaseException):
    """Abrupt worker-thread death (fault injection or internal bug).

    Deliberately *not* an :class:`Exception`: job isolation catches
    ``Exception``-family errors and fails the one job; a
    ``WorkerCrash`` models the thread itself dying mid-execution — no
    job accounting runs, ``task_done`` is never called, and the
    :class:`~repro.service.supervisor.WorkerSupervisor` must detect the
    dead thread, reconcile the queue, fail over the in-flight job and
    restore pool capacity.  The chaos harness raises it to prove all of
    that actually happens.
    """

#: Module-level slot a forked child inherits its engine through.
_FORK_ENGINE: Optional[RcaEngine] = None
_FORK_SYMPTOMS: Optional[Sequence[EventInstance]] = None


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def contiguous_chunks(items: Sequence, n: int) -> List[Sequence]:
    """Split into at most ``n`` contiguous, near-equal, non-empty runs."""
    n = max(1, min(n, len(items)))
    size, remainder = divmod(len(items), n)
    chunks, start = [], 0
    for i in range(n):
        stop = start + size + (1 if i < remainder else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


def _fork_worker(span) -> bytes:
    """Runs in the forked child: diagnose one index range, pickle back."""
    import pickle

    lo, hi = span
    diagnoses = _FORK_ENGINE.diagnose_all(_FORK_SYMPTOMS[lo:hi])
    return pickle.dumps(diagnoses, protocol=pickle.HIGHEST_PROTOCOL)


def parallel_diagnose(
    engine: RcaEngine, symptoms: Sequence[EventInstance], jobs: int = 1
) -> List[Diagnosis]:
    """Diagnose a batch with up to ``jobs`` forked workers.

    Output order and content match ``engine.diagnose_all(symptoms)``
    exactly.  The batch forks only when that can pay off — ``jobs > 1``,
    more than one symptom, a platform with ``os.fork`` and more than one
    available CPU — and otherwise *is* the serial path, with zero
    overhead.
    """
    if (
        jobs > 1
        and len(symptoms) > 1
        and hasattr(os, "fork")
        and available_cpus() > 1
    ):
        return _fork_diagnose(engine, symptoms, jobs)
    return engine.diagnose_all(symptoms)


def _fork_diagnose(
    engine: RcaEngine, symptoms: Sequence[EventInstance], jobs: int
) -> List[Diagnosis]:
    import multiprocessing as mp
    import pickle

    global _FORK_ENGINE, _FORK_SYMPTOMS
    chunks = contiguous_chunks(symptoms, jobs)
    spans, start = [], 0
    for chunk in chunks:
        spans.append((start, start + len(chunk)))
        start += len(chunk)
    context = mp.get_context("fork")
    # children inherit engine + symptoms via fork (no pickling of the
    # engine); an isolated copy keeps the parent's retrieval cache as
    # the serial path would have left it
    _FORK_ENGINE = engine.isolated()
    _FORK_SYMPTOMS = symptoms
    try:
        with context.Pool(processes=len(spans)) as pool:
            blobs = pool.map(_fork_worker, spans)
    finally:
        _FORK_ENGINE = None
        _FORK_SYMPTOMS = None
    ordered: List[Diagnosis] = []
    for blob in blobs:
        ordered.extend(pickle.loads(blob))
    return ordered


class Worker(threading.Thread):
    """One pool thread: pulls jobs, executes them with private engines.

    Supervision contract (see :mod:`repro.service.supervisor`):

    * :attr:`current_job` is the dequeued job whose ``task_done`` has
      not run yet; on a dead thread it is exactly the accounting the
      supervisor still owes the queue.
    * :attr:`detached` is set by the supervisor when it gives up on a
      hung execution: the supervisor settles the job and the queue on
      the worker's behalf, and the zombie thread — if it ever wakes —
      must touch neither before exiting.  ``_job_lock`` makes the
      handoff atomic, so ``task_done`` runs exactly once per job.
    * :attr:`crashed` / :attr:`crash_error` record an abnormal thread
      exit (a :class:`WorkerCrash`, or an unexpected error in the
      dequeue loop itself — satellite: ``queue.get``/``task_done``
      failures must be counted and logged, never silent).
    """

    def __init__(
        self,
        name: str,
        queue: JobQueue,
        executor: Callable[[Job, "Worker"], object],
        metrics: ServiceMetrics,
        stop_event: threading.Event,
        clock: Callable[[], float] = time.monotonic,
        poll_seconds: float = 0.1,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.queue = queue
        self.executor = executor
        self.metrics = metrics
        self.stop_event = stop_event
        self.clock = clock
        self.poll_seconds = poll_seconds
        self.retry = retry
        self.sleep = sleep
        #: app name -> this worker's isolated engine
        self.engines = {}
        self.jobs_executed = 0
        #: dequeued job still owing ``task_done`` (supervisor-visible)
        self.current_job: Optional[Job] = None
        self._job_lock = threading.Lock()
        #: set by the supervisor once it has settled this worker's job
        self.detached = threading.Event()
        #: the thread exited abnormally (crash, not a clean stop)
        self.crashed = False
        self.crash_error: Optional[BaseException] = None

    def engine_for(self, app: str, prototype: RcaEngine) -> RcaEngine:
        """This worker's isolated engine for one app (built on first use)."""
        engine = self.engines.get(app)
        if engine is None:
            engine = prototype.isolated()
            self.engines[app] = engine
        return engine

    def run(self) -> None:  # pragma: no cover - exercised via the pool
        """Thread body: dequeue loop plus last-resort crash accounting."""
        try:
            self._loop()
        except WorkerCrash as exc:
            # simulated/real abrupt death: leave current_job and the
            # queue untouched — the supervisor reconciles both
            self.crashed = True
            self.crash_error = exc
            self.metrics.worker_crashes.increment()
        except BaseException as exc:  # noqa: BLE001 - last-resort accounting
            # an error outside job execution (queue.get / task_done):
            # historically this killed the thread silently; now it is
            # logged, counted, and the in-flight job — whose accounting
            # already ran — is failed so its waiters unblock
            self.crashed = True
            self.crash_error = exc
            self.metrics.worker_crashes.increment()
            LOG.exception(
                "worker %s died outside job execution", self.name
            )
            with self._job_lock:
                job = self.current_job
            if job is not None and job.mark_failed(exc, self.clock()):
                self.metrics.jobs_failed.increment()

    def _loop(self) -> None:
        while not self.detached.is_set():
            job = self.queue.get(timeout=self.poll_seconds)
            if job is None:
                if self._should_exit():
                    return
                continue
            with self._job_lock:
                self.current_job = job
            self._execute(job)

    def _should_exit(self) -> bool:
        """Exit once stop was requested (or the queue closed) and the
        queue is drained.

        In-flight jobs on *other* workers never keep an idle worker
        alive: pending work is what workers exist for, and a drained
        heap with the stop signal up means there will never be any.
        (A supervisor failover can still requeue onto a closed queue —
        the replacement worker it spawns serves that job.)
        """
        return (self.stop_event.is_set() or self.queue.closed) and len(
            self.queue
        ) == 0

    def _execute(self, job: Job) -> None:
        started = self.clock()
        self.metrics.queue_depth.set(len(self.queue))
        self.metrics.queue_wait.observe(max(0.0, started - job.submitted_at))
        self.metrics.workers_busy.add(1)
        job.worker_name = self.name
        job.mark_running(started)
        try:
            result = self._attempt(job)
        except WorkerCrash:
            raise  # abrupt death: accounting intentionally left undone
        except DeadlineExceeded as exc:
            if job.mark_timed_out(exc, self.clock()):
                self.metrics.jobs_timed_out.increment()
        except OperationCancelled:
            if job.mark_cancelled():
                self.metrics.jobs_cancelled.increment()
        except BaseException as exc:  # noqa: BLE001 - job isolation
            if job.mark_failed(exc, self.clock()):
                self.metrics.jobs_failed.increment()
        else:
            if job.mark_done(result, self.clock()):
                self.metrics.jobs_completed.increment()
        self._settle(started)

    def _attempt(self, job: Job) -> object:
        """Run the executor, retrying transient failures in place.

        Retries are bounded by the policy *and* the job's deadline: the
        pre-check raises before a doomed attempt starts, so a retrying
        job can never outlive its deadline by more than one attempt.
        """
        attempt = 0
        while True:
            attempt += 1
            job.attempts = attempt
            if job.cancel is not None:
                job.cancel.check()
            try:
                return self.executor(job, self)
            except WorkerCrash:
                raise
            except OperationCancelled:
                raise
            except Exception as exc:  # noqa: BLE001 - classified below
                if self.retry is None or not self.retry.should_retry(
                    exc, attempt
                ):
                    raise
                self.metrics.jobs_retried.increment()
                LOG.warning(
                    "worker %s: transient failure on job %s attempt %d "
                    "(%s: %s); retrying",
                    self.name, job.job_id, attempt, type(exc).__name__, exc,
                )
                self.sleep(self.retry.delay(attempt))

    def _settle(self, started: float) -> None:
        """Post-execution accounting, exactly once per dequeued job.

        A detached worker's job was already settled by the supervisor
        (state, metrics and ``task_done``), so the zombie thread skips
        everything except its own busy-time bookkeeping.
        """
        elapsed = self.clock() - started
        self.metrics.job_latency.observe(elapsed)
        self.metrics.worker_busy_seconds.increment(elapsed)
        self.metrics.workers_busy.add(-1)
        self.jobs_executed += 1
        with self._job_lock:
            self.current_job = None
            if not self.detached.is_set():
                self.queue.task_done()


class WorkerPool:
    """Fixed-size pool of :class:`Worker` threads over one queue.

    The pool can *heal*: :meth:`replace` swaps a dead or detached
    worker for a freshly spawned one (same queue, executor and clock),
    which is how the supervisor restores capacity after a crash.  The
    workers list is guarded by a lock because the supervisor mutates it
    from its sweep thread while callers read :attr:`alive`.
    """

    def __init__(
        self,
        queue: JobQueue,
        executor: Callable[[Job, Worker], object],
        workers: int = 4,
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        retry: Optional[RetryPolicy] = None,
        poll_seconds: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.queue = queue
        self.executor = executor
        self.metrics = metrics or ServiceMetrics()
        self.clock = clock
        self.retry = retry
        self.poll_seconds = poll_seconds
        self.capacity = workers
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._spawned = 0
        self.workers = [self._new_worker() for _ in range(workers)]
        self._started = False
        #: workers that failed to join at the last stop()
        self.leaked = 0

    def _new_worker(self) -> Worker:
        worker = Worker(
            name=f"rca-worker-{self._spawned}",
            queue=self.queue,
            executor=self.executor,
            metrics=self.metrics,
            stop_event=self._stop,
            clock=self.clock,
            retry=self.retry,
            poll_seconds=self.poll_seconds,
        )
        self._spawned += 1
        return worker

    def __len__(self) -> int:
        with self._lock:
            return len(self.workers)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        with self._lock:
            workers = list(self.workers)
        for worker in workers:
            worker.start()

    def replace(self, worker: Worker) -> Optional[Worker]:
        """Swap a dead/detached worker for a fresh one (capacity heal).

        Returns the replacement, or ``None`` when the pool is stopping
        (shutdown must not fight the supervisor for thread lifecycles)
        or the worker is no longer a member (already replaced).
        """
        if self._stop.is_set():
            return None
        with self._lock:
            if worker not in self.workers:
                return None
            self.workers.remove(worker)
            replacement = self._new_worker()
            self.workers.append(replacement)
        # count before starting: once the replacement is observably
        # alive, the restart must already be on the books
        self.metrics.workers_restarted.increment()
        if self._started:
            replacement.start()
        return replacement

    def stop(self, timeout: Optional[float] = 10.0) -> bool:
        """Signal workers to exit once the queue drains, then join them.

        Returns ``True`` when every worker thread exited within the
        timeout.  Workers that failed to join are counted in
        :attr:`leaked` and logged — shutdown loss is never silent.
        """
        self._stop.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            workers = list(self.workers)
        leaked: List[Worker] = []
        for worker in workers:
            if not worker.is_alive():
                continue
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            worker.join(remaining)
            if worker.is_alive():
                leaked.append(worker)
        self.leaked = len(leaked)
        for worker in leaked:
            LOG.warning(
                "worker %s failed to join within %ss at pool stop "
                "(thread leaked; job %s)",
                worker.name, timeout,
                worker.current_job.job_id if worker.current_job else None,
            )
        return not leaked

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    @property
    def alive(self) -> int:
        with self._lock:
            return sum(1 for worker in self.workers if worker.is_alive())

    def members(self) -> List[Worker]:
        """Snapshot of the current workers (supervisor sweep input)."""
        with self._lock:
            return list(self.workers)
