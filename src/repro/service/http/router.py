"""Shard router: partition RCA submissions across independent services.

One :class:`~repro.service.api.RcaService` scales to one worker pool;
the deployed platform serves hundreds of applications and has to scale
with cores and hosts.  :class:`ShardRouter` is the partitioning layer:
it owns N *shards* — each a complete, independent ``RcaService`` (own
queue, worker pool, supervisor, result cache) over the shared Data
Collector store — and routes every submission to exactly one of them by
a deterministic hash of its **routing key** (the symptom's
``instance_key``/location for diagnosis batches, the app+window for
whole-window runs).  Affinity is the point: the same symptom keyspace
always lands on the same shard, so that shard's result and retrieval
caches stay hot for it.

Failure isolation is per shard.  A wedged shard — shut down, never
started, or with zero live workers — fails *its* keyspace fast with
:class:`ShardUnavailable` (the HTTP gateway maps this to 503) while
every other shard keeps serving.  Health and metrics fan out: the
router aggregates per-shard snapshots into one platform view.

Job ids are **shard-qualified** strings ``"<shard>.<seq>"`` (e.g.
``"2.17"``): the shard index rides inside the id, so polls, waits and
cancels route straight to the owning shard with no shared lookup table
— the id format *is* the routing table.

The portable deployment here is N in-process services (thread pools
sharing one store, exactly like workers already share it); the router
only touches the :class:`RcaService` surface, so a future
process-backed shard (the fork seam) slots in behind the same API.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...core.events import EventInstance, instance_key
from ...obs.metrics import hit_rate, sum_snapshots
from .. import api as service_api
from ..queue import Job, JobState

RcaService = service_api.RcaService


class ShardUnavailable(RuntimeError):
    """The shard owning this keyspace cannot serve right now."""

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(message)
        self.shard = shard


def build_shards(
    store,
    health=None,
    shards: int = 2,
    workers: int = 2,
    **service_options,
) -> List[RcaService]:
    """N independent :class:`RcaService` shards over one shared store."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return [
        RcaService(store=store, health=health, workers=workers, **service_options)
        for _ in range(shards)
    ]


class ShardRouter:
    """Deterministic key-hash routing over N independent RCA services."""

    def __init__(self, shards: Sequence[RcaService]) -> None:
        if not shards:
            raise ValueError("a router needs at least one shard")
        self.shards: List[RcaService] = list(shards)
        #: shared incident tracking, when enabled
        #: (:meth:`GrcaPlatform.serve_sharded` wires one aggregator +
        #: store across every shard's ``incident_sink``); the gateway's
        #: ``/v1/incidents`` routes read these
        self.incidents = None
        self.incident_aggregator = None

    def __len__(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # lifecycle (fan-out)

    def register_app(self, name: str, app) -> None:
        """Register an application on every shard.

        In-process shards share the app object the same way workers
        inside one service do: its engine is only a prototype — every
        worker isolates a private copy before executing.
        """
        for shard in self.shards:
            shard.register_app(name, app)

    def apps(self) -> List[str]:
        """Registered application names (identical on every shard)."""
        return self.shards[0].apps()

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every shard's queue is quiet."""
        return all(shard.drain(timeout=timeout) for shard in self.shards)

    def shutdown(self, graceful: bool = True, timeout: float = 30.0) -> None:
        for shard in self.shards:
            shard.shutdown(graceful=graceful, timeout=timeout)

    # ------------------------------------------------------------------
    # routing

    def shard_for(self, key: object) -> int:
        """The shard index owning one routing key.

        ``crc32`` rather than builtin ``hash()``: the mapping must be
        stable across processes and interpreter runs (``PYTHONHASHSEED``
        randomizes ``hash``), or a client re-submitting after a gateway
        restart would scatter a hot keyspace across shards.
        """
        return zlib.crc32(str(key).encode()) % len(self.shards)

    @staticmethod
    def diagnosis_key(app: str, symptoms: Sequence[EventInstance]) -> str:
        """Default routing key of a symptom batch: the first symptom's
        location identity (all same-located symptoms co-shard)."""
        name, parts, _start = instance_key(symptoms[0])
        return f"{app}|{name}|{'/'.join(parts)}"

    @staticmethod
    def run_key(app: str, start: float, end: float) -> str:
        """Default routing key of a whole-window run."""
        return f"{app}|run|{start:.3f}|{end:.3f}"

    def qualify(self, shard: int, job: Job) -> str:
        """The shard-qualified public id of one job: ``"<shard>.<seq>"``."""
        return f"{shard}.{job.job_id}"

    def resolve(self, job_id: str) -> Tuple[int, int]:
        """Split a qualified id into (shard index, local job id).

        Raises :class:`KeyError` for anything that cannot name a job of
        this router — malformed ids and out-of-range shards look the
        same to a client: the job does not exist here.
        """
        shard_part, _, local_part = str(job_id).partition(".")
        try:
            shard, local = int(shard_part), int(local_part)
        except ValueError:
            raise KeyError(f"malformed job id {job_id!r}; expected '<shard>.<seq>'")
        if not 0 <= shard < len(self.shards):
            raise KeyError(
                f"job id {job_id!r} names shard {shard}; "
                f"this router has {len(self.shards)}"
            )
        return shard, local

    # ------------------------------------------------------------------
    # submission

    def submit_diagnosis(
        self,
        app: str,
        symptoms: Sequence[EventInstance],
        key: Optional[str] = None,
        **options,
    ) -> Tuple[str, Job]:
        """Route a symptom batch to its shard; returns (qualified id, job)."""
        if not symptoms:
            raise ValueError("a diagnosis submission needs at least one symptom")
        routing = key if key is not None else self.diagnosis_key(app, symptoms)
        return self._submit(
            self.shard_for(routing),
            lambda shard: shard.submit_diagnosis(app, symptoms, **options),
        )

    def submit_run(
        self,
        app: str,
        start: float,
        end: float,
        key: Optional[str] = None,
        **options,
    ) -> Tuple[str, Job]:
        """Route a whole-window run to its shard; returns (qualified id, job)."""
        routing = key if key is not None else self.run_key(app, start, end)
        return self._submit(
            self.shard_for(routing),
            lambda shard: shard.submit_run(app, start, end, **options),
        )

    def _submit(
        self, index: int, submit: Callable[[RcaService], Job]
    ) -> Tuple[str, Job]:
        shard = self.shards[index]
        if not shard.available:
            raise ShardUnavailable(
                index,
                f"shard {index} is unavailable "
                f"(alive workers: {shard.pool.alive}/{shard.pool.capacity}); "
                f"its keyspace cannot be served right now",
            )
        job = submit(shard)
        return self.qualify(index, job), job

    # ------------------------------------------------------------------
    # job tracking (routed by the id itself)

    def job(self, job_id: str) -> Job:
        """The job handle behind one qualified id (KeyError when unknown)."""
        shard, local = self.resolve(job_id)
        return self.shards[shard].job(local)

    def poll(self, job_id: str) -> JobState:
        """The state behind one qualified id (KeyError when unknown)."""
        return self.job(job_id).state

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; False when already terminal, KeyError
        when unknown."""
        shard, local = self.resolve(job_id)
        return self.shards[shard].cancel_job(local)

    # ------------------------------------------------------------------
    # aggregated observability

    def shard_health(self) -> List[Dict[str, object]]:
        """One health row per shard (what ``/v1/health`` reports)."""
        rows: List[Dict[str, object]] = []
        for index, shard in enumerate(self.shards):
            rows.append(
                {
                    "shard": index,
                    "available": shard.available,
                    "state": shard.health_state().value,
                    "workers_alive": shard.pool.alive,
                    "workers": shard.pool.capacity,
                    "quarantined": len(shard.quarantined()),
                    "queue_depth": len(shard.queue),
                }
            )
        return rows

    def health(self) -> Dict[str, object]:
        """The aggregated health document.

        ``status`` is ``"ok"`` only when every shard is available and
        none is in brownout; a single wedged or degraded shard turns
        the platform ``"degraded"`` — its keyspace is impaired even
        though the rest keeps serving.
        """
        rows = self.shard_health()
        ok = all(row["available"] and row["state"] == "ok" for row in rows)
        return {
            "status": "ok" if ok else "degraded",
            "shards": rows,
        }

    def metrics(self) -> Dict[str, object]:
        """Per-shard snapshots plus their counters and gauges summed.

        Latency histograms stay per shard (a sum of percentiles means
        nothing); the hit rate is derived from the summed counts.
        """
        snapshots = [shard.metrics_snapshot() for shard in self.shards]
        aggregate: Dict[str, object] = {
            "shards": len(snapshots),
            **sum_snapshots([shard.metrics.registry for shard in self.shards], snapshots),
        }
        cache = aggregate["cache"]
        cache["hit_rate"] = hit_rate(cache["hits"], cache["misses"])
        # shards share their apps' resolvers: read each once, never sum
        aggregate["spatial_cache"] = service_api.spatial_cache_snapshot(self.shards)
        return {"aggregate": aggregate, "shards": snapshots}
