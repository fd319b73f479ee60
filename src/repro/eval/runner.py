"""Scenario replay: simulate, inject failures, diagnose, measure.

The runner is the only part of the harness that touches wall-clock
time, and only to *measure* it (per-chunk latency).  Everything
that determines the diagnoses themselves — topology, mixture, injection
placement — comes from the scenario's seeds, so a scenario's scores are
identical run to run.

Three execution modes, increasing in realism, each diagnosing every
:data:`JOB_CHUNK` symptoms as one unit (:meth:`ScenarioRunner._run_chunks`):

* ``engine`` — one inline ``diagnose_all`` group on the application's
  engine (the unit of the paper's accuracy claims);
* ``service`` — one job on a supervised
  :class:`~repro.service.RcaService` worker pool, optionally with
  chaos (worker crashes / delays / transient failures) scripted via
  :class:`~repro.service.faults.ServiceFaultInjector`;
* ``http`` — end to end: one job POSTed to the sharded HTTP gateway,
  diagnoses decoded back from ``grca-diagnosis/1`` JSON.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.engine import Diagnosis
from ..core.serialize import diagnosis_from_dict, instance_to_dict
from ..simulation import (
    SCENARIOS,
    FeedFault,
    FeedFaultInjector,
    GroundTruth,
    SimulationResult,
    Workload,
)
from ..topology.builder import TopologyParams
from .scenario import FailureInjection, Scenario

#: symptoms per engine group / job: per-job accounting stays meaningful
#: without one HTTP round trip per symptom
JOB_CHUNK = 10


@dataclass
class RunOutcome:
    """Everything one scenario replay produced, ready for scoring."""

    scenario: Scenario
    diagnoses: List[Diagnosis]
    ground_truth: List[GroundTruth]
    n_symptoms: int
    start: float
    end: float
    #: injected feed impairments (empty for clean scenarios)
    feed_faults: List[FeedFault] = field(default_factory=list)
    #: wall-clock seconds per chunk, from its submission to its answer
    latencies: List[float] = field(default_factory=list)
    #: total wall-clock seconds of the diagnosis phase
    wall_seconds: float = 0.0
    #: service-mode extras: metrics snapshot, chaos firing counts
    service_metrics: Optional[Dict[str, Any]] = None
    chaos_fired: Dict[str, int] = field(default_factory=dict)
    #: incident-dedupe rollup (scenarios tagged ``incidents`` only)
    incident_counts: Dict[str, int] = field(default_factory=dict)


def _workload(scenario: Scenario) -> Workload:
    """The :data:`~repro.simulation.SCENARIOS` row ``scenario.app`` names."""
    for workload in SCENARIOS.values():
        if workload.app_key == scenario.app:
            return workload
    raise ValueError(f"unknown scenario app {scenario.app!r}")


class ScenarioRunner:
    """Replays one :class:`Scenario` through the real pipeline."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock

    # ------------------------------------------------------------------
    # simulation

    def simulate(self, scenario: Scenario) -> SimulationResult:
        """Build the scenario's seeded simulation, feed faults applied."""
        kwargs: Dict[str, Any] = {
            "feed_faults": self._feed_fault_script(scenario.feed_injections())
        }
        if scenario.duration_days is not None:
            kwargs["duration_days"] = scenario.duration_days
        overrides = scenario.topology_overrides()
        if overrides:
            kwargs["params"] = TopologyParams(
                seed=scenario.seed, **overrides
            )
        return _workload(scenario).build(scenario.size, scenario.seed, **kwargs)

    @staticmethod
    def _feed_fault_script(
        injections: Sequence[FailureInjection],
    ) -> Callable[[FeedFaultInjector], None]:
        """Compile feed injections into a ``feed_faults`` callback.

        Injection offsets are relative to the scenario's data start;
        the callback resolves them against the emitter's ``BASE_EPOCH``
        (every workload starts there).
        """
        from ..simulation.telemetry import BASE_EPOCH

        def script(injector: FeedFaultInjector) -> None:
            for injection in injections:
                lo = BASE_EPOCH + injection.at_s
                hi = lo + injection.duration_s
                if injection.kind == "feed_outage":
                    injector.outage(injection.target, lo, hi)
                elif injection.kind == "feed_lag":
                    injector.lag(
                        injection.target, lo, hi,
                        delay=injection.param("delay", 900.0),
                    )
                elif injection.kind == "feed_corruption":
                    injector.corruption(
                        injection.target, lo, hi,
                        probability=injection.param("probability", 1.0),
                    )

        return script

    # ------------------------------------------------------------------
    # replay

    def run(self, scenario: Scenario) -> RunOutcome:
        """Simulate and diagnose one scenario; returns the raw outcome."""
        result = self.simulate(scenario)
        app = _workload(scenario).app.build(result.platform())
        symptoms = app.find_symptoms(result.start, result.end)
        outcome = RunOutcome(
            scenario=scenario,
            diagnoses=[],
            ground_truth=list(result.ground_truth),
            n_symptoms=len(symptoms),
            start=result.start,
            end=result.end,
            feed_faults=self._collected_feed_faults(result),
        )
        t0 = self.clock()
        if scenario.mode == "engine":
            self._run_chunks(
                symptoms, lambda chunk: partial(app.engine.diagnose_all, chunk),
                outcome,
            )
        elif scenario.mode == "service":
            self._run_service(scenario, app, symptoms, outcome)
        else:  # http
            self._run_http(scenario, result, app, symptoms, outcome)
        outcome.wall_seconds = self.clock() - t0
        if "incidents" in scenario.tags:
            outcome.incident_counts = self._fold_incidents(outcome)
        return outcome

    @staticmethod
    def _fold_incidents(outcome: RunOutcome) -> Dict[str, int]:
        """Fold the diagnoses through the incident aggregator.

        Scenarios tagged ``incidents`` measure the dedupe layer: how
        many distinct incidents a symptom storm collapses into, and how
        hard the worst offender flapped.  Diagnoses are replayed in
        symptom order (service/http modes may complete jobs out of
        order) so the rollup is deterministic.
        """
        from ..incident import IncidentAggregator

        latest = {}

        def keep(incident):  # the aggregator forgets what it closed
            latest[incident.incident_id] = incident

        aggregator = IncidentAggregator(gap_seconds=3600.0, sink=keep)
        ordered = sorted(
            outcome.diagnoses,
            key=lambda d: (
                d.symptom.start,
                d.symptom.name,
                d.symptom.location.parts,
            ),
        )
        for diagnosis in ordered:
            aggregator.observe(diagnosis)
        aggregator.advance(outcome.end + 3600.0 + 1.0)
        incidents = latest.values()
        return {
            "incidents": len(incidents),
            "incident_flaps": sum(i.flap_count for i in incidents),
            "incident_flapping": sum(
                1 for i in incidents if i.flap_count > 1
            ),
            "incident_max_flap": max(
                (i.flap_count for i in incidents), default=0
            ),
        }

    def _collected_feed_faults(self, result: SimulationResult) -> List[FeedFault]:
        """Injected impairment intervals, read back off the registry.

        The simulation applied its faults through a private injector;
        the health registry's recorded intervals are the durable record
        (what a live transport monitor would have reported).
        """
        faults: List[FeedFault] = []
        registry = result.collector.health
        for source, feed in sorted(registry.feeds.items()):
            for interval in feed.history():
                end = interval.end if interval.end is not None else float("inf")
                faults.append(
                    FeedFault(
                        source=source,
                        kind=interval.state.value,
                        start=interval.start,
                        end=end,
                    )
                )
        return faults

    def _run_chunks(self, symptoms, submit, outcome: RunOutcome) -> None:
        """The loop every mode shares: ``submit(chunk)`` returns what
        waits for that chunk's diagnoses.  All chunks are submitted
        before the first wait (the engine mode runs a chunk when it is
        awaited), answers are collected in order, one latency sample —
        submission to answer — per chunk."""
        pending = [
            (self.clock(), submit(chunk)) for chunk in _chunks(symptoms, JOB_CHUNK)
        ]
        for submitted, answer in pending:
            outcome.diagnoses.extend(answer())
            outcome.latencies.append(self.clock() - submitted)

    def _chaos_executor(self, scenario: Scenario, holder: Dict[str, Any]):
        """A ServiceFaultInjector executor honouring the chaos script."""
        from ..service.faults import ServiceFaultInjector
        from ..resilience import TransientError

        injector = ServiceFaultInjector(
            lambda job, worker: holder["service"]._execute(job, worker)
        )
        for injection in scenario.service_injections():
            times = int(injection.param("times", 1))
            if injection.kind == "worker_crash":
                injector.crash_when(times=times)
            elif injection.kind == "worker_delay":
                injector.delay_when(
                    seconds=injection.param("delay", 0.05), times=times
                )
            elif injection.kind == "worker_fail":
                injector.fail_when(
                    lambda: TransientError("injected flaky execution"),
                    times=times,
                )
        holder["injector"] = injector
        return injector

    def _run_service(self, scenario: Scenario, app, symptoms, outcome: RunOutcome) -> None:
        """Job-pool diagnosis with optional chaos."""
        from ..service import RcaService
        from ..resilience import RetryPolicy

        holder: Dict[str, Any] = {}
        options: Dict[str, Any] = {
            "workers": max(1, scenario.workers),
            "retry": RetryPolicy(max_attempts=3),
        }
        if scenario.service_injections():
            options["executor"] = self._chaos_executor(scenario, holder)
        service = RcaService(app.platform.store, health=app.platform.health, **options)
        holder["service"] = service
        service.register_app(scenario.app, app)
        service.start()
        try:
            self._run_chunks(
                symptoms,
                lambda chunk: partial(
                    service.submit_diagnosis(scenario.app, chunk).outcome,
                    timeout=120.0,
                ),
                outcome,
            )
            outcome.service_metrics = service.metrics_snapshot()
            injector = holder.get("injector")
            if injector is not None:
                outcome.chaos_fired = {
                    rule.name: injector.fired(rule.name)
                    for rule in injector.rules
                }
        finally:
            service.shutdown(graceful=True)

    def _run_http(self, scenario: Scenario, result, app, symptoms, outcome: RunOutcome) -> None:
        """End-to-end: gateway submit, long-poll, JSON decode."""
        from ..service.http import RcaGateway

        del result  # the app's own platform carries the shared store
        router = app.platform.serve_sharded(
            {scenario.app: app},
            shards=max(1, scenario.shards),
            workers=max(1, scenario.workers),
        )
        gateway = RcaGateway(router).start()

        def submit(chunk):
            body = {
                "app": scenario.app,
                "symptoms": [instance_to_dict(s) for s in chunk],
            }
            doc = _http_json(gateway.host, gateway.port, "POST", "/v1/jobs", body)
            return partial(self._poll_done, gateway, doc["job_id"])

        try:
            self._run_chunks(symptoms, submit, outcome)
        finally:
            gateway.stop(shutdown_shards=True)

    @staticmethod
    def _poll_done(gateway, job_id: str, timeout: float = 120.0) -> List[Diagnosis]:
        """Long-poll one job until it finishes (bounded); its diagnoses."""
        deadline = time.monotonic() + timeout
        while True:
            doc = _http_json(
                gateway.host, gateway.port, "GET", f"/v1/jobs/{job_id}?wait=10"
            )
            if doc.get("finished"):
                if doc.get("state") != "done":
                    raise RuntimeError(
                        f"job {job_id} finished {doc.get('state')!r}: "
                        f"{doc.get('error')}"
                    )
                return [diagnosis_from_dict(d) for d in doc.get("diagnoses", [])]
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} did not finish in {timeout}s")


def _chunks(items: Sequence, size: int) -> List[List]:
    """Split a sequence into consecutive chunks of at most ``size``."""
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def _http_json(
    host: str, port: int, method: str, path: str, body: Optional[dict] = None
) -> Dict[str, Any]:
    """One JSON request against the gateway; raises on non-2xx."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        doc = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise RuntimeError(
                f"{method} {path} -> {response.status}: {doc}"
            )
        return doc
    finally:
        conn.close()
