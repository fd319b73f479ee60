"""The program under test: one fresh process per benchmark round.

``bench/run.py`` starts this file as a child process, writes two JSON
lines to its stdin — the round's options, then the inputs
(``Inputs.payload()``) — and reads JSON event lines from its stdout.  Everything the child does goes
through the public API of the ``repro`` layers; the bench-side spans of
:mod:`bench.spans` wrap those calls, so layers are measured from
outside and ``src/`` is untouched.

Events: ``ready`` (set-up done, the timed section starts now) and
``result`` (measurements plus the outputs the bench process checks).
The serve workload additionally prints ``listening`` with its port and
then obeys ``mark`` / ``api-probe`` / ``stop`` command lines on stdin;
a closed stdin stops it, so a dead parent leaves no orphan listener.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.apps import BgpFlapApp, CdnApp, PimApp  # noqa: E402
from repro.collector import DataCollector, DataStore  # noqa: E402
from repro.core.serialize import (  # noqa: E402
    diagnosis_from_dict,
    diagnosis_to_dict,
    instance_from_dict,
)
from repro.core.streaming import FeedReplayer, StreamingRca  # noqa: E402
from repro.incident import (  # noqa: E402
    IncidentAggregator,
    IncidentStore,
    incident_to_dict,
    render_incident_report,
)
from repro.obs import Tracer, stage_breakdown  # noqa: E402
from repro.platform import GrcaPlatform  # noqa: E402
from repro.service.http import RcaGateway  # noqa: E402
from repro.simulation.scenarios import DAY  # noqa: E402
from repro.topology import build_topology  # noqa: E402

from bench import spans  # noqa: E402
from bench.calibrate import Speed  # noqa: E402
from bench.inputs import topology_params  # noqa: E402

APPS = {"bgp_flaps": BgpFlapApp, "cdn": CdnApp, "pim": PimApp}

#: engine span kinds reported as ``core.engine.stage.<kind>.self_s``
ENGINE_STAGES = (
    "node", "rule", "retrieve", "store-query", "temporal-join",
    "spatial-join", "reason",
)
FUNNEL = ("candidates", "temporal_survivors", "spatial_survivors")


def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def digest_of(documents) -> str:
    """sha256 over the canonical JSON of every served document, in order."""
    sha = hashlib.sha256()
    for document in documents:
        sha.update(
            json.dumps(
                json.loads(document), sort_keys=True, separators=(",", ":")
            ).encode()
        )
        sha.update(b"\n")
    return sha.hexdigest()


def conclusions_digest(diagnoses) -> str:
    """sha256 over what each diagnosis concluded, in emission order.

    The stream workload's evidence lists make its ``grca-diagnosis/1``
    documents ~40 KB each; encoding them all would take longer than the
    replay being measured, so its digest covers the conclusions only.
    """
    sha = hashlib.sha256()
    for diagnosis in diagnoses:
        sha.update(
            json.dumps(
                result_row(diagnosis)
                + [
                    diagnosis.root_causes, diagnosis.result.priority,
                    len(diagnosis.evidence), len(diagnosis.gaps),
                    round(diagnosis.confidence, 9),
                ]
            ).encode()
        )
    return sha.hexdigest()


def wire_collector(payload):
    """Topology plus an empty collector with every device registered."""
    topology = build_topology(topology_params(payload["topology"]))
    collector = DataCollector()
    for router in topology.network.routers.values():
        collector.registry.register_device(router.name, router.timezone)
    return topology, collector


def wire_app(rec, payload, topology, collector):
    """The platform over what the collector holds, and the application."""
    with rec.span("platform.from_collector"):
        platform = GrcaPlatform.from_collector(
            topology, collector, config_time=payload["start"] - DAY
        )
    with rec.span("apps.build"):
        app = APPS[payload["app"]].build(platform)
    return platform, app


#: raw lines handed to ``DataCollector.ingest`` per call (~25 ms of
#: parsing, so that a calibration slice fits between two calls)
INGEST_CHUNK = 2000


def ingest_feeds(rec, collector, feeds, speed=None) -> None:
    for source, lines in feeds.items():
        for at in range(0, len(lines), INGEST_CHUNK):
            with rec.span(f"collector.sources.{source}.ingest"):
                collector.ingest(source, lines[at: at + INGEST_CHUNK])
            if speed is not None:
                speed.tick()


def collector_counts(collector) -> dict:
    """Exact work counts of the collector layer after a run."""
    parsers = {
        name: parser.stats for name, parser in sorted(collector.parsers.items())
        if parser.stats.accepted or parser.stats.rejected
    }
    storage = collector.store.storage_summary().values()
    return {
        "collector.lines_in": sum(s.accepted + s.rejected for s in parsers.values()),
        "collector.lines_rejected": sum(s.rejected for s in parsers.values()),
        "collector.store.records": collector.store.total_records(),
        "collector.store.out_of_order": sum(t.get("out_of_order", 0) for t in storage),
        "collector.store.tail_merges": sum(t.get("merges", 0) for t in storage),
        **{
            f"collector.sources.{name}.lines_in": s.accepted + s.rejected
            for name, s in parsers.items()
        },
    }


def spatial_counts(resolver) -> dict:
    stats = resolver.cache_stats()
    lookups = stats["hits"] + stats["misses"]
    return {
        "core.spatial.cache_hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "core.spatial.cache_evictions": stats["evictions"],
    }


class EngineTrace:
    """Folds ``repro.obs`` span trees of traced diagnoses into totals.

    Traced diagnoses take the engine's per-survivor spatial branch, so
    these stage times bound the production (columnar) path from above
    rather than equal it.
    """

    def __init__(self) -> None:
        self.stages = dict.fromkeys(ENGINE_STAGES, 0.0)
        self.funnel = dict.fromkeys(FUNNEL, 0)
        self.diagnose_s = 0.0

    def fold(self, root) -> None:
        """``root`` is a ``diagnose`` span or an ``advance`` span over some."""
        for kind, seconds in stage_breakdown(root).items():
            if kind in self.stages:
                self.stages[kind] += seconds
        for span in root.walk():
            if span.kind == "rule":
                for key in FUNNEL:
                    self.funnel[key] += span.meta.get(key, 0)
            elif span.kind == "diagnose":
                self.diagnose_s += span.duration

    def counts(self) -> dict:
        out = {f"core.engine.stage.{k}.self_s": v for k, v in self.stages.items()}
        out.update({f"core.engine.{k}": v for k, v in self.funnel.items()})
        candidates = self.funnel["candidates"]
        out["core.engine.join_selectivity"] = (
            self.funnel["spatial_survivors"] / candidates if candidates else 0.0
        )
        return out


def result_row(diagnosis) -> list:
    """What the bench process scores: where, when, which cause."""
    symptom = diagnosis.symptom
    return ["~".join(symptom.location.parts), symptom.start, diagnosis.primary_cause]


def peak_rss_mb() -> float:
    """Peak resident set of *this program*, in MB.

    ``ru_maxrss`` will not do: Linux carries the pre-``exec`` peak over,
    and before ``exec`` this process was a copy of the bench process with
    all the generated inputs in memory.  ``VmHWM`` belongs to the address
    space ``exec`` created, so it counts this program only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_memory(options) -> dict:
    """Stop ``tracemalloc`` (if this round runs under it); its peak."""
    if not options.get("tracemalloc"):
        return {}
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"process.tracemalloc_peak_mb": peak / 2**20}


def process_usage(cpu_began: float, speed=None) -> dict:
    """CPU seconds since ``cpu_began`` (calibration slices, which are
    pure CPU, taken out) and the process's peak resident set."""
    return {
        "cpu_s": time.process_time() - cpu_began - (speed.total_s if speed else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# batch: raw lines -> diagnoses -> incidents -> reports


def run_batch(payload, options, rec) -> dict:
    engine_traced = bool(options.get("engine_trace"))
    topology, collector = wire_collector(payload)
    emit("ready")
    gc.collect()
    if options.get("tracemalloc"):
        tracemalloc.start()
    cpu_began = time.process_time()
    began = time.perf_counter()
    speed = Speed()
    engine_trace = EngineTrace()
    diagnoses, documents, latencies = [], [], []
    with rec.span("pipeline"):
        ingest_feeds(rec, collector, payload["feeds"], speed)
        platform, app = wire_app(rec, payload, topology, collector)
        with rec.span("apps.find_symptoms"):
            symptoms = app.find_symptoms(payload["start"], payload["end"])
        engine = app.engine
        for symptom in symptoms:
            t0 = time.perf_counter()
            with rec.span("core.engine.diagnose"):
                diagnosis = engine.diagnose(
                    symptom, tracer=Tracer() if engine_traced else None
                )
            if engine_traced:
                engine_trace.fold(diagnosis.trace)
                diagnosis.trace = None  # keep the served document the same
            with rec.span("core.serialize.encode"):
                document = json.dumps(diagnosis_to_dict(diagnosis))
            latencies.append(time.perf_counter() - t0)
            diagnoses.append(diagnosis)
            documents.append(document)
            speed.tick()
        store = IncidentStore()
        sink = store.record
        if rec.enabled:
            def sink(incident, record=store.record):
                with rec.span("incident.store.record"):
                    record(incident)
        aggregator = IncidentAggregator(sink=sink)
        for diagnosis in diagnoses:
            with rec.span("incident.aggregate.observe"):
                aggregator.observe(diagnosis)
            speed.tick()
        with rec.span("incident.store.list"):
            incidents = store.incidents()
        reports, incident_documents = [], []
        for incident in incidents:
            with rec.span("incident.report.render"):
                reports.append(render_incident_report(incident))
            with rec.span("incident.serialize.encode"):
                incident_documents.append(json.dumps(incident_to_dict(incident)))
            speed.tick()
    pipeline_s = time.perf_counter() - began - speed.total_s
    usage = process_usage(cpu_began, speed)
    counts = {
        **collector_counts(collector),
        **spatial_counts(platform.resolver),
        "apps.symptoms_out": len(symptoms),
        "core.engine.symptoms_in": len(symptoms),
        "core.serialize.bytes_out": sum(len(d) for d in documents),
        "incident.aggregate.diagnoses_in": len(diagnoses),
        "incident.aggregate.incidents_out": len(incidents),
        "incident.store.revisions": store.revisions(),
        "incident.report.bytes_out": sum(len(r) for r in reports)
        + sum(len(d) for d in incident_documents),
        **traced_memory(options),
    }
    if engine_traced:
        counts.update(engine_trace.counts())
    probes = {}
    if options.get("probes"):
        probes = batch_probes(collector, app, symptoms, documents, store, incidents)
    return {
        "pipeline_s": pipeline_s,
        **usage,
        "speed": [speed.report()],
        "latencies_s": latencies,
        "diagnoses": len(diagnoses),
        "rows": [result_row(d) for d in diagnoses],
        "digest": digest_of(documents + incident_documents),
        "counts": counts,
        "probes": probes,
    }


def batch_probes(collector, app, symptoms, documents, store, incidents) -> dict:
    """Layers no pipeline span isolates, timed after the timed section."""
    out = {}
    # store insert alone: the loaded records again, into a fresh store
    fresh = DataStore()
    began = time.perf_counter()
    for name, table in collector.store.tables.items():
        target = fresh.table(name)
        for record in table.scan():
            target.insert(record)
    out["collector.store.insert_s"] = time.perf_counter() - began
    # columnar window reads: +-1 h around each symptom, two largest tables
    largest = sorted(
        collector.store.tables.values(), key=len, reverse=True
    )[:2]
    rows = queries = 0
    began = time.perf_counter()
    for symptom in symptoms:
        for table in largest:
            window = table.query_columns(symptom.start - 3600.0, symptom.start + 3600.0)
            rows += len(window.timestamps)
            queries += 1
    out["collector.store.query_columns_s"] = time.perf_counter() - began
    out["collector.store.queries"] = queries
    out["collector.store.rows_per_query"] = rows / queries if queries else 0.0
    # grca-diagnosis/1 decode
    began = time.perf_counter()
    for document in documents:
        diagnosis_from_dict(json.loads(document))
    out["core.serialize.decode_s"] = time.perf_counter() - began
    # incident store reads: the four queries, once each (every one of
    # them decodes the whole revision log, so once is already ~0.1 s)
    began = time.perf_counter()
    if incidents:
        store.incidents()
        store.breakdown()
        store.top_offenders()
        store.timeline(incidents[0].incident_id)
    out["incident.store.query_s"] = time.perf_counter() - began
    return out


# ---------------------------------------------------------------------------
# stream: tick-by-tick delivery interleaved with incremental diagnosis


def run_stream(payload, options, rec) -> dict:
    engine_traced = bool(options.get("engine_trace"))
    topology, collector = wire_collector(payload)
    # set-up, not pipeline: recorded by no span
    platform, app = wire_app(spans.OFF, payload, topology, collector)
    streaming = StreamingRca(app.engine, start=payload["start"])
    replayer = FeedReplayer(
        collector, [tuple(item) for item in payload["stream"]]
    )
    emit("ready")
    gc.collect()
    if options.get("tracemalloc"):
        tracemalloc.start()
    cpu_began = time.process_time()
    began = time.perf_counter()
    speed = Speed()
    engine_trace = EngineTrace()
    tick = payload["tick"]
    now = payload["start"]
    end = payload["end"]
    diagnoses = []
    quiet_s, emit_s = [], []
    with rec.span("pipeline"):
        while now < end + tick:
            now += tick
            with rec.span("core.streaming.deliver"):
                replayer.deliver_until(now)
            tracer = Tracer() if engine_traced else None
            t0 = time.perf_counter()
            with rec.span("core.streaming.advance"):
                emitted = streaming.advance(now, tracer=tracer)
            elapsed = time.perf_counter() - t0
            if engine_traced:
                engine_trace.fold(tracer.root)
                for diagnosis in emitted:
                    diagnosis.trace = None  # folded; do not hold the trees
            (emit_s if emitted else quiet_s).append(elapsed)
            diagnoses.extend(emitted)
            speed.tick()
        streaming.close()
    pipeline_s = time.perf_counter() - began - speed.total_s
    usage = process_usage(cpu_began, speed)
    counts = {
        **collector_counts(collector),
        **spatial_counts(platform.resolver),
        "apps.symptoms_out": len(diagnoses),
        "core.engine.symptoms_in": len(diagnoses),
        "core.streaming.advances": len(quiet_s) + len(emit_s),
        "core.streaming.emit_advances": len(emit_s),
        "core.streaming.invalidated": streaming.invalidated_count,
        "core.streaming.reopened": streaming.reopened_count,
        "core.streaming.reemitted": streaming.reemitted_count,
        "core.streaming.evicted": streaming.evicted_count,
        **traced_memory(options),
    }
    if engine_traced:
        counts.update(engine_trace.counts())
        counts["core.engine.diagnose_s"] = engine_trace.diagnose_s
    return {
        "pipeline_s": pipeline_s,
        **usage,
        "speed": [speed.report()],
        "latencies_s": emit_s,
        "quiet_s": quiet_s,
        "diagnoses": len(diagnoses),
        "rows": [result_row(d) for d in diagnoses],
        "digest": conclusions_digest(diagnoses),
        "counts": counts,
    }


# ---------------------------------------------------------------------------
# serve: the sharded service behind the HTTP gateway; load comes from outside


def run_serve(payload, options, rec) -> dict:
    topology, collector = wire_collector(payload)
    ingest_feeds(rec, collector, payload["feeds"])
    platform, app = wire_app(spans.OFF, payload, topology, collector)
    router = platform.serve_sharded(
        {payload["app"]: app}, shards=2, workers=1, incidents=True
    )
    gateway = RcaGateway(router).start()
    cpu_began = time.process_time()
    probe = {}
    try:
        emit("listening", port=gateway.port)
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "mark":
                # warm-up is over: the timed section starts here
                gc.collect()
                cpu_began = time.process_time()
                emit("ready")
            elif command["cmd"] == "usage":
                emit("usage", **process_usage(cpu_began))
            elif command["cmd"] == "api-probe":
                probe = api_probe(router, payload["app"], command["symptoms"])
                emit("probed")
            elif command["cmd"] == "stop":
                break
    finally:
        gateway.stop()
    return {"counts": collector_counts(collector), "probes": probe}


def api_probe(router, app: str, symptoms) -> dict:
    """The same one-symptom jobs through ``ShardRouter``, no sockets."""
    latencies = []
    for document in symptoms:
        began = time.perf_counter()
        _job_id, job = router.submit_diagnosis(app, [instance_from_dict(document)])
        job.wait(60.0)
        latencies.append(time.perf_counter() - began)
    if not latencies:
        return {}
    latencies.sort()
    return {"service.api.job_p50_ms": 1000.0 * latencies[len(latencies) // 2]}


RUNNERS = {
    "batch-bgp-month": run_batch,
    "batch-cdn-quarter": run_batch,
    "stream-pim-storm": run_stream,
    "serve-http": run_serve,
}


def main() -> int:
    options = json.loads(sys.stdin.readline())
    payload = json.loads(sys.stdin.readline())
    workload = payload["workload"]
    rec = spans.Recorder(workload) if options.get("spans") else spans.OFF
    result = RUNNERS[workload](payload, options, rec)
    if rec.enabled:
        result["spans"] = rec.totals()
        if options.get("trace_path"):
            rec.write(options["trace_path"])
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
