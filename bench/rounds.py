"""Drive one benchmark round: start the program, feed it, collect results.

A *round* is one fresh child process (``bench/program.py``) doing one
full pass over the workload's inputs.  Round ``k`` of a run starts its
child with ``PYTHONHASHSEED=k``: set and dict layout alone moves a pass
by several percent, so a run samples the same few layouts every time
instead of drawing new ones, and a digest that depended on hash order
would differ between rounds.  The bench process measures what
only an outside observer can (set-up wall time from spawn to ``ready``,
client-side HTTP latencies) and takes the rest from the child's
``result`` event.  For ``serve-http`` this module is also the load
generator: a closed loop of a few keep-alive client threads, because
the gateway's callers (Result Browser polling, tooling, the scenario
runner's http mode) each wait for a reply before sending the next job.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.calibrate import Speed

PROGRAM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "program.py")

#: seconds a child may take to answer before the round is abandoned
CHILD_TIMEOUT = 150.0
#: symptoms held out of the HTTP passes for the in-process API probe
API_PROBE_JOBS = 100


class RoundFailed(RuntimeError):
    """The program under test died or answered out of protocol."""


class Program:
    """One child process speaking the JSON-lines protocol."""

    def __init__(self, payload_line: str, hash_seed: int) -> None:
        self.began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, PROGRAM],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            self.proc.stdin.write(payload_line)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.close()
            raise RoundFailed("program exited before reading its inputs")

    def send(self, **command: Any) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def expect(self, event: str) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RoundFailed(
                f"program ended (exit {self.proc.poll()}) while the bench "
                f"waited for {event!r}"
            )
        document = json.loads(line)
        if document.get("event") != event:
            raise RoundFailed(f"expected {event!r}, got {document.get('event')!r}")
        return document

    def close(self) -> None:
        """Stop the child whatever state it is in, and wait for it."""
        self._watchdog.cancel()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Program":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def run_pipeline_round(line: str, hash_seed: int) -> Dict[str, Any]:
    """A batch or stream round: the child does everything itself."""
    with Program(line, hash_seed) as program:
        program.expect("ready")
        setup_s = time.perf_counter() - program.began
        result = program.expect("result")
    result["setup_s"] = setup_s
    return result


# ---------------------------------------------------------------------------
# serve-http: the bench process is the load generator


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the convention of ``repro.obs.report``)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Client:
    """Keep-alive JSON client over one persistent connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=90)
        self.bytes_out = 0
        self.bytes_in = 0

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        self.bytes_out += len(body or b"")
        self.bytes_in += len(raw)
        return response.status, raw

    def close(self) -> None:
        self.conn.close()


def _job(client: Client, app: str, symptom: Dict[str, Any]):
    """One closed-loop job: POST, then long-poll until terminal.

    Returns ``(submit_s, poll_s, diagnosis document or None)``.
    """
    body = json.dumps({"kind": "diagnose", "app": app, "symptoms": [symptom]}).encode()
    t0 = time.perf_counter()
    status, raw = client.request("POST", "/v1/jobs", body)
    t1 = time.perf_counter()
    if status != 202:
        return t1 - t0, 0.0, None
    path = f"/v1/jobs/{json.loads(raw)['job_id']}?wait=30"
    for _ in range(4):  # 4 x 30 s: far beyond any healthy job
        status, raw = client.request("GET", path)
        document = json.loads(raw) if status == 200 else {}
        if status != 200 or document.get("finished"):
            break
    t2 = time.perf_counter()
    done = status == 200 and document.get("state") == "done"
    return t1 - t0, t2 - t1, document["diagnoses"][0] if done else None


def run_pass(port: int, app: str, symptoms: List[Dict[str, Any]], clients: int):
    """Every symptom as one job, ``clients`` closed-loop threads.

    Client ``k`` takes jobs ``k, k + clients, ...`` so the assignment
    does not depend on timing.  Each client runs its own calibration
    slices between jobs (see :mod:`bench.calibrate`).  Returns per-job
    tuples in symptom order, wall seconds with the slices taken out,
    bytes moved and the clients' calibration reports.
    """
    jobs: List[Any] = [None] * len(symptoms)
    traffic = [0, 0]
    speeds: List[Dict[str, Any]] = []
    lock = threading.Lock()
    errors: List[BaseException] = []

    def loop(k: int) -> None:
        client = Client(port)
        speed = Speed()
        try:
            for index in range(k, len(symptoms), clients):
                jobs[index] = _job(client, app, symptoms[index])
                speed.tick()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            errors.append(exc)
        finally:
            client.close()
            with lock:
                traffic[0] += client.bytes_out
                traffic[1] += client.bytes_in
                speeds.append(speed.report())

    threads = [
        threading.Thread(target=loop, args=(k,), daemon=True) for k in range(clients)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CHILD_TIMEOUT)
    wall_s = time.perf_counter() - began
    if errors or any(thread.is_alive() for thread in threads):
        raise RoundFailed(f"load generator failed: {errors[:1] or 'client hung'}")
    # each client paused only itself: the pass ran long by one client's share
    wall_s -= sum(speed["total_s"] for speed in speeds) / len(speeds)
    return jobs, wall_s, traffic, speeds


def _metrics(client: Client) -> Dict[str, Any]:
    status, raw = client.request("GET", "/v1/metrics")
    if status != 200:
        raise RoundFailed(f"GET /v1/metrics answered {status}")
    return json.loads(raw)


def _histogram_delta(before, after, key: str) -> Tuple[float, float]:
    """(count, mean seconds) of one latency histogram between snapshots."""
    count = total = 0.0
    for old, new in zip(before["shards"], after["shards"]):
        count += new[key]["count"] - old[key]["count"]
        total += new[key]["mean"] * new[key]["count"] - old[key]["mean"] * old[key]["count"]
    return count, (total / count if count else 0.0)


def _cache_hit_ratio(before, after) -> float:
    """Result-cache hits over lookups between two ``/v1/metrics`` snapshots."""
    old, new = before["aggregate"]["cache"], after["aggregate"]["cache"]
    hits = new["hits"] - old["hits"]
    lookups = hits + new["misses"] - old["misses"]
    return hits / lookups if lookups else 0.0


def _service_layer(before, after, wall_s: float) -> Dict[str, float]:
    """Queue and worker numbers of the miss pass from ``/v1/metrics``.

    Counters and histogram means are exact differences between the two
    snapshots.  The service's percentile summaries cover each shard's
    newest 2048 samples — here the warm-up jobs and the pass itself — so
    p50/p95 are read from the snapshot taken right after the pass (mean
    over shards).
    """
    shards = after["shards"]
    busy = sum(
        new["worker_busy_seconds"] - old["worker_busy_seconds"]
        for old, new in zip(before["shards"], shards)
    )
    workers = sum(shard["health"].get("workers", 1) for shard in shards)

    def mean_ms(key: str, stat: str) -> float:
        return 1000.0 * sum(shard[key][stat] for shard in shards) / len(shards)

    return {
        "service.queue.wait_mean_ms": 1000.0 * _histogram_delta(before, after, "queue_wait")[1],
        "service.queue.wait_p50_ms": mean_ms("queue_wait", "p50"),
        "service.queue.wait_p95_ms": mean_ms("queue_wait", "p95"),
        "service.workers.job_mean_ms": 1000.0 * _histogram_delta(before, after, "job_latency")[1],
        "service.workers.job_p50_ms": mean_ms("job_latency", "p50"),
        "service.workers.utilization": busy / (workers * wall_s) if wall_s else 0.0,
        "service.queue.rejected": after["aggregate"]["jobs"]["rejected"]
        - before["aggregate"]["jobs"]["rejected"],
        "service.jobs_retried": after["aggregate"]["recovery"]["jobs_retried"]
        - before["aggregate"]["recovery"]["jobs_retried"],
    }


def run_serve_round(
    line: str,
    app: str,
    symptoms: List[Dict[str, Any]],
    sizes: Dict[str, Any],
    probe: bool,
    hash_seed: int,
) -> Dict[str, Any]:
    """Set-up, miss pass, hit pass, incident reads — against one child.

    ``symptoms`` splits three ways: the first ``serve_jobs`` are the
    pass population (sent once for the miss pass, then again for the hit
    pass), the tail warms the service up during set-up, and up to
    ``API_PROBE_JOBS`` in between stay uncached for the in-process API
    probe.
    """
    clients = min(os.cpu_count() or 1, 4)
    warm = sizes["serve_warmup_jobs"]
    population = symptoms[: min(sizes["serve_jobs"], len(symptoms) - 2 * warm)]
    probe_set = symptoms[len(population): len(symptoms) - warm][:API_PROBE_JOBS]
    with Program(line, hash_seed) as program:
        port = program.expect("listening")["port"]
        control = Client(port)
        try:
            for symptom in symptoms[len(symptoms) - warm:]:
                _job(control, app, symptom)
            program.send(cmd="mark")
            program.expect("ready")
            setup_s = time.perf_counter() - program.began

            snap0 = _metrics(control)
            miss, miss_s, miss_traffic, speeds = run_pass(port, app, population, clients)
            snap1 = _metrics(control)
            hit, hit_s, hit_traffic, hit_speeds = run_pass(port, app, population, clients)
            snap2 = _metrics(control)
            began = time.perf_counter()
            speed = Speed()
            t0 = time.perf_counter()
            status, raw = control.request("GET", "/v1/incidents")
            list_s = time.perf_counter() - t0
            incidents = json.loads(raw)["incidents"] if status == 200 else []
            report_s, report_bytes, reads_failed = [], 0, int(status != 200)
            step = max(1, len(incidents) // sizes["serve_reports"])
            for incident in incidents[::step][: sizes["serve_reports"]]:
                t0 = time.perf_counter()
                status, raw = control.request(
                    "GET", f"/v1/incidents/{incident['incident_id']}/report"
                )
                report_s.append(time.perf_counter() - t0)
                report_bytes += len(raw)
                reads_failed += int(status != 200 or not raw)
                speed.tick()
            reads_s = time.perf_counter() - began - speed.total_s

            program.send(cmd="usage")
            usage = program.expect("usage")
            if probe:
                program.send(cmd="api-probe", symptoms=probe_set)
                program.expect("probed")
            program.send(cmd="stop")
            result = program.expect("result")
        finally:
            control.close()

    miss_jobs = [s + p for s, p, _doc in miss]
    hit_jobs = [s + p for s, p, _doc in hit]
    layers = {
        **_service_layer(snap0, snap1, miss_s),
        "service.cache.miss_pass_hit_ratio": _cache_hit_ratio(snap0, snap1),
        "service.cache.hit_pass_hit_ratio": _cache_hit_ratio(snap1, snap2),
        "service.http.submit_p50_ms": 1000.0 * percentile([s for s, _p, _d in miss], 0.5),
        "service.http.poll_p50_ms": 1000.0 * percentile([p for _s, p, _d in miss], 0.5),
        "service.http.job_p50_ms": 1000.0 * percentile(miss_jobs, 0.5),
        "service.http.job_p95_ms": 1000.0 * percentile(miss_jobs, 0.95),
        "service.http.job_p99_ms": 1000.0 * percentile(miss_jobs, 0.99),
        "service.http.hit_job_p50_ms": 1000.0 * percentile(hit_jobs, 0.5),
        "service.http.jobs_per_s": len(miss) / miss_s,
        "service.http.hit_jobs_per_s": len(hit) / hit_s,
        "service.http.incidents_list_ms": 1000.0 * list_s,
        "service.http.report_p50_ms": 1000.0 * percentile(report_s, 0.5) if report_s else 0.0,
        "service.http.bytes_out": miss_traffic[0] + hit_traffic[0],
        "service.http.bytes_in": miss_traffic[1] + hit_traffic[1] + report_bytes,
        "incident.aggregate.incidents_out": len(incidents),
        "incident.report.bytes_out": report_bytes,
    }
    result.update(
        setup_s=setup_s,
        pipeline_s=miss_s + hit_s + reads_s,
        speed=speeds + hit_speeds + [speed.report()],
        cpu_s=usage["cpu_s"],
        peak_rss_mb=usage["peak_rss_mb"],
        latencies_s=miss_jobs,
        diagnoses=len(miss),
        diagnoses_per_s=len(miss) / miss_s,
        miss_documents=[doc for _s, _p, doc in miss],
        hit_documents=[doc for _s, _p, doc in hit],
        requests=2 * len(population) + 1 + len(report_s),
        reads_failed=reads_failed,
        serve_layers=layers,
    )
    return result
