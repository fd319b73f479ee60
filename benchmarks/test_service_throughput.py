"""Service-layer throughput: batch parallelism and result caching.

The paper runs G-RCA as a shared platform serving many applications and
operators concurrently (Sections I, VI).  This benchmark measures the
two service-layer speed claims on the Table IV scenario (~1200 flaps):

* **batch throughput vs worker count** — `parallel_diagnose` must
  return byte-identical diagnoses at every worker count; with >= 2 CPUs
  available, 4 workers must deliver >= 2x the serial throughput (on a
  single-CPU runner the helper runs serially, so the numbers are
  recorded but not gated);
* **cached repeat** — re-running a whole window through the
  :class:`RcaService` must be served from the result cache: zero new
  engine diagnoses and far less wall-clock than the first pass.

Results land in ``BENCH_service.json`` (one key per test) so CI can
archive the measurements per run.
"""

import json
import time
from pathlib import Path

from repro.service.api import RcaService
from repro.service.workers import available_cpus, parallel_diagnose

BENCH_FILE = Path("BENCH_service.json")
WORKER_COUNTS = (2, 4)


def _record(key, payload):
    """Merge one test's measurements into the benchmark artifact."""
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data[key] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_batch_throughput_vs_worker_count(bgp_outcome, console):
    _result, app, symptoms, _diagnoses = bgp_outcome
    engine = app.engine

    cold = engine.isolated()  # cold private retrieval cache, like a worker
    started = time.perf_counter()
    serial = cold.diagnose_all(symptoms)
    serial_seconds = time.perf_counter() - started

    runs = {}
    for jobs in WORKER_COUNTS:
        started = time.perf_counter()
        parallel = parallel_diagnose(engine, symptoms, jobs=jobs)
        elapsed = time.perf_counter() - started
        assert parallel == serial  # identical diagnoses at any worker count
        runs[jobs] = {
            "seconds": round(elapsed, 4),
            "speedup": round(serial_seconds / elapsed, 3) if elapsed else 0.0,
        }

    cpus = available_cpus()
    console.emit(
        f"\n=== service batch throughput (bgp_month, {len(symptoms)} symptoms, "
        f"{cpus} CPU(s)) ==="
    )
    console.emit(
        f"serial: {serial_seconds:.2f} s "
        f"({len(symptoms) / serial_seconds:.0f} symptoms/s)"
    )
    for jobs, run in runs.items():
        console.emit(
            f"{jobs} workers: {run['seconds']:.2f} s ({run['speedup']:.2f}x)"
        )

    _record(
        "batch_throughput",
        {
            "scenario": "bgp_month",
            "symptoms": len(symptoms),
            "cpus": cpus,
            "serial_seconds": round(serial_seconds, 4),
            "workers": {str(jobs): run for jobs, run in runs.items()},
        },
    )

    if cpus >= 2:
        # the acceptance gate only binds where parallel speedup is
        # physically possible; a 1-CPU container records numbers only
        assert runs[4]["speedup"] >= 2.0, (
            f"4 workers on {cpus} CPUs delivered only "
            f"{runs[4]['speedup']:.2f}x over serial"
        )
    else:
        console.emit("single CPU: speedup gate skipped (results recorded)")


def test_cached_repeat_run_is_near_free(bgp_outcome, console):
    result, app, symptoms, _diagnoses = bgp_outcome
    service = RcaService(store=result.collector.store, workers=2)
    service.register_app("bgp_flaps", app)
    service.start()
    try:
        started = time.perf_counter()
        first = service.submit_run(
            "bgp_flaps", result.start, result.end, block=True
        ).outcome(timeout=600.0)
        first_seconds = time.perf_counter() - started
        diagnosed = service.metrics.symptoms_diagnosed.value
        assert diagnosed == len(symptoms)

        started = time.perf_counter()
        repeat = service.submit_run(
            "bgp_flaps", result.start, result.end, block=True
        ).outcome(timeout=600.0)
        repeat_seconds = time.perf_counter() - started

        assert repeat == first
        # served entirely from the result cache: no engine re-runs
        assert service.metrics.symptoms_diagnosed.value == diagnosed
        assert service.metrics.cache_hits.value == len(symptoms)
        assert repeat_seconds < first_seconds / 2
    finally:
        service.shutdown(graceful=True, timeout=60.0)

    hit_rate = service.metrics_snapshot()["cache"]["hit_rate"]
    console.emit(
        f"\n=== service cached repeat (bgp_month, {len(symptoms)} symptoms) ==="
    )
    console.emit(
        f"first run: {first_seconds:.2f} s; cached repeat: "
        f"{repeat_seconds:.3f} s ({first_seconds / repeat_seconds:.0f}x faster, "
        f"hit rate {100 * hit_rate:.1f}%)"
    )
    _record(
        "cached_repeat",
        {
            "scenario": "bgp_month",
            "symptoms": len(symptoms),
            "first_seconds": round(first_seconds, 4),
            "repeat_seconds": round(repeat_seconds, 4),
            "speedup": round(first_seconds / repeat_seconds, 1),
            "hit_rate": round(hit_rate, 4),
        },
    )
