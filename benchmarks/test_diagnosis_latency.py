"""Diagnosis-latency claims from Section III.

Paper numbers (wall clock on the production platform):

* BGP RCA: "the average diagnosis time per symptom event is less than
  5 s";
* CDN RCA: "less than 3 min", dominated by inter-domain (BGP) and
  intra-domain (OSPF) route computation;
* PIM RCA: "similar to the BGP RCA application ... typically less than
  5 s"; a day's worth of events takes 1-2 h.

These are upper bounds from a system querying production databases; the
reproduction runs in-memory and must land far below them — the
benchmark records per-symptom latency and asserts the paper's bounds
with two orders of magnitude to spare.

``test_pim_storm_group_latency`` measures what the MVPN case is about —
one provisioning action dropping a PE's adjacencies toward every remote
PE at once: the sibling symptoms diagnosed as one ``diagnose_all`` group
against one ``diagnose`` call each, same process, equal outputs, both
timings and their ratio written to ``BENCH_engine_groups.json`` (the
storm is built by ``tests/oracles/storm.py`` from ``repro.simulation``).
"""

import json
import statistics
import time
from pathlib import Path

from tests.oracles.storm import mvpn_storm

BENCH_FILE = Path("BENCH_engine_groups.json")


def test_bgp_diagnosis_latency(bgp_outcome, benchmark, console):
    _result, app, symptoms, _diagnoses = bgp_outcome
    app.engine.clear_cache()
    sample = symptoms[: min(100, len(symptoms))]
    index = {"i": 0}

    def diagnose_one():
        symptom = sample[index["i"] % len(sample)]
        index["i"] += 1
        return app.engine.diagnose(symptom)

    benchmark(diagnose_one)
    mean = benchmark.stats["mean"]
    console.emit(
        f"\nBGP RCA per-symptom diagnosis: {1000 * mean:.2f} ms "
        "(paper bound: < 5 s)"
    )
    assert mean < 5.0


def test_cdn_diagnosis_latency(cdn_outcome, benchmark, console):
    _result, app, symptoms, _diagnoses = cdn_outcome
    app.engine.clear_cache()
    app.platform.paths.ospf._spf_cache.clear()
    sample = symptoms[: min(50, len(symptoms))]
    index = {"i": 0}

    def diagnose_one():
        symptom = sample[index["i"] % len(sample)]
        index["i"] += 1
        return app.engine.diagnose(symptom)

    benchmark(diagnose_one)
    mean = benchmark.stats["mean"]
    console.emit(
        f"CDN RCA per-symptom diagnosis: {1000 * mean:.2f} ms "
        "(paper bound: < 3 min, dominated by route computation)"
    )
    assert mean < 180.0


def test_pim_diagnosis_latency(pim_outcome, benchmark, console):
    _result, app, symptoms, _diagnoses = pim_outcome
    app.engine.clear_cache()
    sample = symptoms[: min(100, len(symptoms))]
    index = {"i": 0}

    def diagnose_one():
        symptom = sample[index["i"] % len(sample)]
        index["i"] += 1
        return app.engine.diagnose(symptom)

    benchmark(diagnose_one)
    mean = benchmark.stats["mean"]
    console.emit(
        f"PIM RCA per-symptom diagnosis: {1000 * mean:.2f} ms "
        "(paper bound: < 5 s)"
    )
    assert mean < 5.0


def test_pim_storm_group_latency(console):
    app, symptoms, _action = mvpn_storm(vrfs=4, churn=8)
    assert len(symptoms) >= 60
    intervals = len({s.interval for s in symptoms})
    group_s, single_s = [], []
    for _ in range(7):  # alternating, each side on a cold isolated engine
        engine = app.engine.isolated()
        began = time.perf_counter()
        grouped = engine.diagnose_all(symptoms)
        group_s.append(time.perf_counter() - began)
        engine = app.engine.isolated()
        began = time.perf_counter()
        singles = [engine.diagnose(symptom) for symptom in symptoms]
        single_s.append(time.perf_counter() - began)
        assert grouped == singles
        assert [d.footprint for d in grouped] == [d.footprint for d in singles]
    group, single = statistics.median(group_s), statistics.median(single_s)
    payload = {
        "symptoms": len(symptoms),
        "distinct_intervals": intervals,
        "group_ms": round(1000 * group, 3),
        "singles_ms": round(1000 * single, 3),
        "singles_over_group": round(single / group, 3),
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    console.emit(
        f"PIM storm action: {len(symptoms)} sibling symptoms on {intervals} "
        f"intervals — one diagnose_all {1000 * group:.1f} ms, one diagnose "
        f"each {1000 * single:.1f} ms ({single / group:.2f}x)"
    )
    assert {d.primary_cause for d in grouped} == {"PIM Configuration change"}
