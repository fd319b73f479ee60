"""G-RCA benchmark: raw feed lines -> served diagnosis -> incident report.

One run (what the benchmark driver starts)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, runs fresh-process rounds
of the program under test for ``S`` seconds, checks the outputs and
prints every metric by name; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.

A run-set (what a person starts) leaves ``--workload`` out: every
workload, untraced then (with ``--traced``) traced, written as one
``grca-bench/1`` document under ``--out``.  ``--compare A.json B.json``
judges two such documents.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform as host_platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.serialize import diagnosis_from_dict, instance_to_dict  # noqa: E402
from repro.eval.scoring import CAUSE_ALIASES  # noqa: E402

from bench import calibrate, compare, rounds  # noqa: E402
from bench.inputs import WORKLOADS, Inputs, make_inputs  # noqa: E402
from bench.program import ingest_feeds, result_row, wire_app, wire_collector  # noqa: E402
from bench.spans import OFF  # noqa: E402

SCHEMA = "grca-bench/1"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(BENCH_DIR, "out")
DEFAULT_SEED = 1

#: bench span name -> per-layer metric taking the span's self time
SPAN_METRICS = {
    "pipeline": "pipeline.unattributed_s",
    "platform.from_collector": "platform.from_collector_s",
    "apps.build": "apps.build_s",
    "apps.find_symptoms": "apps.find_symptoms_s",
    "core.engine.diagnose": "core.engine.diagnose_s",
    "core.serialize.encode": "core.serialize.encode_s",
    "core.streaming.deliver": "core.streaming.deliver_s",
    "core.streaming.advance": "core.streaming.advance_s",
    "incident.aggregate.observe": "incident.aggregate.observe_s",
    "incident.store.record": "incident.store.record_s",
    "incident.store.list": "incident.store.list_s",
    "incident.report.render": "incident.report.render_s",
    "incident.serialize.encode": "incident.serialize.encode_s",
}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_pins() -> Dict[str, Any]:
    with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# checking


def accuracy(app: str, rows: List[list], truths) -> float:
    """Top-1 cause match against the nearest ground truth at the same
    location — the accuracy dimension of ``repro.eval.scoring``."""
    aliases = CAUSE_ALIASES.get(app, {})
    by_location = defaultdict(list)
    for truth in truths:
        by_location[truth.location].append(truth)
    hits = 0
    for location, start, cause in rows:
        nearest = min(
            by_location.get(location, ()),
            key=lambda truth: abs(truth.time - start),
            default=None,
        )
        if nearest is not None and nearest.cause in (cause, aliases.get(cause)):
            hits += 1
    return hits / len(rows) if rows else 0.0


def reference_diagnoses(inputs: Inputs):
    """The serve workload's symptoms and their in-process diagnoses."""
    payload = inputs.payload()
    topology, collector = wire_collector(payload)
    ingest_feeds(OFF, collector, inputs.feeds)
    _platform, app = wire_app(OFF, payload, topology, collector)
    symptoms = app.find_symptoms(inputs.start, inputs.end)
    return symptoms, app.engine.diagnose_all(symptoms)


def served_wrong(documents: List[Any], reference) -> int:
    """How many served ``grca-diagnosis/1`` documents do *not* decode to
    the in-process ``engine.diagnose`` of the same symptom."""
    wrong = 0
    for document, expected in zip(documents, reference):
        try:
            wrong += int(document is None or diagnosis_from_dict(document) != expected)
        except ValueError:
            wrong += 1
    return wrong


def sha256_json(document: Any) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# one workload


def speed_factor(result: Dict[str, Any]) -> float:
    """What one round's seconds are multiplied by: reference machine
    speed over the speed its calibration slices measured."""
    return calibrate.factor(result["speed"])


def describe(samples_s: List[float]) -> str:
    """median, the highest percentile with >= 10 samples beyond it, n."""
    n = len(samples_s)
    text = f"p50 {1000 * rounds.percentile(samples_s, 0.5):.3f} ms"
    for label, fraction in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9)):
        if n * (1 - fraction) >= 10:
            text += f", {label} {1000 * rounds.percentile(samples_s, fraction):.3f} ms"
            break
    return f"{text}, n={n}"


class WorkloadRun:
    """One workload's inputs, its rounds, and the checks on their outputs."""

    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.inputs = make_inputs(name, seed, smoke=smoke)
        #: the inputs as the program reads them, encoded once per run
        self.payload = json.dumps(self.inputs.payload()) + "\n"
        self.reference = None
        self.symptom_documents: List[Dict[str, Any]] = []
        if name == "serve-http":
            symptoms, self.reference = reference_diagnoses(self.inputs)
            self.symptom_documents = [instance_to_dict(s) for s in symptoms]
            self.reference_rows = [result_row(d) for d in self.reference]

    def round(self, hash_seed: int = 0, **options: Any) -> Dict[str, Any]:
        line = json.dumps(options) + "\n" + self.payload
        if self.name != "serve-http":
            result = rounds.run_pipeline_round(line, hash_seed)
            result["diagnoses_per_s"] = result["diagnoses"] / result["pipeline_s"]
            return result
        result = rounds.run_serve_round(
            line, self.inputs.app, self.symptom_documents, self.inputs.sizes,
            probe=bool(options.get("probes")), hash_seed=hash_seed,
        )
        miss_wrong = served_wrong(result["miss_documents"], self.reference)
        result["wrong"] = miss_wrong + served_wrong(
            result["hit_documents"], self.reference
        )
        # a served document equal to the reference scores as the reference
        result["rows"] = self.reference_rows[: result["diagnoses"] - miss_wrong]
        # Job completion order is not deterministic, so neither are the
        # covers behind a footprint nor how the shared aggregator folds
        # diagnoses into incidents (the incident count moves by a few
        # between rounds): the digest covers the diagnoses' conclusions.
        result["digest"] = sha256_json(
            [
                {k: v for k, v in (doc or {}).items() if k != "footprint"}
                for doc in result.pop("miss_documents")
            ]
        )
        del result["hit_documents"]
        return result

    def rounds_for(self, seconds: float, **options: Any) -> List[Dict[str, Any]]:
        """Fresh-process rounds until ``seconds`` have passed (at least one)."""
        done: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        while not done or time.perf_counter() < deadline:
            done.append(self.round(hash_seed=len(done), **options))
        return done

    # -- aggregation ----------------------------------------------------

    def check(self, results: List[Dict[str, Any]], pins: Dict[str, Any]) -> Dict[str, Any]:
        """Correctness verdict plus attempted / failed operation counts."""
        inputs = self.inputs
        notes: List[str] = []
        digests = {r["digest"] for r in results}
        if len(digests) != 1:
            notes.append(f"digest differs between rounds: {sorted(digests)}")
        pin = pins.get("smoke" if self.smoke else "default", {}).get(self.name, {})
        if pin.get("seed") == self.seed and pin.get("digest") not in digests:
            notes.append(f"digest {sorted(digests)} != pinned {pin.get('digest')}")
        score = min(accuracy(inputs.app, r["rows"], inputs.truths) for r in results)
        floor = pin.get("accuracy") if pin.get("seed") == self.seed else pin.get("accuracy_floor")
        if floor is not None and score < floor:
            notes.append(f"accuracy {score:.4f} below {floor:.4f}")
        attempted = failed = 0
        for r in results:
            counts = r["counts"]
            attempted += counts["collector.lines_in"]
            failed += counts["collector.lines_rejected"]
            if self.name == "serve-http":
                # every request is an operation; a job not done, or done
                # with a diagnosis unlike the reference, is a failed one
                attempted += r["requests"]
                failed += r["wrong"] + r["reads_failed"]
            else:
                # every injected symptom should come back diagnosed
                attempted += len(inputs.truths)
                failed += max(0, len(inputs.truths) - len(r["rows"]))
        if failed:
            notes.append(f"{failed} of {attempted} operations failed")
        return {
            "correct": not notes,
            "notes": notes,
            "attempted": attempted,
            "failed": failed,
            "accuracy": score,
            "digest": sorted(digests)[0],
        }

    def e2e(self, results: List[Dict[str, Any]]) -> Dict[str, List[float]]:
        """Every end-to-end metric, one speed-normalised value per round."""
        out: Dict[str, List[float]] = defaultdict(list)
        for r in results:
            f = speed_factor(r)
            out["setup_s"].append(f * r["setup_s"])
            out["pipeline_s"].append(f * r["pipeline_s"])
            out["cpu_s"].append(f * r["cpu_s"])
            out["peak_rss_mb"].append(r["peak_rss_mb"])
            out["diagnoses_per_s"].append(r["diagnoses_per_s"] / f)
            for name, fraction in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)):
                out[name].append(
                    1000.0 * f * rounds.percentile(r["latencies_s"], fraction)
                )
        return out

    def layers(
        self,
        spanned: List[Dict[str, Any]],
        engine_traced: Optional[Dict[str, Any]],
        memory: Optional[Dict[str, Any]],
        units: Dict[str, str],
    ) -> Dict[str, float]:
        """Per-layer metrics, all from one spans-only round — the one
        with the median normalised ``pipeline_s`` — so that self times
        add up to that round's ``pipeline`` span; engine stages come
        from the engine-traced round.  Times are speed-normalised."""
        ranked = sorted(spanned, key=lambda r: speed_factor(r) * r["pipeline_s"])
        chosen = ranked[len(ranked) // 2]
        spans = chosen["spans"]
        out: Dict[str, float] = {
            **chosen["counts"],
            **chosen.get("probes", {}),
            **chosen.get("serve_layers", {}),
        }
        for span, metric in SPAN_METRICS.items():
            out[metric] = spans.get(span, {}).get("self_s", 0.0)
        ingest_s = 0.0
        for name, totals in spans.items():
            if name.startswith("collector.sources."):
                out[f"{name}_s"] = totals["total_s"]
                ingest_s += totals["total_s"]
        if self.name == "stream-pim-storm":
            # FeedReplayer.deliver_until is collector.ingest, once per tick
            ingest_s = out["core.streaming.deliver_s"]
            emits = chosen["latencies_s"]
            out["core.streaming.quiet_advance_p50_us"] = 1e6 * rounds.percentile(
                chosen["quiet_s"], 0.5
            )
            out["core.streaming.emit_advance_p50_ms"] = 1e3 * rounds.percentile(emits, 0.5)
            out["core.streaming.emit_advance_p90_ms"] = 1e3 * rounds.percentile(emits, 0.9)
        if "pipeline" in spans:
            # calibration slices run between spans, directly under the
            # pipeline span: they are not unattributed program time
            out["pipeline.unattributed_s"] -= sum(
                speed["total_s"] for speed in chosen["speed"]
            )
        out["collector.ingest_s"] = ingest_s
        if "collector.store.insert_s" in out:
            out["collector.parse_s"] = ingest_s - out["collector.store.insert_s"]
        if out.get("service.api.job_p50_ms"):
            out["service.http.overhead_p50_ms"] = (
                out["service.http.job_p50_ms"] - out["service.api.job_p50_ms"]
            )
        # every time at the chosen round's speed factor
        f = speed_factor(chosen)
        for key, value in out.items():
            unit = units.get(key)
            if unit in ("s", "ms", "us"):
                out[key] = value * f
            elif unit == "1/s":
                out[key] = value / f
        if engine_traced is not None:
            # the engine-traced round's readings, at its own speed factor
            g = speed_factor(engine_traced)
            for key, value in engine_traced["counts"].items():
                if key.startswith("core.engine."):
                    out[key] = value * g if units.get(key) == "s" else value
            # engine time inside advance() is visible only to the engine's
            # own tracer, so on the stream compare whole advances
            span = (
                "core.streaming.advance" if self.name == "stream-pim-storm"
                else "core.engine.diagnose"
            )
            traced_s = g * engine_traced["spans"][span]["self_s"]
            out["obs.trace_overhead_share"] = traced_s / out[SPAN_METRICS[span]] - 1.0
        out["simulation.gen_s"] = self.inputs.gen_s
        out["simulation.lines_out"] = self.inputs.lines_out
        if out["collector.ingest_s"]:
            out["collector.lines_per_s"] = out["collector.lines_in"] / out["collector.ingest_s"]
        symptoms = out.get("core.engine.symptoms_in")
        if symptoms:
            out["core.engine.per_symptom_us"] = 1e6 * out["core.engine.diagnose_s"] / symptoms
        if memory is not None:
            out["process.tracemalloc_peak_mb"] = memory["counts"][
                "process.tracemalloc_peak_mb"
            ]
        return out


def measure(run: WorkloadRun, seconds: float, traced: bool, out: str) -> Dict[str, Any]:
    """One run of one workload: rounds, aggregation, correctness check."""
    spec = load_spec()
    name = run.name
    document: Dict[str, Any] = {
        "workload": name, "seed": run.seed, "traced": traced, "sizes": run.inputs.sizes,
    }
    if not traced:
        results = run.rounds_for(seconds)
        per_round = run.e2e(results)
        document["e2e"] = {
            m["name"]: {
                "value": statistics.median(per_round[m["name"]]),
                "unit": m["unit"],
                "rounds": per_round[m["name"]],
            }
            for m in spec["end_to_end"]
        }
        document["speed_factor"] = statistics.median(speed_factor(r) for r in results)
        document["latency"] = describe(results[-1]["latencies_s"])
    else:
        os.makedirs(out, exist_ok=True)
        trace_path = os.path.join(out, f"trace-{name}.json")
        # half the time on spans-only rounds; the engine-traced and the
        # tracemalloc round that follow are each several times slower
        results = run.rounds_for(
            seconds / 2, spans=True, probes=True, trace_path=trace_path
        )
        engine_traced = memory = None
        if name != "serve-http":
            engine_traced = run.round(spans=True, engine_trace=True)
            memory = run.round(tracemalloc=True)
        named = {m["name"]: m for m in spec["per_layer"]}
        values = run.layers(
            results, engine_traced, memory, {k: m["unit"] for k, m in named.items()}
        )
        # per-source rows exist only for the sources BENCHMARK.json names
        # (those carrying >= 5 k lines on some workload)
        unnamed = sorted(
            key for key in set(values) - set(named)
            if not key.startswith("collector.sources.")
        )
        if unnamed:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unnamed}")
        document["layers"] = {
            key: {"value": values.get(key, 0), "unit": m["unit"]}
            for key, m in named.items()
        }
        document["trace_file"] = os.path.relpath(trace_path, os.getcwd())
        results += [r for r in (engine_traced, memory) if r is not None]
    document["rounds"] = len(results)
    document.update(run.check(results, load_pins()))
    return document


# ---------------------------------------------------------------------------
# output


def print_run(document: Dict[str, Any]) -> None:
    print(f"== {document['workload']}  seed {document['seed']}  "
          f"rounds {document['rounds']}  "
          f"{'traced' if document['traced'] else 'untraced'}")
    for key, m in document.get("e2e", {}).items():
        per_round = m["rounds"]
        print(f"{key:<44} {m['value']:>14.4f} {m['unit']:<6} (median of "
              f"{len(per_round)} rounds; min {min(per_round):.4f}, "
              f"max {max(per_round):.4f})")
    if "latency" in document:
        print(f"{'speed factor (median of rounds)':<44} {document['speed_factor']:>14.4f}"
              f"        (times are measured seconds x this; bench/calibrate.py)")
        print(f"{'raw latency distribution (last round)':<44} {document['latency']}")
    if "layers" in document:
        print("   (core.engine.stage.*, the funnel counts and join_selectivity come")
        print("    from an engine-traced round; traced diagnoses take the engine's")
        print("    per-survivor spatial branch, so these bound the production path")
        print("    from above rather than equal it)")
        for key, m in document["layers"].items():
            print(f"{key:<44} {m['value']:>14.4f} {m['unit']}")
        print(f"{'trace file':<44} {document['trace_file']}")
    print(f"{'accuracy':<44} {document['accuracy']:>14.4f} share")
    print(f"{'failed / attempted':<44} {document['failed']} / {document['attempted']}")
    print(f"{'digest':<44} {document['digest']}")
    for note in document["notes"]:
        print(f"INCORRECT: {note}")


def result_line(document: Dict[str, Any]) -> str:
    """The driver's contract: the last stdout line of a single run."""
    source = document["layers"] if document["traced"] else document["e2e"]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                key: {"value": m["value"], "unit": m["unit"]}
                for key, m in source.items()
            },
        }
    )


def environment(seed: int, smoke: bool) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "python": host_platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown",
        "seed": seed,
        "sizes": "smoke" if smoke else "default",
    }


def run_set(args: argparse.Namespace) -> int:
    """Every workload, ``--repeats`` runs each (then one traced run with
    ``--traced``), into one ``grca-bench/1`` document under ``--out``."""
    spec = load_spec()
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "env": environment(args.seed, args.smoke),
        "workloads": {},
    }
    for name in WORKLOADS:
        run = WorkloadRun(name, args.seed, args.smoke)
        runs = [measure(run, args.seconds, False, args.out) for _ in range(args.repeats)]
        for one in runs:
            print_run(one)
        entry: Dict[str, Any] = {
            key: runs[0][key] for key in ("seed", "sizes", "accuracy", "digest")
        }
        entry["correct"] = all(one["correct"] for one in runs)
        entry["attempted"] = sum(one["attempted"] for one in runs)
        entry["failed"] = sum(one["failed"] for one in runs)
        entry["notes"] = [note for one in runs for note in one["notes"]]
        if len({one["digest"] for one in runs}) != 1:
            entry["correct"] = False
            entry["notes"].append("digest differs between runs")
        entry["e2e"] = {}
        for metric in spec["end_to_end"]:
            samples = [one["e2e"][metric["name"]]["value"] for one in runs]
            entry["e2e"][metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "median": statistics.median(samples),
                "min": min(samples),
                "max": max(samples),
                "n": len(samples),
                "samples": samples,
            }
        if args.traced:
            traced = measure(run, args.seconds, True, args.out)
            print_run(traced)
            entry["layers"] = traced["layers"]
            entry["counts"] = {
                key: m["value"] for key, m in traced["layers"].items()
                if m["unit"] in ("count", "bytes")
            }
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["notes"] += traced["notes"]
        document["workloads"][name] = entry
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"run-seed{args.seed}-{int(time.time())}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one run of this workload (the driver's mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one run keeps starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spans on, report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="run-set: add one traced run per workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="run-set: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="self-test sizes")
    parser.add_argument("--out", default=DEFAULT_OUT, help="artifact directory")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        return run_set(args)
    run = WorkloadRun(args.workload, args.seed, args.smoke)
    document = measure(run, args.seconds, bool(args.trace), args.out)
    print_run(document)
    print(result_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
