"""Self-test of the benchmark harness at ``--smoke`` sizes.

Run explicitly (it is not part of the tier-1 ``testpaths``)::

    python -m pytest bench/tests -q
"""

import json
import os
import re
import socket
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import compare, rounds  # noqa: E402
from bench.inputs import WORKLOADS  # noqa: E402
from bench.run import SPAN_METRICS, WorkloadRun  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def smoke_run(workload, trace, out, seed=1):
    """One driver-style run at smoke sizes; (human lines, result object)."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace), "--smoke", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def digest_of(lines):
    return next(line.split()[-1] for line in lines if line.startswith("digest"))


def test_spec_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_exactly_the_end_to_end_metrics(workload, tmp_path):
    _lines, result = smoke_run(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # the contract: an end-to-end metric is never 0
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_digest_and_nest_spans(workload, tmp_path):
    first_lines, first = smoke_run(workload, 1, tmp_path)
    second_lines, second = smoke_run(workload, 1, tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # work counts and digests repeat bit for bit for one seed
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}
        for r in (first, second)
    ]
    if workload == "serve-http":
        # how concurrent jobs fold into incidents depends on completion order
        for c in counts:
            del c["incident.aggregate.incidents_out"]
            del c["incident.report.bytes_out"]
            del c["service.http.bytes_in"]
    assert counts[0] == counts[1]
    assert digest_of(first_lines) == digest_of(second_lines)
    # a child span never outlasts its parent
    with open(tmp_path / f"trace-{workload}.json") as handle:
        trace = json.load(handle)
    assert trace["workload"] == workload and trace["spans"]
    for name, start, end, parent in trace["spans"]:
        assert end >= start
        if parent >= 0:
            _pname, pstart, pend, _pp = trace["spans"][parent]
            assert pstart <= start and end <= pend, (name, _pname)


@pytest.mark.parametrize("workload", ["batch-bgp-month", "stream-pim-storm"])
def test_layer_self_times_account_for_the_pipeline(workload, tmp_path):
    _lines, result = smoke_run(workload, 1, tmp_path)
    value = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(value[metric] for metric in set(SPAN_METRICS.values()))
    if workload != "stream-pim-storm":  # there deliver_s *is* the ingest
        layers += value["collector.ingest_s"]
    unattributed = value["pipeline.unattributed_s"]
    # 5 % at default sizes; a 0.15 s smoke pass gets twice that, because
    # one garbage collection between two spans is already a few percent
    assert -1e-3 <= unattributed <= 0.10 * layers


def test_serve_child_is_torn_down_when_the_round_fails():
    run = WorkloadRun("serve-http", 1, smoke=True)
    with pytest.raises(RuntimeError, match="load generator blew up"):
        with rounds.Program("{}\n" + run.payload, 0) as program:
            port = program.expect("listening")["port"]
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
            raise RuntimeError("load generator blew up")
    assert program.proc.poll() is not None  # stopped and waited for
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1)


def _entry(samples, better="lower", bound=0.10):
    ordered = sorted(samples)
    return {
        "unit": "s", "better": better, "bound": bound, "n": len(samples),
        "median": ordered[len(ordered) // 2], "samples": samples,
    }


def test_compare_verdicts():
    base = _entry([1.00, 1.01, 0.99, 1.02, 1.00])
    assert compare.verdict(base, _entry([1.00, 1.02, 0.99, 1.01, 1.00])) == "same"
    assert compare.verdict(base, _entry([1.20, 1.21, 1.19, 1.22, 1.20])) == "worse"
    assert compare.verdict(base, _entry([0.80, 0.81, 0.79, 0.82, 0.80])) == "better"
    noisy = _entry([0.8, 1.3, 1.0, 0.7, 1.4])
    assert compare.verdict(noisy, _entry([0.9, 1.2, 1.1, 0.75, 1.35])) == "unresolved"
    # direction matters: more jobs per second is better
    rate = _entry([100.0, 101.0, 99.0, 100.5, 100.0], better="higher")
    assert compare.verdict(rate, _entry([80.0, 81.0, 79.0, 80.5, 80.0], better="higher")) == "worse"
