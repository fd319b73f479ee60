"""Layering: the collector never reaches up into the service layer.

The fault-tolerance kit lives in :mod:`repro.resilience`, below both, so
a store guarded by read breakers and a feed reader with retry and a
breaker must work in a process that never loads ``repro.service``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from repro.collector.backends import breaker_backend
from repro.collector.health import FeedReader, HealthRegistry
from repro.collector.store import DataStore

store = DataStore(backend=breaker_backend("memory"))
store.insert("syslog", 1.0, router="nyc-per1")
assert len(store.table("syslog").query(None, None)) == 1
assert store.backend_name == "memory+breaker"

reader = FeedReader("syslog", lambda: ["line"], registry=HealthRegistry())
assert reader.poll() == ["line"]

loaded = sorted(m for m in sys.modules if m.startswith("repro.service"))
assert not loaded, loaded
assert "repro.resilience" in sys.modules
"""


def test_guarded_store_and_feed_reader_run_without_the_service_layer():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_no_collector_module_imports_the_service_package():
    pattern = re.compile(
        r"^\s*(from\s+(\.\.+service|repro\.service)\b|import\s+repro\.service\b)",
        re.MULTILINE,
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro" / "collector").rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert offenders == []


def test_the_kit_imports_neither_layer():
    text = (SRC / "repro" / "resilience.py").read_text()
    assert not re.search(r"^\s*(from|import)\s+(\.|repro\b)", text, re.MULTILINE)


def test_the_metrics_registry_imports_no_other_repro_module():
    text = (SRC / "repro" / "obs" / "metrics.py").read_text()
    assert not re.search(r"^\s*(from|import)\s+(\.|repro\b)", text, re.MULTILINE)


def test_no_collector_module_imports_the_engine_package():
    pattern = re.compile(
        r"^\s*(from\s+(\.\.+core|repro\.core)\b|import\s+repro\.core\b)",
        re.MULTILINE,
    )
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro" / "collector").rglob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert offenders == []


def test_ingest_runs_no_engine_or_service_frame():
    """The collector calls nobody above it — at run time too: with a
    stream and a serving service live on the store, the ingesting thread
    executes collector code only; what they cache catches up when they
    are next used, on their own threads."""
    from tests.core.test_streaming import make_live_setup

    from repro.core.streaming import StreamingRca
    from repro.service import RcaService

    stream = []

    def capture(lines):
        stream.extend(lines)
        return lines

    _topo, app, replayer, _truths, t0 = make_live_setup(capture)
    streaming = StreamingRca(app.engine, start=t0 - 600.0)
    service = RcaService(app.engine.store, workers=1)
    service.register_app("bgp", app)
    service.start()
    above = (os.sep + os.path.join("repro", "core") + os.sep,
             os.sep + os.path.join("repro", "service") + os.sep)
    frames, offenders = [0], set()

    def watch(frame, event, _arg):
        if event == "call":
            frames[0] += 1
            if any(part in frame.f_code.co_filename for part in above):
                offenders.add((frame.f_code.co_filename, frame.f_code.co_name))

    try:
        replayer.deliver_until(t0 + 4000.0)
        diagnoses = streaming.advance(t0 + 4000.0)
        assert diagnoses and service.submit_diagnosis(
            "bgp", [diagnoses[0].symptom], block=True
        ).outcome(timeout=30.0)
        assert len(service.cache) == 1  # both consumers hold cached state
        rest = {}
        for stamp, source, line in stream:
            if stamp > t0 + 4000.0:
                rest.setdefault(source, []).append(line)
        delivered = sum(map(len, rest.values()))
        assert delivered == replayer.pending
        sys.setprofile(watch)  # this thread only: the one that ingests
        try:
            for source, lines in rest.items():
                replayer.collector.ingest(source, lines, now=t0 + 20000.0)
        finally:
            sys.setprofile(None)
    finally:
        service.shutdown()
        streaming.close()
    assert delivered > 0 and frames[0] > delivered  # the profile did run
    assert offenders == set()
