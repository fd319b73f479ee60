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
