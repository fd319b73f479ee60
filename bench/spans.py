"""The benchmark's own span recorder (layers are measured from outside).

One span — name, start, end, parent — around each call into a layer's
public API, kept in memory and written out when the program ends.  A
span's *self time* is its duration minus the part its child spans
cover, so per-layer self times add up to the enclosing ``pipeline``
span.  :data:`OFF` is the recorder of untraced runs: ``span()`` hands
back one shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


class _Off:
    """Recorder of untraced runs: records nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


OFF = _Off()


class _OpenSpan:
    __slots__ = ("recorder", "row")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self.recorder = recorder
        #: [name, start, end, parent index or -1]
        self.row = [name, 0.0, 0.0, -1]

    def __enter__(self) -> None:
        recorder = self.recorder
        stack = recorder._stack
        if stack:
            self.row[3] = stack[-1]
        stack.append(len(recorder.rows))
        recorder.rows.append(self.row)
        self.row[1] = time.perf_counter()

    def __exit__(self, *exc: Any) -> bool:
        self.row[2] = time.perf_counter()
        self.recorder._stack.pop()
        return False


class Recorder:
    """In-memory span log of one traced program run (single-threaded)."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.rows)
        for _name, start, end, parent in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent), child_s in zip(self.rows, covered):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += max(0.0, end - start - child_s)
        return out

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start, end, parent]`` rows."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "schema": "grca-bench-trace/1",
                    "workload": self.workload,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": self.rows,
                },
                handle,
            )
            handle.write("\n")
