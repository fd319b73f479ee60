"""Budgets no machine makes faster or slower: what a code path counts.

A budget test bounds something a runner's speed cannot move — profile
events, objects the garbage collector tracks, bytes a structure holds —
so a failure is a regression in the code path, never a slow runner.
This module only counts; each test keeps its bound and says where the
number came from.

* :func:`profile_events` — ``call`` + ``c_call`` events of
  ``sys.setprofile`` (per thread, with ``threads=True``, for threads
  started inside the block);
* :func:`tracked_objects` — growth of ``gc.get_objects()`` with the
  collector off, so no collection in between untracks anything;
* :func:`traced_bytes` — ``tracemalloc`` bytes still held at the end;
* :func:`loglog_slope` — how one of those counts grows over a scale
  sweep (``tests/scaling/``): 0 for "constant", 1 for "linear".
"""

import gc
import math
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, Set


class Events:
    """Profile events counted inside one :func:`profile_events` block."""

    def __init__(self, watch: Dict[object, str]) -> None:
        #: ``call`` + ``c_call`` events, per thread ident
        self.per_thread: Dict[int, int] = {}
        #: entries into each watched code object, by its name
        self.calls: Dict[str, int] = dict.fromkeys(watch.values(), 0)
        #: every Python code object entered
        self.codes: Set[object] = set()
        self._watch = watch

    @property
    def total(self) -> int:
        return sum(self.per_thread.values())

    def _count(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            self.codes.add(code)
            name = self._watch.get(code)
            if name is not None:
                self.calls[name] += 1
        elif event != "c_call":
            return
        ident = threading.get_ident()
        self.per_thread[ident] = self.per_thread.get(ident, 0) + 1


@contextmanager
def profile_events(watch=None, threads: bool = False) -> Iterator[Events]:
    """Count profile events on this thread, or with ``threads=True`` on
    the threads started inside the block (``threading.setprofile``).
    ``watch`` maps code objects to names whose entries are counted
    apart (``events.calls[name]``)."""
    events = Events(dict(watch or {}))
    install = threading.setprofile if threads else sys.setprofile
    install(events._count)
    try:
        yield events
    finally:
        install(None)


class Growth:
    """What one :func:`tracked_objects` / :func:`traced_bytes` block left."""

    value = 0


@contextmanager
def tracked_objects() -> Iterator[Growth]:
    """Objects the collector tracks that the block left alive.

    The collector is off while counting: a collection in between would
    untrack some containers of atoms and make the count depend on when
    it ran.
    """
    growth = Growth()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        yield growth
        growth.value = len(gc.get_objects()) - before
    finally:
        gc.enable()


@contextmanager
def traced_bytes() -> Iterator[Growth]:
    """Bytes allocated inside the block and still held after a collection."""
    growth = Growth()
    gc.collect()
    tracemalloc.start()
    try:
        yield growth
        gc.collect()
        growth.value = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def loglog_slope(scales, costs) -> float:
    """Least-squares slope of ``log(cost)`` over ``log(scale)``."""
    xs = [math.log(scale) for scale in scales]
    ys = [math.log(cost) for cost in costs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
