"""Machine-speed calibration: what makes the timings comparable.

The boxes this benchmark runs on are shared: the same code runs 30-40 %
slower for spells of a few seconds (a busy sibling hyperthread) and
10-20 % slower for minutes at a time.  Raw wall or CPU seconds of a
one-second pass therefore spread by 15-30 % between runs, which would
hide anything a change to the program does.

So every timed section is interleaved with *calibration slices*: a
fixed pure-Python kernel of about a millisecond, run whenever 20 ms of
work have passed since the last one.  Slice time is taken out of the
section, and the section is scaled by ``NOMINAL_SLICE_S / mean slice
time`` — the section's length had the machine run at the reference
speed throughout.  On the box the baseline was taken on this cut the
run-to-run spread of a pass from ~17 % to ~6 % per round (~2 % for the
median of a run's rounds).  ROADMAP aim 1 asks for exactly this: gates
on same-process ratios, which are hardware stable, absolutes as trend.
"""

from __future__ import annotations

import time

#: iterations of the kernel in one slice
SLICE_ITERATIONS = 20000
#: one slice on the reference box running undisturbed (seconds)
NOMINAL_SLICE_S = 0.0013
#: work seconds between two slices
SLICE_EVERY_S = 0.020


def _kernel() -> int:
    x = 0
    for i in range(SLICE_ITERATIONS):
        x += i * i % 7
    return x


class Speed:
    """The calibration slices of one timed section (one thread's)."""

    def __init__(self) -> None:
        self.slices = 0
        #: wall seconds the slices took out of the section
        self.total_s = 0.0
        #: this thread's CPU seconds inside slices — the speed estimate,
        #: blind to waits for the GIL or a core in a threaded process
        self.cpu_s = 0.0
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        """Run one slice now."""
        began, cpu_began = time.perf_counter(), time.thread_time()
        _kernel()
        self.cpu_s += time.thread_time() - cpu_began
        self._last = time.perf_counter()
        self.total_s += self._last - began
        self.slices += 1

    def tick(self) -> None:
        """Run a slice if enough work has passed since the last one.

        Call between units of work, never inside a span.
        """
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.sample()

    def report(self) -> dict:
        return {"slices": self.slices, "total_s": self.total_s, "cpu_s": self.cpu_s}


def factor(reports) -> float:
    """Scale for measured seconds: reference speed over measured speed."""
    slices = sum(r["slices"] for r in reports)
    return NOMINAL_SLICE_S * slices / sum(r["cpu_s"] for r in reports)
