"""A windowed read does not grow with what it does not return.

Scale sweeps of one operation, counted rather than timed (see
``tests/budget.py``): the input is built at ×1 / ×2 / ×4 of one size
knob, and what the operation costs is fitted as a log-log slope — 0
for "constant", 1 for "linear".  A failure is a change of complexity,
never a slow runner.

* **Window rows.**  A ``MemoryBackend`` window of ×1 / ×2 / ×4 rows,
  read with ``query_columns`` plus its timestamps and a column, costs
  the same number of profile events (slope ≤ 0.15) and builds no
  ``Record`` — in order, and with one out-of-order row still pending in
  the tail inside the window.  Before late rows stayed columns the
  pending window was built row by row and sorted: one ``Record`` per
  row, slope ≈ 1.
* **Tail size.**  With ×1 / ×2 / ×4 late rows pending and the number
  inside the window fixed, the read touches O(log t + late rows in the
  window) tail stamps — two bisects, then the window's own — counted on
  a list the test puts in place of the tail's timestamps.  Before, every
  read scanned the whole tail.
"""

import math

from repro.collector.backends import MemoryBackend
from repro.collector.rows import Record, RowBatch

from ..budget import loglog_slope, profile_events

SCALES = (1, 2, 4)
WINDOW_ROWS = 2_000
#: a tail this long never merges while the test runs
TAIL_LIMIT = 1_000_000
#: "per-row constant": the log-log slope of a cost over the scale
CONSTANT = 0.15


def in_order(rows):
    """A backend holding ``rows`` in-order rows, stamps ``0 … rows-1``."""
    backend = MemoryBackend(("router",), tail_limit=TAIL_LIMIT)
    stamps = [float(i) for i in range(rows)]
    backend.insert_many(
        RowBatch(("router", "value"), stamps, [(f"r{i % 20}", i) for i in range(rows)])
    )
    return backend


def late(backend, stamp, router="r-late"):
    backend.insert_many((Record.make(stamp, router=router, value=-1),))


def read(backend, start, end):
    """One window read as a retrieval does it: the slice, its stamps
    and one column."""
    window = backend.query_columns(start, end, {})
    return len(window.timestamps), list(window.column("value"))


def events_of(backend, start, end):
    with profile_events({Record.__init__.__code__: "records"}) as events:
        rows, values = read(backend, start, end)
    return events.total, events.calls["records"], rows, values


def window_sweep(pending):
    costs = []
    for scale in SCALES:
        rows = WINDOW_ROWS * scale
        # the window is the middle half of the run
        backend = in_order(2 * rows)
        start, end = rows / 2, rows / 2 + rows - 1
        if pending:
            late(backend, start + 10.5)
        total, records, got, values = events_of(backend, start, end)
        assert records == 0, (scale, records)
        assert got == rows + pending
        if pending:
            assert values[11] == -1 and backend.stats()["tail"] == 1
        costs.append(total)
    return costs


def test_an_in_order_window_costs_the_same_at_any_size():
    costs = window_sweep(pending=0)
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


def test_a_window_with_a_pending_late_row_builds_no_row_at_any_size():
    costs = window_sweep(pending=1)
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


class CountingList(list):
    """A list that counts the items read out of it."""

    touched = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.touched += len(range(*key.indices(len(self))))
        else:
            self.touched += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.touched += len(self)
        return super().__iter__()


IN_WINDOW = 3
TAIL = 300


def test_a_read_touches_log_t_plus_its_own_late_rows_of_the_tail():
    for scale in SCALES:
        tail = TAIL * scale
        backend = in_order(20_000)
        # the tail's other rows fall before the window, spread out
        for k in range(tail - IN_WINDOW):
            late(backend, 1_000.0 + k * (8_000.0 / tail) + 0.5, router=f"r{k % 20}")
        for k in range(IN_WINDOW):
            late(backend, 15_000.5 + k)
        assert backend.stats()["tail"] == tail
        backend._tail.ts = stamps = CountingList(backend._tail.ts)
        got = backend.query_columns(14_000.0, 16_000.0, {})
        assert len(got) == 2_001 + IN_WINDOW
        assert list(got.column("value")).count(-1) == IN_WINDOW
        # two bisects into the tail, then the window's own late rows
        bound = 2 * math.ceil(math.log2(tail + 1)) + IN_WINDOW
        assert stamps.touched <= bound, (tail, stamps.touched, bound)
