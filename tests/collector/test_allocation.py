"""Allocation budget of the ingest path: what a stored row leaves behind.

Counted in GC-tracked objects and in traced bytes, which no machine
makes faster or slower: every tracked object is one more thing each
collection walks, every byte one the process holds, for as long as the
row is stored.  Rows at rest are columns, so a row leaves no object of
its own — a float, a slot in each of its columns, an int on its posting
lists.
"""

import pytest

from repro.collector import DataCollector
from repro.collector.sources.misc import render_perfmon_row
from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.collector.store import DataStore

from ..budget import traced_bytes, tracked_objects

ROWS = 5000
#: batch lists, table and parser bookkeeping — independent of ROWS
CONSTANT = 128
#: traced bytes a stored row may hold (346 / 440 when a row was an
#: object plus its field dict; ≈ 95 / 150 as columns)
BYTES_PER_ROW = {"ospfmon": 160, "perfmon": 240}

LINES = {
    "perfmon": [
        render_perfmon_row(
            1262692800.0 + i, f"per{i % 7}", f"per{i % 5 + 7}", "delay_ms", 30.0 + i % 9
        )
        for i in range(ROWS)
    ],
    "ospfmon": [
        render_ospfmon_row(1262692800.0 + i, f"l{i % 40}", 10 + i % 3)
        for i in range(ROWS)
    ],
}


@pytest.mark.parametrize("source", sorted(LINES))
def test_a_stored_row_leaves_no_tracked_object(source):
    collector = DataCollector(store=DataStore(backend="memory"))
    collector.ingest(source, LINES[source][:8])  # tables, parsers, indexes exist
    lines = LINES[source][8:]
    with tracked_objects() as grown:
        collector.ingest(source, lines)
    assert len(collector.store.table(source)) == ROWS
    assert grown.value <= CONSTANT


@pytest.mark.parametrize("source", sorted(LINES))
def test_bytes_a_stored_row_holds(source):
    collector = DataCollector(store=DataStore(backend="memory"))
    collector.ingest(source, LINES[source][:8])
    lines = LINES[source][8:]
    with traced_bytes() as held:
        collector.ingest(source, lines)
    assert len(collector.store.table(source)) == ROWS
    assert held.value / len(lines) <= BYTES_PER_ROW[source]
