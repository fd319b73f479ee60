"""Allocation budget of the ingest path: what a stored row leaves behind.

Counted in GC-tracked objects and in traced bytes, which no machine
makes faster or slower: every tracked object is one more thing each
collection walks, every byte one the process holds, for as long as the
row is stored.  Rows at rest are packed columns, so a row leaves no
object of its own: 8 bytes for its stamp, 8 in each numeric column, a
pointer in each other column, 8 on each posting list and 8 more for its
stamp in the change log.

Mutation-checked: list posting lists (an ``int`` object per row on
them) fail ``test_bytes_a_stored_row_holds`` for every source, and so do
list stamps in the run or in the change log.
"""

import pytest

from repro.collector import DataCollector
from repro.collector.sources.misc import render_perfmon_row
from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.collector.sources.snmp import render_snmp_row
from repro.collector.store import DataStore

from ..budget import traced_bytes, tracked_objects

ROWS = 5000
#: batch lists, table and parser bookkeeping — independent of ROWS
CONSTANT = 128
#: traced bytes a stored row may hold: 42.0 / 73.2 / 69.4 packed, plus
#: 6–7 bytes (346 / 440 when a row was an object plus its field dict;
#: 95.7 / 152.4 / 148.3 as lists of boxed values)
BYTES_PER_ROW = {"ospfmon": 48, "perfmon": 80, "snmp": 76}

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
    # CPU rows lack an interface: that column is sparse, a list
    "snmp": [
        render_snmp_row(
            1262692800.0 + 300 * (i // 2), f"per{i % 7}",
            *(("link_util", f"se{i % 4}/0") if i % 2 else ("cpu_util_5min", "")),
            30.0 + i % 9,
        )
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
