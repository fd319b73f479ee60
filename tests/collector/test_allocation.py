"""Allocation budget of the ingest path: what a stored row leaves behind.

Counted in GC-tracked objects and in traced bytes, which no machine
makes faster or slower: every tracked object is one more thing each
collection walks, every byte one the process holds, for as long as the
row is stored.  Rows at rest are packed columns, so a row leaves no
object of its own: 8 bytes for its stamp, 8 in each numeric column, a
pointer in each other column and 8 more for its stamp in the change
log.  A row is on a posting list only once a read has asked for that
list: each built list costs 8 bytes a row more (and a little slack for
the array's growth).

Mutation-checked: list stamps in the run or in the change log fail
``test_bytes_a_stored_row_holds`` for every source, and list posting
lists (an ``int`` object per row on them) fail
``test_a_filtered_read_adds_one_posting_list``.
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
#: traced bytes a stored row may hold: 33.5 / 49.2 / 49.5 with no
#: posting list built, plus ≈ 6 bytes (42.6 / 73.9 / 70.0 with a list
#: per declared column from the first row on; 95.7 / 152.4 / 148.3 as
#: lists of boxed values; 346 / 440 when a row was an object plus its
#: field dict)
BYTES_PER_ROW = {"ospfmon": 40, "perfmon": 55, "snmp": 56}
#: traced bytes the posting list one filtered read builds may hold: 9
#: a row (8 and the array's growth slack), plus 128 per distinct value
#: for its array and its dict entry.  8.3 / 8.3 a row for perfmon and
#: snmp ``metric`` (1 and 2 values), 9.3 for ospfmon ``link`` (40)
BYTES_PER_POSTING = 9
BYTES_PER_VALUE = 128
#: the column each source's filtered read asks for, and a value of it
FILTERED = {
    "ospfmon": ("link", "l0"),
    "perfmon": ("metric", "delay_ms"),
    "snmp": ("metric", "link_util"),
}

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


@pytest.mark.parametrize("source", sorted(LINES))
def test_a_filtered_read_adds_one_posting_list(source):
    collector = DataCollector(store=DataStore(backend="memory"))
    collector.ingest(source, LINES[source])
    table = collector.store.table(source)
    column, value = FILTERED[source]
    assert column in table.indexed_columns
    with traced_bytes() as unfiltered:
        table.query_columns()
    with traced_bytes() as filtered:
        assert table.query_columns(**{column: value})
    assert unfiltered.value <= CONSTANT, unfiltered.value
    values = len(table.distinct(column))
    assert filtered.value <= BYTES_PER_POSTING * ROWS + BYTES_PER_VALUE * values, (
        filtered.value / ROWS
    )
