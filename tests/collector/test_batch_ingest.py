"""Batch ingest ≡ row-at-a-time ingest.

The write path is batched end to end (``SourceParser.ingest`` →
``Table.insert_many`` → ``StorageBackend.insert_many`` → one change-log
entry per batch).  However a stream is cut into ``ingest`` calls — one
line at a time, sevens, or more lines than one internal flush holds —
everything observable afterwards must be identical: stored rows and
their order, query results, backend counters, parse accounting, dead
letters, feed health and the revision the change log gives each row.
"""

import pytest

from repro.collector import DataCollector, DataStore
from repro.collector.sources import (
    render_cdn_row,
    render_perfmon_row,
    render_snmp_row,
    render_syslog_line,
)
from repro.collector.sources.base import FLUSH_ROWS

T0 = 1262692800.0
CHUNKS = (1, 7, 5000)
ROUTERS = [f"pop{i}-per1" for i in range(6)]
ZONES = ["UTC", "US/Eastern", "US/Pacific"]

GARBAGE = {
    "perfmon": ["nan|a|b|delay_ms|1", "1262692800.0|a|b|delay_ms|inf", "x|y"],
    "snmp": ["2010-13-01 00:00:00|r|link_util||1", "2010-01-05 10:25:00|r|nope||1"],
    "syslog": ["Feb 30 10:00:00 pop0-per1 %LINK-3-UPDOWN: x", "no code here"],
    "cdn": ["1262692800.0|srv|load|nan", "1262692800.0|srv|what|x"],
}


def clean_lines(source, n):
    """``n`` well-formed lines of a source, stamped 7 s apart."""
    lines = []
    for i in range(n):
        t, router = T0 + 7.0 * i, ROUTERS[i % len(ROUTERS)]
        if source == "perfmon":
            peer = ROUTERS[(i * 5 + 1) % len(ROUTERS)].upper()
            lines.append(render_perfmon_row(t, f" {router} ", peer, "delay_ms", 30.0 + i % 9))
        elif source == "snmp":
            interface = "Serial1/0" if i % 3 else ""
            lines.append(render_snmp_row(t, f"{router}.ispnet.example", "link_util", interface, i % 100))
        elif source == "syslog":
            zone = ZONES[ROUTERS.index(router) % len(ZONES)]
            lines.append(
                render_syslog_line(t, router, zone, "LINK-3-UPDOWN",
                                   f"Interface Serial{i % 4}/0, changed state to down")
            )
        else:
            kind, value = ("load", 0.5 + i % 5 / 10) if i % 11 else ("policy_change", f"map-v{i}")
            lines.append(render_cdn_row(t, f"DC-{router}", kind, value))
    return lines


def hostile_stream(rng, source, n):
    """Mostly ordered lines with ~8 % moved far from their place (late
    and early arrivals), ~4 % garbage and a few blank lines mixed in."""
    lines = clean_lines(source, n)
    for _ in range(n * 8 // 100):
        lines.insert(rng.randrange(len(lines)), lines.pop(rng.randrange(len(lines))))
    for _ in range(n * 4 // 100):
        lines.insert(rng.randrange(len(lines)), rng.choice(GARBAGE[source]))
    for _ in range(5):
        lines.insert(rng.randrange(len(lines)), rng.choice(["", "   ", "\n"]))
    return lines


def observable(collector, told):
    """Everything a caller can see after ingest, in comparable form."""
    out = {"revision": collector.store.revision, "told": told}
    for source, table in sorted(collector.store.tables.items()):
        rows = [(r.timestamp, r.fields) for r in table.scan()]
        span = table.time_span
        middle = (span[0] + span[1]) / 2 if span else 0.0
        windows = [(None, None), (middle - 900.0, middle + 900.0), (middle, None)]
        filters = [{}, {"router": ROUTERS[1]}, {"source": ROUTERS[2]}, {"server": "dc-pop3-per1"}]
        reads = []
        for lo, hi in windows:
            for equals in filters:
                queried = table.query(lo, hi, **equals)
                columns = table.query_columns(lo, hi, **equals)
                assert list(columns.records) == queried
                assert list(columns.timestamps) == [r.timestamp for r in queried]
                reads.append([(r.timestamp, r.fields) for r in queried])
        stats = collector.parsers[source].stats
        feed = collector.health.feed(source)
        out[source] = {
            "rows": rows,
            "reads": reads,
            "distinct": {c: table.distinct(c) for c in table.indexed_columns},
            "counters": {k: v for k, v in table.stats().items() if k != "path"},
            "parse": (stats.accepted, stats.rejected, stats.last_error,
                      dict(stats.reason_counts), stats.watermark),
            "health": (feed.state, feed.watermark, feed.window_counts(),
                       feed.staleness, feed.reject_ratio()),
        }
    out["dead"] = [(d.source, d.line, d.reason) for d in collector.dead_letters.entries()]
    return out


def ingest_in_chunks(backend, streams, chunk):
    collector = DataCollector(store=DataStore(backend=backend))
    for router, zone in zip(ROUTERS, ZONES * 2):
        collector.registry.register_device(router, zone)
    clock = T0 + 7.0 * 20_000  # one observation clock for every call
    for source, lines in streams.items():
        for at in range(0, len(lines), chunk):
            piece = lines[at:at + chunk]
            # a big chunk arrives as a generator, as a feed reader's would
            collector.ingest(source, iter(piece) if chunk > 7 else piece, now=clock)
    # (table, timestamp, revision) per row, as the change log holds it
    # (the streams are smaller than the log's bound: nothing was trimmed)
    told = [
        (table, timestamp, revision)
        for first, table, timestamps in collector.store._log
        for revision, timestamp in enumerate(timestamps, first)
    ]
    assert len(told) == collector.store.revision
    return observable(collector, told)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_any_chunking_of_a_hostile_stream_is_indistinguishable(backend, rng):
    sizes = {"perfmon": 6000, "snmp": 1500, "syslog": 1500, "cdn": 800}
    if backend == "sqlite":  # chunk-of-one commits per row: keep it small
        sizes = {source: n // 10 for source, n in sizes.items()}
    streams = {source: hostile_stream(rng, source, n) for source, n in sizes.items()}
    by_rows = ingest_in_chunks(backend, streams, 1)
    assert by_rows["perfmon"]["parse"][1] > 0 and by_rows["dead"]
    assert by_rows["perfmon"]["counters"]["out_of_order"] > 0
    if backend == "memory":
        assert sizes["perfmon"] > FLUSH_ROWS  # one ingest call, two flushes
        assert by_rows["perfmon"]["counters"]["merges"] > 0
    for chunk in CHUNKS[1:]:
        batched = ingest_in_chunks(backend, streams, chunk)
        assert batched.keys() == by_rows.keys()
        for key in by_rows:
            assert batched[key] == by_rows[key], (chunk, key)


def test_rows_become_visible_every_flush_not_at_the_end():
    collector = DataCollector()
    table = collector.store.table("perfmon")
    seen = []

    def endless():
        for i, line in enumerate(clean_lines("perfmon", 2 * FLUSH_ROWS + 10)):
            if i in (FLUSH_ROWS, FLUSH_ROWS + 1, 2 * FLUSH_ROWS):
                seen.append((i, len(table), collector.parsers["perfmon"].stats.accepted))
            yield line

    stats = collector.ingest("perfmon", endless())
    assert seen == [
        (FLUSH_ROWS, FLUSH_ROWS, FLUSH_ROWS),
        (FLUSH_ROWS + 1, FLUSH_ROWS, FLUSH_ROWS),
        (2 * FLUSH_ROWS, 2 * FLUSH_ROWS, 2 * FLUSH_ROWS),
    ]
    assert stats.accepted == len(table) == 2 * FLUSH_ROWS + 10


def test_identifier_fields_are_one_string_per_device():
    collector = DataCollector()
    collector.ingest("perfmon", clean_lines("perfmon", 60))
    collector.ingest("cdn", clean_lines("cdn", 60))
    for source, columns in (("perfmon", ("source", "destination", "metric")), ("cdn", ("server",))):
        for column in columns:
            values = [r[column] for r in collector.store.table(source).scan()]
            assert len({id(v) for v in values}) == len(set(values))
