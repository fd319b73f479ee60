"""Store ingest + query microbenchmark across storage backends.

The Data Collector "stores them in database tables in real time" across
~600 feeds; the wall the seed store hit was out-of-order ingest — every
late record triggered a wholesale O(n·k) index rebuild.  This benchmark
measures the refactored engines against a faithful copy of that seed
insert path:

* **ingest** — 100k records, ordered and with 0.5% late arrivals, per
  backend (``seed-baseline``, ``memory``, ``sqlite``).  The acceptance
  gate: the tail-buffered :class:`MemoryBackend` ingests the
  out-of-order stream >= 5x faster than the seed path, with zero
  wholesale rebuilds (its ``merges`` counter is amortized, the seed's
  ``rebuilds`` counter is per-late-record).
* **query** — indexed equality vs unindexed filter over the 100k rows
  (500 late rows still pending), per backend: the ``query_columns``
  read alone, so neither arm pays for building the rows it matched.
* **collector ingest** — raw lines through ``DataCollector.ingest`` per
  backend and per source shape (epoch-stamped ``perfmon``, text-stamped
  ``snmp``, device-local ``syslog``), with the parse/normalize share
  measured apart from the batch insert, so the whole write path sits
  next to the raw-insert numbers above.

Results land in ``BENCH_store.json`` (one key per test) so CI can
archive the measurements per run.
"""

import bisect
import json
import time
from pathlib import Path

from repro.collector import DataCollector, DataStore
from repro.collector.backends import MemoryBackend, SqliteBackend, sqlite_backend
from repro.collector.sources import (
    render_perfmon_row,
    render_snmp_row,
    render_syslog_line,
)
from repro.collector.sources.base import FLUSH_ROWS
from repro.collector.rows import ColumnarSlice, Columns, RowBatch
from repro.collector.store import Record

BENCH_FILE = Path("BENCH_store.json")

N_RECORDS = 100_000
N_LINES = 50_000  # per source shape in the collector-ingest probe
LATE_EVERY = 200  # 0.5% of records arrive ~150s late
LATE_BY = 150.0
ROUTERS = 20
SPEEDUP_GATE = 5.0


def _record(key, payload):
    """Merge one test's measurements into the benchmark artifact."""
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data[key] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class SeedBaselineTable:
    """The pre-refactor insert path, kept verbatim as the yardstick.

    In-order inserts append; any out-of-order insert bisects into the
    sorted lists and rebuilds every index posting list from scratch —
    the O(n·k) behavior the tail-buffered MemoryBackend replaces.  It
    speaks the backend contract (``insert_many`` / ``query_columns``)
    around the seed's one-row insert and row query.
    """

    def __init__(self, indexed_columns=("router",)):
        self._records = []
        self._timestamps = []
        self._indexes = {column: {} for column in indexed_columns}
        self.rebuilds = 0

    def insert_many(self, records):
        for record in records:
            self._insert(record)

    def _insert(self, record):
        if self._timestamps and record.timestamp < self._timestamps[-1]:
            position = bisect.bisect_right(self._timestamps, record.timestamp)
            self._records.insert(position, record)
            self._timestamps.insert(position, record.timestamp)
            for column in self._indexes:
                rebuilt = {}
                for pos, rec in enumerate(self._records):
                    value = rec.get(column)
                    if value is not None:
                        rebuilt.setdefault(value, []).append(pos)
                self._indexes[column] = rebuilt
            self.rebuilds += 1
        else:
            position = len(self._records)
            self._records.append(record)
            self._timestamps.append(record.timestamp)
            for column, index in self._indexes.items():
                value = record.get(column)
                if value is not None:
                    index.setdefault(value, []).append(position)

    def query_columns(self, start, end, equals):
        columns = Columns.of(self._query(start, end, equals))
        return ColumnarSlice(columns.ts, columns, range(len(columns.ts)))

    def _query(self, start, end, equals):
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_right(self._timestamps, end)
        indexed = [
            (c, v) for c, v in equals.items() if c in self._indexes
        ]
        if indexed:
            column, value = indexed[0]
            positions = self._indexes[column].get(value, [])
            p_lo = bisect.bisect_left(positions, lo)
            p_hi = bisect.bisect_left(positions, hi)
            candidates = (self._records[p] for p in positions[p_lo:p_hi])
        else:
            candidates = self._records[lo:hi]
        return [
            r for r in candidates
            if all(r.get(c) == v for c, v in equals.items())
        ]


def make_rows(out_of_order):
    rows = []
    for i in range(N_RECORDS):
        t = float(i)
        if out_of_order and i % LATE_EVERY == LATE_EVERY - 1:
            t -= LATE_BY
        rows.append(Record.make(t, router=f"r{i % ROUTERS}", value=i))
    return rows


def fresh_backends(tmp_path):
    return {
        "seed-baseline": SeedBaselineTable(("router",)),
        "memory": MemoryBackend(("router",)),
        "sqlite": SqliteBackend(
            "bench", ("router",), path=str(tmp_path / "bench.sqlite")
        ),
    }


def _ingest_seconds(backend, rows):
    started = time.perf_counter()
    for row in rows:
        backend.insert_many((row,))
    return time.perf_counter() - started


def test_ingest_ordered_vs_out_of_order(tmp_path, console):
    ordered_rows = make_rows(out_of_order=False)
    late_rows = make_rows(out_of_order=True)
    payload = {}
    console.emit(
        f"\n=== store ingest ({N_RECORDS} records, "
        f"{N_RECORDS // LATE_EVERY} late arrivals in the out-of-order run) ==="
    )
    for mode, rows in (("ordered", ordered_rows), ("out_of_order", late_rows)):
        for name, backend in fresh_backends(tmp_path / mode).items():
            seconds = _ingest_seconds(backend, rows)
            entry = {
                "seconds": round(seconds, 4),
                "records_per_second": round(N_RECORDS / seconds),
            }
            if isinstance(backend, SeedBaselineTable):
                entry["rebuilds"] = backend.rebuilds
            else:
                entry.update(
                    {
                        k: v
                        for k, v in backend.stats().items()
                        if k in ("out_of_order", "tail", "max_tail", "merges")
                    }
                )
                backend.close()
            payload.setdefault(mode, {})[name] = entry
            console.emit(
                f"{mode:<13} {name:<14} {seconds:>8.3f} s "
                f"({entry['records_per_second']:>9,} rec/s)"
            )

    seed_late = payload["out_of_order"]["seed-baseline"]["seconds"]
    memory_late = payload["out_of_order"]["memory"]["seconds"]
    speedup = seed_late / memory_late
    payload["out_of_order_speedup_memory_vs_seed"] = round(speedup, 1)
    console.emit(
        f"memory vs seed-baseline out-of-order speedup: {speedup:.1f}x "
        f"(gate: >= {SPEEDUP_GATE}x)"
    )
    _record("ingest", payload)

    # the acceptance gate: amortized tail merging beats per-record
    # wholesale rebuilds by >= 5x at 100k records
    assert speedup >= SPEEDUP_GATE
    # the seed path rebuilt once per late record; the memory backend
    # never rebuilt wholesale (merges are amortized and bounded)
    assert payload["out_of_order"]["seed-baseline"]["rebuilds"] == (
        N_RECORDS // LATE_EVERY
    )
    assert payload["out_of_order"]["memory"]["merges"] <= (
        N_RECORDS // LATE_EVERY
    ) // 10 + 1


def test_query_indexed_vs_unindexed(tmp_path, console):
    rows = make_rows(out_of_order=True)
    repeats = 50
    payload = {}
    console.emit(
        f"\n=== store query over {N_RECORDS} records ({repeats} repeats) ==="
    )
    for name, backend in fresh_backends(tmp_path).items():
        for row in rows:
            backend.insert_many((row,))
        timings = {}
        for label, equals in (
            ("indexed", {"router": "r7"}),
            ("unindexed", {"value": 4321}),
        ):
            started = time.perf_counter()
            for k in range(repeats):
                window = (1000.0 * k % 50_000.0, 1000.0 * k % 50_000.0 + 5000.0)
                backend.query_columns(window[0], window[1], equals)
            elapsed = time.perf_counter() - started
            timings[label] = round(elapsed * 1000.0 / repeats, 3)
        payload[name] = {f"{label}_ms": ms for label, ms in timings.items()}
        console.emit(
            f"{name:<14} indexed {timings['indexed']:>8.3f} ms/query   "
            f"unindexed {timings['unindexed']:>8.3f} ms/query"
        )
        if isinstance(backend, SqliteBackend):
            backend.close()
    _record("query", payload)
    # the hash/SQL index must beat the scan on the selective filter
    assert payload["memory"]["indexed_ms"] <= payload["memory"]["unindexed_ms"]


T0 = 1262692800.0
DEVICES = [(f"pop{i}-per1", ("UTC", "US/Eastern", "US/Pacific")[i % 3]) for i in range(ROUTERS)]

#: source -> line i of its feed, in the shape that source's parser pays for
LINE_SHAPES = {
    # epoch stamp: no timestamp normalization at all
    "perfmon": lambda t, i: render_perfmon_row(
        t, DEVICES[i % ROUTERS][0], DEVICES[(i * 7 + 1) % ROUTERS][0], "delay_ms", 30.0 + i % 10
    ),
    # "YYYY-mm-dd HH:MM:SS" in UTC plus router and interface names
    "snmp": lambda t, i: render_snmp_row(
        t, DEVICES[i % ROUTERS][0] + ".ispnet.example", "link_util", "Serial1/0", i % 100
    ),
    # "Mon dd HH:MM:SS" in the device's own zone plus the message regexes
    "syslog": lambda t, i: render_syslog_line(
        t, *DEVICES[i % ROUTERS], "LINK-3-UPDOWN",
        f"Interface Serial{i % 4}/0, changed state to down",
    ),
}


def _collector(backend):
    collector = DataCollector(store=DataStore(backend=backend))
    for name, zone in DEVICES:
        collector.registry.register_device(name, zone)
    return collector


def test_collector_ingest_lines_per_second(tmp_path, console):
    payload = {}
    console.emit(
        f"\n=== collector ingest ({N_LINES} lines per source shape; "
        "parse+normalize and batch insert also timed apart) ==="
    )
    for source, shape in LINE_SHAPES.items():
        lines = [shape(T0 + 3.0 * i, i) for i in range(N_LINES)]
        entry = {}
        # parse + normalize alone: the parser's pure half, no store
        parser = _collector("memory").parsers[source]
        started = time.perf_counter()
        parsed = [parser.parse(line) for line in lines]
        parse_seconds = time.perf_counter() - started
        entry["parse_normalize_us_per_line"] = round(parse_seconds * 1e6 / N_LINES, 2)
        for name in ("memory", "sqlite"):
            backend = name if name == "memory" else sqlite_backend(str(tmp_path / source))
            # batch insert alone: the same rows, already parsed
            table = DataStore(backend=backend).table(source + "_rows")
            started = time.perf_counter()
            for at in range(0, N_LINES, FLUSH_ROWS):
                stamps, rows = zip(*parsed[at:at + FLUSH_ROWS])
                table.insert_many(
                    RowBatch(parser.columns, list(stamps), list(rows), parser.optional)
                )
            insert_seconds = time.perf_counter() - started
            # the whole write path
            collector = _collector(backend)
            started = time.perf_counter()
            stats = collector.ingest(source, lines)
            seconds = time.perf_counter() - started
            assert (stats.accepted, stats.rejected) == (N_LINES, 0)
            assert len(collector.store.table(source)) == N_LINES
            entry[name] = {
                "seconds": round(seconds, 4),
                "lines_per_second": round(N_LINES / seconds),
                "insert_us_per_line": round(insert_seconds * 1e6 / N_LINES, 2),
            }
            console.emit(
                f"{source:<8} {name:<7} {seconds:>7.3f} s "
                f"({entry[name]['lines_per_second']:>9,} lines/s)   "
                f"parse+normalize {entry['parse_normalize_us_per_line']:>6.2f} us/line   "
                f"insert {entry[name]['insert_us_per_line']:>6.2f} us/line"
            )
        payload[source] = entry
    _record("collector_ingest", payload)
