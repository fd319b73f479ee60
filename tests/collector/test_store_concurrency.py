"""Regression tests for the DataStore's query-while-ingest contract.

The thread-safety contract (see ``repro/collector/store.py``): inserts
are atomic, queries and scans return consistent snapshots, ``revision``
is monotonic, and every batch enters the change log once — every row
exactly once, with contiguous revisions — after the whole batch is
visible to readers, who never see part of one.  Nothing runs on the
ingesting thread but the collector.
"""

import sys
import threading

import pytest

from repro.collector import store as store_module
from repro.collector.backends import memory_backend
from repro.collector.store import DataStore, Record

N_RECORDS = 400
N_READERS = 3


class TestWriterRacingReaders:
    def test_queries_never_break_while_writer_inserts(self):
        store = DataStore()
        errors = []
        done = threading.Event()

        def write():
            try:
                for i in range(N_RECORDS):
                    store.insert("syslog", float(i), router=f"r{i % 7}", seq=i)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                last_count = 0
                while not done.is_set():
                    records = store.table("syslog").query(0.0, float(N_RECORDS))
                    # every observed record must be fully formed
                    for record in records:
                        assert record["router"].startswith("r")
                    count = sum(1 for _ in store.table("syslog").scan())
                    assert count >= last_count  # writer only appends
                    last_count = count
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(N_READERS)]
        for thread in readers:
            thread.start()
        writer.start()
        writer.join(timeout=60.0)
        for thread in readers:
            thread.join(timeout=60.0)
        assert not errors
        assert len(store.table("syslog")) == N_RECORDS
        assert store.revision == N_RECORDS

    def test_scan_snapshot_is_stable_under_later_inserts(self):
        store = DataStore()
        for i in range(10):
            store.insert("snmp", float(i), value=i)
        snapshot = store.table("snmp").scan()
        for i in range(10, 20):
            store.insert("snmp", float(i), value=i)
        seen = list(snapshot)
        assert len(seen) == 10  # the snapshot predates the new rows
        assert len(store.table("snmp")) == 20

    def test_out_of_order_insert_keeps_query_order(self):
        store = DataStore()
        store.insert("syslog", 100.0, router="a")
        store.insert("syslog", 50.0, router="b")  # late record
        store.insert("syslog", 75.0, router="c")
        timestamps = [r.timestamp for r in store.table("syslog").scan()]
        assert timestamps == [50.0, 75.0, 100.0]
        assert [r.timestamp for r in store.table("syslog").query(60.0, 80.0)] == [75.0]


def _batch(base, size=25):
    return [Record.make(float(base + i), seq=i) for i in range(size)]


class TestChangeLog:
    def test_each_row_is_logged_once_gap_free(self):
        store = DataStore()
        heads = []  # what concurrent readers of the log were told

        def write(base):
            table = store.table("syslog")
            table.insert_many(_batch(base * 1000))
            table.insert_many(_batch(base * 1000 + 500))
            for i in range(10):  # one-row calls are batches of one
                store.insert("syslog", float(base * 1000 + 900 + i), seq=i)
                heads.append(store.changes_since(0))

        threads = [threading.Thread(target=write, args=(base,)) for base in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        log = list(store._log)
        assert len(log) == 4 * 12  # one entry per batch, not per row
        revisions = [
            first + offset
            for first, _, timestamps in log
            for offset in range(len(timestamps))
        ]
        assert revisions == list(range(1, 241))  # each row once, no gaps
        assert store.revision == 240
        head, landed = store.changes_since(0)
        assert head == 240 and list(landed) == ["syslog"]
        assert landed["syslog"] == [r.timestamp for r in store.table("syslog").scan()]
        # a racing reader is told a whole number of batches, as many
        # rows as the head it is handed says
        assert all(len(rows["syslog"]) == head for head, rows in heads)

    def test_row_visible_before_it_is_logged(self):
        store = DataStore()
        stop = threading.Event()
        short = []

        def read():
            # whatever the log reports must already be readable
            while not stop.is_set():
                head, _ = store.changes_since(0)
                if len(store.table("syslog")) < head:
                    short.append(head)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for base in range(200):
                store.table("syslog").insert_many(_batch(base * 100, size=8))
        finally:
            stop.set()
            reader.join(timeout=60.0)
        assert not reader.is_alive()
        assert short == [] and store.revision == 1600

    def test_empty_batch_is_silent(self):
        store = DataStore()
        store.table("syslog").insert_many([])
        assert store.revision == 0 and not store._log
        assert store.changes_since(0) == (0, {})

    def test_log_is_bounded_and_keeps_the_newest_batch_whole(self, monkeypatch):
        monkeypatch.setattr(store_module, "CHANGE_LOG_ROWS", 60)
        store = DataStore()
        for base in range(4):  # 100 rows in batches of 25: two are kept
            store.table("syslog").insert_many(_batch(base * 100))
        assert [first for first, _, _ in store._log] == [51, 76]
        assert store.changes_since(49) == (100, None)  # revision 50 is gone
        head, landed = store.changes_since(50)
        assert head == 100 and len(landed["syslog"]) == 50
        # mid-batch: the rows after it, not the whole batch
        assert store.changes_since(97) == (100, {"syslog": [322.0, 323.0, 324.0]})
        store.table("syslog").insert_many(_batch(9000, size=500))
        assert [(first, len(ts)) for first, _, ts in store._log] == [(101, 500)]
        assert store.changes_since(100)[1] == {
            "syslog": [float(9000 + i) for i in range(500)]
        }
        assert store.changes_since(99) == (600, None)


class TestBatchAtomicity:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_reader_never_observes_part_of_a_batch(self, backend):
        """Writers insert whole batches (in order, and late ones that go
        through the tail); a racing reader must only ever count a whole
        number of batches."""
        store = DataStore(backend=backend)
        table = store.table("syslog")
        size, batches = 40, 30
        errors = []
        done = threading.Event()

        def write(late):
            try:
                for k in range(batches):
                    base = (batches - k if late else batches + k) * 1000
                    table.insert_many(_batch(base, size))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        def read():
            try:
                while not done.is_set():
                    for count in (
                        len(table.query(None, None)),
                        len(table.query_columns(None, None)),
                        sum(1 for _ in table.scan()),
                        len(table),
                    ):
                        assert count % size == 0, count
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(late,)) for late in (0, 1)]
            readers = [threading.Thread(target=read) for _ in range(N_READERS)]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert not errors
        assert len(table) == 2 * batches * size
        assert store.revision == 2 * batches * size


class TestSliceReadOutsideTheLock:
    def test_a_slice_is_one_window_while_writers_add_rows_fields_and_merges(self):
        """A ``ColumnarSlice`` is captured under the table lock and read
        outside it.  While writers append batches that each bring a field
        nobody has seen (a new column, back-filled) and late batches that
        force tail merges (every column replaced), whatever a reader pulls
        out of one slice — timestamps, columns, rows — is one consistent
        window."""
        store = DataStore(backend=memory_backend(tail_limit=64))
        table = store.table("syslog")
        size, batches = 20, 40
        errors = []
        done = threading.Event()

        def write(late):
            try:
                for k in range(batches):
                    base = (batches - k if late else batches + k) * 1000
                    extra = {f"f{late}_{k}": k}
                    table.insert_many(
                        [Record.make(float(base + i), seq=base + i, **extra) for i in range(size)]
                    )
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        def read():
            try:
                while not done.is_set():
                    for window in (table.query_columns(None, None),
                                   table.query_columns(None, None, seq=batches * 1000)):
                        stamps = list(window.timestamps)
                        seqs = list(window.column("seq"))
                        rows = window.records
                        assert len(stamps) == len(seqs) == len(rows) == len(window)
                        assert stamps == sorted(stamps)
                        assert seqs == [float(stamp) for stamp in stamps]
                        for stamp, row in zip(stamps, rows):
                            # seq plus the one field its batch brought
                            assert row.timestamp == stamp == row["seq"]
                            assert len(row.fields) == 2, row
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(late,)) for late in (0, 1)]
            readers = [threading.Thread(target=read) for _ in range(N_READERS)]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert not errors, errors[:1]
        assert len(table) == 2 * batches * size
        assert table.stats()["merges"] > 0
