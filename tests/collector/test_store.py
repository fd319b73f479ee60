"""Tests for the normalized record store."""

import gc
import weakref

import pytest

from repro.collector.store import (
    DataStore,
    ObservedStore,
    ObservedTable,
    ReadObserver,
    Record,
    Table,
)


class TestRecord:
    def test_make_and_getitem(self):
        record = Record.make(10.0, router="r1", value=5)
        assert record["router"] == "r1"
        assert record.get("missing") is None
        assert record.as_dict() == {"router": "r1", "value": 5}

    def test_records_hashable_and_comparable(self):
        a = Record.make(10.0, router="r1")
        b = Record.make(10.0, router="r1")
        assert a == b
        assert len({a, b}) == 1


class TestTable:
    def test_time_range_query_inclusive(self):
        table = Table("t")
        for t in (10.0, 20.0, 30.0):
            table.insert(Record.make(t, router="r1"))
        assert len(table.query(10.0, 20.0)) == 2
        assert len(table.query(10.5, 19.5)) == 0
        assert len(table.query()) == 3

    def test_equality_filter_without_index(self):
        table = Table("t")
        table.insert(Record.make(10.0, router="r1"))
        table.insert(Record.make(11.0, router="r2"))
        assert [r["router"] for r in table.query(router="r2")] == ["r2"]

    def test_indexed_query_matches_scan(self):
        indexed = Table("t", indexed_columns=("router",))
        plain = Table("t")
        rows = [(float(i), f"r{i % 3}") for i in range(100)]
        for t, router in rows:
            indexed.insert(Record.make(t, router=router))
            plain.insert(Record.make(t, router=router))
        assert indexed.query(10.0, 60.0, router="r1") == plain.query(
            10.0, 60.0, router="r1"
        )

    def test_out_of_order_insert_keeps_sorted(self):
        table = Table("t", indexed_columns=("router",))
        table.insert(Record.make(20.0, router="r1"))
        table.insert(Record.make(10.0, router="r1"))
        table.insert(Record.make(15.0, router="r2"))
        timestamps = [r.timestamp for r in table.scan()]
        assert timestamps == [10.0, 15.0, 20.0]
        # index rebuilt correctly after out-of-order insert
        assert [r.timestamp for r in table.query(router="r1")] == [10.0, 20.0]

    def test_multi_column_filter(self):
        table = Table("t", indexed_columns=("router",))
        table.insert(Record.make(10.0, router="r1", metric="cpu", value=10))
        table.insert(Record.make(10.0, router="r1", metric="mem", value=20))
        result = table.query(router="r1", metric="cpu")
        assert len(result) == 1
        assert result[0]["value"] == 10

    def test_distinct(self):
        table = Table("t", indexed_columns=("router",))
        for router in ("r2", "r1", "r2"):
            table.insert(Record.make(1.0, router=router))
        assert table.distinct("router") == ["r1", "r2"]

    def test_distinct_unindexed_column(self):
        table = Table("t")
        table.insert(Record.make(1.0, router="r1", metric="cpu"))
        table.insert(Record.make(2.0, router="r1"))
        assert table.distinct("metric") == ["cpu"]

    def test_time_span(self):
        table = Table("t")
        assert table.time_span is None
        table.insert(Record.make(5.0, x=1))
        table.insert(Record.make(9.0, x=1))
        assert table.time_span == (5.0, 9.0)


class TestDataStore:
    def test_table_autocreation_with_default_indexes(self):
        store = DataStore()
        store.insert("syslog", 10.0, router="r1", code="X")
        assert "router" in store.table("syslog").indexed_columns

    def test_summary_counts(self):
        store = DataStore()
        store.insert("syslog", 10.0, router="r1")
        store.insert("syslog", 11.0, router="r1")
        store.insert("snmp", 10.0, router="r1", metric="cpu", value=1.0)
        assert store.summary() == {"snmp": 1, "syslog": 2}
        assert store.total_records() == 3

    def test_a_dropped_store_needs_no_cycle_collector(self):
        # tables reference their store weakly: rows are freed when the
        # last reference to the store goes, collector or no collector
        gc.disable()
        try:
            store = DataStore(backend="memory")
            store.insert("t", 1.0, router="r1")
            table = weakref.ref(store.table("t"))
            backend = weakref.ref(store.table("t")._backend)
            del store
            assert table() is None and backend() is None
        finally:
            gc.enable()

    def test_a_table_outliving_its_store_still_inserts(self):
        table = DataStore(backend="memory").table("t")
        table.insert(Record.make(1.0, router="r1"))
        assert len(table) == 1


INF = float("inf")


def view(read):
    """Everything a ``StoreRead`` shows an observer."""
    return (
        read.table, read.kind, read.start, read.end, read.filters,
        read.window, read.column,
    )


class Recording(ReadObserver):
    """Logs what it is shown, and checks its own token comes back."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def begin(self, read):
        self.log.append((self.name, "begin", view(read)))
        return (self.name, len(self.log))

    def end(self, read, token, rows):
        assert token[0] == self.name
        self.log.append((self.name, "end", view(read), rows))


class TestReadSeam:
    def _store(self):
        store = DataStore()
        store.insert("syslog", 10.0, router="r1", code="X")
        store.insert("syslog", 20.0, router="r2", code="Y")
        store.insert("syslog", 30.0, router="r1", code="Y")
        return store

    def test_observers_see_the_same_view_of_each_kind_of_read(self):
        log = []
        table = ObservedStore(self._store(), [Recording("a", log)]).table("syslog")
        assert len(table.query(5.0, 25.0, router="r1", code="X")) == 1
        assert len(table.query_columns(None, 25.0, code="Y")) == 1
        assert len(table.query()) == 3
        assert len(list(table.scan())) == 3
        assert table.distinct("router") == ["r1", "r2"]
        filtered = (
            "syslog", "query", 5.0, 25.0,
            (("code", "X"), ("router", "r1")), (5.0, 25.0), None,
        )
        columns = (
            "syslog", "query", None, 25.0, (("code", "Y"),), (-INF, 25.0), None,
        )
        # a scan is the unbounded query it is a view of
        unfiltered = ("syslog", "query", None, None, (), (-INF, INF), None)
        distinct = ("syslog", "distinct", None, None, (), (-INF, INF), "router")
        assert log == [
            ("a", "begin", filtered), ("a", "end", filtered, 1),
            ("a", "begin", columns), ("a", "end", columns, 1),
            ("a", "begin", unfiltered), ("a", "end", unfiltered, 3),
            ("a", "begin", unfiltered), ("a", "end", unfiltered, 3),
            ("a", "begin", distinct), ("a", "end", distinct, 2),
        ]

    def test_begin_in_order_end_in_reverse_around_one_read(self):
        log = []
        store = self._store()
        reads = []
        backend_query = store.table("syslog")._backend.query_columns

        def query(start, end, equals):
            reads.append(len(log))
            return backend_query(start, end, equals)

        store.table("syslog")._backend.query_columns = query
        observed = ObservedStore(store, [Recording("a", log), Recording("b", log)])
        observed.table("syslog").query(0.0, 15.0)
        assert [(name, event) for name, event, *_ in log] == [
            ("a", "begin"), ("b", "begin"), ("b", "end"), ("a", "end"),
        ]
        assert reads == [2]  # one backend read, after both begins
        assert [entry[3] for entry in log[2:]] == [1, 1]

    def test_rows_is_none_when_the_read_raises(self):
        log = []
        store = self._store()

        def boom(start, end, equals):
            raise RuntimeError("backend exploded mid-read")

        store.table("syslog")._backend.query_columns = boom
        observed = ObservedStore(store, [Recording("a", log), Recording("b", log)])
        with pytest.raises(RuntimeError):
            observed.table("syslog").query(0.0, 15.0, code="X")
        assert [(name, event) for name, event, *_ in log] == [
            ("a", "begin"), ("b", "begin"), ("b", "end"), ("a", "end"),
        ]
        assert [entry[3] for entry in log[2:]] == [None, None]

    def test_any_column_name_passes_through_as_a_filter(self):
        store = DataStore()
        store.insert("t", 1.0, read="x", call="y", args="z")
        table = ObservedTable(store.table("t"), [ReadObserver()])
        assert len(table.query(read="x", call="y", args="z")) == 1
        assert len(table.query_columns(read="x", call="no")) == 0

    def test_an_observer_cannot_alter_the_read(self):
        class Meddling(ReadObserver):
            def begin(self, read):
                # a StoreRead describes the read; it is not what runs
                read.start, read.end = 25.0, 26.0
                assert isinstance(read.filters, tuple)
                assert not hasattr(read, "equals")

        table = ObservedStore(self._store(), [Meddling()]).table("syslog")
        assert [r.timestamp for r in table.query(5.0, 35.0, router="r1")] == [10.0, 30.0]
        assert list(table.query_columns(5.0, 15.0, router="r1").timestamps) == [10.0]
