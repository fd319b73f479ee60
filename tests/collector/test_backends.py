"""Storage backends: oracle equivalence, tail-merge behavior, observers.

The backend contract promises byte-identical results from
:class:`MemoryBackend` and :class:`SqliteBackend` — same records, same
``(timestamp, arrival)`` order — for any insert order, filter set and
open/closed window.  The property tests here hold both engines against
a brute-force reference simultaneously, mirroring PR 3's temporal-join
oracle.
"""

import gc
import os
import pickle
import sqlite3
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.collector import backends
from repro.collector.backends import (
    ListView,
    MemoryBackend,
    SqliteBackend,
    backend_name,
    memory_backend,
    resolve_backend,
    sqlite_backend,
)
from repro.collector.store import (
    DataStore,
    FootprintObserver,
    ObservedStore,
    ObservedTable,
    Record,
    StoreRead,
    Table,
    TraceObserver,
)
from repro.obs import Tracer

from ..oracles.read_path import rows_of


rows_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.sampled_from(["r1", "r2", "r3"]),
        st.sampled_from(["cpu", "mem", "util"]),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=50,
)

window_strategy = st.tuples(
    st.one_of(
        st.none(), st.floats(min_value=-1e5, max_value=1.1e6, allow_nan=False)
    ),
    st.one_of(
        st.none(), st.floats(min_value=-1e5, max_value=1.1e6, allow_nan=False)
    ),
)

filter_strategy = st.tuples(
    st.one_of(st.none(), st.sampled_from(["r1", "r2", "r3", "ghost"])),
    st.one_of(st.none(), st.sampled_from(["cpu", "mem", "util", "ghost"])),
)


def _fill(backend, rows):
    for t, r, m, v in rows:
        backend.insert_many((Record.make(t, router=r, metric=m, value=v),))


def _reference(rows, start, end, router, metric):
    """Brute force: stable-sort by timestamp keeps arrival order inside
    equal timestamps — the canonical (timestamp, arrival) order."""
    matched = [
        (t, i, Record.make(t, router=r, metric=m, value=v))
        for i, (t, r, m, v) in enumerate(rows)
        if (start is None or t >= start)
        and (end is None or t <= end)
        and (router is None or r == router)
        and (metric is None or m == metric)
    ]
    matched.sort(key=lambda entry: (entry[0], entry[1]))
    return [record for _t, _i, record in matched]


def _both_backends(tmp_path=None):
    # SqliteBackend with no path gets its own fresh temporary directory,
    # so every hypothesis example starts from an empty database
    path = None if tmp_path is None else str(tmp_path / "oracle.sqlite")
    return [
        MemoryBackend(("router", "metric")),
        SqliteBackend("t", ("router", "metric"), path=path),
    ]


class TestBackendOracle:
    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, window_strategy, filter_strategy)
    def test_query_matches_reference_on_both_backends(
        self, rows, window, filters
    ):
        start, end = window
        router, metric = filters
        expected = _reference(rows, start, end, router, metric)
        equals = {}
        if router is not None:
            equals["router"] = router
        if metric is not None:
            equals["metric"] = metric
        for backend in _both_backends():
            _fill(backend, rows)
            got = rows_of(backend, start, end, equals)
            assert got == expected, backend.name
            backend.close()

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_scan_and_span_match_reference_on_both_backends(self, rows):
        expected = _reference(rows, None, None, None, None)
        timestamps = [t for t, _r, _m, _v in rows]
        for backend in _both_backends():
            _fill(backend, rows)
            assert rows_of(backend) == expected, backend.name
            assert len(backend) == len(rows)
            if rows:
                assert backend.time_span() == (min(timestamps), max(timestamps))
            else:
                assert backend.time_span() is None
            assert backend.distinct("router") == sorted(
                {r for _t, r, _m, _v in rows}
            )
            backend.close()

    def test_unindexed_filter_and_non_string_values(self, tmp_path):
        # equality on a non-indexed column, and non-string values on an
        # indexed column (stored NULL in SQL, matched in Python)
        for backend in _both_backends(tmp_path):
            backend.insert_many((Record.make(1.0, router=7, metric="cpu", value=1),))
            backend.insert_many((Record.make(2.0, router="7", metric="cpu", value=2),))
            backend.insert_many((Record.make(3.0, router="r1", metric="cpu", value=3),))
            assert [r.get("value") for r in rows_of(backend, None, None, {"router": 7})] == [1]
            assert [r.get("value") for r in rows_of(backend, None, None, {"router": "7"})] == [2]
            assert [r.get("value") for r in rows_of(backend, None, None, {"value": 3})] == [3]
            backend.close()


#: one rule for a ``None`` filter, wherever the row sits and whether or
#: not the column is indexed: it matches the rows lacking the column
NONE_FILTER_PLACEMENTS = {
    "memory-tail": lambda: MemoryBackend(("code",)),
    "memory-merged": lambda: MemoryBackend(("code",), tail_limit=0),
    "memory-non-indexed": lambda: MemoryBackend(()),
    "sqlite": lambda: SqliteBackend("t", ("code",)),
}


@pytest.mark.parametrize("placement", sorted(NONE_FILTER_PLACEMENTS))
def test_none_filter_matches_rows_lacking_the_column(placement):
    backend = NONE_FILTER_PLACEMENTS[placement]()
    backend.insert_many((Record.make(10.0, code="X", k=0),))
    backend.insert_many((Record.make(20.0, k=1),))  # in the sorted run, no code
    backend.insert_many((Record.make(30.0, code="X", k=2),))
    backend.insert_many((Record.make(5.0, k=3),))  # late, no code
    backend.insert_many((Record.make(15.0, code=None, k=4),))  # late, code is None
    if placement == "memory-tail":
        assert backend.stats()["tail"] == 2
    elif placement == "memory-merged":
        assert backend.stats()["tail"] == 0 and backend.stats()["merges"] == 2
    assert [r["k"] for r in rows_of(backend, None, None, {"code": None})] == [3, 4, 1]
    assert [r["k"] for r in rows_of(backend, 12.0, None, {"code": None})] == [4, 1]
    assert [r["k"] for r in rows_of(backend, None, None, {"code": None, "k": 1})] == [1]
    assert [r["k"] for r in rows_of(backend, None, None, {"code": "X"})] == [0, 2]
    backend.close()


#: a value no posting list can key (unhashable) is matched by ``==``
#: over the window, whatever the column's index state and the backend
UNHASHABLE_PLACEMENTS = {
    "memory": lambda: MemoryBackend(("router",)),
    "memory-merged": lambda: MemoryBackend(("router",), tail_limit=0),
    "sqlite": lambda: SqliteBackend("t", ("router",)),
}


@pytest.mark.parametrize("placement", sorted(UNHASHABLE_PLACEMENTS))
def test_an_unhashable_filter_value_is_matched_by_equality(placement):
    backend = UNHASHABLE_PLACEMENTS[placement]()
    table = Table("t", backend=backend)
    table.insert(Record.make(10.0, router="a", x="b", k=0))
    table.insert(Record.make(20.0, router="c", x="b", k=1))
    for filters in ({"router": ["a"]}, {"x": ["b"]}, {"router": ["a"], "x": "b"}):
        assert table.query_columns(**filters).records == [], filters
    if placement != "sqlite":  # a value no list can key builds none
        assert backend._indexes == {}
    assert [r["k"] for r in table.query(router="a", x="b")] == [0]
    # a stored unhashable value: on a declared column it stops that
    # column's posting list for good, and is found by equality
    table.insert(Record.make(30.0, router=["a"], x=["b"], k=2))
    table.insert(Record.make(5.0, router=["a"], k=3))  # late
    assert [r["k"] for r in table.query(router=["a"])] == [3, 2]
    assert [r["k"] for r in table.query(x=["b"])] == [2]
    assert [r["k"] for r in table.query(router="a")] == [0]
    assert [r["k"] for r in table.query(router="c", x="b")] == [1]
    backend.close()


class TestMemoryTailBuffer:
    def test_out_of_order_lands_in_tail_then_merges(self):
        backend = MemoryBackend(("router",), tail_limit=4)
        for t in [10.0, 20.0, 30.0, 40.0, 50.0]:
            backend.insert_many((Record.make(t, router="r1"),))
        for t in [5.0, 15.0, 25.0, 35.0]:
            backend.insert_many((Record.make(t, router="r1"),))
        stats = backend.stats()
        assert stats["out_of_order"] == 4
        assert stats["tail"] == 4
        assert stats["merges"] == 0
        # queries see tail records before any merge happened
        assert [r.timestamp for r in rows_of(backend, 0.0, 16.0, {})] == [
            5.0,
            10.0,
            15.0,
        ]
        # one more late insert crosses the threshold and triggers a merge
        backend.insert_many((Record.make(45.0, router="r1"),))
        stats = backend.stats()
        assert stats["merges"] == 1
        assert stats["tail"] == 0
        assert [r.timestamp for r in rows_of(backend)] == sorted(
            [10.0, 20.0, 30.0, 40.0, 50.0, 5.0, 15.0, 25.0, 35.0, 45.0]
        )
        # indexes are consistent after the merge
        assert len(rows_of(backend, None, None, {"router": "r1"})) == 10

    def test_equal_timestamps_preserve_arrival_order(self):
        backend = MemoryBackend((), tail_limit=100)
        backend.insert_many((Record.make(10.0, seq="a"),))
        backend.insert_many((Record.make(20.0, seq="b"),))
        backend.insert_many((Record.make(10.0, seq="c"),))  # late, ties with "a"
        assert [r.get("seq") for r in rows_of(backend)] == ["a", "c", "b"]

    def test_adaptive_threshold_floor(self):
        backend = MemoryBackend(())
        assert backend._tail_threshold() == 256


class TestBatchWrites:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=rows_strategy,
        cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=12),
    )
    def test_insert_many_equals_one_at_a_time(self, rows, cuts):
        """However the arrivals are cut into batches, both backends end
        up exactly where row-at-a-time inserts leave them — rows, order
        and counters (tail, merges, out-of-order)."""
        records = [Record.make(t, router=r, metric=m, value=v) for t, r, m, v in rows]
        for make in (
            lambda: MemoryBackend(("router",), tail_limit=3),
            lambda: SqliteBackend("t", ("router",)),
        ):
            by_row, batched = make(), make()
            for record in records:
                by_row.insert_many((record,))
            at = 0
            for cut in cuts + [len(records)]:
                batched.insert_many(records[at:at + cut])
                at += cut
            assert rows_of(batched) == rows_of(by_row) == sorted(
                records, key=lambda r: r.timestamp
            )
            assert rows_of(batched, None, None, {"router": "r2"}) == rows_of(
                by_row, None, None, {"router": "r2"}
            )
            drop = ("path",)
            assert {k: v for k, v in batched.stats().items() if k not in drop} == {
                k: v for k, v in by_row.stats().items() if k not in drop
            }
            by_row.close()
            batched.close()

    def test_in_order_batch_extends_the_sorted_run(self):
        backend = MemoryBackend(("router",))
        backend.insert_many([Record.make(float(t), router="r1") for t in range(5)])
        backend.insert_many([Record.make(float(t), router="r2") for t in (4, 4, 9)])
        stats = backend.stats()
        assert (stats["inserts"], stats["out_of_order"], stats["tail"]) == (8, 0, 0)
        assert backend.query_columns(None, None, {}).zero_copy
        assert [r.timestamp for r in rows_of(backend, 4.0, 9.0, {"router": "r2"})] == [
            4.0, 4.0, 9.0,
        ]

    def test_failed_sqlite_batch_leaves_nothing_behind(self, tmp_path):
        backend = SqliteBackend("t", ("router",), path=str(tmp_path / "b.sqlite"))
        backend.insert_many((Record.make(1.0, router="r0"),))
        poisoned = [
            Record.make(2.0, router="r1"),
            Record.make(None, router="r2"),  # ts NOT NULL: fails mid-batch
            Record.make(3.0, router="r3"),
        ]
        with pytest.raises(sqlite3.IntegrityError):
            backend.insert_many(poisoned)
        assert [r["router"] for r in rows_of(backend)] == ["r0"]
        assert backend.stats()["inserts"] == 1
        backend.insert_many([Record.make(4.0, router="r4")])  # still usable
        assert [r["router"] for r in rows_of(backend)] == ["r0", "r4"]
        backend.close()


class TestSqliteBackend:
    def test_persistence_across_instances(self, tmp_path):
        path = str(tmp_path / "persist.sqlite")
        first = SqliteBackend("syslog", ("router",), path=path)
        first.insert_many((Record.make(10.0, router="r1", code="X"),))
        first.insert_many((Record.make(20.0, router="r2", code="Y"),))
        first.close()
        second = SqliteBackend("syslog", ("router",), path=path)
        assert len(second) == 2
        assert [r.get("code") for r in rows_of(second)] == ["X", "Y"]
        second.close()

    def test_records_round_trip_exactly(self, tmp_path):
        backend = SqliteBackend(
            "t", ("router",), path=str(tmp_path / "rt.sqlite")
        )
        original = Record.make(10.0, router="r1", value=1.5, flag=None, n=3)
        backend.insert_many((original,))
        (got,) = rows_of(backend)
        assert got == original
        assert got.get("value") == 1.5
        backend.close()

    def test_a_file_created_under_other_index_columns_answers_the_same(self, tmp_path):
        # the cdn table indexed ``server`` until its readers' filter,
        # ``kind``, took its place: files written before keep working
        path = str(tmp_path / "cdn.sqlite")
        rows = [
            Record.make(1.0, server="s1", kind="load", value=0.9),
            Record.make(2.0, server="s1", kind="policy_change", detail="v2"),
        ]
        old = SqliteBackend("cdn", ("server",), path=path)
        old.insert_many(rows[:1])
        old.close()
        new = SqliteBackend("cdn", ("kind",), path=path)
        new.insert_many(rows[1:])
        # the file's own columns are the ones kept up to date
        assert new.indexed_columns == ()
        assert rows_of(new, None, None, {"kind": "load"}) == rows[:1]
        assert rows_of(new, None, None, {"kind": "policy_change"}) == rows[1:]
        assert rows_of(new, None, None, {"server": "s1"}) == rows
        new.close()
        # and a fresh file mirrors what was declared
        fresh = SqliteBackend("cdn", ("kind",), path=str(tmp_path / "fresh.sqlite"))
        assert fresh.indexed_columns == ("kind",)
        fresh.close()

    def test_stats_identify_backend_and_path(self, tmp_path):
        path = str(tmp_path / "stats.sqlite")
        backend = SqliteBackend("t", (), path=path)
        backend.insert_many((Record.make(10.0, a=1),))
        backend.insert_many((Record.make(5.0, a=2),))
        stats = backend.stats()
        assert stats["backend"] == "sqlite"
        assert stats["records"] == 2
        assert stats["out_of_order"] == 1
        assert stats["path"] == path
        backend.close()


class TestTemporaryDirectories:
    """A SQLite store given no path makes ``grca-store-*`` directories;
    whatever made one removes it — on ``close``, or when collected."""

    def test_closed_and_dropped_stores_leave_nothing_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        rows = [Record.make(float(t), router="r1", value=t) for t in range(5)]
        closed = SqliteBackend("syslog", ("router",))
        closed.insert_many(rows)
        assert len(list(tmp_path.iterdir())) == 1
        closed.close()
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="closed"):  # its rows are gone
            closed.query_columns(None, None, {})
        dropped = SqliteBackend("syslog", ("router",))
        dropped.insert_many(rows)
        stores = [DataStore(backend="sqlite"), DataStore(backend=sqlite_backend())]
        for store in stores:
            for name in ("syslog", "snmp"):
                store.table(name).insert_many(rows)
        stores[0].table("syslog")._backend.close()
        assert len(list(tmp_path.iterdir())) == 4
        assert rows_of(dropped) == rows
        del dropped, stores, store
        gc.collect()
        assert list(tmp_path.iterdir()) == []

    def test_only_the_maker_removes_the_directory(self, tmp_path):
        # what a forked child's copy of the backend does when collected
        made = tmp_path / "grca-store-x"
        made.mkdir()
        backends._remove_directory(str(made), os.getpid() + 1)
        assert made.is_dir()
        backends._remove_directory(str(made), os.getpid())
        assert not made.exists()


class TestBackendSelection:
    def test_resolve_names_and_factories(self):
        assert backend_name("memory") == "memory"
        assert backend_name("sqlite") == "sqlite"
        factory = memory_backend()
        assert resolve_backend(factory) is factory
        with pytest.raises(ValueError):
            resolve_backend("papyrus")

    def test_datastore_backend_is_config_only(self, tmp_path):
        store = DataStore(backend=sqlite_backend(directory=str(tmp_path)))
        store.insert("syslog", 10.0, router="r1", code="X")
        assert store.backend_name == "sqlite"
        assert store.table("syslog").stats()["backend"] == "sqlite"
        assert os.path.exists(os.path.join(str(tmp_path), "syslog.sqlite"))
        # default remains memory
        assert DataStore().backend_name == "memory"

    def test_table_accepts_backend_instance(self):
        backend = MemoryBackend(("router",))
        table = Table("t", ("ignored",), backend=backend)
        table.insert(Record.make(1.0, router="r1"))
        assert table.indexed_columns == ("router",)
        assert len(backend) == 1


class TestColumnarSlices:
    """``query_columns`` — the one read — keeps its columns aligned with
    its records: same rows, same order, timestamps and fields index for
    index, on every backend, whether it serves a zero-copy view or
    materializes rows."""

    @settings(max_examples=60, deadline=None)
    @given(rows_strategy, window_strategy, filter_strategy)
    def test_columns_match_query_on_both_backends(
        self, rows, window, filters
    ):
        start, end = window
        router, metric = filters
        expected = _reference(rows, start, end, router, metric)
        equals = {}
        if router is not None:
            equals["router"] = router
        if metric is not None:
            equals["metric"] = metric
        for backend in _both_backends():
            _fill(backend, rows)
            columns = backend.query_columns(start, end, equals)
            assert list(columns.records) == expected, backend.name
            assert list(columns.timestamps) == [
                record.timestamp for record in expected
            ], backend.name
            for name in ("router", "value", "ghost"):
                assert list(columns.column(name)) == [
                    record.get(name) for record in expected
                ], backend.name
            assert len(columns) == len(expected)
            backend.close()

    def test_memory_unfiltered_slice_is_zero_copy(self):
        backend = MemoryBackend(("router",))
        for t in [10.0, 20.0, 30.0]:
            backend.insert_many((Record.make(t, router="r1"),))
        columns = backend.query_columns(15.0, None, {})
        assert columns.zero_copy
        assert list(columns.timestamps) == [20.0, 30.0]

    def test_memory_tail_and_filters_fall_back_to_rows(self):
        backend = MemoryBackend(("router",), tail_limit=10)
        backend.insert_many((Record.make(20.0, router="r1"),))
        backend.insert_many((Record.make(10.0, router="r2"),))  # lands in tail
        by_tail = backend.query_columns(None, None, {})
        assert not by_tail.zero_copy
        assert list(by_tail.timestamps) == [10.0, 20.0]
        by_filter = backend.query_columns(None, None, {"router": "r1"})
        assert not by_filter.zero_copy
        assert list(by_filter.timestamps) == [20.0]

    def test_sqlite_columns_are_materialized(self, tmp_path):
        backend = SqliteBackend(
            "t", ("router",), path=str(tmp_path / "cols.sqlite")
        )
        backend.insert_many((Record.make(10.0, router="r1"),))
        columns = backend.query_columns(None, None, {})
        assert not columns.zero_copy
        assert list(columns.timestamps) == [10.0]
        backend.close()

    def test_zero_copy_view_is_a_stable_snapshot(self):
        # in-order inserts append past the captured hi bound, and tail
        # merges replace the underlying lists wholesale — either way a
        # previously-taken view keeps serving exactly what it saw
        backend = MemoryBackend((), tail_limit=2)
        for t in [10.0, 20.0, 30.0]:
            backend.insert_many((Record.make(t),))
        columns = backend.query_columns(None, None, {})
        assert columns.zero_copy and len(columns) == 3
        backend.insert_many((Record.make(40.0),))  # in-order append
        backend.insert_many((Record.make(5.0),))  # out of order
        backend.insert_many((Record.make(6.0),))  # out of order
        backend.insert_many((Record.make(7.0),))  # third late → merge
        assert backend.stats()["merges"] == 1
        assert list(columns.timestamps) == [10.0, 20.0, 30.0]

    def test_list_view_sequence_semantics(self):
        view = ListView([0, 1, 2, 3, 4, 5], 1, 5)  # -> [1, 2, 3, 4]
        assert len(view) == 4
        assert list(view) == [1, 2, 3, 4]
        assert view[0] == 1 and view[-1] == 4
        assert list(view[1:3]) == [2, 3]
        with pytest.raises(IndexError):
            view[4]

    def test_table_and_observer_see_columnar_reads(self):
        store = DataStore()
        store.insert("syslog", 10.0, router="r1", code="X")
        store.insert("syslog", 20.0, router="r2", code="Y")
        reads = set()
        tracer = Tracer()
        observed = ObservedStore(
            store, [TraceObserver(tracer), FootprintObserver(reads.add)]
        )
        with tracer.span("retrieve", label="t"):
            columns = observed.table("syslog").query_columns(5.0, 15.0)
        assert list(columns.timestamps) == [10.0]
        # the observer output is indistinguishable from a row query's
        assert reads == {("syslog", 5.0, 15.0)}
        span = tracer.root.children[0]
        assert span.kind == "store-query"
        assert span.meta == {"rows": 1, "window": [5.0, 15.0]}


class TestRecordFieldCache:
    def test_lookup_and_identity_semantics(self):
        record = Record.make(10.0, router="r1", value=3)
        assert record["router"] == "r1"
        assert record.get("missing", "d") == "d"
        with pytest.raises(KeyError):
            record["missing"]
        twin = Record.make(10.0, value=3, router="r1")
        assert record == twin and hash(record) == hash(twin)

    def test_adopted_dict_builds_the_same_record(self):
        built = Record.make(10.0, router="r1", value=3)
        adopted = Record(10.0, {"value": 3, "router": "r1"})
        assert adopted == built and hash(adopted) == hash(built)
        assert adopted.fields == built.fields and adopted["value"] == 3
        assert repr(adopted) == repr(built)
        assert pickle.dumps(adopted) == pickle.dumps(built)

    def test_pickle_round_trip_rebuilds_cache(self):
        record = Record.make(10.0, router="r1", value=3)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone["router"] == "r1"
        assert clone.get("value") == 3
        # the cache never leaks into the pickle payload
        assert b"_by_name" not in pickle.dumps(record)


class TestReadObservers:
    def _store(self):
        store = DataStore()
        store.insert("syslog", 10.0, router="r1", code="X")
        store.insert("syslog", 20.0, router="r2", code="Y")
        return store

    def test_trace_observer_matches_legacy_span_shapes(self):
        store = self._store()
        tracer = Tracer()
        observed = ObservedStore(store, [TraceObserver(tracer)])
        with tracer.span("retrieve", label="t"):
            table = observed.table("syslog")
            table.query(5.0, 15.0, router="r1")
            list(table.scan())
            table.distinct("router")
        query_span, scan_span, distinct_span = tracer.root.children
        assert query_span.kind == "store-query"
        assert query_span.meta == {
            "rows": 1,
            "window": [5.0, 15.0],
            "filters": ["router"],
        }
        assert scan_span.meta == {"rows": 2, "window": [None, None]}
        assert distinct_span.meta == {"rows": 2, "column": "router"}

    def test_footprint_observer_widens_open_bounds(self):
        store = self._store()
        reads = set()
        observed = ObservedStore(store, [FootprintObserver(reads.add)])
        table = observed.table("syslog")
        table.query(5.0, 15.0)
        table.query(None, 15.0)
        list(table.scan())
        table.distinct("router")
        assert reads == {
            ("syslog", 5.0, 15.0),
            ("syslog", float("-inf"), 15.0),
            ("syslog", float("-inf"), float("inf")),
        }

    def test_observers_compose_on_one_read(self):
        store = self._store()
        tracer = Tracer()
        reads = set()
        observed = ObservedStore(
            store, [TraceObserver(tracer), FootprintObserver(reads.add)]
        )
        with tracer.span("retrieve", label="t"):
            rows = observed.table("syslog").query(0.0, 30.0)
        assert len(rows) == 2
        assert reads == {("syslog", 0.0, 30.0)}
        assert tracer.root.children[0].meta["rows"] == 2

    def test_footprint_recorded_even_when_read_raises(self):
        class BoomTable:
            name = "syslog"

            def query_columns(self, start=None, end=None, **equals):
                raise RuntimeError("backend exploded mid-read")

        reads = set()
        observed = ObservedTable(BoomTable(), [FootprintObserver(reads.add)])
        with pytest.raises(RuntimeError):
            observed.query(0.0, 30.0)
        assert reads == {("syslog", 0.0, 30.0)}

    def test_observed_store_is_transparent(self):
        store = self._store()
        observed = ObservedStore(store, [])
        assert observed.revision == store.revision
        assert len(observed.table("syslog")) == 2
        assert observed.table("syslog").name == "syslog"

    def test_store_read_window_property(self):
        assert StoreRead("t", "query", 1.0, 2.0).window == (1.0, 2.0)
        assert StoreRead("t", "query").window == (
            float("-inf"),
            float("inf"),
        )
        assert StoreRead("t", "distinct", 1.0, 2.0).window == (
            float("-inf"),
            float("inf"),
        )


class TestSqliteConcurrentWriters:
    """Regression: the shared sqlite connection needs its own lock.

    Before the backend serialized its connection access, concurrent
    writers interleaved execute/commit pairs on one connection —
    silently losing rows and/or raising ``cannot start a transaction
    within a transaction``.  Direct consumers (the incident store's
    revision log) hit the backend without the Table facade, so the
    backend itself must be safe.
    """

    N_THREADS = 8
    N_EACH = 400

    def test_concurrent_inserts_lose_nothing(self, tmp_path):
        import threading

        backend = SqliteBackend(
            "stress",
            ("router",),
            path=str(tmp_path / "stress.sqlite"),
        )
        errors = []
        started = threading.Barrier(self.N_THREADS)

        def write(index):
            try:
                started.wait(timeout=30)
                for i in range(self.N_EACH):
                    backend.insert_many((
                        Record.make(
                            float(index * self.N_EACH + i),
                            router=f"r{index}",
                            seq=i,
                        ),
                    ))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(index,))
            for index in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        total = self.N_THREADS * self.N_EACH
        assert len(backend) == total
        # every writer's rows are individually complete and queryable
        for index in range(self.N_THREADS):
            rows = rows_of(backend, None, None, {"router": f"r{index}"})
            assert len(rows) == self.N_EACH
        backend.close()

    def test_queries_stay_consistent_during_writes(self, tmp_path):
        import threading

        backend = SqliteBackend(
            "stress2",
            ("router",),
            path=str(tmp_path / "stress2.sqlite"),
        )
        errors = []
        done = threading.Event()

        def write():
            try:
                for i in range(self.N_EACH):
                    backend.insert_many((Record.make(float(i), router="w", seq=i),))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    rows = rows_of(backend, None, None, {"router": "w"})
                    seqs = [r["seq"] for r in rows]
                    # writes are sequential: a snapshot is a prefix
                    assert seqs == sorted(seqs)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(3)]
        writer.start()
        for reader in readers:
            reader.start()
        writer.join()
        for reader in readers:
            reader.join()

        assert errors == []
        assert len(backend) == self.N_EACH
        backend.close()
