"""The read path equals its obviously-correct spellings.

``MemoryBackend.query_columns`` answers from the smallest posting list
and checks only the filters that list does not already guarantee; the
flap retrievals read their widened window once and split it by state.
Both must return exactly what ``tests/oracles/read_path.py`` returns —
the window query that checks every filter on every row (and
``SqliteBackend.query_columns``, which re-filters every decoded row),
and the flap retrieval that reads once per state.  A posting list is
built by the first read that filters on its column, so a table must
answer the same whenever its lists were built: before the first row,
at that read, or between inserts — as a table that never indexes.

Mutation-checked: ``_post`` no longer extending a built list, a build
that skips the run's first row, and ``_merge`` keeping its lists
without rebuilding them each fail
``test_query_columns_and_distinct_equal_a_table_that_never_indexes``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cdn import _retrieve_policy_change, _retrieve_server_issue
from repro.collector.backends import MemoryBackend, SqliteBackend, memory_backend
from repro.collector.sources import syslog as syslog_codes
from repro.collector.store import (
    DataStore,
    FootprintObserver,
    ObservedStore,
    Record,
)
from repro.core.events import RetrievalContext
from repro.core.knowledge import names
from repro.core.knowledge.events import build_common_events

from .read_path import (
    filter_every_row,
    rows_of,
    scan_cdn_rows,
    two_read_flap_retrieval,
)

INDEXED = ("router", "code")

# a column is absent from a row when its value is drawn as ABSENT; an
# explicit None value is stored (and reads like an absent column)
ABSENT = object()


def _value(*values):
    return st.sampled_from([*values, None, ABSENT])


rows = st.lists(
    st.tuples(
        st.integers(0, 12).map(float),  # few distinct stamps: duplicates
        _value("r1", "r2"),  # router: indexed
        _value("X", "Y", 7),  # code: indexed, one non-string value
        _value("up", "down"),  # state: not indexed
        _value(0, 1),  # n: not indexed, numeric
    ),
    max_size=40,
)

bound = st.one_of(st.none(), st.integers(-1, 13).map(float))

filters = st.fixed_dictionaries(
    {},
    optional={
        "router": st.sampled_from(["r1", "r2", "ghost", None]),
        "code": st.sampled_from(["X", "Y", 7, 7.0, "ghost", None]),
        "state": st.sampled_from(["up", "down", "ghost", None]),
        "n": st.sampled_from([0, 1, 2, None]),
    },
)


def _records(drawn):
    columns = ("router", "code", "state", "n")
    return [
        Record(
            stamp,
            {c: v for c, v in zip(columns, values) if v is not ABSENT},
        )
        for stamp, *values in drawn
    ]


class TestQueryEqualsTheNaiveFilter:
    @settings(max_examples=150, deadline=None)
    @given(rows, bound, bound, filters, st.sampled_from([None, 0, 3]))
    def test_memory_and_sqlite_equal_filter_every_row(
        self, drawn, start, end, equals, tail_limit
    ):
        records = _records(drawn)
        expected = filter_every_row(records, start, end, equals)
        # tail_limit None leaves every late row pending (the tail merges
        # past 256 rows), 0 merges on each late row, 3 now and then
        memory = MemoryBackend(INDEXED, tail_limit=tail_limit)
        sqlite = SqliteBackend("t", INDEXED)
        try:
            for backend in (memory, sqlite):
                backend.insert_many(records[: len(records) // 2])
                for record in records[len(records) // 2:]:
                    backend.insert_many((record,))
                assert rows_of(backend, start, end, dict(equals)) == expected, backend.name
                assert rows_of(backend) == filter_every_row(records, None, None, {})
        finally:
            sqlite.close()

    def test_a_pending_tail_row_sorts_by_arrival_among_equal_stamps(self):
        backend = MemoryBackend(INDEXED)
        records = [
            Record.make(5.0, router="r1", k=0),
            Record.make(9.0, router="r1", k=1),
            Record.make(5.0, router="r1", k=2),  # late: waits in the tail
        ]
        for record in records:
            backend.insert_many((record,))
        assert backend.stats()["tail"] == 1
        assert [r["k"] for r in rows_of(backend, None, None, {"router": "r1"})] == [0, 2, 1]

    def test_a_value_unequal_to_itself_matches_no_row(self):
        nan = float("nan")
        backend = MemoryBackend(("code",))
        backend.insert_many((Record.make(1.0, code=nan),))
        assert rows_of(backend, None, None, {"code": nan}) == []
        assert filter_every_row(rows_of(backend), None, None, {"code": nan}) == []


# ---------------------------------------------------------------------------
# building a posting list changes no answer

NAN = float("nan")
#: ``mixed`` holds every kind of value a column may (1 == 1.0 == True),
#: ``i`` / ``f`` stay packed int / float arrays, ``u`` is never declared
DECLARED = ("mixed", "i", "f")
BUILD_POINTS = ("before the first row", "at the first filtered read", "mid-stream")

index_rows = st.tuples(
    st.integers(0, 12).map(float),
    st.sampled_from(["a", "b", 0, 1, 1.0, 2.5, True, False, None, NAN, ABSENT]),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.sampled_from(["a", 1, None, ABSENT]),
)

#: batch ``n``'s stamps are 3n .. 3n + 12
window = st.one_of(st.none(), st.integers(-1, 34).map(float))

index_filters = st.fixed_dictionaries(
    {},
    optional={
        "mixed": st.sampled_from(["a", "ghost", 0, 1, 1.0, True, 2.5, None, NAN]),
        "i": st.sampled_from([0, 1, 1.0, True, 3, None]),
        "f": st.sampled_from([0.5, 1, 2.5, None]),
        "u": st.sampled_from(["a", 1, None]),
    },
)


def _canonical(values):
    """Values compared type for type, NaN equal to NaN."""
    return [(type(value), repr(value)) for value in values]


def _answer(backend, start, end, equals):
    window = backend.query_columns(start, end, dict(equals))
    return (
        list(window.timestamps),
        {name: _canonical(window.column(name)) for name in (*DECLARED, "u", "k")},
        [repr(record) for record in window.records],
    )


def _build_every_list(backend):
    for column in DECLARED:
        backend.query_columns(None, None, {column: 1})


class TestBuildingAnIndexChangesNoAnswer:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(index_rows, min_size=1, max_size=6), max_size=8),
        st.sampled_from(BUILD_POINTS),
        st.integers(0, 8),
        st.sampled_from([None, 0, 3]),
        st.lists(st.tuples(window, window, index_filters), min_size=1, max_size=6),
    )
    def test_query_columns_and_distinct_equal_a_table_that_never_indexes(
        self, batches, build_point, mid, tail_limit, reads
    ):
        indexed = MemoryBackend(DECLARED, tail_limit=tail_limit)
        plain = MemoryBackend((), tail_limit=tail_limit)
        if build_point == "before the first row":
            _build_every_list(indexed)
        arrival = 0
        for number, batch in enumerate(batches):
            if build_point == "mid-stream" and number == mid:
                _build_every_list(indexed)
            records = []
            # odd batches come sorted: in order, they extend the run at once
            if number % 2:
                batch = sorted(batch, key=lambda row: row[0])
            for stamp, *values in batch:
                fields = dict(zip(("mixed", "i", "f", "u"), values), k=arrival)
                records.append(
                    Record(
                        stamp + 3 * number,  # batches overlap: some rows late
                        {c: v for c, v in fields.items() if v is not ABSENT},
                    )
                )
                arrival += 1
            for backend in (indexed, plain):
                backend.insert_many(records)
        for start, end, equals in reads:
            assert _answer(indexed, start, end, equals) == _answer(
                plain, start, end, equals
            ), equals
        for column in (*DECLARED, "u", "k"):
            assert _canonical(indexed.distinct(column)) == _canonical(
                plain.distinct(column)
            ), column


# ---------------------------------------------------------------------------
# the cdn table: both CDN retrievals filter ``kind=``, so that is its index

cdn_rows = st.lists(
    st.tuples(
        st.integers(0, 12).map(float),
        st.sampled_from(["srv1", "srv2"]),
        st.sampled_from(["load", "load", "policy_change", ABSENT]),
        st.sampled_from([0.5, 0.9, 0.95]),
    ),
    max_size=40,
)


class TestTheCdnTableAnswersAsTheNaiveScan:
    @settings(max_examples=100, deadline=None)
    @given(cdn_rows, bound, bound, st.sampled_from([None, 0, 3]))
    def test_kind_reads_and_both_retrievals(self, drawn, start, end, tail_limit):
        store = DataStore(backend=memory_backend(tail_limit=tail_limit))
        table = store.table("cdn")
        assert "kind" in table.indexed_columns
        records = []
        for stamp, server, kind, value in drawn:
            fields = {"server": server}
            fields.update({"value": value} if kind == "load" else {"detail": f"map-{value}"})
            if kind is not ABSENT:
                fields["kind"] = kind
            records.append(Record(stamp, fields))
            table.insert(Record(stamp, dict(fields)))
        for kind in ("load", "policy_change", "ghost", None):
            assert table.query(start, end, kind=kind) == filter_every_row(
                records, start, end, {"kind": kind}
            )
        context = RetrievalContext(
            store, -1.0 if start is None else start, 13.0 if end is None else end,
            {"cdn_load_threshold": 0.9},
        )
        issues = [
            (start, location.parts[0])
            for start, _end, location, _info in _retrieve_server_issue(context)
        ]
        assert issues == [
            (r.timestamp, r["server"])
            for r in scan_cdn_rows(context, "load")
            if r["value"] >= 0.9
        ]
        changes = [
            (start, location.parts[0], dict(info)["detail"])
            for start, _end, location, info in _retrieve_policy_change(context)
        ]
        assert changes == [
            (r.timestamp, r["server"], r["detail"])
            for r in scan_cdn_rows(context, "policy_change")
        ]


# ---------------------------------------------------------------------------
# one-read flap retrieval == two-read flap retrieval

FLAPS = {
    names.INTERFACE_FLAP: syslog_codes.CODE_LINK,
    names.LINEPROTO_FLAP: syslog_codes.CODE_LINEPROTO,
}

syslog_rows = st.lists(
    st.tuples(
        st.integers(0, 300).map(lambda k: 10.0 * k),  # 0 .. 3000 s
        st.sampled_from(["r1", "r2"]),
        st.sampled_from(["e0", "e1", ABSENT]),
        st.sampled_from([*FLAPS.values(), "SYS-5-RESTART"]),
        st.sampled_from(["up", "down", "down", "up", "administratively down", ABSENT]),
    ),
    max_size=60,
)


def _syslog_store(drawn, tail_limit):
    store = DataStore(backend=memory_backend(tail_limit=tail_limit))
    columns = ("router", "interface", "code", "state")
    for stamp, *values in drawn:
        store.insert(
            "syslog", stamp,
            **{c: v for c, v in zip(columns, values) if v is not ABSENT},
        )
    return store


def _run(definition, store, start, end, flap_window):
    notes = []
    context = RetrievalContext(
        ObservedStore(store, [FootprintObserver(notes.append)]),
        start, end, {"flap_window": flap_window},
    )
    raw = list(definition.retrieval(context))  # pairing order
    return raw, list(definition.retrieve(context)), notes


class TestOneReadFlapEqualsTwoRead:
    @pytest.mark.parametrize("flap_name", sorted(FLAPS))
    @settings(max_examples=120, deadline=None)
    @given(
        syslog_rows,
        st.integers(40, 260).map(lambda k: 10.0 * k),
        st.integers(0, 60).map(lambda k: 10.0 * k),
        st.sampled_from([60.0, 600.0]),
        st.sampled_from([None, 0]),
    )
    def test_instances_order_and_footprint_notes(
        self, flap_name, drawn, start, length, flap_window, tail_limit
    ):
        # windows sit inside the rows' span and flap_window reaches past
        # both edges, so downs before ``start`` pair with ups inside and
        # downs inside with ups after ``end``
        store = _syslog_store(drawn, tail_limit)
        one_read = build_common_events().get(flap_name)
        two_read = one_read.redefined(
            two_read_flap_retrieval(FLAPS[flap_name])
        )
        end = start + length
        raw, kept, notes = _run(one_read, store, start, end, flap_window)
        raw2, kept2, notes2 = _run(two_read, store, start, end, flap_window)
        assert raw == raw2
        assert kept == kept2
        wide = ("syslog", start - flap_window, end + flap_window)
        # ``retrieval`` and ``retrieve`` each ran once: one read apiece,
        # where the oracle reads the same window twice
        assert notes == [wide] * 2
        assert notes2 == [wide] * 4

    def test_a_flap_straddling_each_edge_is_kept(self):
        store = DataStore()
        code = syslog_codes.CODE_LINK
        for stamp, state in ((90.0, "down"), (110.0, "up"), (190.0, "down"), (210.0, "up")):
            store.insert(
                "syslog", stamp, router="r1", interface="e0", code=code, state=state
            )
        definition = build_common_events().get(names.INTERFACE_FLAP)
        _raw, kept, _notes = _run(definition, store, 100.0, 200.0, 600.0)
        assert [(i.start, i.end) for i in kept] == [(90.0, 110.0), (190.0, 210.0)]
