"""Rows at rest are columns ≡ rows at rest were rows.

``MemoryBackend`` keeps no object per stored row — timestamps plus one
column per field name, ``MISSING`` where a row lacks a field, packed
into a typed array where the values allow — and builds a ``Record``
only while someone reads one.  Nothing a reader can see may
tell: over generated heterogeneous rows (missing fields, explicit
``None``, ``NaN``, a field first seen mid-run, equal timestamps,
out-of-order arrivals across the tail threshold and a merge, batches of
one, rows handed over as records or as a parser's batch)

* the columnar backend ≡ the naive filter of ``read_path.py`` ≡
  ``SqliteBackend``, for ``query_columns`` (timestamps, records and
  every ``column()``; windowed and unbounded) / ``distinct`` /
  ``time_span`` / ``len``;
* a materialized ``Record`` ≡ the frozen-dataclass row of ``record.py``
  (eq, hash, ``fields``, ``repr``, pickle bytes both directions) and
  carries the stored value objects themselves (a packed value is boxed
  anew on each read, but the ints drawn here are small, one object each
  in CPython, and a NaN is never packed);
* every value reads back as the type it was stored as — ``1``, ``1.0``
  and ``True`` apart, ``-0.0`` with its sign, NaN as NaN, big ints,
  strings, ``None`` and absent fields — through in-order batches, the
  tail, merges, a column unpacked mid-run and posting-list reads;
* a captured ``ColumnarSlice`` — first read only after later appends, a
  new field and a merge — is the window as it was when captured;
* a window that pending late rows fall into, captured before the tail
  merges and read again after, is the window it was, and a slice is
  ``zero_copy`` (with the run's ``generation``) exactly when it is a
  stretch of the run: no filter and no late row pending inside;
* ``parse_fields`` (the value tuple against the declared columns) ≡ the
  dict-building parsers of ``feed_fields.py``, for every source.

Mutation-checked (hypothesis shrinking off, one run each); every one
of these fails the tests named, here and in ``test_read_path.py``:

* no back-fill of a field first seen mid-run (``Columns.extend``
  starts the new list empty) — ``test_reads_equal_…``,
  ``test_a_field_first_seen_mid_run_…``, ``test_a_materialized_record_…``,
  ``test_a_captured_slice_…``, and four tests of ``test_read_path.py``;
* no padding of a known field a batch lacks — the same eight;
* ``MISSING`` leaks into a built row (``Columns.records`` keeps it) —
  the first four and ``test_parse_fields_…[cdn, snmp, syslog, tacacs]``;
* ``MISSING`` leaks out of ``column()`` (the sparse set not consulted)
  — ``test_reads_equal_…``, ``test_a_field_first_seen_mid_run_…``,
  ``test_a_captured_slice_…``;
* a batch's own ``sparse`` ignored by ``Columns.extend`` —
  ``test_reads_equal_…``, ``test_a_captured_slice_…``;
* ``MISSING`` leaks into ``parse_fields`` (``fields_of`` keeps it, so
  ``"interface" in fields`` for a row without one) —
  ``test_parse_fields_…[cdn, snmp, syslog, tacacs]``, ``test_reads_equal_…``;
* one column forgotten in the merge (``rows.merge``) —
  ``test_reads_equal_…``, ``test_a_materialized_record_…``,
  ``test_a_captured_slice_…``, ``test_a_pending_window_…``;
* the merge puts tail rows before run rows of the same stamp
  (``rows.merge`` places them with ``bisect_left``) — the same four;
* a late row inserted before the equal stamps already in the tail
  (``bisect_left`` in ``insert_many``) — the same four;
* the tail bisect's upper bound dropped (``_select`` takes every tail
  row from the window's start on) — ``test_reads_equal_…``,
  ``test_a_pending_window_…``;
* a window merged with pending late rows handed out as ``zero_copy``
  under the run's generation — ``test_a_pending_window_…``;
* a ``None`` filter served from a posting list (``_select`` drops the
  ``value is not None`` guard) — ``test_a_field_first_seen_mid_run_…``,
  ``test_a_captured_slice_…`` (and ``test_read_path.py``, which was
  written for it);
* the merge edits the run's lists in place instead of replacing them —
  ``test_a_captured_slice_…``;
* an ``array('d')`` that takes ints: chosen for all-int or mixed
  int / float values (``_typecode``) — ``test_a_value_reads_back_…``,
  ``test_reads_equal_…``, ``test_a_materialized_record_…``,
  ``test_a_captured_slice_…``, ``test_a_pending_window_…``; or a packed
  float column extended by an all-int batch (``_insert``) —
  ``test_a_value_reads_back_…`` alone.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector import DataCollector
from repro.collector.backends import MemoryBackend, SqliteBackend
from repro.collector.rows import MISSING, RowBatch
from repro.collector.sources import (
    render_bgpmon_row,
    render_cdn_row,
    render_layer1_row,
    render_netflow_row,
    render_perfmon_row,
    render_snmp_row,
    render_syslog_line,
    render_tacacs_row,
    render_workflow_row,
)
from repro.collector.store import Record

from . import feed_fields
from .read_path import filter_every_row, rows_of
from .record import Record as RefRecord
from .record import as_store_record

INDEXED = ("router", "code")
NAMES = ("router", "code", "state", "n", "extra")
NAN = float("nan")

# a column is absent from a row when its value is drawn as ABSENT; an
# explicit None is stored (and reads like an absent column)
ABSENT = object()


def _value(*values):
    return st.sampled_from([*values, None, ABSENT])


rows = st.lists(
    st.tuples(
        st.integers(0, 12).map(float),  # few distinct stamps: duplicates, late rows
        _value("r1", "r2"),  # router: indexed
        _value("X", "Y", 7),  # code: indexed, one non-string value
        _value("up", "down"),  # state: not indexed
        _value(0, 1, NAN),  # n: not indexed, numeric, unequal to itself
        st.sampled_from([ABSENT, ABSENT, ABSENT, "late", ("a", 1)]),  # extra: rare
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
        "n": st.sampled_from([0, 1, 2, NAN, None]),
        "extra": st.sampled_from(["late", None]),
        "never": st.sampled_from(["x", None]),
    },
)

#: how the arriving rows are cut into writes: batch sizes, cycled
cuts = st.lists(st.integers(1, 9), min_size=1, max_size=5)
#: None leaves late rows pending (the tail merges past 256 rows), 0
#: merges on each late row, 3 now and then
tail_limits = st.sampled_from([None, 0, 3])


def _records(drawn):
    return [
        Record(
            stamp, {c: v for c, v in zip(NAMES, values) if v is not ABSENT}
        )
        for stamp, *values in drawn
    ]


def _as_batch(records):
    """The records as a parser would hand them over: value tuples
    against every name, ``MISSING`` where a row lacks one."""
    return RowBatch(
        NAMES,
        [record.timestamp for record in records],
        [tuple(record._by_name.get(name, MISSING) for name in NAMES) for record in records],
        NAMES,
    )


def _write(backend, records, cut_sizes, batches=False):
    at = turn = 0
    while at < len(records):
        size = cut_sizes[turn % len(cut_sizes)]
        piece = records[at:at + size]
        if size == 1 and not batches:
            backend.insert_many((piece[0],))
        else:
            backend.insert_many(_as_batch(piece) if batches else piece)
        at, turn = at + size, turn + 1


def canon(record):
    """A row in comparable form: NaN is unequal to itself, and a NaN
    that went through SQLite is no longer the object that went in."""
    return record.timestamp, repr(record.fields)


def canons(records):
    return [canon(record) for record in records]


def plain(values):
    return [repr(value) for value in values]


class TestEveryReadEqualsTheRowStore:
    @settings(max_examples=200, deadline=None)
    @given(rows, cuts, tail_limits, st.booleans(), bound, bound, filters)
    def test_reads_equal_the_naive_filter_and_sqlite(
        self, drawn, cut_sizes, tail_limit, batches, start, end, equals
    ):
        records = _records(drawn)
        expected = filter_every_row(records, start, end, equals)
        everything = filter_every_row(records, None, None, {})
        memory = MemoryBackend(INDEXED, tail_limit=tail_limit)
        sqlite = SqliteBackend("t", INDEXED)
        try:
            for backend in (memory, sqlite):
                _write(backend, records, cut_sizes, batches)
                label = backend.name
                assert len(backend) == len(records), label
                assert canons(rows_of(backend, start, end, dict(equals))) == canons(expected), label
                assert canons(rows_of(backend)) == canons(everything), label
                columns = backend.query_columns(start, end, dict(equals))
                assert len(columns) == len(expected), label
                assert list(columns.timestamps) == [r.timestamp for r in expected], label
                for name in (*NAMES, "never"):
                    assert plain(columns.column(name)) == plain(
                        [r.get(name) for r in expected]
                    ), (label, name)
                # rows are built last, after the columns were read
                assert canons(columns.records) == canons(expected), label
                span = backend.time_span()
                stamps = [r.timestamp for r in records]
                assert span == ((min(stamps), max(stamps)) if stamps else None), label
                for name in ("router", "code", "state", "extra", "never"):
                    values = {r.get(name) for r in records} - {None}
                    assert backend.distinct(name) == sorted(values, key=repr), (label, name)
        finally:
            sqlite.close()

    def test_a_field_first_seen_mid_run_is_absent_before_it(self):
        backend = MemoryBackend(("router",))
        backend.insert_many([Record.make(1.0, router="r1"), Record.make(2.0, router="r2")])
        backend.insert_many([Record.make(3.0, router="r1", vrf="blue")])
        backend.insert_many([Record.make(4.0, state="up")])
        first, second, third, fourth = rows_of(backend)
        assert first.fields == (("router", "r1"),) and first.get("vrf") is None
        assert third.fields == (("router", "r1"), ("vrf", "blue"))
        assert fourth.fields == (("state", "up"),)
        with pytest.raises(KeyError):
            second["vrf"]
        columns = backend.query_columns(None, None, {})
        assert columns.zero_copy
        assert list(columns.column("vrf")) == [None, None, "blue", None]
        assert list(columns.column("router")) == ["r1", "r2", "r1", None]
        assert rows_of(backend, None, None, {"vrf": None}) == [first, second, fourth]
        assert rows_of(backend, None, None, {"router": None}) == [fourth]

    def test_a_dense_column_of_a_clean_run_is_a_window_not_a_copy(self):
        backend = MemoryBackend(("link",))
        stamps = [float(i) for i in range(6)]
        backend.insert_many(
            RowBatch(("link", "weight"), stamps, [(f"l{i % 2}", 10 + i) for i in range(6)])
        )
        columns = backend.query_columns(2.0, 4.0, {})
        weights = columns.column("weight")
        assert columns.zero_copy and (columns.position, len(columns)) == (2, 3)
        assert weights._data is backend._run.fields["weight"]
        assert list(weights) == [12, 13, 14] and weights[-1] == 14
        # a filtered window gathers at the posting positions
        odd = backend.query_columns(None, None, {"link": "l1"})
        assert not odd.zero_copy and odd.generation is None
        assert odd.column("weight") == [11, 13, 15]
        assert list(odd.timestamps) == [1.0, 3.0, 5.0]


class TestAMaterializedRecord:
    @settings(max_examples=100, deadline=None)
    @given(rows, cuts, tail_limits)
    def test_a_materialized_record_is_the_dataclass_row(
        self, drawn, cut_sizes, tail_limit
    ):
        records = _records(drawn)
        backend = MemoryBackend(INDEXED, tail_limit=tail_limit)
        _write(backend, records, cut_sizes)
        stored = filter_every_row(records, None, None, {})
        read = rows_of(backend)
        assert len(read) == len(stored)
        for row, original in zip(read, stored):
            ref = RefRecord.make(original.timestamp, **original._by_name)
            assert type(row) is Record and row is not original
            assert row == original and hash(row) == hash(ref)
            assert row.fields == ref.fields and repr(row) == repr(ref)
            assert row.as_dict() == ref.as_dict()
            # the stored objects themselves, not copies
            for name, value in original._by_name.items():
                assert row[name] is value
            for name in NAMES:
                assert row.get(name, MISSING) is original.get(name, MISSING)
            written = pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)
            with as_store_record():
                assert pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL) == written
                there = pickle.loads(written)
            assert type(there) is RefRecord and canon(there) == canon(ref)
            assert canon(pickle.loads(written)) == canon(row)

    def test_two_reads_give_equal_rows_not_the_same_row(self):
        payload = {"incident_id": "i1", "nested": [1, 2]}
        backend = MemoryBackend(("incident_id",))
        backend.insert_many((Record.make(5.0, incident_id="i1", payload=payload),))
        (first,), (second,) = rows_of(backend), rows_of(backend, None, None, {"incident_id": "i1"})
        assert first == second and first is not second
        assert first["payload"] is payload and second["payload"] is payload


# ---------------------------------------------------------------------------
# every value comes back as the type it went in as

#: a value of every kind a column may be handed; ``1 == 1.0 == True``,
#: so only the type tells some of them apart
ANY_VALUE = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, NAN, 2**63, -(2**63) - 1, 2**63 - 1, "1", None, ABSENT]),
)
#: what keeps a column packable: all ints, or all floats that are not NaN
PURE = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": st.floats(allow_nan=False),
    "any": ANY_VALUE,
}
TYPED = ("a", "b", "c")


@st.composite
def typed_rows(draw):
    """Rows whose columns each hold one kind of value — ints, floats or
    anything — but for at most one intruder of any kind at a drawn row:
    the batch it arrives in unpacks the column.  Stamps are ints or
    floats, few and repeated, so rows arrive late."""
    size = draw(st.integers(0, 30))
    stamps = st.integers(0, 12) | st.integers(0, 12).map(float)
    drawn = [draw(st.lists(stamps, min_size=size, max_size=size))]
    for _ in TYPED:
        kind = PURE[draw(st.sampled_from(sorted(PURE)))]
        values = draw(st.lists(kind, min_size=size, max_size=size))
        intruder = draw(st.one_of(st.none(), st.integers(0, max(0, size - 1))))
        if intruder is not None and size:
            values[intruder] = draw(ANY_VALUE)
        drawn.append(values)
    return [
        Record(stamp, {name: v for name, v in zip(TYPED, values) if v is not ABSENT})
        for stamp, *values in zip(*drawn)
    ]


def same_value(got, want):
    """``got`` is ``want`` as a reader may see it: the same type, an
    equal value, the same sign of a zero, and NaN for NaN."""
    if type(got) is not type(want):
        return False
    if type(want) is float:
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return got == want


class TestEveryValueKeepsItsType:
    @settings(max_examples=200, deadline=None)
    @given(typed_rows(), cuts, tail_limits, st.booleans(), bound, bound)
    def test_a_value_reads_back_as_the_type_it_was_stored_as(
        self, records, cut_sizes, tail_limit, batches, start, end
    ):
        backend = MemoryBackend(("a",), tail_limit=tail_limit)
        at = turn = 0  # extend, the tail, merges; by record or by batch
        while at < len(records):
            piece = records[at:at + cut_sizes[turn % len(cut_sizes)]]
            backend.insert_many(RowBatch.of(piece) if batches else piece)
            at, turn = at + len(piece), turn + 1
        reads = [((start, end, {}), filter_every_row(records, start, end, {}))]
        for value in {r.get("a") for r in records} - {None}:
            if value == value:  # one read served by a posting list
                equals = {"a": value}
                want = filter_every_row(records, None, None, equals)
                reads.append(((None, None, equals), want))
        for (lo, hi, equals), want in reads:
            window = backend.query_columns(lo, hi, equals)
            assert len(window) == len(want)
            for got, expected in zip(window.timestamps, want):
                assert same_value(got, expected.timestamp), (got, expected)
            for name in TYPED:
                for got, expected in zip(window.column(name), want):
                    assert same_value(got, expected.get(name)), (name, got, expected)
            for row, expected in zip(window.records, want):
                assert same_value(row.timestamp, expected.timestamp)
                assert row._by_name.keys() == expected._by_name.keys()
                for name, value in expected._by_name.items():
                    assert same_value(row[name], value), (name, row, expected)

    def test_a_window_with_only_pending_rows_reads_them_in_their_own_type(self):
        # the run's stretch of the window is empty and packed 'd'; the
        # tail's is packed 'q' (value) and a list (an int stamp)
        for stamp in (5.0, 5):
            backend = MemoryBackend(("a",), tail_limit=10)
            backend.insert_many([Record.make(10.0, value=1.5)])
            backend.insert_many([Record.make(stamp, value=2)])
            window = backend.query_columns(None, 6.0, {})
            assert [type(t) for t in window.timestamps] == [type(stamp)]
            assert [type(v) for v in window.column("value")] == [int]
            assert [row["value"] for row in window.records] == [2]


class TestACapturedSlice:
    @settings(max_examples=100, deadline=None)
    @given(rows, rows, cuts, st.sampled_from([0, 3]), filters)
    def test_a_captured_slice_stays_the_window_it_was(
        self, before, after, cut_sizes, tail_limit, equals
    ):
        early = _records(before)
        backend = MemoryBackend(INDEXED, tail_limit=tail_limit)
        _write(backend, early, cut_sizes)
        unfiltered = backend.query_columns(None, None, {})
        filtered = backend.query_columns(2.0, 11.0, dict(equals))
        was = canons(filter_every_row(early, None, None, {}))
        was_filtered = filter_every_row(early, 2.0, 11.0, equals)
        # later: more rows, a field nobody had seen, late rows, merges
        merges = backend.stats()["merges"]
        _write(backend, _records(after), cut_sizes)
        backend.insert_many(
            [Record.make(13.0, novel="x"), Record.make(0.0, novel="y", router="r1")]
        )
        if tail_limit == 0 and early:
            assert backend.stats()["merges"] > merges
        # first read of either slice happens only now
        assert len(unfiltered) == len(was)
        assert canons(unfiltered.records) == was
        assert all(value is None for value in unfiltered.column("novel"))
        assert list(filtered.timestamps) == [r.timestamp for r in was_filtered]
        for name in NAMES:
            assert plain(filtered.column(name)) == plain(
                [r.get(name) for r in was_filtered]
            ), name
        assert canons(filtered.records) == canons(was_filtered)


class TestAPendingWindow:
    @settings(max_examples=150, deadline=None)
    @given(rows, cuts, st.booleans(), bound, bound, filters)
    def test_a_pending_window_is_the_window_before_and_after_the_merge(
        self, drawn, cut_sizes, batches, start, end, equals
    ):
        early = _records(drawn)
        # late rows stay pending: 40 rows never reach the limit
        backend = MemoryBackend(INDEXED, tail_limit=60)
        _write(backend, early, cut_sizes, batches)
        pending, newest = [], None
        for record in early:
            if newest is not None and record.timestamp < newest:
                pending.append(record)
            else:
                newest = record.timestamp
        assert backend.stats()["tail"] == len(pending)
        in_window = filter_every_row(pending, start, end, {})
        window = backend.query_columns(start, end, dict(equals))
        whole = backend.query_columns(start, end, {})
        generation = backend._generation
        expected = filter_every_row(early, start, end, equals)
        unfiltered = filter_every_row(early, start, end, {})

        def same(got, want):
            assert list(got.timestamps) == [r.timestamp for r in want]
            for name in (*NAMES, "never"):
                assert plain(got.column(name)) == plain([r.get(name) for r in want]), name

        # zero-copy only for a stretch of the run: no filter, and no
        # late row pending inside the window
        assert whole.zero_copy == (not in_window)
        assert window.zero_copy == (not equals and not in_window)
        for got in (window, whole):
            if got.zero_copy:
                assert got.generation is generation
                stretch = list(backend._run.ts[got.position:got.position + len(got)])
                assert list(got.timestamps) == stretch
            else:
                assert (got.generation, got.position) == (None, 0)
        same(window, expected)
        # the tail merges: a row past everything, then late rows
        if early:
            backend.insert_many((Record.make(20.0, router="r1"),))
            while backend.stats()["merges"] == 0:
                backend.insert_many((Record.make(-1.0, router="r2", state="up"),))
            assert backend._generation is not generation
        # read again, and the rows built only now
        for got, want in ((window, expected), (whole, unfiltered)):
            same(got, want)
            assert canons(got.records) == canons(want)


# ---------------------------------------------------------------------------
# parse() against the declared columns == the dict-building parsers

T0 = 1262692800.0
stamps = st.integers(0, 10**6).map(lambda k: T0 + k / 4)
routers = st.sampled_from(["nyc-per1", "CHI-PER2.ispnet.example", " sea-cr1 ", "lo0-alias", ""])
interfaces = st.sampled_from(["Serial1/0", "se0/1", "GigabitEthernet0/2", "", "???"])
numbers = st.sampled_from(
    ["72", "83.5", "0", "-1", "1e3", "nan", "inf", "", "x", " 7 ", "1_0", "1_0.5", "１２"]
)
words = st.sampled_from(["", "op17", "map-v42", "ticket-123", "a|b"])
SYSLOG_BODIES = [
    ("LINK-3-UPDOWN", "Interface Serial0/0, changed state to down"),
    ("LINEPROTO-5-UPDOWN", "Line protocol on Interface Serial1/0, changed state to up"),
    ("BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Up"),
    ("BGP-5-ADJCHANGE", "neighbor 10.0.0.1 vpn vrf red Down Interface flap"),
    ("BGP-5-NOTIFICATION", "sent to neighbor 10.0.0.9 4/0 (hold time expired) 0 bytes"),
    ("BGP-5-NOTIFICATION", "received from neighbor 10.0.0.9 6/4 (administrative reset)"),
    ("PIM-5-NBRCHG", "neighbor 10.1.1.2 DOWN on interface Serial2/0 (vrf blue)"),
    ("PIM-5-NBRCHG", "neighbor 10.1.1.2 UP on interface Serial2/0"),
    ("PIM-5-NBRCHG", "neighbor gone"),
    ("SYS-3-CPUHOG", "CPU utilization for five seconds: 97%"),
    ("SYS-3-CPUHOG", "CPU utilization for five seconds: １２%"),
    ("OIR-3-CRASH", "Card in slot 3 crashed"),
    ("OIR-3-CRASH", "Card in slot ３ crashed"),
    ("SYS-5-RESTART", "System restarted"),
    ("LINK-3-UPDOWN", "Interface ???, changed state to down"),
]

LINES = {
    "syslog": st.builds(
        lambda t, router, zone, body: render_syslog_line(t, router.strip() or "r", zone, *body),
        stamps, routers, st.sampled_from(["UTC", "US/Eastern"]), st.sampled_from(SYSLOG_BODIES),
    ),
    "snmp": st.builds(
        lambda t, router, metric, interface, value: render_snmp_row(
            t, router, metric, interface, value
        ),
        stamps, routers,
        st.sampled_from(["cpu_util_5min", "link_util", "corrupted_packets", "nope"]),
        interfaces, numbers,
    ),
    "ospfmon": st.builds(
        lambda t, link, weight: f"{t}|{link}|{weight}",
        st.one_of(stamps, numbers), st.sampled_from(["a--b:10.0.0.0", "c--d", ""]), numbers,
    ),
    "bgpmon": st.builds(
        lambda t, kind, prefix, egress, pref, aslen: render_bgpmon_row(
            t, kind, prefix, egress, "10.0.0.1", pref, aslen
        ),
        st.one_of(stamps, numbers), st.sampled_from(["A", "W", "X"]),
        st.sampled_from(["198.51.100.0/24", "nonsense"]), routers, numbers, numbers,
    ),
    "tacacs": st.builds(
        render_tacacs_row, stamps, routers, words,
        st.sampled_from([
            "conf t; interface Serial1/0; ip ospf cost 65535", "show ip route",
            "interface ???", "a|b|c",
        ]),
    ),
    "layer1": st.builds(
        render_layer1_row, st.one_of(stamps, numbers), st.sampled_from([" ADM-1 ", "adm-2"]),
        st.sampled_from(["sonet_restoration", "mesh_restoration_fast", "nope"]), words,
    ),
    "perfmon": st.builds(
        render_perfmon_row, st.one_of(stamps, numbers), routers, routers,
        st.sampled_from(["delay_ms", "rtt_ms", "loss_pct", "nope"]), numbers,
    ),
    "netflow": st.builds(
        render_netflow_row, st.one_of(stamps, numbers), words,
        st.just("198.51.100.9"), routers,
    ),
    "workflow": st.builds(render_workflow_row, stamps, routers, words, words),
    "cdn": st.builds(
        render_cdn_row, st.one_of(stamps, numbers), st.sampled_from([" DC-NYC-1 ", "dc-2"]),
        st.sampled_from(["load", "policy_change", "what"]), st.one_of(numbers, words),
    ),
}

# not a line any renderer writes, but one a device might
LINES = {
    source: st.one_of(lines, st.sampled_from(["", "garbage", "1|2", "|" * 9]))
    for source, lines in LINES.items()
}


def _outcome(parse, line):
    try:
        timestamp, fields = parse(line)
    except ValueError:
        return None
    return timestamp, sorted(fields.items(), key=lambda item: item[0])


@pytest.mark.parametrize("source", sorted(feed_fields.PARSERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_fields_equal_the_dict_parsers(source, data):
    line = data.draw(LINES[source])
    collector = DataCollector()
    collector.registry.register_device("nyc-per1", "US/Eastern")
    collector.registry.register_alias("lo0-alias", "nyc-per1")
    parser = collector.parsers[source]
    got = _outcome(parser.parse_fields, line)
    want = _outcome(lambda text: feed_fields.PARSERS[source](collector.registry, text), line)
    if got != want:
        # the one divergence: Python literal syntax in a numeric field
        assert got is None and ("_" in line or not line.isascii()), (line, got, want)
        return
    if got is None:
        return  # rejected by both
    timestamp, values = parser.parse(line)
    assert len(values) == len(parser.columns)
    assert {c for c, v in zip(parser.columns, values) if v is MISSING} <= parser.optional
    assert not math.isnan(timestamp)
    # and stored through the one write path it reads back as that row
    collector.ingest(source, [line])
    (row,) = collector.store.table(source).scan()
    assert (row.timestamp, sorted(row._by_name.items())) == got
